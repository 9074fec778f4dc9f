// Tests for the analytic optimal-grain extension (core/analytic): the
// affine decomposition must match the step-cost model exactly, and the
// closed-form optimum must land in the flat basin of the simulated curve.
#include <gtest/gtest.h>

#include "tilo/core/analytic.hpp"
#include "tilo/machine/optimize.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using core::AnalyticModel;
using core::Problem;
using lat::Vec;
using util::i64;

namespace {

Problem paper_i() { return core::paper_problem_i(); }

}  // namespace

TEST(AnalyticTest, AffineSidesMatchStepCostModel) {
  // A(V) and B(V) from the analytic model must equal the StepCost sides
  // computed from the exact steady-state geometry, for interior tiles.
  const Problem p = paper_i();
  const AnalyticModel m = core::derive_analytic_model(p);
  for (i64 V : {64, 128, 444, 1000}) {
    const exec::TilePlan plan = p.plan(V, sched::ScheduleKind::kOverlap);
    const mach::StepShape shape = core::steady_step_shape(plan, p.machine);
    const mach::StepCost c = mach::step_cost(p.machine, shape);
    const double vd = static_cast<double>(V);
    EXPECT_NEAR(m.cpu_side(vd), c.cpu_side(), 1e-9 + 1e-6 * c.cpu_side())
        << "V = " << V;
    // The analytic comm side excludes the constant wire latency (it is a
    // pipeline latency, not per-step channel occupancy in the model);
    // compare against the stage sums without it.
    const double comm_no_latency =
        c.comm_side() - 2.0 * p.machine.wire_latency;
    EXPECT_NEAR(m.comm_side(vd), comm_no_latency,
                1e-9 + 1e-6 * comm_no_latency)
        << "V = " << V;
  }
}

TEST(AnalyticTest, ScheduleLengthApproximationIsTight) {
  const Problem p = paper_i();
  const AnalyticModel m = core::derive_analytic_model(p);
  for (i64 V : {64, 444, 2048}) {
    const exec::TilePlan plan = p.plan(V, sched::ScheduleKind::kOverlap);
    const double approx = m.c0_overlap + m.k / static_cast<double>(V);
    EXPECT_NEAR(approx, static_cast<double>(plan.schedule_length()), 1.0)
        << "V = " << V;
  }
}

TEST(AnalyticTest, ClosedFormNearGoldenSectionOfModel) {
  const Problem p = paper_i();
  const AnalyticModel m = core::derive_analytic_model(p);
  const core::AnalyticOptimum opt =
      core::analytic_optimal_height_overlap(p);
  const mach::Minimum gs = mach::golden_section(
      [&](double v) { return m.total_overlap(v); }, 1.0,
      static_cast<double>(p.max_tile_height()), 1e-3);
  EXPECT_NEAR(opt.V_continuous, gs.x, 0.01 * gs.x + 1.0);
  EXPECT_NEAR(opt.t_predicted, gs.value, 0.01 * gs.value);
}

TEST(AnalyticTest, LandsInFlatBasinOfSimulatedCurve) {
  // t_sim(V_analytic) within 5 % of the swept simulated optimum.
  for (const Problem& p : {core::paper_problem_i(),
                           core::paper_problem_iii()}) {
    for (auto kind : {sched::ScheduleKind::kOverlap,
                      sched::ScheduleKind::kNonOverlap}) {
      const core::AnalyticOptimum opt =
          kind == sched::ScheduleKind::kOverlap
              ? core::analytic_optimal_height_overlap(p)
              : core::analytic_optimal_height_nonoverlap(p);
      const double at_analytic =
          exec::run_plan(p.nest, p.plan(opt.V, kind), p.cost_model()).seconds;
      const core::Autotune swept = core::autotune_tile_height(
          p, kind, 16, p.max_tile_height() / 4);
      EXPECT_LE(at_analytic, 1.05 * swept.t_opt)
          << "kind " << static_cast<int>(kind) << " V_analytic " << opt.V
          << " V_swept " << swept.V_opt;
    }
  }
}

TEST(AnalyticTest, CpuBoundFlagMatchesSides) {
  const Problem p = paper_i();
  const core::AnalyticOptimum opt = core::analytic_optimal_height_overlap(p);
  const AnalyticModel m = core::derive_analytic_model(p);
  const double vd = static_cast<double>(opt.V);
  EXPECT_EQ(opt.cpu_bound, m.cpu_side(vd) >= m.comm_side(vd));
}

TEST(AnalyticTest, SingleProcessorHasNoCommunicationTerms) {
  Problem p{loop::stencil3d_nest(8, 8, 128),
            mach::MachineParams::paper_cluster(), Vec{1, 1, 1}};
  const AnalyticModel m = core::derive_analytic_model(p);
  EXPECT_DOUBLE_EQ(m.a0, 0.0);
  EXPECT_DOUBLE_EQ(m.b0, 0.0);
  EXPECT_DOUBLE_EQ(m.b1, 0.0);
  EXPECT_GT(m.a1, 0.0);  // compute term remains
  // With no per-step fixed cost the best V is the whole extent (and the
  // closed form must clamp there rather than divide by zero).
  const core::AnalyticOptimum opt = core::analytic_optimal_height_overlap(p);
  EXPECT_EQ(opt.V, 128);
}

TEST(AnalyticTest, RejectsNegativeDependencies) {
  Problem p{loop::LoopNest("neg", lat::Box::from_extents(Vec{16, 16}),
                           loop::DependenceSet({Vec{1, -1}})),
            mach::MachineParams::paper_cluster(), Vec{1, 4}};
  EXPECT_THROW(core::derive_analytic_model(p), util::Error);
}
