// Tests for core::recommend_plan — the one-call planner that picks the
// processor-grid factorization, the tile height and the schedule.
#include <gtest/gtest.h>

#include "tilo/core/predict.hpp"
#include "tilo/core/recommend.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using core::Recommendation;
using lat::Vec;
using loop::LoopNest;
using sched::ScheduleKind;
using util::i64;

TEST(RecommendTest, SymmetricCrossSectionGetsSquareGrid) {
  const LoopNest nest = loop::paper_space_i();  // 16 x 16 x 16384
  const Recommendation r = core::recommend_plan(
      nest, mach::MachineParams::paper_cluster(), 16);
  EXPECT_EQ(r.problem.procs, (Vec{4, 4, 1}));  // the paper's own grid
  EXPECT_EQ(r.plan.mapping.num_ranks(), 16);
  EXPECT_GT(r.V, 16);
  EXPECT_GT(r.predicted_seconds, 0.0);
}

TEST(RecommendTest, AnisotropicDomainGetsElongatedGrid) {
  // 64 x 4 x 4096: only 4 rows in dimension 1 — a 4x4 grid would waste
  // processors on tiny tiles; the planner should put more along dim 0.
  const LoopNest nest = loop::stencil3d_nest(64, 4, 4096);
  const Recommendation r = core::recommend_plan(
      nest, mach::MachineParams::paper_cluster(), 16);
  EXPECT_GE(r.problem.procs[0], 8);
  EXPECT_EQ(r.problem.procs[0] * r.problem.procs[1], 16);
}

TEST(RecommendTest, ChoiceMinimizesPredictionOverAllGrids) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 2048);
  const mach::MachineParams m = mach::MachineParams::paper_cluster();
  const Recommendation best = core::recommend_plan(nest, m, 16);
  // Every explicit alternative must predict no better.  (16x1 and 1x16
  // would need unit tile sides, which containment forbids — the planner's
  // caps exclude them, so the comparison set does too.)
  for (i64 p0 : {2, 4, 8}) {
    const i64 p1 = 16 / p0;
    core::Problem alt{nest, m, Vec{p0, p1, 1}, nullptr};
    const auto opt = core::analytic_optimal_height_overlap(alt);
    const double predicted = core::predict_completion(
        alt.plan(opt.V, ScheduleKind::kOverlap), *alt.cost_model());
    EXPECT_LE(best.predicted_seconds, predicted + 1e-12)
        << "grid " << p0 << "x" << p1;
  }
}

TEST(RecommendTest, RecommendedPlanRunsAndValidates) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 256);
  const mach::MachineParams m = mach::MachineParams::paper_cluster();
  const Recommendation r = core::recommend_plan(nest, m, 4);
  const double simulated = exec::run_plan(
      nest, r.plan, std::make_shared<mach::IdealOverlapModel>(m)).seconds;
  EXPECT_NEAR(simulated, r.predicted_seconds, 0.25 * r.predicted_seconds);
  EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, r.plan, m), 0.0);
}

TEST(RecommendTest, NonOverlapKindSupported) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 1024);
  const Recommendation over = core::recommend_plan(
      nest, mach::MachineParams::paper_cluster(), 16,
      ScheduleKind::kOverlap);
  const Recommendation non = core::recommend_plan(
      nest, mach::MachineParams::paper_cluster(), 16,
      ScheduleKind::kNonOverlap);
  EXPECT_LT(over.predicted_seconds, non.predicted_seconds);
}

TEST(RecommendTest, ImpossibleBudgetThrows) {
  // 8 x 8 cross-section cannot host 1024 processors.
  const LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  EXPECT_THROW(core::recommend_plan(
                   nest, mach::MachineParams::paper_cluster(), 1024),
               util::Error);
}

TEST(RecommendTest, NegativeDepsNeedSkewFirst) {
  const LoopNest nest("w", lat::Box::from_extents(Vec{32, 32}),
                      loop::DependenceSet({Vec{1, -1}, Vec{1, 0}}));
  EXPECT_THROW(core::recommend_plan(
                   nest, mach::MachineParams::paper_cluster(), 4),
               util::Error);
}
