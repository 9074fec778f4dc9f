// Property-based (parameterized) suites: random loop nests, random legal
// tilings, both schedules — every distributed execution must match the
// sequential reference exactly, schedules must respect dependencies, and
// the cost formulas must stay consistent under change of representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "tilo/exec/regions.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/sched/tiled.hpp"
#include "tilo/sched/uetuct.hpp"
#include "tilo/tiling/cost.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::Rat;
using lat::Vec;
using loop::LoopNest;
using sched::ScheduleKind;
using tile::RectTiling;
using tile::TiledSpace;
using util::i64;

namespace {

mach::MachineParams tiny_params() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.02e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 1e-6;
  p.fill_mpi_buffer = mach::AffineCost{3e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{3e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> tiny_model() {
  return std::make_shared<mach::IdealOverlapModel>(tiny_params());
}

/// Draws a random nest plus a random legal tiling and processor grid.
struct RandomCase {
  LoopNest nest;
  Vec sides;
  Vec procs;
  std::size_t mapped;
};

RandomCase draw_case(util::Rng& rng, std::size_t dims) {
  loop::RandomNestOptions opts;
  opts.dims = dims;
  opts.num_deps = static_cast<std::size_t>(rng.uniform(1, 4));
  opts.max_dep_component = 2;
  opts.min_extent = 8;
  opts.max_extent = dims == 2 ? 30 : 18;
  opts.nonneg_deps = true;  // rectangular tiling legality
  LoopNest nest = loop::random_nest(rng, opts);

  Vec sides(dims);
  Vec procs(dims, 1);
  for (std::size_t d = 0; d < dims; ++d) {
    const i64 min_side = nest.deps().max_component(d) + 1;
    sides[d] = rng.uniform(min_side, std::max<i64>(min_side, 6));
  }
  const std::size_t mapped = static_cast<std::size_t>(
      rng.uniform(0, static_cast<i64>(dims) - 1));
  for (std::size_t d = 0; d < dims; ++d) {
    if (d == mapped) continue;
    const i64 columns = util::ceil_div(nest.domain().extent(d), sides[d]);
    procs[d] = rng.uniform(1, std::min<i64>(columns, 3));
  }
  return RandomCase{std::move(nest), std::move(sides), std::move(procs),
                    mapped};
}

}  // namespace

class DistributedEqualsSequential
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(DistributedEqualsSequential, BothSchedules) {
  const auto [seed, dims] = GetParam();
  util::Rng rng(static_cast<std::uint64_t>(seed) * 7919u + 13u);
  const RandomCase c = draw_case(rng, static_cast<std::size_t>(dims));
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const exec::TilePlan plan = exec::make_plan_explicit(
        c.nest, RectTiling(c.sides), kind, c.mapped, c.procs);
    const double err = exec::run_and_validate(c.nest, plan, tiny_params());
    EXPECT_DOUBLE_EQ(err, 0.0)
        << "seed " << seed << " dims " << dims << " sides " << c.sides.str()
        << " procs " << c.procs.str() << " mapped " << c.mapped << " deps "
        << c.nest.deps().str() << " kind " << static_cast<int>(kind);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomNests, DistributedEqualsSequential,
    ::testing::Combine(::testing::Range(0, 12), ::testing::Values(2, 3)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_dims" +
             std::to_string(std::get<1>(info.param));
    });

class SchedulePropertiesTest : public ::testing::TestWithParam<int> {};

TEST_P(SchedulePropertiesTest, OverlapScheduleRespectsCommGap) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729u + 7u);
  const RandomCase c = draw_case(rng, 3);
  const TiledSpace space(c.nest, RectTiling(c.sides));
  const Vec pi = sched::overlap_pi(3, c.mapped);
  for (const Vec& e : space.tile_deps()) {
    bool communicates = false;
    for (std::size_t d = 0; d < 3; ++d)
      if (d != c.mapped && e[d] != 0) communicates = true;
    if (communicates) {
      EXPECT_GE(pi.dot(e), 2) << "tile dep " << e.str();
    } else {
      EXPECT_GE(pi.dot(e), 1);
    }
  }
}

TEST_P(SchedulePropertiesTest, VCommRectMatchesRationalFormula) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 31337u + 3u);
  const RandomCase c = draw_case(rng, 3);
  const RectTiling rt(c.sides);
  const tile::Supernode sn = rt.as_supernode();
  EXPECT_EQ(Rat(tile::v_comm_total_rect(rt, c.nest.deps())),
            tile::v_comm_total(sn, c.nest.deps()));
  for (std::size_t x = 0; x < 3; ++x)
    EXPECT_EQ(Rat(tile::v_comm_mapped_rect(rt, c.nest.deps(), x)),
              tile::v_comm_mapped(sn, c.nest.deps(), x));
}

TEST_P(SchedulePropertiesTest, MessageBytesBoundedByVComm) {
  // Interior tiles ship exactly the eq. (2) volume when all tile columns
  // sit on distinct processors; totals over boundary tiles only shrink.
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 271u + 1u);
  const RandomCase c = draw_case(rng, 3);
  const TiledSpace space(c.nest, RectTiling(c.sides));
  const i64 v_total = tile::v_comm_total_rect(RectTiling(c.sides),
                                              c.nest.deps());
  space.for_each_tile([&](const Vec& t) {
    i64 points = 0;
    for (const exec::TileComm& out : exec::outgoing(space, t))
      points += out.points;
    EXPECT_LE(points, v_total) << "tile " << t.str();
  });
}

TEST_P(SchedulePropertiesTest, ExecutorSendsExactlyTheGeometricMessages) {
  // The timed run must send precisely the messages the region geometry
  // prescribes — no more (duplicate sends) and no fewer (lost halos).
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717u + 5u);
  const RandomCase c = draw_case(rng, 3);
  const exec::TilePlan plan = exec::make_plan_explicit(
      c.nest, RectTiling(c.sides), ScheduleKind::kOverlap, c.mapped,
      c.procs);
  i64 expect_messages = 0;
  i64 expect_bytes = 0;
  plan.space.for_each_tile([&](const Vec& t) {
    for (const exec::TileComm& out : exec::outgoing(plan.space, t)) {
      if (plan.mapping.rank_of_tile(t + out.offset) ==
          plan.mapping.rank_of_tile(t))
        continue;
      ++expect_messages;
      expect_bytes += out.points * tiny_params().bytes_per_element;
    }
  });
  const exec::RunResult r = exec::run_plan(c.nest, plan, tiny_model());
  EXPECT_EQ(r.messages, expect_messages);
  EXPECT_EQ(r.bytes, expect_bytes);
}

TEST_P(SchedulePropertiesTest, CpuBoundPredictionTracksSimulation) {
  // In the CPU-bound regime eq. (4)/(5) should track the simulation for a
  // range of grains on the paper geometry (within border-effect slack).
  const i64 V = 32 << (GetParam() % 4);  // 32, 64, 128, 256
  const core::Problem p{loop::stencil3d_nest(16, 16, 4096),
                        mach::MachineParams::paper_cluster(),
                        Vec{4, 4, 1}, nullptr};
  const exec::TilePlan plan = p.plan(V, ScheduleKind::kOverlap);
  const double predicted = core::predict_completion(plan, *p.cost_model());
  const double simulated = exec::run_plan(p.nest, plan, p.cost_model()).seconds;
  EXPECT_NEAR(simulated, predicted, 0.15 * predicted) << "V = " << V;
}

TEST_P(SchedulePropertiesTest, UetUctClosedFormMatchesDp) {
  util::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537u + 11u);
  Vec u(3);
  for (std::size_t d = 0; d < 3; ++d) u[d] = rng.uniform(0, 6);
  const std::size_t md = static_cast<std::size_t>(rng.uniform(0, 2));
  EXPECT_EQ(sched::uetuct_makespan_dp(u, md), sched::uetuct_makespan(u, md));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulePropertiesTest,
                         ::testing::Range(0, 16));

class TimingMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(TimingMonotonicityTest, OverlapNeverLosesOnStencil) {
  // For the paper's kernel family the overlapping schedule should never be
  // slower than the non-overlapping one at the same grain (it strictly
  // dominates per-step cost; schedule length grows but per-step savings
  // dominate at practical sizes).
  const int v_shift = GetParam();
  const i64 V = i64{4} << v_shift;
  const LoopNest nest = loop::stencil3d_nest(8, 8, 128);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  const auto over = exec::make_plan(nest, RectTiling(Vec{4, 4, V}),
                                    ScheduleKind::kOverlap);
  const auto non = exec::make_plan(nest, RectTiling(Vec{4, 4, V}),
                                   ScheduleKind::kNonOverlap);
  EXPECT_LT(exec::run_plan(nest, over, model).seconds,
            exec::run_plan(nest, non, model).seconds)
      << "V = " << V;
}

INSTANTIATE_TEST_SUITE_P(TileHeights, TimingMonotonicityTest,
                         ::testing::Range(0, 6));  // V = 4 .. 128

// exec::completion_lower_bound never exceeds the simulated completion at
// any height of the paper's V grid, on spaces (i)-(iii), under every
// registered model, for both schedule kinds: the bound-driven sweep's
// verdicts rest on it.
class BoundPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(BoundPropertyTest, NeverAboveTheSimulationOnPaperGrids) {
  const std::vector<std::string> names = mach::model_names();
  const std::size_t param = static_cast<std::size_t>(GetParam());
  const std::string& name = names[param % names.size()];
  const core::Problem spaces[] = {core::paper_problem_i(),
                                  core::paper_problem_ii(),
                                  core::paper_problem_iii()};
  core::Problem problem = spaces[param / names.size()];
  problem.model = mach::make_model(name, problem.machine);
  exec::RunWorkspace ws;
  for (const i64 V :
       core::height_grid(8, problem.max_tile_height(), 1.25)) {
    for (const ScheduleKind kind :
         {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
      const exec::TilePlan plan = problem.plan(V, kind);
      const sim::Time bound =
          exec::completion_lower_bound(plan, problem.model, &ws);
      const sim::Time sim =
          exec::run_plan(problem.nest, plan, problem.model, {}, &ws)
              .completion;
      EXPECT_LE(bound, sim) << name << " V=" << V << " kind "
                            << static_cast<int>(kind);
      EXPECT_GT(bound, 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SpacesTimesModels, BoundPropertyTest,
                         ::testing::Range(0, 21));  // 3 spaces x 7 models
