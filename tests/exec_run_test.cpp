// Integration tests for the executors: functional correctness of both the
// blocking (non-overlapping) and nonblocking (overlapping) programs against
// the sequential reference, message accounting, determinism, and timing
// sanity (overlap >= utilization argument).
#include <gtest/gtest.h>

#include <string>

#include "tilo/core/problem.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/trace/timeline.hpp"

using namespace tilo;
using exec::RunOptions;
using exec::RunResult;
using exec::TilePlan;
using lat::Box;
using lat::Vec;
using loop::DependenceSet;
using loop::LoopNest;
using sched::ScheduleKind;
using tile::RectTiling;
using util::i64;

namespace {

mach::MachineParams fast_params() {
  // Small constant costs keep the event count low in functional tests.
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.01e-6;
  p.bytes_per_element = 8;  // we ship doubles
  p.wire_latency = 2e-6;
  p.fill_mpi_buffer = mach::AffineCost{5e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{5e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> fast_model() {
  return std::make_shared<mach::IdealOverlapModel>(fast_params());
}

RunOptions functional_options() {
  RunOptions opts;
  opts.functional = true;
  return opts;
}

/// Every RunResult field of `got` equals `want`'s, field values included.
void expect_same_result(const RunResult& got, const RunResult& want,
                        const std::string& label) {
  EXPECT_EQ(got.seconds, want.seconds) << label;
  EXPECT_EQ(got.completion, want.completion) << label;
  EXPECT_EQ(got.messages, want.messages) << label;
  EXPECT_EQ(got.bytes, want.bytes) << label;
  EXPECT_EQ(got.peak_inflight_bytes, want.peak_inflight_bytes) << label;
  EXPECT_EQ(got.halo_bytes, want.halo_bytes) << label;
  EXPECT_EQ(got.events, want.events) << label;
  EXPECT_EQ(got.alap_lower_bound, want.alap_lower_bound) << label;
  EXPECT_EQ(got.traffic, want.traffic) << label;
  ASSERT_EQ(got.field.has_value(), want.field.has_value()) << label;
  if (got.field) {
    EXPECT_EQ(got.field->domain, want.field->domain) << label;
    EXPECT_EQ(got.field->values, want.field->values) << label;
  }
}

}  // namespace

TEST(ExecFunctionalTest, Stencil3DBothSchedulesMatchSequential) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan =
        exec::make_plan(nest, RectTiling(Vec{4, 4, 6}), kind);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(ExecFunctionalTest, Example1DiagonalDepsMatchSequential) {
  // The paper's Example 1 kernel (includes the corner dependence (1,1)),
  // scaled to 100 x 10, tiled 10 x 2, mapped along dim 0 with 5 processors.
  const LoopNest nest = loop::example1_nest(100);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan = exec::make_plan_explicit(
        nest, RectTiling(Vec{10, 2}), kind, 0, Vec{1, 5});
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0);
  }
}

TEST(ExecFunctionalTest, PartialBoundaryTiles) {
  // Extents deliberately not multiples of the tile sides.
  const LoopNest nest = loop::stencil3d_nest(7, 9, 23);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan =
        exec::make_plan(nest, RectTiling(Vec{3, 4, 5}), kind);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0);
  }
}

TEST(ExecFunctionalTest, BlockDistributionMultipleColumnsPerRank) {
  // 4x4 tile columns on a 2x2 processor grid: 4 columns per rank.
  const LoopNest nest = loop::stencil3d_nest(16, 16, 64);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan = exec::make_plan_with_procs(
        nest, RectTiling(Vec{4, 4, 8}), kind, Vec{2, 2, 1});
    EXPECT_EQ(plan.mapping.num_ranks(), 4);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0);
  }
}

TEST(ExecFunctionalTest, SingleRankDegenerateCase) {
  const LoopNest nest = loop::stencil3d_nest(4, 4, 8);
  const TilePlan plan = exec::make_plan_with_procs(
      nest, RectTiling(Vec{4, 4, 2}), ScheduleKind::kOverlap, Vec{1, 1, 1});
  const RunResult r = exec::run_plan(nest, plan, fast_model(),
                                     functional_options());
  EXPECT_EQ(r.messages, 0);  // everything is rank-local
  EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0);
}

TEST(ExecFunctionalTest, ThickDependencesAcrossRanks) {
  const LoopNest nest("thick", Box::from_extents(Vec{12, 18}),
                      DependenceSet({Vec{2, 0}, Vec{0, 3}, Vec{1, 1}}),
                      std::make_shared<loop::SumKernel>(0.2));
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan = exec::make_plan_explicit(
        nest, RectTiling(Vec{4, 6}), kind, 1, Vec{3, 1});
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, fast_params()), 0.0);
  }
}

TEST(ExecFunctionalTest, MoreThan65536TilesMatchSequential) {
  // 257 x 257 tiles of 2 x 2: functional runs look tile geometry up in the
  // same boundary-class table as timed runs, with no tile-count cap.
  const LoopNest nest("many-tiles", Box::from_extents(Vec{514, 514}),
                      DependenceSet({Vec{1, 0}, Vec{0, 1}, Vec{1, 1}}),
                      std::make_shared<loop::SumKernel>(0.3));
  const loop::DenseField ref = loop::run_sequential(nest);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan = exec::make_plan_explicit(
        nest, RectTiling(Vec{2, 2}), kind, 1, Vec{4, 1});
    ASSERT_GT(plan.space.num_tiles(), i64{1} << 16);
    const RunResult r = exec::run_plan(nest, plan, fast_model(),
                                       functional_options());
    ASSERT_TRUE(r.field.has_value());
    EXPECT_GT(r.messages, 0);
    EXPECT_EQ(loop::max_abs_diff(*r.field, ref), 0.0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(ExecTimedTest, MessageCountMatchesGeometry) {
  // 2x2x4 tiles, one column per rank (4 ranks): cross-rank messages flow
  // along tile deps (1,0,0) and (0,1,0) for every k step.
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  const RunResult r = exec::run_plan(nest, plan, fast_model());
  // Directions (1,0,0): tiles with t0 = 0 (2 x 4 k-steps... per geometry:
  // source tiles t with t+e in space and different rank:
  // e=(1,0,0): 1*2*4 = 8; e=(0,1,0): 2*1*4 = 8.  Total 16.
  EXPECT_EQ(r.messages, 16);
  // Each face message carries 4*4 points of 8 bytes.
  EXPECT_EQ(r.bytes, 16 * 16 * 8);
}

TEST(ExecTimedTest, DeterministicAcrossRuns) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 32);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  const RunResult a = exec::run_plan(nest, plan, fast_model());
  const RunResult b = exec::run_plan(nest, plan, fast_model());
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.events, b.events);
}

TEST(ExecTimedTest, OverlapBeatsNonOverlapOnCommHeavyProblem) {
  // The paper's headline claim, on a scaled-down experiment.
  const LoopNest nest = loop::stencil3d_nest(8, 8, 256);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  const TilePlan over = exec::make_plan(nest, RectTiling(Vec{4, 4, 16}),
                                        ScheduleKind::kOverlap);
  const TilePlan non = exec::make_plan(nest, RectTiling(Vec{4, 4, 16}),
                                       ScheduleKind::kNonOverlap);
  const double t_over = exec::run_plan(nest, over, model).seconds;
  const double t_non = exec::run_plan(nest, non, model).seconds;
  EXPECT_LT(t_over, t_non);
}

TEST(ExecTimedTest, FunctionalAndTimedRunsHaveIdenticalTiming) {
  // Moving real payloads must not change the simulated clock.
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan =
        exec::make_plan(nest, RectTiling(Vec{4, 4, 4}), kind);
    const RunResult timed = exec::run_plan(nest, plan, fast_model());
    const RunResult func = exec::run_plan(nest, plan, fast_model(),
                                          functional_options());
    EXPECT_EQ(timed.completion, func.completion);
    EXPECT_EQ(timed.messages, func.messages);
  }
}

TEST(ExecTimedTest, TimelineShowsPipelinedComputePhases) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  trace::Timeline tl;
  RunOptions opts;
  opts.sink = &tl;
  const RunResult r = exec::run_plan(nest, plan, fast_model(), opts);
  EXPECT_EQ(tl.makespan(), r.completion);
  // Every rank computes the same total tile volume.
  const sim::Time c0 = tl.phase_time(0, trace::Phase::kCompute);
  for (int n = 1; n < 4; ++n)
    EXPECT_EQ(tl.phase_time(n, trace::Phase::kCompute), c0);
  EXPECT_GT(tl.mean_compute_utilization(), 0.0);
}

TEST(ExecTimedTest, DuplexLevelNotSlowerThanSharedDma) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 128);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  RunOptions dma;
  RunOptions duplex;
  duplex.comm.level = mach::OverlapLevel::kDuplexDma;
  EXPECT_LE(exec::run_plan(nest, plan, model, duplex).seconds,
            exec::run_plan(nest, plan, model, dma).seconds);
}

TEST(ExecTimedTest, SharedBusSlowerThanSwitch) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 128);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                        ScheduleKind::kOverlap);
  mach::MachineParams p = mach::MachineParams::paper_cluster();
  p.t_t = 0.8e-6;  // make wire time dominant so the bus visibly contends
  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  RunOptions switched;
  RunOptions bus;
  bus.comm.network = msg::Network::kSharedBus;
  EXPECT_LE(exec::run_plan(nest, plan, model, switched).seconds,
            exec::run_plan(nest, plan, model, bus).seconds);
}

TEST(ExecTimedTest, FunctionalModeAlsoRecordsTimeline) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  trace::Timeline tl;
  RunOptions opts;
  opts.functional = true;
  opts.sink = &tl;
  const RunResult r = exec::run_plan(nest, plan, fast_model(), opts);
  EXPECT_EQ(tl.makespan(), r.completion);
  EXPECT_GT(tl.phase_time(0, trace::Phase::kCompute), 0);
}

TEST(ExecTimedTest, PipelinedTripletStructureMatchesExample2) {
  // Paper Example 2 / Fig. 4b: in the steady state each processor's CPU
  // cycles through fill-send (A1, the k-1 results leaving), compute (A2,
  // tile k) and fill-recv (A3, the k+1 inputs arriving) — sends of a step
  // happen before its compute, receives after.  Verify the recorded CPU
  // phase sequence of an interior rank has exactly that shape.
  // 3x3 processor grid so rank 4 = proc (1, 1) is a true interior rank
  // with both upstream and downstream neighbors.
  const LoopNest nest = loop::stencil3d_nest(12, 12, 128);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                        ScheduleKind::kOverlap);
  trace::Timeline tl;
  RunOptions opts;
  opts.sink = &tl;
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  exec::run_plan(nest, plan, model, opts);

  std::vector<trace::Phase> cpu_seq;
  for (const trace::Interval& iv : tl.intervals()) {
    if (iv.node != 4) continue;
    if (iv.phase == trace::Phase::kCompute ||
        iv.phase == trace::Phase::kFillMpiSend ||
        iv.phase == trace::Phase::kFillMpiRecv)
      cpu_seq.push_back(iv.phase);
  }
  ASSERT_GT(cpu_seq.size(), 20u);
  // Steady state: between two computes there are both the sends of the
  // finished tile and the receives for the tile after next.
  int checked = 0;
  for (std::size_t i = 0; i + 1 < cpu_seq.size(); ++i) {
    if (cpu_seq[i] != trace::Phase::kCompute) continue;
    // Scan forward to the next compute; collect what happens in between.
    bool saw_send = false;
    bool saw_recv = false;
    std::size_t j = i + 1;
    for (; j < cpu_seq.size() && cpu_seq[j] != trace::Phase::kCompute; ++j) {
      saw_send |= cpu_seq[j] == trace::Phase::kFillMpiSend;
      saw_recv |= cpu_seq[j] == trace::Phase::kFillMpiRecv;
    }
    if (j == cpu_seq.size()) break;  // epilogue
    // Skip the pipeline prologue (first couple of steps).
    if (++checked <= 2) continue;
    if (j + 1 < cpu_seq.size()) {
      EXPECT_TRUE(saw_recv) << "no A3 between computes " << i << ".." << j;
      EXPECT_TRUE(saw_send) << "no A1 between computes " << i << ".." << j;
    }
  }
  EXPECT_GT(checked, 5);
}

TEST(ExecWorkspaceTest, ReuseAcrossNestsWithDifferentDependences) {
  // Same domain and tile sides, one extra dependence: the message lists
  // differ, so a workspace reused across the two nests (as the sweep
  // arena and fleet units do) must rebuild its comm table.
  const core::Problem base = core::paper_problem_iii();
  core::Problem extra = base;
  std::vector<Vec> deps = base.nest.deps().vectors();
  deps.push_back(Vec{1, 1, 0});
  extra.nest = LoopNest(base.nest.name(), base.nest.domain(),
                        DependenceSet(deps), base.nest.kernel_ptr());
  for (auto kind : {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const TilePlan plan_base = base.plan(116, kind);
    const TilePlan plan_extra = extra.plan(116, kind);
    ASSERT_EQ(plan_base.space.tiling().sides(),
              plan_extra.space.tiling().sides());
    exec::RunWorkspace ws;
    (void)exec::run_plan(base.nest, plan_base, base.cost_model(), {}, &ws);
    const RunResult reused =
        exec::run_plan(extra.nest, plan_extra, extra.cost_model(), {}, &ws);
    const RunResult fresh =
        exec::run_plan(extra.nest, plan_extra, extra.cost_model());
    EXPECT_EQ(reused.messages, fresh.messages);
    EXPECT_EQ(reused.bytes, fresh.bytes);
    EXPECT_EQ(reused.completion, fresh.completion);
    EXPECT_EQ(reused.events, fresh.events);
  }
}

TEST(ExecWorkspaceTest, ModelSwitchesDoNotReuseMemoizedCosts) {
  // The cluster memoizes stage costs per run; a workspace reused across
  // models must price every run with its own model.  Each run on the
  // shared workspace must equal a fresh-workspace run field for field.
  const core::Problem p = core::paper_problem_iii();
  const mach::MachineParams& m = p.machine;
  // Every link of the 4x4 grid gets its own wire cost and latency.
  mach::HeteroConfig hetero;
  for (int src = 0; src < 16; ++src)
    for (int dst = 0; dst < 16; ++dst)
      if (src != dst)
        hetero.links.push_back({src, dst, (1 + (src + dst) % 3) * m.t_t,
                                (1 + src % 2) * m.wire_latency});
  const std::vector<std::shared_ptr<const mach::Model>> models = {
      std::make_shared<mach::IdealOverlapModel>(m),
      mach::make_model("interference", m),
      std::make_shared<mach::HeteroLinkModel>(m, hetero),
      mach::make_model("offload-dma", m),
      std::make_shared<mach::IdealOverlapModel>(m),
  };
  for (auto kind : {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const TilePlan plan = p.plan(116, kind);
    exec::RunWorkspace ws;
    std::vector<sim::Time> completions;
    for (const auto& model : models) {
      const RunResult reused = exec::run_plan(p.nest, plan, model, {}, &ws);
      const RunResult fresh = exec::run_plan(p.nest, plan, model);
      expect_same_result(reused, fresh, model->kind());
      completions.push_back(reused.completion);
    }
    // The models really price differently, so a stale memo would show.
    EXPECT_NE(completions[1], completions[0]);
    EXPECT_NE(completions[2], completions[0]);
    EXPECT_EQ(completions[4], completions[0]);
  }
}

TEST(ExecWorkspaceTest, FunctionalTimedFunctionalReuseMatchesFreshRuns) {
  // Timed and functional runs share one geometry table: a workspace that
  // alternates between the two modes must equal fresh runs field for
  // field, including the assembled values.
  const LoopNest nest = loop::stencil3d_nest(7, 9, 23);  // partial tiles
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const TilePlan plan =
        exec::make_plan(nest, RectTiling(Vec{3, 4, 5}), kind);
    exec::RunWorkspace ws;
    for (const bool functional : {true, false, true}) {
      RunOptions opts;
      opts.functional = functional;
      const RunResult reused =
          exec::run_plan(nest, plan, fast_model(), opts, &ws);
      const RunResult fresh = exec::run_plan(nest, plan, fast_model(), opts);
      ASSERT_EQ(fresh.field.has_value(), functional);
      expect_same_result(reused, fresh,
                         functional ? "functional" : "timed");
    }
  }
}

TEST(ExecErrorTest, MismatchedDomainRejected) {
  const LoopNest nest_a = loop::stencil3d_nest(8, 8, 16);
  const LoopNest nest_b = loop::stencil3d_nest(8, 8, 32);
  const TilePlan plan = exec::make_plan(nest_a, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  EXPECT_THROW(exec::run_plan(nest_b, plan, fast_model()), util::Error);
}

TEST(ExecErrorTest, FunctionalNeedsKernel) {
  const LoopNest bare("bare", Box::from_extents(Vec{8, 8}),
                      DependenceSet({Vec{1, 0}, Vec{0, 1}}));
  const TilePlan plan = exec::make_plan(bare, RectTiling(Vec{4, 4}),
                                        ScheduleKind::kOverlap);
  EXPECT_THROW(exec::run_plan(bare, plan, fast_model(),
                              functional_options()),
               util::Error);
}

TEST(ExecErrorTest, OverlapPlanRejectsNoneLevel) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 16);
  const TilePlan plan = exec::make_plan(nest, RectTiling(Vec{4, 4, 4}),
                                        ScheduleKind::kOverlap);
  RunOptions opts;
  opts.comm.level = mach::OverlapLevel::kNone;
  EXPECT_THROW(exec::run_plan(nest, plan, fast_model(), opts), util::Error);
}
