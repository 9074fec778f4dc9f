// Bound-driven selection property suites (DESIGN.md §13): every height is
// bounded with exec::completion_lower_bound, only heights the bound cannot
// rule out are simulated, and the selection must still be bit-identical
// to simulating everything.  Checked on the three paper spaces and on
// randomized instances, with the exhaustive sweep as the oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "tilo/core/analytic.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using core::Problem;
using core::SweepOptions;
using core::SweepSelection;
using core::SweepVerdict;
using core::ScheduleKind;
using lat::Vec;
using util::i64;

namespace {

Problem paper_space(int index) {
  switch (index) {
    case 0: return core::paper_problem_i();
    case 1: return core::paper_problem_ii();
    default: return core::paper_problem_iii();
  }
}

std::vector<i64> grid_for(const Problem& problem) {
  return core::height_grid(4, problem.max_tile_height() / 2, 1.3);
}

bool verdict_bits_equal(const SweepVerdict& a, const SweepVerdict& b) {
  return std::memcmp(&a, &b, sizeof(SweepVerdict)) == 0;
}

/// What the selection guarantees for one kind, with each height bounded
/// independently of the sweep: the smallest-bound height is simulated,
/// every simulated height's bound is at most its completion, and every
/// height whose bound is at most the verdict's completion was simulated
/// (so no left-out height can win or tie).
void expect_bound_covers(const Problem& problem,
                         const std::vector<i64>& heights,
                         const SweepSelection& sel, ScheduleKind kind) {
  const bool over = kind == ScheduleKind::kOverlap;
  const std::vector<std::uint8_t>& simulated =
      over ? sel.simulated_overlap : sel.simulated_nonoverlap;
  const SweepVerdict& best = over ? sel.best_overlap : sel.best_nonoverlap;
  exec::RunWorkspace ws;
  std::vector<sim::Time> bounds;
  for (const i64 V : heights)
    bounds.push_back(exec::completion_lower_bound(
        problem.plan(V, kind), problem.cost_model(), &ws));
  EXPECT_TRUE(simulated[static_cast<std::size_t>(
      std::min_element(bounds.begin(), bounds.end()) - bounds.begin())]);
  for (std::size_t i = 0; i < heights.size(); ++i) {
    const double bound = sim::to_seconds(bounds[i]);
    const double t =
        over ? sel.points[i].t_overlap : sel.points[i].t_nonoverlap;
    if (simulated[i]) {
      EXPECT_LE(bound, t) << "V=" << heights[i];
    }
    if (bound <= best.t) {
      EXPECT_TRUE(simulated[i])
          << "V=" << heights[i] << " bound " << bound << " <= verdict t "
          << best.t << " but not simulated";
    }
  }
}

/// The test oracle: runs the bound-driven and the exhaustive sweep and
/// checks the verdicts bit for bit, the bound's guarantees, and that every
/// point carries the fields one measured point of both kinds carries.
/// Returns the bound-driven selection.
SweepSelection verify_selection(const Problem& problem,
                                const std::vector<i64>& heights,
                                SweepOptions opts = {}) {
  opts.exhaustive = false;
  const SweepSelection sel = core::sweep_select(problem, heights, opts);
  opts.exhaustive = true;
  const SweepSelection full = core::sweep_select(problem, heights, opts);

  EXPECT_TRUE(verdict_bits_equal(sel.best_overlap, full.best_overlap))
      << "overlap verdict diverged: bound-driven V=" << sel.best_overlap.V
      << " exhaustive V=" << full.best_overlap.V;
  EXPECT_TRUE(verdict_bits_equal(sel.best_nonoverlap, full.best_nonoverlap))
      << "non-overlap verdict diverged: bound-driven V="
      << sel.best_nonoverlap.V
      << " exhaustive V=" << full.best_nonoverlap.V;
  EXPECT_EQ(full.simulated_runs, full.total_runs);
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap})
    expect_bound_covers(problem, heights, sel, kind);

  i64 runs = 0;
  for (std::size_t i = 0; i < heights.size(); ++i) {
    const core::SweepPoint& a = sel.points[i];
    const core::SweepPoint& b = full.points[i];
    const bool over = sel.simulated_overlap[i];
    const bool non = sel.simulated_nonoverlap[i];
    runs += over + non;
    EXPECT_EQ(a.V, b.V);
    EXPECT_EQ(a.g, b.g);
    EXPECT_EQ(a.predicted_overlap, b.predicted_overlap) << "V=" << a.V;
    EXPECT_EQ(a.predicted_nonoverlap, b.predicted_nonoverlap) << "V=" << a.V;
    EXPECT_EQ(a.predicted_cpu_bound, b.predicted_cpu_bound) << "V=" << a.V;
    EXPECT_EQ(a.t_overlap, over ? b.t_overlap : 0.0) << "V=" << a.V;
    EXPECT_EQ(a.t_nonoverlap, non ? b.t_nonoverlap : 0.0) << "V=" << a.V;
    if (over && non) {
      EXPECT_EQ(a.events, b.events) << "V=" << a.V;
    }
    if (!over && !non) {
      EXPECT_EQ(a.events, 0u) << "V=" << a.V;
    }
  }
  EXPECT_EQ(sel.simulated_runs, runs);
  return sel;
}

}  // namespace

class PruneSelectPaperSpaces : public ::testing::TestWithParam<int> {};

/// On each paper experiment space the bound-driven selection is
/// bit-identical to the exhaustive one, and it does prune.
TEST_P(PruneSelectPaperSpaces, DefaultSlackMatchesExhaustive) {
  const Problem problem = paper_space(GetParam());
  const SweepSelection sel = verify_selection(problem, grid_for(problem));
  EXPECT_LT(sel.simulated_runs, sel.total_runs);
}

/// The oracle certifies the selection on every paper space, and at most
/// the runs the slack pruning it replaced simulated on the paper grid.
TEST_P(PruneSelectPaperSpaces, VerifierCertifiesDefaultSlack) {
  const Problem problem = paper_space(GetParam());
  const std::vector<i64> heights =
      core::height_grid(8, problem.max_tile_height(), 1.25);
  const SweepSelection sel = verify_selection(problem, heights);
  EXPECT_GT(sel.best_overlap.V, 0);
  EXPECT_GT(sel.best_nonoverlap.V, 0);
  const i64 slack_runs[] = {27, 30, 25};
  EXPECT_LT(sel.simulated_runs, slack_runs[GetParam()]);
}

/// Each kind's smallest-bound height is simulated, and so is every height
/// whose bound does not exceed the verdict's completion — ties included,
/// because the lowest V wins them.
TEST_P(PruneSelectPaperSpaces, EveryHeightWithinTheVerdictIsSimulated) {
  const Problem problem = paper_space(GetParam());
  const std::vector<i64> heights = grid_for(problem);
  const SweepSelection sel = core::sweep_select(problem, heights);
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    SCOPED_TRACE(kind == ScheduleKind::kOverlap ? "overlap" : "non-overlap");
    expect_bound_covers(problem, heights, sel, kind);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSpaces, PruneSelectPaperSpaces,
                         ::testing::Values(0, 1, 2));

namespace {

/// Exhaustive mode is the escape hatch: every point simulated, every
/// field bit-identical to the plain sweep.
void expect_exhaustive_matches_plain(const Problem& problem,
                                     const std::vector<i64>& heights,
                                     SweepOptions opts) {
  opts.exhaustive = true;
  const SweepSelection sel = core::sweep_select(problem, heights, opts);
  const std::vector<core::SweepPoint> plain =
      core::sweep_tile_height(problem, heights, opts);
  ASSERT_EQ(sel.points.size(), plain.size());
  EXPECT_EQ(sel.simulated_runs, sel.total_runs);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const core::SweepPoint& a = sel.points[i];
    const core::SweepPoint& b = plain[i];
    EXPECT_EQ(a.V, b.V);
    EXPECT_EQ(a.g, b.g);
    EXPECT_EQ(a.t_overlap, b.t_overlap) << "V=" << a.V;
    EXPECT_EQ(a.t_nonoverlap, b.t_nonoverlap) << "V=" << a.V;
    EXPECT_EQ(a.predicted_overlap, b.predicted_overlap) << "V=" << a.V;
    EXPECT_EQ(a.predicted_nonoverlap, b.predicted_nonoverlap) << "V=" << a.V;
    EXPECT_EQ(a.predicted_cpu_bound, b.predicted_cpu_bound) << "V=" << a.V;
    EXPECT_EQ(a.events, b.events) << "V=" << a.V;
  }
}

}  // namespace

TEST(PruneSelectTest, ExhaustiveModeMatchesPlainSweep) {
  const Problem problem = core::paper_problem_iii();
  expect_exhaustive_matches_plain(problem, grid_for(problem), {});

  Problem taxed = core::paper_problem_iii();
  taxed.model = mach::make_model("interference", taxed.machine);
  expect_exhaustive_matches_plain(taxed, grid_for(taxed), {});

  SweepOptions par;
  par.threads = 2;
  expect_exhaustive_matches_plain(problem, grid_for(problem), par);
}

/// The escape hatch ranks nothing, so it runs on any nest the plain sweep
/// runs on — including one with no dependences, which has no analytic
/// model.
TEST(PruneSelectTest, ExhaustiveModeNeedsNoAnalyticModel) {
  const loop::LoopNest nest("independent",
                            lat::Box(Vec{0, 0, 0}, Vec{15, 15, 1023}),
                            loop::DependenceSet{});
  const Problem problem{nest, mach::MachineParams::paper_cluster(),
                        Vec{4, 4, 1}, nullptr};
  const std::vector<i64> heights = core::height_grid(16, 1024, 2.0);
  EXPECT_THROW(core::derive_analytic_model(problem), util::Error);
  SweepOptions opts;
  opts.exhaustive = true;
  SweepSelection sel;
  ASSERT_NO_THROW(sel = core::sweep_select(problem, heights, opts));
  EXPECT_EQ(sel.simulated_runs, sel.total_runs);
  EXPECT_GT(sel.best_overlap.t, 0.0);
  EXPECT_GT(sel.best_nonoverlap.t, 0.0);
  expect_exhaustive_matches_plain(problem, heights, {});
}

/// Randomized instances, far from the calibrated paper machines and under
/// every registered model: the bound-driven selection, with no slack at
/// all, is bit-identical to the exhaustive one.
TEST(PruneSelectTest, RandomInstancesMatchExhaustive) {
  util::Rng rng(20260808);
  const std::vector<std::string> models = mach::model_names();
  int ran = 0;
  for (int trial = 0; trial < 8; ++trial) {
    loop::RandomNestOptions nopts;
    nopts.dims = 2;
    nopts.num_deps = static_cast<std::size_t>(rng.uniform(1, 3));
    nopts.max_dep_component = 2;
    nopts.min_extent = 64;
    nopts.max_extent = 160;
    nopts.nonneg_deps = true;
    const loop::LoopNest nest = loop::random_nest(rng, nopts);

    mach::MachineParams machine = mach::MachineParams::paper_cluster();
    const Problem probe{nest, machine, Vec(nest.dims(), 1), nullptr};
    Vec procs(nest.dims(), 1);
    for (std::size_t d = 0; d < nest.dims(); ++d)
      if (d != probe.mapped_dim()) procs[d] = rng.uniform(1, 4);
    Problem problem{nest, machine, procs, nullptr};
    if (problem.max_tile_height() < 8) continue;
    problem.model = mach::make_model(
        models[static_cast<std::size_t>(trial) % models.size()], machine);

    // Legal heights only: every tile side must exceed the largest
    // dependence component in its dimension.
    i64 lo = 4;
    for (std::size_t d = 0; d < nest.dims(); ++d)
      lo = std::max<i64>(lo, nest.deps().max_component(d) + 1);
    const std::vector<i64> heights =
        core::height_grid(lo, problem.max_tile_height(), 1.4);
    if (heights.size() < 4) continue;
    SCOPED_TRACE("trial " + std::to_string(trial) + " model " +
                 problem.model->kind());
    verify_selection(problem, heights);
    ++ran;
  }
  EXPECT_GE(ran, 4) << "random generator skipped too many instances";
}

/// Threaded selections (suite name matches the TSan preset filter): the
/// worker pool, the thread-local arenas and the two simulation phases must
/// compose without changing a byte of the selection.
TEST(ParallelPruneTest, ThreadedSelectionIdenticalToSerial) {
  const Problem problem = core::paper_problem_i();
  const std::vector<i64> heights = grid_for(problem);
  const SweepSelection serial = core::sweep_select(problem, heights, {});
  SweepOptions par;
  par.threads = 4;
  const SweepSelection threaded =
      core::sweep_select(problem, heights, par);
  ASSERT_EQ(serial.points.size(), threaded.points.size());
  EXPECT_TRUE(
      verdict_bits_equal(serial.best_overlap, threaded.best_overlap));
  EXPECT_TRUE(verdict_bits_equal(serial.best_nonoverlap,
                                 threaded.best_nonoverlap));
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    EXPECT_EQ(serial.points[i].t_overlap, threaded.points[i].t_overlap);
    EXPECT_EQ(serial.points[i].t_nonoverlap,
              threaded.points[i].t_nonoverlap);
    EXPECT_EQ(serial.simulated_overlap[i], threaded.simulated_overlap[i]);
    EXPECT_EQ(serial.points[i].events, threaded.points[i].events);
  }
}

/// Which heights are simulated is a function of the bounds and of the
/// completions they are compared with, never of the thread interleaving.
TEST(ParallelPruneTest, SimulatedSetIsThreadCountInvariant) {
  for (int space = 0; space < 3; ++space) {
    const Problem problem = paper_space(space);
    const std::vector<i64> heights = grid_for(problem);
    const SweepSelection serial = core::sweep_select(problem, heights, {});
    for (const int threads : {2, 4}) {
      SweepOptions par;
      par.threads = threads;
      const SweepSelection sel = core::sweep_select(problem, heights, par);
      EXPECT_EQ(sel.simulated_overlap, serial.simulated_overlap)
          << "space " << space << " threads " << threads;
      EXPECT_EQ(sel.simulated_nonoverlap, serial.simulated_nonoverlap)
          << "space " << space << " threads " << threads;
      EXPECT_EQ(sel.simulated_runs, serial.simulated_runs);
    }
  }
}
