// Analytic pre-pruning property suites (DESIGN.md §13): the closed-form
// model (eqs. 3-5) ranks the V grid, only the contending region around
// its argmin is simulated, and the selection must still be bit-identical
// to simulating everything.  Checked on the three paper spaces, on
// randomized instances, and — negatively — with a slack too tight to
// contain the true optimum.
#include <gtest/gtest.h>

#include <cstring>

#include "tilo/core/analytic.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using core::Problem;
using core::SweepOptions;
using core::SweepSelection;
using core::SweepVerdict;
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

void expect_pruned_matches_exhaustive(const Problem& problem,
                                      const std::vector<i64>& heights,
                                      const SweepOptions& opts) {
  SweepOptions pruned_opts = opts;
  pruned_opts.exhaustive = false;
  const SweepSelection pruned =
      core::sweep_select(problem, heights, pruned_opts);
  SweepOptions ex_opts = opts;
  ex_opts.exhaustive = true;
  const SweepSelection full = core::sweep_select(problem, heights, ex_opts);

  EXPECT_TRUE(verdict_bits_equal(pruned.best_overlap, full.best_overlap))
      << "overlap verdict diverged: pruned V=" << pruned.best_overlap.V
      << " exhaustive V=" << full.best_overlap.V;
  EXPECT_TRUE(
      verdict_bits_equal(pruned.best_nonoverlap, full.best_nonoverlap))
      << "non-overlap verdict diverged: pruned V="
      << pruned.best_nonoverlap.V
      << " exhaustive V=" << full.best_nonoverlap.V;
  // Pruning must actually prune (the grids here are wide enough that the
  // contending region is a strict subset) and every simulated point must
  // carry the simulator's bytes, not the model's.
  EXPECT_LT(pruned.simulated_runs, full.simulated_runs);
  EXPECT_EQ(full.simulated_runs, full.total_runs);
  for (std::size_t i = 0; i < heights.size(); ++i) {
    if (!pruned.simulated_overlap[i]) continue;
    EXPECT_EQ(pruned.points[i].t_overlap, full.points[i].t_overlap)
        << "simulated overlap time differs at V=" << heights[i];
    EXPECT_EQ(pruned.points[i].g, full.points[i].g);
  }
}

}  // namespace

class PruneSelectPaperSpaces : public ::testing::TestWithParam<int> {};

/// The certified default: on each paper experiment space the pruned
/// selection is bit-identical to the exhaustive one at kDefaultPruneSlack.
TEST_P(PruneSelectPaperSpaces, DefaultSlackMatchesExhaustive) {
  const Problem problem = paper_space(GetParam());
  expect_pruned_matches_exhaustive(problem, grid_for(problem), {});
}

/// verify_pruned_selection re-runs exhaustively and certifies the match;
/// at the default slack it must return (not throw) on every paper space.
TEST_P(PruneSelectPaperSpaces, VerifierCertifiesDefaultSlack) {
  const Problem problem = paper_space(GetParam());
  const SweepSelection sel =
      core::verify_pruned_selection(problem, grid_for(problem));
  EXPECT_GT(sel.best_overlap.V, 0);
  EXPECT_GT(sel.best_nonoverlap.V, 0);
  EXPECT_LT(sel.simulated_runs, sel.total_runs);
}

/// The analytic argmin must itself survive pruning: the model can never
/// rule out its own minimizer, whatever the slack.
TEST_P(PruneSelectPaperSpaces, AnalyticArgminAlwaysContends) {
  const Problem problem = paper_space(GetParam());
  const std::vector<i64> heights = grid_for(problem);
  SweepOptions opts;
  opts.prune_slack = 1.0;  // tightest legal region
  const SweepSelection sel = core::sweep_select(problem, heights, opts);
  bool overlap_argmin_simulated = false;
  bool nonoverlap_argmin_simulated = false;
  for (std::size_t i = 0; i < heights.size(); ++i) {
    if (heights[i] == sel.V_analytic_overlap)
      overlap_argmin_simulated = sel.simulated_overlap[i];
    if (heights[i] == sel.V_analytic_nonoverlap)
      nonoverlap_argmin_simulated = sel.simulated_nonoverlap[i];
  }
  EXPECT_TRUE(overlap_argmin_simulated);
  EXPECT_TRUE(nonoverlap_argmin_simulated);
}

INSTANTIATE_TEST_SUITE_P(AllSpaces, PruneSelectPaperSpaces,
                         ::testing::Values(0, 1, 2));

/// The negative property: slack 1.0 keeps only the model's own argmin
/// neighborhood, which on space (i) excludes the simulated optimum
/// (V=227 vs the analytic argmin 181) — the verifier must detect the
/// divergence and throw instead of silently returning the wrong tile.
TEST(PruneSelectTest, VerifierDetectsOverTightSlack) {
  const Problem problem = core::paper_problem_i();
  SweepOptions opts;
  opts.prune_slack = 1.0;
  EXPECT_THROW(
      core::verify_pruned_selection(problem, grid_for(problem), opts),
      util::Error);
}

/// Slack below 1 can never certify anything (the region could even lose
/// the analytic argmin): rejected up front.
TEST(PruneSelectTest, SlackBelowOneIsRejected) {
  const Problem problem = core::paper_problem_iii();
  SweepOptions opts;
  opts.prune_slack = 0.5;
  EXPECT_THROW(core::sweep_select(problem, grid_for(problem), opts),
               util::Error);
}

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

/// Randomized instances: the contending region certified by the verifier
/// (generous slack — these nests are far from the calibrated paper
/// machines) still yields bit-identical selections.
TEST(PruneSelectTest, RandomInstancesMatchExhaustive) {
  util::Rng rng(20260808);
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
    const Problem probe{nest, machine, Vec(nest.dims(), 1)};
    Vec procs(nest.dims(), 1);
    for (std::size_t d = 0; d < nest.dims(); ++d)
      if (d != probe.mapped_dim()) procs[d] = rng.uniform(1, 4);
    const Problem problem{nest, machine, procs};
    if (problem.max_tile_height() < 8) continue;

    // Legal heights only: every tile side must exceed the largest
    // dependence component in its dimension.
    i64 lo = 4;
    for (std::size_t d = 0; d < nest.dims(); ++d)
      lo = std::max<i64>(lo, nest.deps().max_component(d) + 1);
    const std::vector<i64> heights =
        core::height_grid(lo, problem.max_tile_height(), 1.4);
    if (heights.size() < 4) continue;
    SweepOptions opts;
    opts.prune_slack = 2.0;
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_NO_THROW(
        core::verify_pruned_selection(problem, heights, opts));
    ++ran;
  }
  EXPECT_GE(ran, 4) << "random generator skipped too many instances";
}

/// Threaded pruned sweeps (suite name matches the TSan preset filter):
/// the worker pool, the thread-local arenas and the pruning mask must
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
  }
}
