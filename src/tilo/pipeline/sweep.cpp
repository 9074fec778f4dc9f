// core::sweep_select / sweep_tile_height / autotune_tile_height,
// implemented on the staged pipeline: every point goes through the one
// measure routine, which runs Tiling → Scheduling → Lowering → Backend
// through the stage functions (with their verifiers), so every simulated
// point has passed the same invariant checks a full compile does.  Lives in
// the pipeline library because core cannot depend on it.
#include "tilo/core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "tilo/core/analytic.hpp"
#include "tilo/core/parallel.hpp"
#include "tilo/machine/optimize.hpp"
#include "tilo/pipeline/stages.hpp"
#include "tilo/util/error.hpp"

namespace tilo::core {

namespace {

/// Wall-clock now in ns (host spans only; the simulation itself never
/// reads the host clock).
obs::Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The ranking curves the pruning logic consults.  Ideal models keep the
/// closed-form AnalyticModel (its bytes are the historical contract); a
/// non-ideal model ranks with the model-aware analytic completion instead,
/// so pruning decisions track the machine that will actually be simulated.
struct RankingCurves {
  const Problem& problem;
  const AnalyticModel model;
  const bool use_model;

  explicit RankingCurves(const Problem& p)
      : problem(p), model(derive_analytic_model(p)),
        use_model(!p.model->ideal()) {}

  double overlap(i64 V) const {
    return use_model ? analytic_completion(problem, *problem.model, V,
                                           ScheduleKind::kOverlap)
                     : model.total_overlap(static_cast<double>(V));
  }
  double nonoverlap(i64 V) const {
    return use_model ? analytic_completion(problem, *problem.model, V,
                                           ScheduleKind::kNonOverlap)
                     : model.total_nonoverlap(static_cast<double>(V));
  }
  double cpu_bound(i64 V) const {
    const double v = static_cast<double>(V);
    return use_model
               ? analytic_completion_cpu_bound(problem, *problem.model, V)
               : (model.c0_overlap + model.k / v) * model.cpu_side(v);
  }
};

/// The sweep's private analysis: the problem with its cost model resolved
/// once, so no point re-resolves it.
pipeline::AnalysisArtifact analysis_for(const Problem& problem) {
  return pipeline::AnalysisArtifact{
      Problem{problem.nest, problem.machine, problem.procs,
              problem.cost_model()},
      problem.mapped_dim(), false};
}

/// One sweep sample: tile at V (for g), then schedule, lower and simulate
/// each enabled kind, reusing the worker's workspace (both runs share one
/// tiled geometry, so the second reuses the comm table the first built).
/// When both kinds run, the non-overlap plan is the overlap plan with the
/// kind flipped (geometry is kind-independent), re-verified before use.  A
/// kind that is off carries the ranking curves' predictions, or zeros
/// without curves.
SweepPoint measure_point(const pipeline::AnalysisArtifact& analysis, i64 V,
                         bool do_overlap, bool do_nonoverlap,
                         const RankingCurves* curves, const SweepOptions& opts,
                         exec::RunWorkspace& workspace) {
  SweepPoint pt;
  pt.V = V;
  const Problem& problem = analysis.problem;

  const pipeline::TilingArtifact tiling =
      pipeline::run_tiling(analysis, V, ScheduleKind::kOverlap);
  pt.g = tiling.tiling.tile_volume();

  pipeline::PlanArtifact over;
  if (do_overlap) {
    const pipeline::ScheduleArtifact sched =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kOverlap);
    over = pipeline::run_lowering(analysis, tiling, sched, nullptr,
                                  opts.comm.level);
    pt.predicted_overlap = over.predicted_seconds;
    pt.predicted_cpu_bound =
        predict_overlap_cpu_bound(*over.plan, *problem.model);
  } else if (curves) {
    pt.predicted_overlap = curves->overlap(V);
    pt.predicted_cpu_bound = curves->cpu_bound(V);
  }

  pipeline::PlanArtifact nonover;
  if (do_nonoverlap) {
    const pipeline::ScheduleArtifact sched =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kNonOverlap);
    if (do_overlap) {
      auto flipped = std::make_shared<exec::TilePlan>(*over.plan);
      flipped->kind = ScheduleKind::kNonOverlap;
      pipeline::verify_lowered_plan(pipeline::Stage::kLowering, *flipped,
                                    tiling.tiling, analysis.mapped_dim,
                                    problem.procs, sched.length);
      const double predicted = predict_completion(*flipped, *problem.model);
      nonover = pipeline::PlanArtifact{std::move(flipped), predicted};
    } else {
      nonover = pipeline::run_lowering(analysis, tiling, sched, nullptr,
                                       opts.comm.level);
    }
    pt.predicted_nonoverlap = nonover.predicted_seconds;
  } else if (curves) {
    pt.predicted_nonoverlap = curves->nonoverlap(V);
  }

  pipeline::BackendConfig config;
  config.comm = opts.comm;
  config.sink = opts.sink;
  config.workspace = &workspace;
  const auto simulate = [&](const pipeline::PlanArtifact& plan) {
    const pipeline::BackendArtifact b =
        pipeline::run_backend(problem.nest, analysis, plan, config);
    pt.events += b.run->events;
    return b.run->seconds;
  };
  if (do_overlap) pt.t_overlap = simulate(over);
  if (do_nonoverlap) pt.t_nonoverlap = simulate(nonover);
  return pt;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_recommendation(const SweepVerdict& a, const SweepVerdict& b) {
  return a.V == b.V && a.g == b.g && bits_equal(a.t, b.t) &&
         bits_equal(a.predicted, b.predicted);
}

/// The executing thread's persistent run workspace.  Keyed by thread (not
/// by worker id), it is race-free even when two sweeps overlap, and its
/// comm table / rank buffers survive across sweep and autotune calls —
/// repeated sweeps over the same geometry skip the table build entirely.
/// Results are unaffected by reuse: RunWorkspace rebuilds on any geometry
/// mismatch, and outputs are index-keyed.
exec::RunWorkspace& arena_workspace() {
  thread_local exec::RunWorkspace workspace;
  return workspace;
}

}  // namespace

std::vector<SweepPoint> sweep_tile_height(const Problem& problem,
                                          const std::vector<i64>& heights,
                                          const SweepOptions& opts) {
  SweepOptions exhaustive = opts;
  exhaustive.exhaustive = true;
  return sweep_select(problem, heights, exhaustive).points;
}

SweepSelection sweep_select(const Problem& problem,
                            const std::vector<i64>& heights,
                            const SweepOptions& opts) {
  TILO_REQUIRE(opts.exhaustive || opts.prune_slack >= 1.0,
               "prune_slack must be >= 1, got ", opts.prune_slack);
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  const std::size_t n = heights.size();

  SweepSelection sel;
  sel.points.assign(n, {});
  sel.simulated_overlap.assign(n, 1);
  sel.simulated_nonoverlap.assign(n, 1);
  sel.total_runs = 2 * static_cast<i64>(n);
  if (n == 0) return sel;

  // Analytic ranking (pruned mode only — the exhaustive escape hatch ranks
  // nothing, so it runs on nests without an analytic model): predicted
  // completion per kind, its minimum, and the contending region
  // { V : T_model(V) <= slack * min }.
  std::optional<RankingCurves> curves;
  if (!opts.exhaustive) {
    curves.emplace(analysis.problem);
    std::vector<double> over(n), non(n);
    std::size_t arg_over = 0, arg_non = 0;
    for (std::size_t i = 0; i < n; ++i) {
      over[i] = curves->overlap(heights[i]);
      non[i] = curves->nonoverlap(heights[i]);
      if (over[i] < over[arg_over]) arg_over = i;
      if (non[i] < non[arg_non]) arg_non = i;
    }
    sel.V_analytic_overlap = heights[arg_over];
    sel.V_analytic_nonoverlap = heights[arg_non];
    for (std::size_t i = 0; i < n; ++i) {
      sel.simulated_overlap[i] = over[i] <= opts.prune_slack * over[arg_over];
      sel.simulated_nonoverlap[i] = non[i] <= opts.prune_slack * non[arg_non];
    }
  }

  // Simulate the contenders; pruned points only pay a tiling (for g) and
  // carry the model's predictions.  points[i] is keyed by index, so the
  // thread interleaving cannot reorder or alter results.
  parallel_for_index(threads, n, [&](int worker, std::size_t i) {
    const bool do_over = sel.simulated_overlap[i] != 0;
    const bool do_non = sel.simulated_nonoverlap[i] != 0;
    const obs::Time t0 = opts.sink ? wall_ns() : 0;
    sel.points[i] =
        measure_point(analysis, heights[i], do_over, do_non,
                      curves ? &*curves : nullptr, opts, arena_workspace());
    if (opts.sink) {
      opts.sink->host_span("sweep V=" + std::to_string(heights[i]), t0,
                           wall_ns(), worker);
      opts.sink->counter((do_over || do_non) ? "sweep.points"
                                             : "sweep.pruned_points",
                         1.0);
    }
  });

  // Recommendations: strict-< argmin over the simulated subset, ties
  // resolved by input order — the same rule on both the pruned and the
  // exhaustive path.
  bool seen_over = false, seen_non = false;
  for (std::size_t i = 0; i < n; ++i) {
    const SweepPoint& pt = sel.points[i];
    if (sel.simulated_overlap[i] &&
        (!seen_over || pt.t_overlap < sel.best_overlap.t)) {
      sel.best_overlap =
          SweepVerdict{pt.V, pt.g, pt.t_overlap, pt.predicted_overlap};
      seen_over = true;
    }
    if (sel.simulated_nonoverlap[i] &&
        (!seen_non || pt.t_nonoverlap < sel.best_nonoverlap.t)) {
      sel.best_nonoverlap = SweepVerdict{pt.V, pt.g, pt.t_nonoverlap,
                                           pt.predicted_nonoverlap};
      seen_non = true;
    }
    sel.simulated_runs +=
        sel.simulated_overlap[i] + sel.simulated_nonoverlap[i];
  }
  return sel;
}

SweepSelection verify_pruned_selection(const Problem& problem,
                                       const std::vector<i64>& heights,
                                       const SweepOptions& opts) {
  SweepOptions pruned_opts = opts;
  pruned_opts.exhaustive = false;
  const SweepSelection pruned = sweep_select(problem, heights, pruned_opts);
  SweepOptions exhaustive_opts = opts;
  exhaustive_opts.exhaustive = true;
  const SweepSelection full = sweep_select(problem, heights, exhaustive_opts);
  const auto require_same = [&](const SweepVerdict& p, const SweepVerdict& f,
                                const char* kind) {
    TILO_REQUIRE(same_recommendation(p, f),
                 "pruned sweep diverged from exhaustive (", kind,
                 "): pruned V=", p.V, " t=", p.t, " vs exhaustive V=", f.V,
                 " t=", f.t, " — prune_slack ", opts.prune_slack,
                 " leaves the true optimum outside the contending region");
  };
  require_same(pruned.best_overlap, full.best_overlap, "overlap");
  require_same(pruned.best_nonoverlap, full.best_nonoverlap, "non-overlap");
  return pruned;
}

std::vector<i64> height_grid(i64 lo, i64 hi, double ratio) {
  return mach::geometric_grid(lo, hi, ratio);
}

Autotune autotune_tile_height(const Problem& problem, ScheduleKind kind,
                              i64 lo, i64 hi, const SweepOptions& opts) {
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  const bool overlap = kind == ScheduleKind::kOverlap;

  // Batch evaluation with memoization: each probe V is simulated at most
  // once, a whole batch fans out over the workers, and because the
  // simulation is deterministic the memo returns exactly what a fresh
  // serial evaluation would.
  std::map<i64, double> memo;
  const auto evaluate = [&](const std::vector<i64>& candidates) {
    std::vector<i64> todo;
    for (i64 v : candidates)
      if (memo.find(v) == memo.end()) todo.push_back(v);
    std::sort(todo.begin(), todo.end());
    todo.erase(std::unique(todo.begin(), todo.end()), todo.end());
    std::vector<double> values(todo.size());
    parallel_for_index(
        threads, todo.size(), [&](int worker, std::size_t i) {
          const obs::Time t0 = opts.sink ? wall_ns() : 0;
          const SweepPoint pt =
              measure_point(analysis, todo[i], overlap, !overlap, nullptr,
                            opts, arena_workspace());
          values[i] = overlap ? pt.t_overlap : pt.t_nonoverlap;
          if (opts.sink) {
            opts.sink->host_span("probe V=" + std::to_string(todo[i]), t0,
                                 wall_ns(), worker);
            opts.sink->counter("autotune.probes", 1.0);
          }
        });
    for (std::size_t i = 0; i < todo.size(); ++i) memo[todo[i]] = values[i];
    std::vector<double> out;
    out.reserve(candidates.size());
    for (i64 v : candidates) out.push_back(memo.at(v));
    return out;
  };
  const mach::IntMinimum best = mach::geometric_sweep(evaluate, lo, hi);
  return Autotune{best.x, best.value};
}

}  // namespace tilo::core
