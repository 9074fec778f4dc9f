// core::sweep_select / sweep_tile_height / autotune_tile_height,
// implemented on the staged pipeline: every point is planned by one routine
// (Tiling → Scheduling → Lowering) and simulated by another (Backend),
// through the stage functions with their verifiers, so every simulated
// point has passed the same invariant checks a full compile does.  Lives in
// the pipeline library because core cannot depend on it.
#include "tilo/core/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <string>

#include "tilo/core/parallel.hpp"
#include "tilo/machine/optimize.hpp"
#include "tilo/pipeline/stages.hpp"

namespace tilo::core {

namespace {

/// Wall-clock now in ns (host spans only; the simulation itself never
/// reads the host clock).
obs::Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The sweep's private analysis: the problem with its cost model resolved
/// once, so no point re-resolves it.
pipeline::AnalysisArtifact analysis_for(const Problem& problem) {
  return pipeline::AnalysisArtifact{
      Problem{problem.nest, problem.machine, problem.procs,
              problem.cost_model()},
      problem.mapped_dim(), false};
}

/// One sweep sample before simulation: V, g and the plan-level
/// predictions, with the plans that produced them.
struct PointPlans {
  SweepPoint pt;
  pipeline::PlanArtifact over, nonover;
};

/// Tiles at V (for g), then schedules and lowers each enabled kind.  When
/// both kinds are on, the non-overlap plan is the overlap plan with the
/// kind flipped (geometry is kind-independent), re-verified before use.  A
/// kind that is off carries zero predictions.
PointPlans plan_point(const pipeline::AnalysisArtifact& analysis, i64 V,
                      bool do_overlap, bool do_nonoverlap,
                      const SweepOptions& opts) {
  PointPlans out;
  SweepPoint& pt = out.pt;
  pt.V = V;
  const Problem& problem = analysis.problem;

  const pipeline::TilingArtifact tiling =
      pipeline::run_tiling(analysis, V, ScheduleKind::kOverlap);
  pt.g = tiling.tiling.tile_volume();

  if (do_overlap) {
    const pipeline::ScheduleArtifact sched =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kOverlap);
    out.over = pipeline::run_lowering(analysis, tiling, sched, nullptr,
                                      opts.comm.level);
    pt.predicted_overlap = out.over.predicted_seconds;
    pt.predicted_cpu_bound =
        predict_overlap_cpu_bound(*out.over.plan, *problem.model);
  }

  if (do_nonoverlap) {
    const pipeline::ScheduleArtifact sched =
        pipeline::run_scheduling(analysis, tiling, ScheduleKind::kNonOverlap);
    if (do_overlap) {
      auto flipped = std::make_shared<exec::TilePlan>(*out.over.plan);
      flipped->kind = ScheduleKind::kNonOverlap;
      pipeline::verify_lowered_plan(pipeline::Stage::kLowering, *flipped,
                                    tiling.tiling, analysis.mapped_dim,
                                    problem.procs, sched.length);
      const double predicted = predict_completion(*flipped, *problem.model);
      out.nonover = pipeline::PlanArtifact{std::move(flipped), predicted};
    } else {
      out.nonover = pipeline::run_lowering(analysis, tiling, sched, nullptr,
                                           opts.comm.level);
    }
    pt.predicted_nonoverlap = out.nonover.predicted_seconds;
  }
  return out;
}

/// Simulates `plan` (timed) on `workspace` into pt.*t and pt.events, and
/// returns its completion in ns.
sim::Time simulate(const pipeline::AnalysisArtifact& analysis,
                   const pipeline::PlanArtifact& plan,
                   const SweepOptions& opts, exec::RunWorkspace& workspace,
                   SweepPoint& pt, double SweepPoint::*t) {
  pipeline::BackendConfig config;
  config.comm = opts.comm;
  config.sink = opts.sink;
  config.workspace = &workspace;
  const pipeline::BackendArtifact b =
      pipeline::run_backend(analysis.problem.nest, analysis, plan, config);
  pt.events += b.run->events;
  pt.*t = b.run->seconds;
  return b.run->completion;
}

/// One sweep sample: plan_point, then simulate each enabled kind on the
/// worker's workspace (both runs share one tiled geometry, so the second
/// reuses the comm table the first built).
SweepPoint measure_point(const pipeline::AnalysisArtifact& analysis, i64 V,
                         bool do_overlap, bool do_nonoverlap,
                         const SweepOptions& opts,
                         exec::RunWorkspace& workspace) {
  PointPlans p = plan_point(analysis, V, do_overlap, do_nonoverlap, opts);
  if (do_overlap)
    simulate(analysis, p.over, opts, workspace, p.pt, &SweepPoint::t_overlap);
  if (do_nonoverlap)
    simulate(analysis, p.nonover, opts, workspace, p.pt,
             &SweepPoint::t_nonoverlap);
  return p.pt;
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

/// Index of the smallest bound, the lowest index on ties.
std::size_t argmin(const std::vector<sim::Time>& bounds) {
  return static_cast<std::size_t>(
      std::min_element(bounds.begin(), bounds.end()) - bounds.begin());
}

/// Bound-driven selection (sweep_select's default mode): bound every
/// height for both kinds, simulate each kind's smallest-bound height, then
/// every other height whose bound does not exceed that kind's best
/// simulated completion.  Every comparison is in integer ns, and the
/// simulated set depends only on bounds and completions, never on the
/// thread interleaving.
void select_by_bound(const pipeline::AnalysisArtifact& analysis,
                     const std::vector<i64>& heights,
                     const SweepOptions& opts, int threads,
                     SweepSelection& sel) {
  const std::size_t n = heights.size();
  const std::shared_ptr<const mach::Model> model =
      analysis.problem.cost_model();
  std::vector<PointPlans> plans(n);
  std::vector<sim::Time> bound_over(n), bound_non(n);
  parallel_for_index(threads, n, [&](int, std::size_t i) {
    plans[i] = plan_point(analysis, heights[i], true, true, opts);
    sel.points[i] = plans[i].pt;
    exec::RunWorkspace& ws = arena_workspace();
    bound_over[i] =
        exec::completion_lower_bound(*plans[i].over.plan, model, &ws);
    bound_non[i] =
        exec::completion_lower_bound(*plans[i].nonover.plan, model, &ws);
  });

  struct Job {
    std::size_t i;
    bool over, non;
  };
  std::vector<sim::Time> ns_over(n, 0), ns_non(n, 0);
  const auto run = [&](const std::vector<Job>& jobs) {
    parallel_for_index(threads, jobs.size(), [&](int worker, std::size_t j) {
      const Job& job = jobs[j];
      const obs::Time t0 = opts.sink ? wall_ns() : 0;
      exec::RunWorkspace& ws = arena_workspace();
      SweepPoint& pt = sel.points[job.i];
      if (job.over) {
        ns_over[job.i] = simulate(analysis, plans[job.i].over, opts, ws, pt,
                                  &SweepPoint::t_overlap);
        sel.simulated_overlap[job.i] = 1;
      }
      if (job.non) {
        ns_non[job.i] = simulate(analysis, plans[job.i].nonover, opts, ws,
                                 pt, &SweepPoint::t_nonoverlap);
        sel.simulated_nonoverlap[job.i] = 1;
      }
      if (opts.sink)
        opts.sink->host_span("sweep V=" + std::to_string(heights[job.i]), t0,
                             wall_ns(), worker);
    });
  };

  const std::size_t first_over = argmin(bound_over);
  const std::size_t first_non = argmin(bound_non);
  if (first_over == first_non)
    run({{first_over, true, true}});
  else
    run({{first_over, true, false}, {first_non, false, true}});

  std::vector<Job> rest;
  for (std::size_t i = 0; i < n; ++i) {
    const bool over =
        !sel.simulated_overlap[i] && bound_over[i] <= ns_over[first_over];
    const bool non =
        !sel.simulated_nonoverlap[i] && bound_non[i] <= ns_non[first_non];
    if (over || non) rest.push_back({i, over, non});
  }
  run(rest);

  if (opts.sink)
    for (std::size_t i = 0; i < n; ++i)
      opts.sink->counter(
          sel.simulated_overlap[i] || sel.simulated_nonoverlap[i]
              ? "sweep.points"
              : "sweep.pruned_points",
          1.0);
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
  const int threads = resolve_threads(opts.threads);
  const pipeline::AnalysisArtifact analysis = analysis_for(problem);
  const std::size_t n = heights.size();

  SweepSelection sel;
  sel.points.assign(n, {});
  sel.simulated_overlap.assign(n, opts.exhaustive);
  sel.simulated_nonoverlap.assign(n, opts.exhaustive);
  sel.total_runs = 2 * static_cast<i64>(n);
  if (n == 0) return sel;

  if (opts.exhaustive) {
    // points[i] is keyed by index, so the thread interleaving cannot
    // reorder or alter results.
    parallel_for_index(threads, n, [&](int worker, std::size_t i) {
      const obs::Time t0 = opts.sink ? wall_ns() : 0;
      sel.points[i] = measure_point(analysis, heights[i], true, true, opts,
                                    arena_workspace());
      if (opts.sink) {
        opts.sink->host_span("sweep V=" + std::to_string(heights[i]), t0,
                             wall_ns(), worker);
        opts.sink->counter("sweep.points", 1.0);
      }
    });
  } else {
    select_by_bound(analysis, heights, opts, threads, sel);
  }

  // Recommendations: strict-< argmin over the simulated subset, ties
  // resolved by input order — the same rule on both the bound-driven and
  // the exhaustive path.
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
          const SweepPoint pt = measure_point(
              analysis, todo[i], overlap, !overlap, opts, arena_workspace());
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
