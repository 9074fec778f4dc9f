#include "tilo/pipeline/stages.hpp"

#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "tilo/core/plancache.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/sched/tiled.hpp"
#include "tilo/util/error.hpp"
#include "tilo/workload/projective.hpp"
#include "tilo/workload/uniform.hpp"

namespace tilo::pipeline {

using lat::Vec;
using util::i64;

// ---------------------------------------------------------------- verifiers

void verify_supernode_identity(Stage stage, const lat::RatMat& H,
                               const lat::Mat& P) {
  if (!H.is_square() || H.rows() != P.rows() || H.cols() != P.cols())
    stage_fail(stage, util::concat("H (", H.rows(), "x", H.cols(),
                                   ") and P (", P.rows(), "x", P.cols(),
                                   ") must be square matrices of equal "
                                   "size"));
  const lat::RatMat product = H * lat::RatMat(P);
  if (product != lat::RatMat::identity(H.rows()))
    stage_fail(stage, util::concat("supernode invariant H·P = I violated: "
                                   "H·P = ",
                                   product.str()));
}

void verify_tile_deps_01(Stage stage, const std::vector<Vec>& tile_deps) {
  for (const Vec& d : tile_deps) {
    if (d.is_zero())
      stage_fail(stage,
                 "tile dependence matrix D^S contains a zero vector");
    for (i64 c : d)
      if (c != 0 && c != 1)
        stage_fail(stage, util::concat(
                              "tile dependence ", d.str(),
                              " is not a 0/1 vector — every dependence must "
                              "be contained in one tile (⌊H·D⌋ < 1)"));
  }
}

void verify_pi_legality(Stage stage, const Vec& pi,
                        const std::vector<Vec>& tile_deps,
                        sched::ScheduleKind kind, std::size_t mapped_dim) {
  for (const Vec& d : tile_deps) {
    if (d.size() != pi.size())
      stage_fail(stage, util::concat("Π has ", pi.size(),
                                     " components but tile dependence ",
                                     d.str(), " has ", d.size()));
    const i64 gap = pi.dot(d);
    if (gap < 1)
      stage_fail(stage, util::concat("schedule Π = ", pi.str(),
                                     " violates causality: Π·d^S = ", gap,
                                     " < 1 for d^S = ", d.str()));
    if (kind == sched::ScheduleKind::kOverlap) {
      bool communicates = false;
      for (std::size_t i = 0; i < d.size(); ++i)
        if (i != mapped_dim && d[i] != 0) communicates = true;
      if (communicates && gap < 2)
        stage_fail(stage,
                   util::concat("overlapping schedule Π = ", pi.str(),
                                " leaves only Π·d^S = ", gap,
                                " step(s) for communicating dependence "
                                "d^S = ",
                                d.str(),
                                " (needs >= 2: one step to compute, one "
                                "to deliver)"));
    }
  }
}

void verify_lowered_plan(Stage stage, const exec::TilePlan& plan,
                         const tile::RectTiling& tiling,
                         std::size_t mapped_dim, const Vec& procs,
                         i64 schedule_length) {
  if (plan.space.tiling().sides() != tiling.sides())
    stage_fail(stage, util::concat("plan was lowered with tile sides ",
                                   plan.space.tiling().sides().str(),
                                   " but the Tiling stage chose ",
                                   tiling.sides().str()));
  if (plan.mapped_dim != mapped_dim)
    stage_fail(stage, util::concat("plan maps dimension ", plan.mapped_dim,
                                   " but the Analysis stage chose ",
                                   mapped_dim));
  const lat::Box& ts = plan.space.tile_space();
  if (plan.mapping.tile_space() != ts)
    stage_fail(stage, util::concat(
                          "processor mapping was built over tile space ",
                          plan.mapping.tile_space().str(),
                          " but the plan's tiled space is ", ts.str()));
  const Vec& grid = plan.mapping.procs();
  if (grid.size() != ts.dims())
    stage_fail(stage, util::concat("processor grid has ", grid.size(),
                                   " dimensions, tile space has ",
                                   ts.dims()));
  if (grid[mapped_dim] != 1)
    stage_fail(stage, util::concat("processor grid ", grid.str(),
                                   " must have exactly 1 processor along "
                                   "the mapping dimension ",
                                   mapped_dim));
  for (std::size_t d = 0; d < grid.size(); ++d) {
    if (grid[d] < 1)
      stage_fail(stage, util::concat("processor grid ", grid.str(),
                                     " has a non-positive entry in "
                                     "dimension ",
                                     d));
    if (d != mapped_dim && grid[d] > ts.extent(d))
      stage_fail(stage, util::concat("processor grid ", grid.str(),
                                     " exceeds the ", ts.extent(d),
                                     " tile column(s) of dimension ", d));
    if (d != mapped_dim && grid[d] != procs[d])
      stage_fail(stage, util::concat("plan distributes dimension ", d,
                                     " over ", grid[d],
                                     " processors but the Analysis stage "
                                     "chose ",
                                     procs[d]));
  }
  if (plan.schedule_length() != schedule_length)
    stage_fail(stage, util::concat(
                          "plan's schedule length P(g) = ",
                          plan.schedule_length(),
                          " disagrees with the Scheduling stage's "
                          "closed form ",
                          schedule_length));
}

void verify_dag_acyclic(Stage stage, const workload::TileDagWorkload& dag) {
  try {
    (void)workload::topo_order(dag);
  } catch (const util::Error& e) {
    stage_fail(stage, e.what());
  }
}

void verify_dag_alap(Stage stage, const workload::TileDagWorkload& dag,
                     int ranks, const mach::Model& model,
                     const workload::AlapBound& bound) {
  if (bound.alap.size() != static_cast<std::size_t>(dag.num_tasks()))
    stage_fail(stage, util::concat("ALAP bound carries ", bound.alap.size(),
                                   " task values for a ", dag.num_tasks(),
                                   "-task graph"));
  sim::Time max_alap = 0;
  for (std::size_t i = 0; i < bound.alap.size(); ++i) {
    if (bound.alap[i] <= 0)
      stage_fail(stage, util::concat("task '", dag.tasks()[i].label,
                                     "' has non-positive ALAP value ",
                                     bound.alap[i]));
    max_alap = std::max(max_alap, bound.alap[i]);
  }
  if (bound.critical_path_ns != max_alap)
    stage_fail(stage, util::concat("ALAP critical path ",
                                   bound.critical_path_ns,
                                   " ns disagrees with max task alap ",
                                   max_alap, " ns"));
  if (bound.bound_ns !=
      std::max(bound.critical_path_ns, bound.work_bound_ns))
    stage_fail(stage,
               util::concat("ALAP bound ", bound.bound_ns,
                            " ns is not max(critical path ",
                            bound.critical_path_ns, ", work bound ",
                            bound.work_bound_ns, ")"));
  const workload::AlapBound again =
      workload::alap_lower_bound(dag, ranks, model);
  if (again.bound_ns != bound.bound_ns || again.alap != bound.alap)
    stage_fail(stage, util::concat("ALAP bound is not reproducible: "
                                   "recomputation gives ",
                                   again.bound_ns, " ns, artifact holds ",
                                   bound.bound_ns, " ns"));
}

void verify_projective_tiles(Stage stage, const workload::Workload& wl,
                             const exec::TilePlan& plan) {
  const exec::TileCostModel* costs = wl.cost_model();
  if (!costs)
    stage_fail(stage, util::concat("projective workload '", wl.name(),
                                   "' supplies no per-tile cost model"));
  i64 total = 0;
  i64 full_tiles = 0, cut_tiles = 0;
  plan.space.for_each_tile([&](const Vec& t) {
    const lat::Box box = plan.space.tile_iterations(t);
    const i64 vol = costs->tile_iterations(t, box);
    if (vol < 0 || vol > box.volume())
      stage_fail(stage, util::concat("tile ", t.str(), " carries volume ",
                                     vol, " outside [0, ", box.volume(),
                                     "] — the cut domain escapes its "
                                     "bounding box"));
    total = util::checked_add(total, vol);
    ++(vol == box.volume() ? full_tiles : cut_tiles);
  });
  if (total != wl.domain_points())
    stage_fail(stage, util::concat("per-tile volumes sum to ", total,
                                   " but the constrained domain holds ",
                                   wl.domain_points(), " points"));
  if (cut_tiles == 0)
    stage_fail(stage, util::concat("the constraints cut no tile: every "
                                   "tile of '",
                                   wl.name(),
                                   "' carries its full box volume — "
                                   "declare the workload uniform instead"));
  (void)full_tiles;
}

// ------------------------------------------------------------------- stages

loop::LoopNest run_frontend(const SourceArtifact& source) {
  if (source.text.empty())
    stage_fail(Stage::kFrontend,
               util::concat("empty source '", source.name, "'"));
  return loop::parse_nest(source.text);
}

workload::WorkloadPtr run_workload_frontend(
    const SourceArtifact& source, workload::Kind kind,
    const std::vector<std::string>& constraints) {
  if (source.text.empty())
    stage_fail(Stage::kFrontend,
               util::concat("empty source '", source.name, "'"));
  return workload::parse_workload(kind, source.name, source.text,
                                  constraints);
}

const loop::LoopNest& workload_nest(Stage stage,
                                    const workload::Workload& wl) {
  switch (wl.kind()) {
    case workload::Kind::kUniformNest:
      return static_cast<const workload::UniformNestWorkload&>(wl).nest();
    case workload::Kind::kProjectiveNest:
      return static_cast<const workload::ProjectiveNestWorkload&>(wl)
          .nest();
    case workload::Kind::kTileDag:
      break;
  }
  stage_fail(stage, util::concat("workload '", wl.name(),
                                 "' is a task graph, not a loop nest"));
}

DagPlanArtifact run_dag_analysis(
    const std::shared_ptr<const workload::TileDagWorkload>& dag,
    const std::optional<Vec>& procs, const std::optional<i64>& auto_procs,
    const mach::Model& model) {
  i64 ranks = 1;
  if (auto_procs) {
    ranks = *auto_procs;
  } else if (procs) {
    ranks = 1;
    for (i64 p : *procs) ranks = util::checked_mul(ranks, p);
  }
  if (ranks < 1)
    stage_fail(Stage::kAnalysis,
               util::concat("need at least one rank, got ", ranks));
  verify_dag_acyclic(Stage::kAnalysis, *dag);
  DagPlanArtifact out;
  out.dag = dag;
  out.ranks = static_cast<int>(ranks);
  out.owner = workload::assign_owners(*dag, out.ranks);
  out.bound = workload::alap_lower_bound(*dag, out.ranks, model);
  verify_dag_alap(Stage::kAnalysis, *dag, out.ranks, model, out.bound);
  return out;
}

namespace {

/// Enumerates ordered factorizations of `remaining` over dims[idx..],
/// honoring per-dimension caps, and reports each complete assignment.
/// (Enumeration order is part of the planner's contract: ties keep the
/// first candidate, so reordering would silently change recommendations.)
void enumerate_grids(const std::vector<std::size_t>& dims,
                     const std::vector<i64>& caps, std::size_t idx,
                     i64 remaining, Vec& current,
                     const std::function<void(const Vec&)>& emit) {
  if (idx == dims.size()) {
    if (remaining == 1) emit(current);
    return;
  }
  for (i64 f = 1; f <= remaining && f <= caps[idx]; ++f) {
    if (remaining % f != 0) continue;
    current[dims[idx]] = f;
    enumerate_grids(dims, caps, idx + 1, remaining / f, current, emit);
  }
  current[dims[idx]] = 1;
}

core::AnalyticOptimum analytic_for(const core::Problem& problem,
                                   sched::ScheduleKind kind) {
  return kind == sched::ScheduleKind::kOverlap
             ? core::analytic_optimal_height_overlap(problem)
             : core::analytic_optimal_height_nonoverlap(problem);
}

}  // namespace

AnalysisArtifact run_analysis(const loop::LoopNest& nest,
                              const mach::MachineParams& machine,
                              const std::optional<Vec>& procs,
                              const std::optional<i64>& auto_procs,
                              sched::ScheduleKind kind,
                              std::shared_ptr<const mach::Model> model) {
  if (!nest.deps().is_nonneg())
    stage_fail(Stage::kAnalysis,
               util::concat("rectangular tiling needs nonnegative "
                            "dependence components (skew first: "
                            "tile::find_legal_skew + "
                            "loop::make_skewed_nest); deps = ",
                            nest.deps().str()));

  // The paper's rule: map along the dimension with the largest extent.
  const core::Problem probe{nest, machine, Vec(nest.dims(), 1), model};
  const std::size_t md = probe.mapped_dim();

  if (auto_procs) {
    const std::shared_ptr<const mach::Model> cost = probe.cost_model();
    const i64 total = *auto_procs;
    if (total < 1)
      stage_fail(Stage::kAnalysis, "need at least one processor");

    std::vector<std::size_t> cross_dims;
    std::vector<i64> caps;
    for (std::size_t d = 0; d < nest.dims(); ++d) {
      if (d == md) continue;
      cross_dims.push_back(d);
      // At most one processor per iteration row, and tile sides must still
      // exceed the dependence components: extent / (max_component + 1).
      caps.push_back(std::max<i64>(
          1, nest.domain().extent(d) / (nest.deps().max_component(d) + 1)));
    }

    std::optional<Vec> best_grid;
    double best_predicted = 0.0;
    Vec current(nest.dims(), 1);
    enumerate_grids(cross_dims, caps, 0, total, current, [&](const Vec& g) {
      const core::Problem candidate{nest, machine, g, model};
      const core::AnalyticOptimum opt = analytic_for(candidate, kind);
      const double predicted =
          core::predict_completion(candidate.plan(opt.V, kind), *cost);
      if (!best_grid || predicted < best_predicted) {
        best_grid = g;
        best_predicted = predicted;
      }
    });
    if (!best_grid)
      stage_fail(Stage::kAnalysis,
                 util::concat("no processor grid with ", total,
                              " processors fits this nest (too many "
                              "processors for the cross-section?)"));
    return AnalysisArtifact{
        core::Problem{nest, machine, *best_grid, std::move(model)}, md,
        true};
  }

  Vec grid = procs.value_or(Vec(nest.dims(), 1));
  if (grid.size() != nest.dims())
    stage_fail(Stage::kAnalysis,
               util::concat("processor grid ", grid.str(), " has ",
                            grid.size(), " dimensions, nest has ",
                            nest.dims()));
  for (std::size_t d = 0; d < grid.size(); ++d)
    if (grid[d] < 1)
      stage_fail(Stage::kAnalysis,
                 util::concat("processor grid ", grid.str(),
                              " has a non-positive entry in dimension ", d));
  grid[md] = 1;  // the mapping dimension hosts whole tile columns
  return AnalysisArtifact{
      core::Problem{nest, machine, std::move(grid), std::move(model)}, md,
      false};
}

TilingArtifact run_tiling(const AnalysisArtifact& analysis,
                          const std::optional<i64>& height,
                          sched::ScheduleKind kind) {
  const core::Problem& problem = analysis.problem;
  core::AnalyticOptimum opt{};
  i64 V = 0;
  if (height) {
    V = *height;
    if (V < 1)
      stage_fail(Stage::kTiling,
                 util::concat("tile height V must be >= 1, got ", V));
  } else {
    opt = analytic_for(problem, kind);
    V = opt.V;
  }

  tile::RectTiling tiling(problem.tile_sides(V));
  const tile::Supernode sn = tiling.as_supernode();
  verify_supernode_identity(Stage::kTiling, sn.H(), sn.P());
  if (!tiling.is_legal(problem.nest.deps()))
    stage_fail(Stage::kTiling,
               util::concat("illegal tiling: H·D has a negative entry for "
                            "deps ",
                            problem.nest.deps().str()));
  if (!problem.nest.deps().empty() &&
      !tiling.contains_deps(problem.nest.deps()))
    stage_fail(Stage::kTiling,
               util::concat("tile sides ", tiling.sides().str(),
                            " do not contain every dependence (need "
                            "side > max dependence component in each "
                            "dimension); deps = ",
                            problem.nest.deps().str()));
  return TilingArtifact{V, !height.has_value(), opt, std::move(tiling)};
}

ScheduleArtifact run_scheduling(const AnalysisArtifact& analysis,
                                const TilingArtifact& tiling,
                                sched::ScheduleKind kind) {
  const loop::DependenceSet& deps = analysis.problem.nest.deps();
  std::vector<Vec> tile_deps;
  if (!deps.empty())
    tile_deps = tiling.tiling.as_supernode().tile_deps(deps);
  verify_tile_deps_01(Stage::kScheduling, tile_deps);

  const std::size_t dims = analysis.problem.nest.dims();
  Vec pi = kind == sched::ScheduleKind::kOverlap
               ? sched::overlap_pi(dims, analysis.mapped_dim)
               : sched::nonoverlap_pi(dims);
  verify_pi_legality(Stage::kScheduling, pi, tile_deps, kind,
                     analysis.mapped_dim);

  // Closed-form schedule length over the tiled extents; the Lowering stage
  // cross-checks it against the built plan's own P(g).
  const lat::Box& dom = analysis.problem.nest.domain();
  const Vec last =
      tiling.tiling.tile_of(dom.hi()) - tiling.tiling.tile_of(dom.lo());
  const i64 length =
      kind == sched::ScheduleKind::kOverlap
          ? sched::overlap_schedule_length(last, analysis.mapped_dim)
          : sched::nonoverlap_schedule_length(last);
  return ScheduleArtifact{kind, std::move(pi), length};
}

PlanArtifact run_lowering(const AnalysisArtifact& analysis,
                          const TilingArtifact& tiling,
                          const ScheduleArtifact& schedule,
                          core::PlanCache* cache, mach::OverlapLevel level) {
  const core::Problem& problem = analysis.problem;
  std::shared_ptr<const exec::TilePlan> plan;
  if (cache) {
    plan = cache->get(problem, tiling.V, schedule.kind);
  } else {
    plan = std::make_shared<const exec::TilePlan>(
        problem.plan(tiling.V, schedule.kind));
  }
  verify_lowered_plan(Stage::kLowering, *plan, tiling.tiling,
                      analysis.mapped_dim, problem.procs, schedule.length);
  const double predicted =
      core::predict_completion(*plan, *problem.cost_model(), level);
  return PlanArtifact{std::move(plan), predicted};
}

BackendArtifact run_backend(const loop::LoopNest& nest,
                            const AnalysisArtifact& analysis,
                            const PlanArtifact& plan,
                            const BackendConfig& config) {
  BackendArtifact out;
  if (config.simulate) {
    if (config.functional && !nest.has_kernel())
      stage_fail(Stage::kBackend,
                 util::concat("functional execution needs a loop body; "
                              "nest '",
                              nest.name(),
                              "' has no kernel (was the plan saved "
                              "without source?)"));
    exec::RunOptions opts;
    opts.functional = config.functional;
    opts.comm = config.comm;
    opts.sink = config.sink;
    opts.tile_costs = config.tile_costs;
    out.run = exec::run_plan(nest, *plan.plan,
                             analysis.problem.cost_model(), opts,
                             config.workspace);
  }
  if (config.emit_program)
    out.program = gen::generate_mpi_program(nest, *plan.plan, config.codegen);
  return out;
}

BackendArtifact run_dag_backend(const DagPlanArtifact& plan,
                                const mach::Model& model,
                                const BackendConfig& config) {
  if (config.functional)
    stage_fail(Stage::kBackend,
               "DAG workloads have no functional execution: tasks carry "
               "iteration weights, not loop bodies");
  if (config.emit_program)
    stage_fail(Stage::kBackend,
               "code generation targets loop nests; DAG workloads are "
               "simulate-only");
  BackendArtifact out;
  if (config.simulate)
    out.run = workload::run_dag(*plan.dag, plan.owner, plan.ranks, model,
                                plan.bound, config.sink);
  return out;
}

}  // namespace tilo::pipeline
