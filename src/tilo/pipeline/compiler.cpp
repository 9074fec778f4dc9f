#include "tilo/pipeline/compiler.hpp"

#include <chrono>
#include <cstring>
#include <utility>

#include "tilo/core/plancache.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/util/error.hpp"

namespace tilo::pipeline {

namespace {

/// Wall-clock now in ns (host spans only; the simulation never reads the
/// host clock).
obs::Time wall_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool already_stage_named(const char* what) {
  return std::strncmp(what, "pipeline stage ", 15) == 0;
}

/// Times one stage and guarantees the escaping error names it.
template <typename Fn>
void timed_stage(Stage stage, const CompileOptions& opts,
                 const std::string& label, int lane, Fn&& fn) {
  const obs::Time t0 = opts.sink ? wall_ns() : 0;
  try {
    fn();
  } catch (const util::Error& e) {
    if (already_stage_named(e.what())) throw;
    stage_fail(stage, e.what());
  }
  if (opts.sink) {
    std::string name = "pipeline.";
    name += stage_name(stage);
    if (!label.empty()) {
      name += " [";
      name += label;
      name += ']';
    }
    opts.sink->host_span(name, t0, wall_ns(), lane);
    opts.sink->counter("pipeline.stages", 1.0);
  }
}

BackendConfig backend_config(const CompileOptions& opts) {
  BackendConfig config;
  config.simulate = opts.simulate;
  config.functional = opts.functional;
  config.emit_program = opts.emit_program;
  config.codegen = opts.codegen;
  config.comm = opts.comm;
  config.sink = opts.sink;
  return config;
}

}  // namespace

void Compiler::run_stages(ArtifactStore& store, const CompileOptions& opts,
                          const std::string& label, int lane) const {
  const workload::Kind wkind = opts.workload_kind;

  if (wkind == workload::Kind::kTileDag) {
    // DAG workloads skip Tiling/Scheduling/Lowering: the task graph is its
    // own dependence structure and the event engine schedules it directly.
    const std::shared_ptr<const mach::Model> model =
        mach::model_or_ideal(opts.model, opts.machine);
    timed_stage(Stage::kFrontend, opts, label, lane, [&] {
      store.put(run_workload_frontend(store.source(Stage::kFrontend), wkind,
                                      opts.constraints));
    });
    timed_stage(Stage::kAnalysis, opts, label, lane, [&] {
      auto dag = std::static_pointer_cast<const workload::TileDagWorkload>(
          store.workload_ptr());
      store.put(
          run_dag_analysis(dag, opts.procs, opts.auto_procs, *model));
    });
    timed_stage(Stage::kBackend, opts, label, lane, [&] {
      store.put(run_dag_backend(store.dag_plan(Stage::kBackend), *model,
                                backend_config(opts)));
    });
    return;
  }

  if (!store.has_nest()) {
    if (wkind == workload::Kind::kUniformNest && opts.constraints.empty()) {
      // The historical path, bit for bit: parse the nest, no workload
      // artifact (workload_regression_test pins the downstream bytes).
      timed_stage(Stage::kFrontend, opts, label, lane, [&] {
        store.put(run_frontend(store.source(Stage::kFrontend)));
      });
    } else {
      timed_stage(Stage::kFrontend, opts, label, lane, [&] {
        workload::WorkloadPtr w = run_workload_frontend(
            store.source(Stage::kFrontend), wkind, opts.constraints);
        store.put(loop::LoopNest(workload_nest(Stage::kFrontend, *w)));
        store.put(std::move(w));
      });
    }
  } else if (wkind == workload::Kind::kProjectiveNest) {
    // compile_nest() with a projective kind: cut the caller's nest.
    timed_stage(Stage::kFrontend, opts, label, lane, [&] {
      const loop::LoopNest& nest = store.nest(Stage::kFrontend);
      store.put(workload::parse_workload(wkind, nest.name(),
                                         loop::to_source(nest),
                                         opts.constraints));
    });
  } else if (!opts.constraints.empty()) {
    timed_stage(Stage::kFrontend, opts, label, lane, [&] {
      stage_fail(Stage::kFrontend,
                 "constraints apply to projective workloads only");
    });
  }
  timed_stage(Stage::kAnalysis, opts, label, lane, [&] {
    store.put(run_analysis(store.nest(Stage::kAnalysis),
                           opts.machine_params(), opts.procs,
                           opts.auto_procs, opts.kind, opts.model));
  });
  timed_stage(Stage::kTiling, opts, label, lane, [&] {
    store.put(run_tiling(store.analysis(Stage::kTiling), opts.height,
                         opts.kind));
  });
  timed_stage(Stage::kScheduling, opts, label, lane, [&] {
    store.put(run_scheduling(store.analysis(Stage::kScheduling),
                             store.tiling(Stage::kScheduling), opts.kind));
  });
  timed_stage(Stage::kLowering, opts, label, lane, [&] {
    store.put(run_lowering(store.analysis(Stage::kLowering),
                           store.tiling(Stage::kLowering),
                           store.schedule(Stage::kLowering),
                           opts.plan_cache, opts.comm.level));
    if (wkind == workload::Kind::kProjectiveNest)
      verify_projective_tiles(Stage::kLowering,
                              store.workload(Stage::kLowering),
                              *store.plan(Stage::kLowering).plan);
  });
  timed_stage(Stage::kBackend, opts, label, lane, [&] {
    BackendConfig config = backend_config(opts);
    if (store.has_workload())
      config.tile_costs = store.workload(Stage::kBackend).cost_model();
    store.put(run_backend(store.nest(Stage::kBackend),
                          store.analysis(Stage::kBackend),
                          store.plan(Stage::kBackend), config));
  });
}

ArtifactStore Compiler::compile_source(const std::string& name,
                                       const std::string& text) const {
  ArtifactStore store;
  store.put(SourceArtifact{name, text});
  run_stages(store, opts_, std::string(), 0);
  return store;
}

ArtifactStore Compiler::compile_nest(const loop::LoopNest& nest) const {
  ArtifactStore store;
  store.put(nest);
  run_stages(store, opts_, std::string(), 0);
  return store;
}

ArtifactStore Compiler::replay(const loop::LoopNest& nest,
                               const mach::MachineParams& machine,
                               const exec::TilePlan& plan) const {
  CompileOptions opts = opts_;
  opts.machine = machine;
  opts.kind = plan.kind;

  ArtifactStore store;
  store.put(nest);
  timed_stage(Stage::kAnalysis, opts, std::string(), 0, [&] {
    store.put(AnalysisArtifact{
        core::Problem{nest, machine, plan.mapping.procs(), nullptr},
        plan.mapped_dim, false});
  });
  timed_stage(Stage::kTiling, opts, std::string(), 0, [&] {
    tile::RectTiling tiling = plan.space.tiling();
    const tile::Supernode sn = tiling.as_supernode();
    verify_supernode_identity(Stage::kTiling, sn.H(), sn.P());
    store.put(TilingArtifact{tiling.side(plan.mapped_dim), false,
                             core::AnalyticOptimum{}, std::move(tiling)});
  });
  timed_stage(Stage::kScheduling, opts, std::string(), 0, [&] {
    store.put(run_scheduling(store.analysis(Stage::kScheduling),
                             store.tiling(Stage::kScheduling), plan.kind));
  });
  timed_stage(Stage::kLowering, opts, std::string(), 0, [&] {
    // Nothing is rebuilt: the loaded plan itself must pass the same
    // consistency checks a freshly lowered plan does.
    const AnalysisArtifact& analysis = store.analysis(Stage::kLowering);
    const TilingArtifact& tiling = store.tiling(Stage::kLowering);
    const ScheduleArtifact& schedule = store.schedule(Stage::kLowering);
    verify_lowered_plan(Stage::kLowering, plan, tiling.tiling,
                        analysis.mapped_dim, analysis.problem.procs,
                        schedule.length);
    store.put(PlanArtifact{
        std::make_shared<const exec::TilePlan>(plan),
        core::predict_completion(plan, *analysis.problem.cost_model(),
                                 opts.comm.level)});
  });
  timed_stage(Stage::kBackend, opts, std::string(), 0, [&] {
    store.put(run_backend(store.nest(Stage::kBackend),
                          store.analysis(Stage::kBackend),
                          store.plan(Stage::kBackend),
                          backend_config(opts)));
  });
  return store;
}

std::vector<ArtifactStore> Compiler::compile(
    const ScenarioFile& scenario) const {
  std::vector<ArtifactStore> out;
  out.reserve(scenario.workloads.size());
  for (std::size_t i = 0; i < scenario.workloads.size(); ++i) {
    const ScenarioWorkload& wl = scenario.workloads[i];
    CompileOptions opts = opts_;
    if (scenario.machine) opts.machine = *scenario.machine;
    if (scenario.model) opts.model = scenario.model;
    if (wl.procs) {
      opts.procs = wl.procs;
      opts.auto_procs.reset();
    }
    if (wl.auto_procs) opts.auto_procs = wl.auto_procs;
    if (wl.height) opts.height = wl.height;
    if (wl.kind) opts.kind = *wl.kind;
    if (wl.workload_kind) opts.workload_kind = *wl.workload_kind;
    if (!wl.constraints.empty()) opts.constraints = wl.constraints;

    ArtifactStore store;
    store.put(SourceArtifact{wl.name, wl.source});
    try {
      run_stages(store, opts, wl.name, static_cast<int>(i));
    } catch (const util::Error& e) {
      throw util::Error(
          util::concat("workload '", wl.name, "': ", e.what()));
    }
    out.push_back(std::move(store));
  }
  return out;
}

}  // namespace tilo::pipeline
