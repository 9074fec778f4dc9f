// The pipeline's stage functions and invariant verifiers.
//
// Each stage is a pure function from earlier artifacts to its own artifact;
// the Compiler (compiler.hpp) sequences them, times them, and rewraps any
// escaping util::Error with the failing stage's name.  The verifiers are
// public so tests can feed deliberately malformed artifacts to each one and
// check that the error names the stage.
//
// Paper invariants verified per stage:
//   Tiling      H·P = I exactly (rational arithmetic); H·D >= 0 legality;
//               containment ⌊H·D⌋ < 1 (tile sides exceed every dependence)
//   Scheduling  D^S entries in {0,1}; Π·d^S >= 1 causality, and for the
//               overlapping schedule Π·d^S >= 2 for every communicating
//               dependence (the modified-Π condition of Section 4)
//   Lowering    grid·mapping consistency (procs[mapped] = 1, grid within
//               the tile space, mapping built over the plan's own tiled
//               space) and the closed-form P(g) cross-check against the
//               Scheduling stage
#pragma once

#include <optional>

#include "tilo/codegen/mpi_program.hpp"
#include "tilo/pipeline/artifact.hpp"

namespace tilo::core {
class PlanCache;
}

namespace tilo::pipeline {

// ---------------------------------------------------------------- verifiers

/// The supernode inverse-pair invariant: H·P = I, checked with exact
/// rational arithmetic.
void verify_supernode_identity(Stage stage, const lat::RatMat& H,
                               const lat::Mat& P);

/// Every tile dependence d^S must be a nonzero 0/1 vector (the containment
/// assumption's consequence the schedules rely on).
void verify_tile_deps_01(Stage stage, const std::vector<lat::Vec>& tile_deps);

/// Schedule legality: Π·d^S >= 1 for every tile dependence; under the
/// overlapping schedule additionally Π·d^S >= 2 for every dependence with a
/// nonzero component off the mapping dimension (it communicates, and needs
/// one step to compute plus one to deliver).
void verify_pi_legality(Stage stage, const lat::Vec& pi,
                        const std::vector<lat::Vec>& tile_deps,
                        sched::ScheduleKind kind, std::size_t mapped_dim);

/// Lowered-plan consistency: the plan's tiling matches the Tiling artifact,
/// the mapping covers the plan's own tile space with procs[mapped_dim] = 1
/// and no dimension wider than its tile columns, and the plan's closed-form
/// schedule length equals the Scheduling artifact's.
void verify_lowered_plan(Stage stage, const exec::TilePlan& plan,
                         const tile::RectTiling& tiling,
                         std::size_t mapped_dim, const lat::Vec& procs,
                         util::i64 schedule_length);

/// DAG workloads: the task graph must be acyclic (Kahn order exists).
void verify_dag_acyclic(Stage stage, const workload::TileDagWorkload& dag);

/// DAG workloads: the ALAP bound must be internally consistent — one alap
/// value per task, every alap >= the task's own weight, the critical path
/// equal to max alap, and bound = max(critical path, work refinement) — and
/// must reproduce an independent recomputation under the same model/ranks.
void verify_dag_alap(Stage stage, const workload::TileDagWorkload& dag,
                     int ranks, const mach::Model& model,
                     const workload::AlapBound& bound);

/// Projective workloads: per-tile cut volumes must be contained (each tile
/// carries 0 <= volume <= its box volume, volumes sum to the constrained
/// domain's point count) and must actually vary — a cut leaving every tile
/// at full volume is vacuous, and the workload should be declared uniform.
void verify_projective_tiles(Stage stage, const workload::Workload& wl,
                             const exec::TilePlan& plan);

// ------------------------------------------------------------------- stages

/// Frontend: parse the loop-nest grammar (loop::parse_nest).
loop::LoopNest run_frontend(const SourceArtifact& source);

/// Kind-dispatched frontend: builds the Workload for `kind` from the
/// source text (workload::parse_workload).  The uniform path parses the
/// same grammar through the same loop::parse_nest as run_frontend, so the
/// downstream artifacts are byte-identical.
workload::WorkloadPtr run_workload_frontend(
    const SourceArtifact& source, workload::Kind kind,
    const std::vector<std::string>& constraints);

/// The nest a nest-family workload wraps; fails the stage for DAGs.
const loop::LoopNest& workload_nest(Stage stage,
                                    const workload::Workload& wl);

/// DAG Analysis: resolve the rank count (product of `procs`, or
/// `auto_procs` directly, or 1), assign block-cyclic owners, verify
/// acyclicity, and derive + verify the ALAP lower bound under `model`.
/// DAG compilations skip Tiling/Scheduling/Lowering entirely.
DagPlanArtifact run_dag_analysis(
    const std::shared_ptr<const workload::TileDagWorkload>& dag,
    const std::optional<lat::Vec>& procs,
    const std::optional<util::i64>& auto_procs, const mach::Model& model);

/// Analysis: validate the dependence model and bind the nest to a machine
/// and a processor grid.  With `auto_procs`, enumerates every ordered
/// factorization over the non-mapped dimensions (capped at one processor
/// per dependence-respecting tile row) and keeps the grid whose candidate
/// plan predicts the smallest completion time; otherwise uses `procs`
/// (default: one processor everywhere).  `model` (optional) rides along on
/// the produced Problem so downstream stages rank, predict and simulate
/// under its cost_model().
AnalysisArtifact run_analysis(
    const loop::LoopNest& nest, const mach::MachineParams& machine,
    const std::optional<lat::Vec>& procs,
    const std::optional<util::i64>& auto_procs, sched::ScheduleKind kind,
    std::shared_ptr<const mach::Model> model = nullptr);

/// Tiling: choose the tile height (analytic optimum when `height` is
/// empty), build the rectangular supernode, and verify H·P = I, legality
/// and containment.
TilingArtifact run_tiling(const AnalysisArtifact& analysis,
                          const std::optional<util::i64>& height,
                          sched::ScheduleKind kind);

/// Scheduling: derive D^S, pick the paper's Π for `kind`, verify 0/1-ness
/// and Π-legality, and compute the closed-form schedule length.
ScheduleArtifact run_scheduling(const AnalysisArtifact& analysis,
                                const TilingArtifact& tiling,
                                sched::ScheduleKind kind);

/// Lowering: build (or fetch from `cache`) the exec::TilePlan, verify
/// grid·mapping consistency and the P(g) cross-check, and attach the
/// eq. (3)/(4) prediction at `level`.
PlanArtifact run_lowering(const AnalysisArtifact& analysis,
                          const TilingArtifact& tiling,
                          const ScheduleArtifact& schedule,
                          core::PlanCache* cache = nullptr,
                          mach::OverlapLevel level = mach::OverlapLevel::kDma);

/// Backend knobs (the subset of compile options the Backend consumes).
struct BackendConfig {
  bool simulate = true;        ///< run the discrete-event simulator
  bool functional = false;     ///< move real values and keep the field
  bool emit_program = false;   ///< generate the C + MPI program
  gen::CodegenOptions codegen;
  exec::CommConfig comm;
  obs::Sink* sink = nullptr;             ///< forwarded into run_plan
  exec::RunWorkspace* workspace = nullptr;
  /// Per-tile cost hook (projective nests); nullptr keeps the constant-cost
  /// fast path.  Timed-mode only — run_plan rejects it with functional.
  const exec::TileCostModel* tile_costs = nullptr;
};

/// Backend: simulate and/or emit code for the lowered plan.
BackendArtifact run_backend(const loop::LoopNest& nest,
                            const AnalysisArtifact& analysis,
                            const PlanArtifact& plan,
                            const BackendConfig& config);

/// DAG Backend: execute the task graph on the event engine (run_dag) under
/// `model`; honors config.simulate/sink (codegen and functional execution
/// are nest-family features and fail the stage if requested).
BackendArtifact run_dag_backend(const DagPlanArtifact& plan,
                                const mach::Model& model,
                                const BackendConfig& config);

}  // namespace tilo::pipeline
