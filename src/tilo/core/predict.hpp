// Closed-form completion-time predictions (eqs. 3-5) for a concrete plan:
// geometry comes from the plan's steady-state tile, costs from the machine
// model.  The benches compare these against the simulated times the way the
// paper compares its formula (5) against measurements (Fig. 12).
#pragma once

#include "tilo/exec/plan.hpp"
#include "tilo/machine/cost.hpp"
#include "tilo/machine/model.hpp"

namespace tilo::core {

using exec::TilePlan;
using util::i64;

/// The steady-state (interior-tile) step shape of a plan: iterations per
/// tile and the cross-processor message sizes in each direction.  Uses the
/// tile at the center of the tile space as the representative.
mach::StepShape steady_step_shape(const TilePlan& plan,
                                  const mach::MachineParams& params);

/// Completion-time prediction matching the plan's schedule kind, with
/// every stage cost priced by `model`:
/// eq. (3) P(g)·(T_comp + T_comm) for kNonOverlap,
/// eq. (4) P(g)·max(A-side, B-side) for kOverlap.
/// Under an IdealOverlapModel this is bit-identical to
/// mach::total_nonoverlap / mach::total_overlap over the model's params.
double predict_completion(const TilePlan& plan, const mach::Model& model,
                          mach::OverlapLevel level = mach::OverlapLevel::kDma);

/// Equation (5): the CPU-bound overlap bound P(g)·(A1+A2+A3) — the formula
/// the paper instantiates with measured constants in Section 5.  Only the
/// pure CPU side counts (interference extras are the model's own business
/// and excluded from the paper's bound).
double predict_overlap_cpu_bound(const TilePlan& plan,
                                 const mach::Model& model);

}  // namespace tilo::core
