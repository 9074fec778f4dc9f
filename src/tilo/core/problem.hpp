// The top-level public API: a Problem binds a loop nest to a machine and a
// processor grid; plans are built the way the paper's experiments build
// them (tile columns along the largest dimension, tile height V as the
// tunable grain).
#pragma once

#include <memory>

#include "tilo/exec/plan.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/machine/params.hpp"

namespace tilo::core {

using exec::TilePlan;
using sched::ScheduleKind;
using util::i64;

/// A tiling/scheduling problem instance.
struct Problem {
  loop::LoopNest nest;
  mach::MachineParams machine;
  /// Processors per dimension; the entry at the mapping dimension is
  /// ignored (forced to 1).  E.g. {4, 4, 1} for the paper's 16 processors.
  lat::Vec procs;
  /// Optional machine model refining `machine` (imperfect overlap,
  /// heterogeneous links, offload levels — see mach::Model).  nullptr
  /// stands for the paper's ideal-overlap model over `machine`.
  std::shared_ptr<const mach::Model> model;

  /// The model every cost of this problem is priced by: `model`, or the
  /// ideal-overlap model over `machine` when `model` is null.
  std::shared_ptr<const mach::Model> cost_model() const;

  /// The paper's mapping rule applied to the original domain: the dimension
  /// with the largest extent hosts the tile columns.
  std::size_t mapped_dim() const;

  /// Builds the paper-style plan for tile height V: cross-dimension tile
  /// sides are extent/procs (one tile column per processor block) and the
  /// mapped dimension's side is V.
  TilePlan plan(i64 V, ScheduleKind kind) const;

  /// The tile sides used by plan(V, ...).
  lat::Vec tile_sides(i64 V) const;

  /// Largest meaningful V (the whole mapped extent in one tile).
  i64 max_tile_height() const;
};

/// The paper's three experiments as ready-made problems on the calibrated
/// cluster model: 16x16x16384, 16x16x32768 (4x4 procs) and 32x32x4096
/// (4x4 procs, 8x8 tile cross-sections).
Problem paper_problem_i();
Problem paper_problem_ii();
Problem paper_problem_iii();

}  // namespace tilo::core
