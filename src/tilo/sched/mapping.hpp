// Space schedule: assignment of tiles to processors.
//
// All tiles along the mapping dimension go to the same processor (the
// paper's rule, optimal for UET-UCT grids per [1]); the remaining
// dimensions form a processor grid with block distribution.  In the paper's
// experiments the grid equals the cross-section of the tile space (one tile
// column per processor, e.g. 4x4 processors for 4x4xV tiles); the block
// distribution generalizes this to fewer processors than tile columns.
#pragma once

#include <vector>

#include "tilo/lattice/box.hpp"

namespace tilo::sched {

using lat::Box;
using lat::Vec;
using util::i64;

/// The processor grid and tile-to-processor assignment.
class ProcessorMapping {
 public:
  /// `tile_space`: the tiled space J^S.  `mapped_dim`: tiles along this
  /// dimension share a processor.  `procs`: processors per remaining
  /// dimension; procs[mapped_dim] must be 1, and no dimension may have more
  /// processors than tile columns.
  ProcessorMapping(const Box& tile_space, std::size_t mapped_dim, Vec procs);

  /// Mapping with one processor per tile column — the paper's setup.
  static ProcessorMapping one_column_per_proc(const Box& tile_space,
                                              std::size_t mapped_dim);

  std::size_t dims() const { return procs_.size(); }
  std::size_t mapped_dim() const { return mapped_dim_; }
  const Vec& procs() const { return procs_; }
  const Box& tile_space() const { return tile_space_; }

  /// Total number of processors (ranks 0 .. num_ranks-1).
  i64 num_ranks() const;

  /// Processor-grid coordinates of the owner of tile t (block distribution;
  /// the mapped dimension's coordinate is always 0).
  Vec proc_of_tile(const Vec& t) const;

  /// Row-major linearization of processor coordinates.
  i64 rank_of_proc(const Vec& p) const;
  Vec proc_of_rank(i64 rank) const;

  i64 rank_of_tile(const Vec& t) const { return rank_of_proc(proc_of_tile(t)); }

  /// Rank owning the tile column through t + sign·offset, or -1 when that
  /// column lies outside the tile space.  The mapped dimension is ignored:
  /// a whole column shares one owner.  Allocation-free, for the executors'
  /// per-column neighbour lookups.
  i64 column_rank(const Vec& t, const Vec& offset, i64 sign) const;

  /// The sub-box of tile space owned by a rank (full extent along the
  /// mapping dimension).
  Box tiles_of_rank(i64 rank) const;

  /// The tile columns owned by a rank: distinct cross-section coordinates,
  /// lexicographic order, as full tile coordinates with the mapping
  /// dimension set to the space's low bound.  The paper's ProcB/ProcNB
  /// enumerate exactly these.
  std::vector<Vec> columns_of_rank(i64 rank) const;

 private:
  Box tile_space_;
  std::size_t mapped_dim_;
  Vec procs_;
  Vec block_;  ///< tiles per processor block, per dimension
};

}  // namespace tilo::sched
