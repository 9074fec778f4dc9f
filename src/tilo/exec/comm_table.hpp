// Per-tile communication geometry of one tiled space, one entry per tile
// boundary class: what exec::run_plan prices every tile with.
#pragma once

#include <cstddef>
#include <vector>

#include "tilo/exec/regions.hpp"
#include "tilo/tiling/tilespace.hpp"

namespace tilo::exec {

/// Cells a tile's computation touches: its own cells plus the low-side
/// halo slabs it reads (the paper's Fig. 6 working set).
i64 working_set_cells(const loop::DependenceSet& deps, const Box& box);

/// Built once per tiled space and reused across runs (the overlap and
/// non-overlap schedules at one tile height share it, and so do timed and
/// functional runs).
///
/// The runs read each tile's (offset, points, dir) summaries, volume and
/// working set.  Tile dependences are 0/1 vectors, so along each dimension
/// these depend only on the tile's own span and its two neighbours' spans,
/// and only the edge tiles are clipped.  Per dimension a tile's profile is
/// therefore exact as: the low edge; the tile after it, but only when the
/// low-edge tile is thinner than a dependence component (it then ships
/// less than a full slab); the interior; the tile before the high edge;
/// the high edge.  A dimension with no interior tile gives each tile its
/// own profile.  The tile space is a box, so the classes that occur are
/// the Cartesian product of each dimension's profiles; the table holds one
/// entry per class, built from its lowest tile, indexed mixed radix, so
/// its cost is independent of the tile count.
///
/// build assembles the classes from per-dimension region lengths instead
/// of calling the per-tile incoming/outgoing (regions.hpp), which
/// core::steady_step_shape still uses.  CommTableTest compares every tile
/// of random misaligned spaces against incoming/outgoing, which keeps the
/// two implementations of the comm geometry in step.
struct CommTable {
  /// One class of tiles sharing their comm lists, volume and working set.
  struct TileClass {
    std::vector<TileComm> in, out;
    i64 volume = 0;    // iterations of each tile in the class
    i64 ws_cells = 0;  // working_set_cells of each tile
  };

  // Geometry key: tile sides, domain and dependence set identify the space
  // (the dependences fix both the tile directions and the region sizes).
  Vec sides;
  Box domain;
  std::vector<Vec> deps;
  bool valid = false;
  Vec lo, hi;                      // tile space bounds
  std::vector<i64> count;          // per dimension: profiles
  std::vector<i64> low;            // per dimension: low-edge profiles
  std::vector<std::size_t> radix;  // per dimension: class-index stride
  std::vector<TileClass> classes;

  bool matches(const tile::TiledSpace& space) const {
    return valid && sides == space.tiling().sides() &&
           domain == space.domain() && deps == space.deps().vectors();
  }

  /// Profile of coordinate c along dimension d: the first low[d] tiles
  /// each have their own, then count-1 at the high edge, count-2 just
  /// before it, low[d] in the interior.
  std::size_t profile(std::size_t d, i64 c) const {
    const i64 off = c - lo[d];
    const i64 n = count[d];
    const i64 p = off < low[d]     ? off
                  : c == hi[d]     ? n - 1
                  : c + 1 == hi[d] ? n - 2
                                   : low[d];
    return static_cast<std::size_t>(p);
  }

  /// Class-index contribution of every coordinate of `col` but dimension
  /// `md`; tile k of the column is class base + profile(md, k)·radix[md].
  std::size_t column_base(const Vec& col, std::size_t md) const {
    std::size_t base = 0;
    for (std::size_t d = 0; d < col.size(); ++d)
      if (d != md) base += profile(d, col[d]) * radix[d];
    return base;
  }

  /// The class of tile t.
  const TileClass& tile_class(const Vec& t) const {
    std::size_t c = 0;
    for (std::size_t d = 0; d < t.size(); ++d) c += profile(d, t[d]) * radix[d];
    return classes[c];
  }

  void build(const tile::TiledSpace& space);
};

}  // namespace tilo::exec
