// Communication-region geometry: which iteration points a tile must ship to
// each neighboring tile.  Both sender and receiver derive the same region
// list from the same function, so message existence and sizes always agree.
#pragma once

#include <vector>

#include "tilo/exec/plan.hpp"
#include "tilo/lattice/box.hpp"

namespace tilo::exec {

using lat::Box;
using lat::Vec;
using util::i64;

/// One region of a message: the points (in original iteration coordinates)
/// carried for one dependence vector.
struct CommRegion {
  std::size_t dep_index = 0;  ///< index into the nest's DependenceSet
  Box points;                 ///< subset of the *producer* tile's box
};

/// The regions tile `t_src` must send to tile `t_src + e` (tile-space
/// offset e from TiledSpace::tile_deps()):
///   for each dependence d:  B(t_src) ∩ (B(t_src + e) - d),
/// where B is the tile's (domain-clipped) iteration box.  Empty regions are
/// dropped; an empty result means no message flows along e.  Per the
/// paper's V_comm accounting (Section 2.4), points needed through several
/// dependences are carried once per dependence.
std::vector<CommRegion> comm_regions(const tile::TiledSpace& space,
                                     const Vec& t_src, const Vec& e);

/// Total points in a region list (with per-dependence multiplicity).
i64 region_points(const std::vector<CommRegion>& regions);

/// Convenience: message size in bytes for a region list.
i64 region_bytes(const std::vector<CommRegion>& regions,
                 int bytes_per_element);

/// Per-tile communication summary used by the cost model and benches.  The
/// value regions behind it come from comm_regions() on demand.
struct TileComm {
  Vec offset;                     ///< tile-space direction e
  i64 points = 0;                 ///< region_points of the region list
  std::size_t dir = 0;            ///< index of `offset` in tile_deps()
};

/// All outgoing messages of tile t (one entry per tile dependence with a
/// nonempty region list), regardless of processor placement.  No region
/// box is built.
std::vector<TileComm> outgoing(const tile::TiledSpace& space, const Vec& t);

/// All incoming messages of tile t: offsets e such that t - e exists and
/// ships a nonempty region list to t.
std::vector<TileComm> incoming(const tile::TiledSpace& space, const Vec& t);

}  // namespace tilo::exec
