#include "tilo/exec/regions.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

struct Span {
  i64 lo;
  i64 hi;
};

/// Tile coordinate c's iteration span along dimension d: its interval
/// [c·s, c·s + s - 1] clipped to the domain (TiledSpace::tile_iterations,
/// one dimension at a time).
Span tile_span(const tile::TiledSpace& space, std::size_t d, i64 c) {
  const i64 side = space.tiling().sides()[d];
  const i64 lo = util::checked_mul(c, side);
  const i64 hi = util::checked_sub(util::checked_add(lo, side), 1);
  return {std::max(lo, space.domain().lo()[d]),
          std::min(hi, space.domain().hi()[d])};
}

/// Dimension d of the region the tile at coordinate c ships to c + e_d for
/// a dependence with component dep_d: points p of the producer tile whose
/// value p + dep lands in the consumer tile, p ∈ B(c) ∩ (B(c + e) - dep).
Span region_span(const tile::TiledSpace& space, std::size_t d, i64 c,
                 i64 e_d, i64 dep_d) {
  const Span src = tile_span(space, d, c);
  const Span dst = tile_span(space, d, util::checked_add(c, e_d));
  return {std::max(src.lo, util::checked_sub(dst.lo, dep_d)),
          std::min(src.hi, util::checked_sub(dst.hi, dep_d))};
}

/// True when t_src + e is a tile of the space.
bool consumer_exists(const tile::TiledSpace& space, const Vec& t_src,
                     const Vec& e) {
  TILO_REQUIRE(space.tile_space().contains(t_src),
               "source tile outside tile space");
  const Box& ts = space.tile_space();
  for (std::size_t d = 0; d < t_src.size(); ++d) {
    const i64 c = util::checked_add(t_src[d], e[d]);
    if (c < ts.lo()[d] || c > ts.hi()[d]) return false;
  }
  return true;
}

/// region_points(comm_regions(space, t_src, e)), computed span by span
/// without building the boxes.
i64 comm_points(const tile::TiledSpace& space, const Vec& t_src,
                const Vec& e) {
  if (!consumer_exists(space, t_src, e)) return 0;
  i64 acc = 0;
  for (const Vec& dep : space.deps()) {
    i64 volume = 1;
    for (std::size_t d = 0; d < t_src.size() && volume > 0; ++d)
      volume = util::checked_mul(
          volume, region_length(space, d, t_src[d], e[d], dep[d]));
    acc = util::checked_add(acc, volume);
  }
  return acc;
}

}  // namespace

i64 region_length(const tile::TiledSpace& space, std::size_t d, i64 c,
                  i64 e_d, i64 dep_d) {
  const Span s = region_span(space, d, c, e_d, dep_d);
  return s.hi < s.lo ? 0 : util::checked_add(s.hi - s.lo, 1);
}

std::vector<CommRegion> comm_regions(const tile::TiledSpace& space,
                                     const Vec& t_src, const Vec& e) {
  std::vector<CommRegion> out;
  if (!consumer_exists(space, t_src, e)) return out;
  const auto& deps = space.deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    Vec lo(t_src.size());
    Vec hi(t_src.size());
    for (std::size_t d = 0; d < t_src.size(); ++d) {
      const Span s = region_span(space, d, t_src[d], e[d], deps[i][d]);
      lo[d] = s.lo;
      hi[d] = s.hi;
    }
    Box needed(std::move(lo), std::move(hi));
    if (!needed.empty()) out.push_back(CommRegion{i, std::move(needed)});
  }
  return out;
}

i64 region_points(const std::vector<CommRegion>& regions) {
  i64 acc = 0;
  for (const CommRegion& r : regions)
    acc = util::checked_add(acc, r.points.volume());
  return acc;
}

i64 region_bytes(const std::vector<CommRegion>& regions,
                 int bytes_per_element) {
  TILO_REQUIRE(bytes_per_element >= 1, "bytes_per_element must be >= 1");
  return util::checked_mul(region_points(regions), bytes_per_element);
}

std::vector<TileComm> outgoing(const tile::TiledSpace& space, const Vec& t) {
  std::vector<TileComm> out;
  const auto& deps = space.tile_deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const i64 pts = comm_points(space, t, deps[i]);
    if (pts == 0) continue;  // every region empty: no message
    out.push_back(TileComm{deps[i], pts, i});
  }
  return out;
}

std::vector<TileComm> incoming(const tile::TiledSpace& space, const Vec& t) {
  std::vector<TileComm> in;
  const auto& deps = space.tile_deps();
  for (std::size_t i = 0; i < deps.size(); ++i) {
    const Vec t_src = t - deps[i];
    if (!space.tile_space().contains(t_src)) continue;
    const i64 pts = comm_points(space, t_src, deps[i]);
    if (pts == 0) continue;
    in.push_back(TileComm{deps[i], pts, i});
  }
  return in;
}

}  // namespace tilo::exec
