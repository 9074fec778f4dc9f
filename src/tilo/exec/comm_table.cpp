#include "tilo/exec/comm_table.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

/// Cells of a box of `volume` iterations and per-dimension extent(d),
/// plus the low-side halo slabs its dependences read.
template <typename Extent>
i64 working_set(const loop::DependenceSet& deps, std::size_t dims, i64 volume,
                Extent extent) {
  i64 cells = volume;
  for (std::size_t d = 0; d < dims; ++d) {
    const i64 halo = deps.max_component(d);
    if (halo > 0)
      cells = util::checked_add(cells,
                                util::checked_mul(volume / extent(d), halo));
  }
  return cells;
}

/// Writes entry n of a comm list in place, so a rebuilt table reuses the
/// previous build's storage.
void put_comm(std::vector<TileComm>& list, std::size_t n, const Vec& offset,
              i64 points, std::size_t dir) {
  if (n < list.size()) {
    list[n].offset = offset;
    list[n].points = points;
    list[n].dir = dir;
  } else {
    list.push_back(TileComm{offset, points, dir});
  }
}

}  // namespace

i64 working_set_cells(const loop::DependenceSet& deps, const Box& box) {
  return working_set(deps, box.dims(), box.volume(),
                     [&](std::size_t d) { return box.extent(d); });
}

void CommTable::build(const tile::TiledSpace& space) {
  valid = false;
  sides = space.tiling().sides();
  domain = space.domain();
  deps = space.deps().vectors();
  const Box& ts = space.tile_space();
  const std::size_t dims = ts.dims();
  lo = ts.lo();
  hi = ts.hi();
  count.assign(dims, 1);
  low.assign(dims, 1);
  radix.assign(dims, 1);
  std::size_t total = 1;
  for (std::size_t d = dims; d-- > 0;) {
    // A low-edge tile thinner than a dependence component ships the next
    // tile less than a full slab, so that tile needs its own profile.
    const i64 low_width = std::min(util::checked_mul(lo[d] + 1, sides[d]),
                                   domain.hi()[d] + 1) -
                          domain.lo()[d];
    const i64 edge = low_width < space.deps().max_component(d) ? 2 : 1;
    const i64 extent = ts.extent(d);
    count[d] = std::min(extent, edge + 3);
    low[d] = extent <= edge + 3 ? extent : edge;
    radix[d] = total;
    total *= static_cast<std::size_t>(count[d]);
  }
  // Geometry factors per dimension: a class's volume is a product of
  // per-dimension extents, and each message's points a sum over
  // dependences of products of per-dimension region lengths.  So each
  // profile's lowest coordinate is priced once per dimension — its extent,
  // and per tile direction e and dependence the length it ships to +e
  // (out) and receives from -e (in), -1 where that neighbour lies outside
  // the tile space — and every class is assembled from those rows.
  const auto& dirs = space.tile_deps();
  const loop::DependenceSet& nest_deps = space.deps();
  const std::size_t ndirs = dirs.size();
  const std::size_t ndeps = nest_deps.size();
  std::size_t width = 0;
  for (std::size_t d = 0; d < dims; ++d)
    width = std::max(width, static_cast<std::size_t>(count[d]));
  std::vector<i64> extent(dims * width), out_len(dims * width * ndirs * ndeps),
      in_len(out_len.size());
  const auto inside = [&](std::size_t d, i64 c) {
    return c >= lo[d] && c <= hi[d];
  };
  for (std::size_t d = 0; d < dims; ++d) {
    for (i64 p = 0; p < count[d]; ++p) {
      const i64 c = p < low[d]            ? lo[d] + p
                    : p == count[d] - 1   ? hi[d]
                    : p == count[d] - 2   ? hi[d] - 1
                                          : lo[d] + low[d];
      const std::size_t row = d * width + static_cast<std::size_t>(p);
      extent[row] = region_length(space, d, c, 0, 0);
      for (std::size_t e = 0; e < ndirs; ++e) {
        const i64 e_d = dirs[e][d];
        for (std::size_t k = 0; k < ndeps; ++k) {
          const std::size_t at = (row * ndirs + e) * ndeps + k;
          const i64 dep_d = nest_deps[k][d];
          out_len[at] = inside(d, c + e_d)
                            ? region_length(space, d, c, e_d, dep_d)
                            : -1;
          in_len[at] = inside(d, c - e_d)
                           ? region_length(space, d, c - e_d, e_d, dep_d)
                           : -1;
        }
      }
    }
  }

  classes.resize(total);
  std::vector<std::size_t> row(dims);
  const auto points = [&](const std::vector<i64>& len, std::size_t e) {
    i64 acc = 0;
    for (std::size_t k = 0; k < ndeps; ++k) {
      i64 product = 1;
      for (std::size_t d = 0; d < dims; ++d) {
        const i64 l = len[(row[d] * ndirs + e) * ndeps + k];
        if (l < 0) return i64{0};  // no such neighbour tile
        product = util::checked_mul(product, l);
      }
      acc = util::checked_add(acc, product);
    }
    return acc;
  };
  for (std::size_t c = 0; c < total; ++c) {
    i64 volume = 1;
    for (std::size_t d = 0; d < dims; ++d) {
      row[d] = d * width + (c / radix[d]) % static_cast<std::size_t>(count[d]);
      volume = util::checked_mul(volume, extent[row[d]]);
    }
    TileClass& tc = classes[c];
    tc.volume = volume;
    tc.ws_cells = working_set(nest_deps, dims, volume,
                              [&](std::size_t d) { return extent[row[d]]; });
    std::size_t nin = 0, nout = 0;
    for (std::size_t e = 0; e < ndirs; ++e) {
      if (const i64 n = points(out_len, e); n > 0)
        put_comm(tc.out, nout++, dirs[e], n, e);
      if (const i64 n = points(in_len, e); n > 0)
        put_comm(tc.in, nin++, dirs[e], n, e);
    }
    tc.in.resize(nin);
    tc.out.resize(nout);
  }
  valid = true;
}

}  // namespace tilo::exec
