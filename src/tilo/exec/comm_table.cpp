#include "tilo/exec/comm_table.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::exec {

i64 working_set_cells(const loop::DependenceSet& deps, const Box& box) {
  i64 cells = box.volume();
  for (std::size_t d = 0; d < box.dims(); ++d) {
    const i64 halo = deps.max_component(d);
    if (halo > 0)
      cells = util::checked_add(
          cells, util::checked_mul(box.volume() / box.extent(d), halo));
  }
  return cells;
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
  classes.clear();
  classes.reserve(total);
  Vec t(dims);
  for (std::size_t c = 0; c < total; ++c) {
    // The lowest tile of each profile.
    for (std::size_t d = 0; d < dims; ++d) {
      const i64 p = static_cast<i64>(c / radix[d]) % count[d];
      t[d] = p < low[d]              ? lo[d] + p
             : p == count[d] - 1     ? hi[d]
             : p == count[d] - 2     ? hi[d] - 1
                                     : lo[d] + low[d];
    }
    const Box box = space.tile_iterations(t);
    classes.push_back(TileClass{incoming(space, t), outgoing(space, t),
                                box.volume(),
                                working_set_cells(space.deps(), box)});
  }
  valid = true;
}

}  // namespace tilo::exec
