#include "tilo/sched/mapping.hpp"

#include "tilo/util/error.hpp"

namespace tilo::sched {

ProcessorMapping::ProcessorMapping(const Box& tile_space,
                                   std::size_t mapped_dim, Vec procs)
    : tile_space_(tile_space), mapped_dim_(mapped_dim),
      procs_(std::move(procs)) {
  TILO_REQUIRE(!tile_space_.empty(), "empty tile space");
  TILO_REQUIRE(mapped_dim_ < tile_space_.dims(), "mapped_dim out of range");
  TILO_REQUIRE(procs_.size() == tile_space_.dims(),
               "procs dimensionality mismatch");
  TILO_REQUIRE(procs_[mapped_dim_] == 1,
               "the mapping dimension must have exactly 1 processor");
  block_ = Vec(procs_.size());
  for (std::size_t d = 0; d < procs_.size(); ++d) {
    TILO_REQUIRE(procs_[d] >= 1, "processor count must be >= 1");
    TILO_REQUIRE(procs_[d] <= tile_space_.extent(d),
                 "more processors (", procs_[d], ") than tile columns (",
                 tile_space_.extent(d), ") in dimension ", d);
    block_[d] = util::ceil_div(tile_space_.extent(d), procs_[d]);
  }
}

ProcessorMapping ProcessorMapping::one_column_per_proc(
    const Box& tile_space, std::size_t mapped_dim) {
  Vec procs = tile_space.extents();
  TILO_REQUIRE(mapped_dim < tile_space.dims(), "mapped_dim out of range");
  procs[mapped_dim] = 1;
  return ProcessorMapping(tile_space, mapped_dim, std::move(procs));
}

i64 ProcessorMapping::num_ranks() const {
  i64 n = 1;
  for (i64 p : procs_) n = util::checked_mul(n, p);
  return n;
}

Vec ProcessorMapping::proc_of_tile(const Vec& t) const {
  TILO_REQUIRE(tile_space_.contains(t), "tile ", t.str(),
               " outside tile space");
  Vec p(dims(), 0);
  for (std::size_t d = 0; d < dims(); ++d) {
    if (d == mapped_dim_) continue;
    p[d] = (t[d] - tile_space_.lo()[d]) / block_[d];
  }
  return p;
}

i64 ProcessorMapping::rank_of_proc(const Vec& p) const {
  TILO_REQUIRE(p.size() == dims(), "proc coordinate dimensionality mismatch");
  i64 rank = 0;
  for (std::size_t d = 0; d < dims(); ++d) {
    TILO_REQUIRE(p[d] >= 0 && p[d] < procs_[d], "proc coordinate ", p.str(),
                 " out of grid ", procs_.str());
    rank = util::checked_add(util::checked_mul(rank, procs_[d]), p[d]);
  }
  return rank;
}

Vec ProcessorMapping::proc_of_rank(i64 rank) const {
  TILO_REQUIRE(rank >= 0 && rank < num_ranks(), "rank ", rank,
               " out of range");
  Vec p(dims());
  for (std::size_t d = dims(); d-- > 0;) {
    p[d] = rank % procs_[d];
    rank /= procs_[d];
  }
  return p;
}

i64 ProcessorMapping::column_rank(const Vec& t, const Vec& offset,
                                  i64 sign) const {
  TILO_REQUIRE(t.size() == dims() && offset.size() == dims(),
               "column_rank dimensionality mismatch");
  i64 rank = 0;
  for (std::size_t d = 0; d < dims(); ++d) {
    if (d == mapped_dim_) continue;  // procs_[d] == 1, coordinate 0
    const i64 c = t[d] + sign * offset[d];
    if (c < tile_space_.lo()[d] || c > tile_space_.hi()[d]) return -1;
    rank = rank * procs_[d] + (c - tile_space_.lo()[d]) / block_[d];
  }
  return rank;
}

Box ProcessorMapping::tiles_of_rank(i64 rank) const {
  const Vec p = proc_of_rank(rank);
  Vec lo(dims());
  Vec hi(dims());
  for (std::size_t d = 0; d < dims(); ++d) {
    if (d == mapped_dim_) {
      lo[d] = tile_space_.lo()[d];
      hi[d] = tile_space_.hi()[d];
    } else {
      lo[d] = tile_space_.lo()[d] + p[d] * block_[d];
      hi[d] = std::min(tile_space_.hi()[d], lo[d] + block_[d] - 1);
    }
  }
  return Box(std::move(lo), std::move(hi));
}

std::vector<Vec> ProcessorMapping::columns_of_rank(i64 rank) const {
  const Box owned = tiles_of_rank(rank);
  // Collapse the mapping dimension to its low bound and enumerate the rest.
  Vec lo = owned.lo();
  Vec hi = owned.hi();
  hi[mapped_dim_] = lo[mapped_dim_];
  std::vector<Vec> cols;
  Box(lo, hi).for_each_point([&cols](const Vec& t) { cols.push_back(t); });
  return cols;
}

}  // namespace tilo::sched
