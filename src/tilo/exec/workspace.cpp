#include "tilo/exec/workspace.hpp"

#include <algorithm>

#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

/// Fills `owners` with the rank owning column col - e (entry e) and
/// col + e (entry ndirs + e) for every tile direction e, -1 outside the
/// tile space.  A column has one owner, so these hold for every tile of
/// the column.
void column_owners(const TilePlan& plan, const Vec& col, i64 ndirs,
                   int* owners) {
  const auto& dirs = plan.space.tile_deps();
  std::fill(owners, owners + 2 * ndirs, -1);
  for (std::size_t e = 0; e < dirs.size(); ++e) {
    owners[e] = static_cast<int>(plan.mapping.column_rank(col, dirs[e], -1));
    owners[static_cast<std::size_t>(ndirs) + e] =
        static_cast<int>(plan.mapping.column_rank(col, dirs[e], +1));
  }
}

/// Owned and extended boxes of the rank owning the tile box `tiles`.  A
/// rank can own no tiles when the block distribution does not divide
/// evenly (e.g. 4 tile columns over 3 processors); it then simply idles.
void rank_boxes(const TilePlan& plan, const Box& tiles, RankState& rs) {
  if (tiles.empty()) {
    rs.owned = tiles;
    rs.extended = tiles;
    return;
  }
  // The tiles' iterations clipped to the domain, grown on the low sides
  // by the largest dependence component.
  const Vec& sides = plan.space.tiling().sides();
  const Box& domain = plan.space.domain();
  Vec lo(tiles.dims()), hi(tiles.dims()), elo(tiles.dims());
  for (std::size_t d = 0; d < tiles.dims(); ++d) {
    lo[d] = std::max(domain.lo()[d],
                     util::checked_mul(tiles.lo()[d], sides[d]));
    hi[d] = std::min(domain.hi()[d],
                     util::checked_mul(tiles.hi()[d] + 1, sides[d]) - 1);
    TILO_ASSERT(lo[d] <= hi[d], "rank owns no iterations");
    elo[d] = lo[d] - plan.space.deps().max_component(d);
  }
  rs.extended = Box(std::move(elo), hi);
  rs.owned = Box(std::move(lo), std::move(hi));
}

}  // namespace

void RankLayout::build(const TilePlan& plan, const CommTable& comm) {
  valid = false;
  procs = plan.mapping.procs();
  md = plan.mapped_dim;
  const Box& ts = plan.space.tile_space();
  const auto& dirs = plan.space.tile_deps();
  klo = ts.lo()[md];
  khi = ts.hi()[md];
  ndirs = static_cast<i64>(std::max<std::size_t>(1, dirs.size()));
  std::vector<i64> strides(ts.dims(), 1);
  for (std::size_t d = ts.dims() - 1; d-- > 0;)
    strides[d] = util::checked_mul(strides[d + 1], ts.extent(d + 1));
  stride = strides[md];
  delta.clear();
  for (const Vec& e : dirs) {
    i64 de = 0;
    for (std::size_t d = 0; d < e.size(); ++d)
      de = util::checked_add(de, util::checked_mul(e[d], strides[d]));
    delta.push_back(de);
  }
  // Along md every tile outside the first low[md] and the last two has
  // the interior profile low[md] (CommTable::profile).
  const std::size_t nk = static_cast<std::size_t>(khi - klo + 1);
  const std::size_t count = static_cast<std::size_t>(comm.count[md]);
  const std::size_t interior = static_cast<std::size_t>(comm.low[md]);
  kclass.assign(nk, interior * comm.radix[md]);
  for (std::size_t k = 0; k < nk; ++k) {
    if (k == interior && k + 2 < nk) k = nk - 2;
    kclass[k] = comm.profile(md, klo + static_cast<i64>(k)) * comm.radix[md];
  }
  kmult.assign(count, 1);
  if (count < nk) kmult[interior] = static_cast<i64>(nk - count + 1);

  // Per rank, its columns in ProcessorMapping::columns_of_rank's order
  // (its tile box with the mapped dimension collapsed to klo), assigned
  // in place so a rebuild reuses the column storage.
  const int num_ranks = static_cast<int>(plan.mapping.num_ranks());
  const std::size_t per_column = static_cast<std::size_t>(2 * ndirs);
  std::size_t n = 0;
  first.assign(1, 0);
  lin.clear();
  base.clear();
  owners.clear();
  ranks.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < num_ranks; ++r) {
    const Box tiles = plan.mapping.tiles_of_rank(r);
    Vec top = tiles.hi();
    top[md] = tiles.lo()[md];
    Box(tiles.lo(), std::move(top)).for_each_point([&](const Vec& c) {
      if (n == col.size()) col.emplace_back();
      col[n++] = c;
      lin.push_back(ts.linear_index(c));
      base.push_back(comm.column_base(c, md));
      owners.resize(owners.size() + per_column);
      column_owners(plan, c, ndirs, &owners[owners.size() - per_column]);
    });
    first.push_back(n);
    rank_boxes(plan, tiles, ranks[static_cast<std::size_t>(r)]);
  }
  col.resize(n);
  valid = true;
}

void RunWorkspace::Impl::prepare(const TilePlan& plan) {
  if (!comm.matches(plan.space)) {
    comm.build(plan.space);
    layout.valid = false;
  }
  if (!layout.matches(plan)) layout.build(plan, comm);
}

msg::Cluster& RunWorkspace::Impl::reset_cluster(
    int num_ranks, std::shared_ptr<const mach::Model> model,
    mach::OverlapLevel level, const CommConfig& config, obs::Sink* sink) {
  if (cluster) {
    cluster->reset(num_ranks, std::move(model), level, config.network, sink,
                   config.protocol);
  } else {
    cluster = std::make_unique<msg::Cluster>(num_ranks, std::move(model),
                                             level, config.network, sink,
                                             config.protocol);
  }
  return *cluster;
}

const msg::Cluster& RunWorkspace::Impl::pricing_cluster(
    int num_ranks, std::shared_ptr<const mach::Model> model) {
  if (cluster && &cluster->model() == model.get()) return *cluster;
  const CommConfig config;
  return reset_cluster(num_ranks, std::move(model), config.level, config,
                       nullptr);
}

}  // namespace tilo::exec
