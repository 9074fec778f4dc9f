// Unit tests for tilo::exec regions — the communication geometry both
// executors share.  Includes the coverage property: every cross-tile read
// of every tile is covered by some incoming region.
#include <gtest/gtest.h>

#include <set>

#include "tilo/core/problem.hpp"
#include "tilo/exec/comm_table.hpp"
#include "tilo/exec/plan.hpp"
#include "tilo/exec/regions.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using exec::CommRegion;
using exec::TileComm;
using lat::Box;
using lat::Vec;
using loop::DependenceSet;
using loop::LoopNest;
using tile::RectTiling;
using tile::TiledSpace;
using util::i64;

TEST(RegionsTest, UnitStencilFaceRegions) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 8);
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  // Interior tile (0,0,0) -> (1,0,0): the i-high face, one layer thick.
  const auto regions = exec::comm_regions(space, Vec{0, 0, 0}, Vec{1, 0, 0});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0, 0}, Vec{3, 3, 3}));
  EXPECT_EQ(exec::region_points(regions), 16);
  EXPECT_EQ(exec::region_bytes(regions, 4), 64);
}

TEST(RegionsTest, ThickDependenceShipsThickSlab) {
  const LoopNest nest("thick", Box::from_extents(Vec{12, 12}),
                      DependenceSet({Vec{3, 0}}));
  const TiledSpace space(nest, RectTiling(Vec{6, 6}));
  const auto regions = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(regions.size(), 1u);
  // Rows 3..5 of the source tile feed rows 6..8 of the destination.
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0}, Vec{5, 5}));
}

TEST(RegionsTest, DiagonalDependenceShipsCorner) {
  const LoopNest small("diag", Box::from_extents(Vec{8, 8}),
                       DependenceSet({Vec{1, 1}}));
  const TiledSpace space(small, RectTiling(Vec{4, 4}));
  // Corner direction (1,1): exactly the single corner point.
  const auto corner = exec::comm_regions(space, Vec{0, 0}, Vec{1, 1});
  ASSERT_EQ(corner.size(), 1u);
  EXPECT_EQ(corner[0].points, Box(Vec{3, 3}, Vec{3, 3}));
  // Face direction (1,0): the high-i edge except the corner column shifted:
  // points p with p in [3,3]x[0,3] and p+(1,1) in tile (1,0) = rows 4..7,
  // cols 0..3 -> p_col in [-1..2] -> cols 0..2.
  const auto face = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(face.size(), 1u);
  EXPECT_EQ(face[0].points, Box(Vec{3, 0}, Vec{3, 2}));
}

TEST(RegionsTest, PartialBoundaryTilesClipRegions) {
  const LoopNest nest = loop::stencil3d_nest(6, 4, 4);  // dim0: tiles 4+2
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  const auto regions = exec::comm_regions(space, Vec{0, 0, 0}, Vec{1, 0, 0});
  ASSERT_EQ(regions.size(), 1u);
  EXPECT_EQ(regions[0].points.volume(), 16);  // full face still needed
  // No tile beyond the boundary: empty region list.
  EXPECT_TRUE(exec::comm_regions(space, Vec{1, 0, 0}, Vec{1, 0, 0}).empty());
}

TEST(RegionsTest, MultipleDepsProduceOneRegionEach) {
  const LoopNest nest("multi", Box::from_extents(Vec{8, 8}),
                      DependenceSet({Vec{1, 0}, Vec{2, 0}}));
  const TiledSpace space(nest, RectTiling(Vec{4, 4}));
  const auto regions = exec::comm_regions(space, Vec{0, 0}, Vec{1, 0});
  ASSERT_EQ(regions.size(), 2u);
  EXPECT_EQ(regions[0].points, Box(Vec{3, 0}, Vec{3, 3}));  // d = (1,0)
  EXPECT_EQ(regions[1].points, Box(Vec{2, 0}, Vec{3, 3}));  // d = (2,0)
  // Per-dependence multiplicity matches the paper's V_comm accounting.
  EXPECT_EQ(exec::region_points(regions), 4 + 8);
}

TEST(RegionsTest, OutgoingAndIncomingAreSymmetric) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 12);
  const TiledSpace space(nest, RectTiling(Vec{4, 4, 4}));
  space.for_each_tile([&](const Vec& t) {
    for (const TileComm& out : exec::outgoing(space, t)) {
      const Vec consumer = t + out.offset;
      const auto in = exec::incoming(space, consumer);
      bool found = false;
      for (const TileComm& cand : in) {
        if (cand.offset == out.offset) {
          found = true;
          EXPECT_EQ(cand.points, out.points);
          // The sender builds its regions from itself, the receiver from
          // its producer consumer - offset: both must name the same boxes.
          const auto sent = exec::comm_regions(space, t, out.offset);
          const auto recv =
              exec::comm_regions(space, consumer - cand.offset, cand.offset);
          EXPECT_EQ(exec::region_points(sent), out.points);
          ASSERT_EQ(recv.size(), sent.size());
          for (std::size_t i = 0; i < recv.size(); ++i)
            EXPECT_EQ(recv[i].points, sent[i].points);
        }
      }
      EXPECT_TRUE(found) << "no matching incoming for offset "
                         << out.offset.str();
    }
  });
}

// Coverage property: for every tile T and every point p in T, every input
// p - d that lies inside the domain but outside T is covered by exactly the
// incoming region for the producing tile's direction.
TEST(RegionsTest, IncomingRegionsCoverAllCrossTileReads) {
  const LoopNest nest("cover", Box::from_extents(Vec{7, 9}),
                      DependenceSet({Vec{1, 1}, Vec{1, 0}, Vec{0, 2}}));
  const TiledSpace space(nest, RectTiling(Vec{3, 4}));
  space.for_each_tile([&](const Vec& t) {
    // Gather all points delivered to tile t, per direction.
    std::set<std::vector<i64>> delivered;
    for (const TileComm& in : exec::incoming(space, t))
      for (const CommRegion& r :
           exec::comm_regions(space, t - in.offset, in.offset))
        r.points.for_each_point(
            [&](const Vec& p) { delivered.insert(p.data()); });

    const Box mine = space.tile_iterations(t);
    mine.for_each_point([&](const Vec& p) {
      for (const Vec& d : nest.deps().vectors()) {
        const Vec src = p - d;
        if (!nest.domain().contains(src)) continue;  // boundary value
        if (mine.contains(src)) continue;            // tile-local
        EXPECT_TRUE(delivered.count(src.data()))
            << "tile " << t.str() << " read " << src.str()
            << " not delivered";
      }
    });
  });
}

TEST(PlanTest, ScheduleLengthUsesClosedForms) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 64);
  const auto over = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                    sched::ScheduleKind::kOverlap);
  EXPECT_EQ(over.mapped_dim, 2u);  // tile space 4x4x8, largest is k
  EXPECT_EQ(over.schedule_length(), 2 * 3 + 2 * 3 + 7 + 1);
  const auto non = exec::make_plan(nest, RectTiling(Vec{4, 4, 8}),
                                   sched::ScheduleKind::kNonOverlap);
  EXPECT_EQ(non.schedule_length(), 3 + 3 + 7 + 1);
}

TEST(PlanTest, ExplicitMappingOverridesLargestRule) {
  const LoopNest nest = loop::stencil3d_nest(16, 16, 16);
  const auto plan = exec::make_plan_explicit(
      nest, RectTiling(Vec{4, 4, 4}), sched::ScheduleKind::kOverlap, 2,
      Vec{4, 4, 1});
  EXPECT_EQ(plan.mapped_dim, 2u);
  EXPECT_EQ(plan.mapping.num_ranks(), 16);
}

namespace {

bool same_comms(const std::vector<TileComm>& a,
                const std::vector<TileComm>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].offset != b[i].offset || a[i].points != b[i].points ||
        a[i].dir != b[i].dir)
      return false;
  return true;
}

/// Number of tiles whose class entry differs from the tile's own incoming,
/// outgoing, volume or working set.
i64 mismatching_tiles(const TiledSpace& space) {
  exec::CommTable table;
  table.build(space);
  i64 bad = 0;
  space.for_each_tile([&](const Vec& t) {
    const exec::CommTable::TileClass& c = table.tile_class(t);
    const Box box = space.tile_iterations(t);
    if (!same_comms(c.in, exec::incoming(space, t)) ||
        !same_comms(c.out, exec::outgoing(space, t)) ||
        c.volume != box.volume() ||
        c.ws_cells != exec::working_set_cells(space.deps(), box))
      ++bad;
  });
  return bad;
}

}  // namespace

TEST(CommTableTest, ThinLowEdgeTileGetsItsOwnNeighbourClass) {
  // The low-edge tile along dimension 0 holds one column (3..3) while the
  // dependence (2,0) reaches two: tile 1 receives 4 points along (1,0),
  // tiles 2.. receive 8, so tile 1 cannot share the interior class.
  const LoopNest nest("thin", Box(Vec{3, 0}, Vec{30, 7}),
                      DependenceSet({Vec{2, 0}, Vec{0, 1}}));
  const TiledSpace space(nest, RectTiling(Vec{4, 4}));
  ASSERT_EQ(exec::incoming(space, Vec{1, 0})[0].points, 4);
  ASSERT_EQ(exec::incoming(space, Vec{2, 0})[0].points, 8);
  EXPECT_EQ(mismatching_tiles(space), 0);
}

TEST(CommTableTest, ClassesAreExactOnRandomMisalignedDomains) {
  util::Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t dims = static_cast<std::size_t>(rng.uniform(1, 3));
    Vec sides(dims), lo(dims), hi(dims);
    for (std::size_t d = 0; d < dims; ++d) {
      // One side of at least 2, so some nonzero dependence fits a tile.
      sides[d] = rng.uniform(d == 0 ? 2 : 1, 6);
      lo[d] = rng.uniform(-5, 9);
      hi[d] = lo[d] + rng.uniform(0, 6 * sides[d]);
    }
    // Nonnegative dependences contained in one tile, each nonzero.
    std::vector<Vec> deps;
    const int ndeps = static_cast<int>(rng.uniform(1, 3));
    while (static_cast<int>(deps.size()) < ndeps) {
      Vec d(dims);
      for (std::size_t i = 0; i < dims; ++i)
        d[i] = rng.uniform(0, sides[i] - 1);
      if (!d.is_zero()) deps.push_back(d);
    }
    const LoopNest nest("random", Box(lo, hi), DependenceSet(deps));
    const TiledSpace space(nest, RectTiling(sides));
    EXPECT_EQ(mismatching_tiles(space), 0)
        << "trial " << trial << ": domain " << lo.str() << ".." << hi.str()
        << " sides " << sides.str();
  }
}

TEST(CommTableTest, PaperSpacesKeepFourProfilesPerDimension) {
  // Tile-aligned low edges need no extra profile: the key, and so every
  // timed paper-space result, is what it was before the thin-edge profile.
  for (const core::Problem& p :
       {core::paper_problem_i(), core::paper_problem_ii(),
        core::paper_problem_iii()}) {
    for (const i64 v : {8, 59, 116, 227, 444}) {
      const exec::TilePlan plan = p.plan(v, sched::ScheduleKind::kOverlap);
      const TiledSpace& space = plan.space;
      exec::CommTable table;
      table.build(space);
      for (std::size_t d = 0; d < space.dims(); ++d)
        EXPECT_EQ(table.count[d],
                  std::min<i64>(space.tile_space().extent(d), 4));
      EXPECT_EQ(mismatching_tiles(space), 0) << p.nest.name() << " V=" << v;
    }
  }
}
