#include "tilo/exec/run.hpp"

#include <algorithm>
#include <cmath>
#include <coroutine>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "tilo/exec/coro.hpp"
#include "tilo/exec/regions.hpp"
#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

using lat::Box;
using lat::Vec;
using util::i64;

/// Per-rank distributed state.  `extended` grows `owned` on its low sides by
/// the maximum dependence component, so every read p - d of an owned point p
/// is an in-array access: cells outside the domain hold boundary values,
/// cells owned by neighbors are filled by received messages.
struct RankState {
  Box owned;
  Box extended;
  std::vector<double> values;  // functional mode only, over `extended`

  double& at(const Vec& p) {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
  double get(const Vec& p) const {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
};

/// Cells a tile's computation touches: its own cells plus the low-side
/// halo slabs it reads (the paper's Fig. 6 working set).
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

/// Per-tile communication geometry for one tiled space, built once and
/// reused across runs (the overlap and non-overlap schedules at one tile
/// height share it, and so do timed and functional runs).
///
/// The runs read the (offset, points, dir) summaries and the tile's volume
/// and working set, and those are translation-invariant: every tile with
/// the same boundary profile (per dimension: at the low edge, at the high
/// edge, adjacent to a clipped high-edge tile, or interior) has a
/// byte-identical summary.  The tile space is a box, so the classes that
/// occur are the Cartesian product of each dimension's occurring profiles
/// (at most 4 per dimension: min(extent, 4)).  The table holds one entry
/// per class, built from its lowest tile in linear order, indexed mixed
/// radix; the per-point setup costs O(classes × geometry), independent of
/// the tile count.
struct CommTable {
  /// One class of tiles sharing their comm lists, volume and working set.
  struct TileClass {
    std::vector<TileComm> in, out;
    i64 volume = 0;    // iterations of each tile in the class
    i64 ws_cells = 0;  // working_set_cells of each tile
  };

  // Geometry key: tile sides, domain and dependence set identify the space
  // (the dependences fix both the tile directions and the region sizes).
  lat::Vec sides;
  Box domain;
  std::vector<Vec> deps;
  bool valid = false;
  Vec lo, hi;                   // tile space bounds
  std::vector<i64> count;       // per dimension: occurring profiles
  std::vector<std::size_t> radix;  // per dimension: class-index stride
  std::vector<TileClass> classes;

  bool matches(const tile::TiledSpace& space) const {
    return valid && sides == space.tiling().sides() &&
           domain == space.domain() && deps == space.deps().vectors();
  }

  /// Profile of coordinate c along dimension d: 0 at the low edge,
  /// count-1 at the high edge, count-2 just before it, 1 in the interior.
  std::size_t profile(std::size_t d, i64 c) const {
    const i64 n = count[d];
    const i64 p = c == lo[d]       ? 0
                  : c == hi[d]     ? n - 1
                  : c + 1 == hi[d] ? n - 2
                                   : 1;
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

  void build(const tile::TiledSpace& space) {
    valid = false;
    sides = space.tiling().sides();
    domain = space.domain();
    deps = space.deps().vectors();
    const Box& ts = space.tile_space();
    const std::size_t dims = ts.dims();
    lo = ts.lo();
    hi = ts.hi();
    count.assign(dims, 1);
    radix.assign(dims, 1);
    std::size_t total = 1;
    for (std::size_t d = dims; d-- > 0;) {
      count[d] = std::min<i64>(ts.extent(d), 4);
      radix[d] = total;
      total *= static_cast<std::size_t>(count[d]);
    }
    classes.clear();
    classes.reserve(total);
    Vec t(dims);
    for (std::size_t c = 0; c < total; ++c) {
      // The lowest coordinate of each profile: lo, lo+1, hi-1, hi.
      for (std::size_t d = 0; d < dims; ++d) {
        const i64 p = static_cast<i64>(c / radix[d]) % count[d];
        t[d] = p == 0 ? lo[d]
             : p == count[d] - 1 ? hi[d]
             : p == count[d] - 2 ? hi[d] - 1
                                 : lo[d] + 1;
      }
      const Box box = space.tile_iterations(t);
      classes.push_back(TileClass{incoming(space, t), outgoing(space, t),
                                  box.volume(),
                                  working_set_cells(space.deps(), box)});
    }
    valid = true;
  }
};

/// Run context shared by the rank programs.  Programs walk each owned tile
/// column by linear tile index: tile k of a column starting at `col_lin` is
/// col_lin + (k - klo)·stride, the neighbour along tile direction e is
/// lin ∓ delta[e], and its message tag is (consumer lin)·ndirs + e.  Tile
/// coordinates are only materialized for the TileCostModel hook and for
/// functional runs.
struct Ctx {
  const loop::LoopNest* nest = nullptr;
  const TilePlan* plan = nullptr;
  RunOptions opts;
  msg::Cluster* cluster = nullptr;
  std::vector<RankState>* ranks = nullptr;
  const CommTable* comm = nullptr;
  ProgramErrorSink sink;
  int bpe = 4;
  i64 ndirs = 1;
  std::size_t md = 0;      // mapped dimension
  i64 klo = 0, khi = 0;    // tile range along it
  i64 stride = 0;          // linear-index stride along it
  std::vector<i64> delta;  // per tile direction: linear-index offset
  int completed_ranks = 0;

  ProgramErrorSink& error_sink() { return sink; }

  /// Coordinate of tile k of column `col`.
  Vec tile(const Vec& col, i64 k) const {
    Vec t = col;
    t[md] = k;
    return t;
  }

  /// Message tags are unique per (consumer tile, direction).
  i64 tag(i64 consumer_lin, std::size_t dir) const {
    return util::checked_add(util::checked_mul(consumer_lin, ndirs),
                             static_cast<i64>(dir));
  }

  /// Class of tile k of the column whose class base is `base`.
  const CommTable::TileClass& tile_class(std::size_t base, i64 k) const {
    return comm->classes[base + comm->profile(md, k) * comm->radix[md]];
  }

  /// Inbound (or outbound) comm list of tile k of the column at `base`.
  const std::vector<TileComm>& comms(std::size_t base, i64 k,
                                     bool outbound) const {
    const CommTable::TileClass& c = tile_class(base, k);
    return outbound ? c.out : c.in;
  }

  /// CPU time of tile k of column `col`: its iterations (the full box
  /// volume, or the TileCostModel's refinement for non-uniform workloads)
  /// over its working set.
  sim::Time compute_ns(const Vec& col, std::size_t base, i64 k) const {
    const CommTable::TileClass& c = tile_class(base, k);
    i64 iterations = c.volume;
    if (opts.tile_costs) {
      const Vec t = tile(col, k);
      iterations = opts.tile_costs->tile_iterations(
          t, plan->space.tile_iterations(t));
    }
    return cluster->compute_ns(iterations,
                               util::checked_mul(c.ws_cells, bpe));
  }

  /// Bytes of the message for comm record `c` of tile k of column `col`;
  /// its consumer is that tile (inbound) or the tile at +c.offset
  /// (outbound).  Both ends of a message route through the consumer's
  /// coordinate, so sender and receiver always agree on its size.  The
  /// hook-free path never touches tile geometry.
  i64 message_bytes(const Vec& col, i64 k, const TileComm& c,
                    bool outbound) const {
    i64 points = c.points;
    if (opts.tile_costs) {
      Vec consumer = tile(col, k);
      if (outbound) consumer += c.offset;
      points = opts.tile_costs->message_points(
          consumer, plan->space.tile_iterations(consumer), c.offset,
          c.points);
    }
    return util::checked_mul(points, bpe);
  }

  /// Fills `owners` with the rank owning column col - e (entry e) and
  /// col + e (entry ndirs + e) for every tile direction e, -1 outside the
  /// tile space, and returns the column's linear index.  A column has one
  /// owner, so these hold for every tile of the column.
  i64 column_owners(const Vec& col, std::vector<int>& owners) const {
    const auto& dirs = plan->space.tile_deps();
    owners.assign(static_cast<std::size_t>(2 * ndirs), -1);
    for (std::size_t e = 0; e < dirs.size(); ++e) {
      owners[e] = static_cast<int>(plan->mapping.column_rank(col, dirs[e], -1));
      owners[static_cast<std::size_t>(ndirs) + e] =
          static_cast<int>(plan->mapping.column_rank(col, dirs[e], +1));
    }
    return plan->space.tile_space().linear_index(col);
  }
};

void init_rank_state(Ctx& ctx, int rank) {
  const auto& mapping = ctx.plan->mapping;
  const auto& tiling = ctx.plan->space.tiling();
  const Box tiles = mapping.tiles_of_rank(rank);
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];
  // A rank can own no tiles when the block distribution does not divide
  // evenly (e.g. 4 tile columns over 3 processors); it then simply idles.
  if (tiles.empty()) {
    rs.owned = tiles;
    rs.extended = tiles;
    rs.values.clear();
    return;
  }
  const Box owned = Box(tiling.tile_origin(tiles.lo()),
                        tiling.tile_box(tiles.hi()).hi())
                        .intersect(ctx.plan->space.domain());
  TILO_ASSERT(!owned.empty(), "rank ", rank, " owns no iterations");

  Vec elo = owned.lo();
  for (std::size_t d = 0; d < elo.size(); ++d)
    elo[d] -= ctx.nest->deps().max_component(d);
  const Box extended(elo, owned.hi());

  rs.owned = owned;
  rs.extended = extended;
  if (ctx.opts.functional) {
    const loop::Kernel& kernel = ctx.nest->kernel();
    const Box& domain = ctx.plan->space.domain();
    // assign() reuses the workspace's value buffer capacity across runs.
    rs.values.assign(static_cast<std::size_t>(extended.volume()),
                     std::numeric_limits<double>::quiet_NaN());
    // Ghost cells outside the domain hold the boundary values, so every
    // kernel input is a plain array read.  In-domain cells start as NaN:
    // a read of a never-filled cell poisons the result visibly.
    extended.for_each_point([&](const Vec& p) {
      if (!domain.contains(p)) rs.at(p) = kernel.boundary(p);
    });
  } else {
    rs.values.clear();
  }
}

void compute_tile_values(Ctx& ctx, RankState& rs, const Box& box) {
  const auto& deps = ctx.nest->deps();
  const loop::Kernel& kernel = ctx.nest->kernel();
  std::vector<double> inputs(deps.size());
  box.for_each_point([&](const Vec& p) {
    for (std::size_t i = 0; i < deps.size(); ++i)
      inputs[i] = rs.at(p - deps[i]);
    rs.at(p) = kernel.apply(p, inputs);
  });
}

msg::Payload encode_payload(const RankState& rs,
                            const std::vector<CommRegion>& regions) {
  auto data = std::make_shared<std::vector<double>>();
  data->reserve(static_cast<std::size_t>(region_points(regions)));
  for (const CommRegion& r : regions) {
    r.points.for_each_point(
        [&](const Vec& p) { data->push_back(rs.get(p)); });
  }
  return msg::Payload{std::move(data)};
}

void apply_payload(RankState& rs, const std::vector<CommRegion>& regions,
                   const msg::Payload& payload) {
  if (!payload.has_data()) return;  // timed mode
  std::size_t off = 0;
  for (const CommRegion& r : regions) {
    r.points.for_each_point([&](const Vec& p) {
      TILO_ASSERT(off < payload.data->size(), "payload shorter than region");
      rs.at(p) = (*payload.data)[off++];
    });
  }
  TILO_ASSERT(off == payload.data->size(), "payload longer than region");
}

/// The paper's blocking ProcB program (Section 5 pseudocode): for every
/// owned tile, in column-major k order: blocking-receive all inbound
/// messages, compute, blocking-send all outbound messages.
RankProgram blocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];

  // Temporaries are hoisted into named locals before every loop that
  // crosses a suspension point (GCC 12 mishandles lifetime-extended
  // range-for temporaries in coroutine frames).
  const std::vector<Vec> columns = ctx.plan->mapping.columns_of_rank(rank);
  std::vector<int> owners;
  for (const Vec& col : columns) {
    const i64 col_lin = ctx.column_owners(col, owners);
    const std::size_t base = ctx.comm->column_base(col, ctx.md);
    for (i64 k = ctx.klo; k <= ctx.khi; ++k) {
      const i64 lin = col_lin + (k - ctx.klo) * ctx.stride;

      // Receive phase: block until each message is on the wire-side done,
      // then pay the receive pipeline on the CPU (no overlap, Fig. 7).
      const std::vector<TileComm>& ins = ctx.comms(base, k, false);
      for (const TileComm& in : ins) {
        const int src_rank = owners[in.dir];
        if (src_rank == rank) continue;
        auto h = ep.irecv(src_rank, ctx.tag(lin, in.dir));
        co_await RecvReadyAwait{*ctx.cluster, rank, h};
        const i64 bytes = ctx.message_bytes(col, k, in, false);
        co_await CpuAwait{ep,
                          ctx.cluster->half_wire_ns(bytes) +
                              ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelRecv};
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        if (ctx.opts.functional)
          apply_payload(rs,
                        comm_regions(ctx.plan->space,
                                     ctx.tile(col, k) - in.offset, in.offset),
                        h->payload);
      }

      // Compute phase.
      co_await CpuAwait{ep, ctx.compute_ns(col, base, k),
                        obs::Phase::kCompute};
      if (ctx.opts.functional)
        compute_tile_values(ctx, rs,
                            ctx.plan->space.tile_iterations(ctx.tile(col, k)));

      // Send phase: the whole send pipeline runs on the CPU.
      const std::vector<TileComm>& outs = ctx.comms(base, k, true);
      for (const TileComm& out : outs) {
        const int dst_rank = owners[static_cast<std::size_t>(ctx.ndirs) +
                                    out.dir];
        if (dst_rank == rank) continue;
        const i64 bytes = ctx.message_bytes(col, k, out, true);
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiSend};
        co_await CpuAwait{ep, ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelSend};
        co_await CpuAwait{ep, ctx.cluster->half_wire_ns(bytes),
                          obs::Phase::kWire};
        msg::Payload payload;
        if (ctx.opts.functional)
          payload = encode_payload(
              rs, comm_regions(ctx.plan->space, ctx.tile(col, k), out.offset));
        ep.post_blocking(dst_rank, ctx.tag(lin + ctx.delta[out.dir], out.dir),
                         bytes, std::move(payload));
      }
    }
  }
  ++ctx.completed_ranks;
}

/// The paper's nonblocking ProcNB program (Section 5 pseudocode), one step
/// per j in [klo-1, khi+1]: send the results of tile j-1, post receives for
/// tile j+1, compute tile j (each if that tile exists), then wait on all
/// handles — the pipelined overlapping schedule of Fig. 2.  The first step
/// only fetches tile klo's inputs and the last only ships tile khi's
/// results.
RankProgram nonblocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  RankState& rs = (*ctx.ranks)[static_cast<std::size_t>(rank)];

  struct PendingRecv {
    std::shared_ptr<msg::RecvHandle> handle;
    const TileComm* comm;
    i64 k = 0;      ///< consumer tile along the column
    i64 bytes = 0;  ///< message size, resolved at post time (consumer tile)
  };

  const std::vector<Vec> columns = ctx.plan->mapping.columns_of_rank(rank);
  std::vector<int> owners;
  std::vector<PendingRecv> pending;
  std::vector<std::shared_ptr<msg::SendHandle>> sends;
  for (const Vec& col : columns) {
    const i64 col_lin = ctx.column_owners(col, owners);
    const std::size_t base = ctx.comm->column_base(col, ctx.md);
    for (i64 j = ctx.klo - 1; j <= ctx.khi + 1; ++j) {
      const i64 lin = col_lin + (j - ctx.klo) * ctx.stride;

      // 1. Nonblocking sends of tile (j-1)'s results (A1 on the CPU, the
      //    rest of the pipeline on the DMA channel).
      if (j > ctx.klo) {
        const i64 prev = lin - ctx.stride;
        const std::vector<TileComm>& outs = ctx.comms(base, j - 1, true);
        for (const TileComm& out : outs) {
          const int dst_rank =
              owners[static_cast<std::size_t>(ctx.ndirs) + out.dir];
          if (dst_rank == rank) continue;
          const i64 bytes = ctx.message_bytes(col, j - 1, out, true);
          co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                            obs::Phase::kFillMpiSend};
          msg::Payload payload;
          if (ctx.opts.functional)
            payload = encode_payload(
                rs, comm_regions(ctx.plan->space, ctx.tile(col, j - 1),
                                 out.offset));
          sends.push_back(
              ep.isend(dst_rank, ctx.tag(prev + ctx.delta[out.dir], out.dir),
                       bytes, std::move(payload)));
          // Imperfect overlap: the offloaded send steals CPU cycles.
          // Guarded so ideal models (stall == 0) leave the trace untouched.
          const sim::Time sstall = ctx.cluster->send_interference_ns(bytes);
          if (sstall > 0)
            co_await CpuAwait{ep, sstall, obs::Phase::kKernelSend};
        }
      }

      // 2. Post receives for tile (j+1)'s data.
      if (j < ctx.khi) {
        const i64 next = lin + ctx.stride;
        const std::vector<TileComm>& ins = ctx.comms(base, j + 1, false);
        for (const TileComm& in : ins) {
          const int src_rank = owners[in.dir];
          if (src_rank == rank) continue;
          auto h = ep.irecv(src_rank, ctx.tag(next, in.dir));
          pending.push_back(PendingRecv{
              std::move(h), &in, j + 1,
              ctx.message_bytes(col, j + 1, in, false)});
        }
      }

      // 3. Compute tile j while the DMA channels move data.
      if (j >= ctx.klo && j <= ctx.khi) {
        co_await CpuAwait{ep, ctx.compute_ns(col, base, j),
                          obs::Phase::kCompute};
        if (ctx.opts.functional)
          compute_tile_values(
              ctx, rs, ctx.plan->space.tile_iterations(ctx.tile(col, j)));
      }

      // 4. Wait for the sends (buffer reuse) ...
      for (auto& s : sends) co_await SendDoneAwait{*ctx.cluster, rank, s};
      sends.clear();

      // 5. ... and for the receives: kernel-ready, then the A3 CPU copy.
      for (PendingRecv& pr : pending) {
        co_await RecvReadyAwait{*ctx.cluster, rank, pr.handle};
        const i64 bytes = pr.bytes;
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        // Imperfect overlap: the offloaded receive steals CPU cycles.
        const sim::Time rstall = ctx.cluster->recv_interference_ns(bytes);
        if (rstall > 0)
          co_await CpuAwait{ep, rstall, obs::Phase::kKernelRecv};
        if (ctx.opts.functional) {
          const Vec& e = pr.comm->offset;
          apply_payload(
              rs, comm_regions(ctx.plan->space, ctx.tile(col, pr.k) - e, e),
              pr.handle->payload);
        }
      }
      pending.clear();
    }
  }
  ++ctx.completed_ranks;
}

loop::DenseField assemble_field(const Ctx& ctx) {
  const Box& domain = ctx.plan->space.domain();
  loop::DenseField field{
      domain,
      std::vector<double>(static_cast<std::size_t>(domain.volume()), 0.0)};
  for (const RankState& rs : *ctx.ranks) {
    rs.owned.for_each_point([&](const Vec& p) {
      field.values[static_cast<std::size_t>(domain.linear_index(p))] =
          rs.get(p);
    });
  }
  return field;
}

}  // namespace

struct RunWorkspace::Impl {
  std::vector<RankState> ranks;
  CommTable comm;
  /// Reset per run; its event, transfer and handle pools stay warm.
  std::unique_ptr<msg::Cluster> cluster;
};

RunWorkspace::RunWorkspace() : impl_(std::make_unique<Impl>()) {}
RunWorkspace::~RunWorkspace() = default;
RunWorkspace::RunWorkspace(RunWorkspace&&) noexcept = default;
RunWorkspace& RunWorkspace::operator=(RunWorkspace&&) noexcept = default;

RunResult run_plan(const loop::LoopNest& nest, const TilePlan& plan,
                   std::shared_ptr<const mach::Model> model,
                   const RunOptions& opts, RunWorkspace* workspace) {
  TILO_REQUIRE(model != nullptr, "run_plan needs a machine model");
  TILO_REQUIRE(nest.domain() == plan.space.domain(),
               "plan was built for a different domain");
  if (opts.functional)
    TILO_REQUIRE(nest.has_kernel(),
                 "functional execution needs a loop body");
  TILO_REQUIRE(!(opts.functional && opts.tile_costs),
               "per-tile cost models are timed-only: trimmed messages do "
               "not match the functional value regions");

  const i64 num_ranks = plan.mapping.num_ranks();
  TILO_REQUIRE(num_ranks <= std::numeric_limits<int>::max(),
               "too many ranks");

  std::optional<RunWorkspace> local;
  RunWorkspace::Impl& ws = *(workspace ? workspace : &local.emplace())->impl_;
  if (!ws.comm.matches(plan.space)) ws.comm.build(plan.space);

  Ctx ctx;
  ctx.nest = &nest;
  ctx.plan = &plan;
  ctx.opts = opts;
  ctx.ranks = &ws.ranks;
  ctx.comm = &ws.comm;
  ctx.bpe = model->params().bytes_per_element;
  const auto& dirs = plan.space.tile_deps();
  ctx.ndirs = static_cast<i64>(std::max<std::size_t>(1, dirs.size()));
  const Box& ts = plan.space.tile_space();
  ctx.md = plan.mapped_dim;
  ctx.klo = ts.lo()[ctx.md];
  ctx.khi = ts.hi()[ctx.md];
  std::vector<i64> strides(ts.dims(), 1);
  for (std::size_t d = ts.dims() - 1; d-- > 0;)
    strides[d] = util::checked_mul(strides[d + 1], ts.extent(d + 1));
  ctx.stride = strides[ctx.md];
  for (const Vec& e : dirs) {
    i64 delta = 0;
    for (std::size_t d = 0; d < e.size(); ++d)
      delta = util::checked_add(delta, util::checked_mul(e[d], strides[d]));
    ctx.delta.push_back(delta);
  }

  // The blocking executor models the no-overlap machine; the nonblocking
  // executor needs a DMA-capable level.
  mach::OverlapLevel level = mach::OverlapLevel::kNone;
  if (plan.kind == sched::ScheduleKind::kOverlap) {
    TILO_REQUIRE(opts.comm.level != mach::OverlapLevel::kNone,
                 "the overlapping schedule needs OverlapLevel::kDma or "
                 "kDuplexDma");
    level = opts.comm.level;
  }

  if (ws.cluster) {
    ws.cluster->reset(static_cast<int>(num_ranks), std::move(model), level,
                      opts.comm.network, opts.sink, opts.comm.protocol);
  } else {
    ws.cluster = std::make_unique<msg::Cluster>(
        static_cast<int>(num_ranks), std::move(model), level,
        opts.comm.network, opts.sink, opts.comm.protocol);
  }
  ctx.cluster = ws.cluster.get();
  if (opts.faults.drop_message >= 0)
    ctx.cluster->inject_message_loss(opts.faults.drop_message);
  ws.ranks.resize(static_cast<std::size_t>(num_ranks));
  for (int r = 0; r < static_cast<int>(num_ranks); ++r)
    init_rank_state(ctx, r);

  for (int r = 0; r < static_cast<int>(num_ranks); ++r) {
    if (plan.kind == sched::ScheduleKind::kOverlap) {
      nonblocking_program(ctx, r);
    } else {
      blocking_program(ctx, r);
    }
  }

  const sim::Time end = ctx.cluster->run();
  // Reclaim any programs still parked on message waits (lost message or
  // deadlock): destroying the frames releases their buffers and handles.
  const std::vector<void*> stalled = ctx.cluster->take_suspended();
  for (void* address : stalled)
    std::coroutine_handle<>::from_address(address).destroy();
  if (ctx.sink.error) std::rethrow_exception(ctx.sink.error);
  TILO_REQUIRE(ctx.completed_ranks == static_cast<int>(num_ranks),
               "rank programs stalled: only ", ctx.completed_ranks, " of ",
               num_ranks,
               " completed — lost message or scheduling deadlock (",
               stalled.size(), " programs reclaimed)");

  RunResult result;
  result.completion = end;
  result.seconds = sim::to_seconds(end);
  result.messages = ctx.cluster->messages_sent();
  result.bytes = ctx.cluster->bytes_sent();
  result.peak_inflight_bytes = ctx.cluster->peak_inflight_bytes();
  for (const RankState& rs : ws.ranks) {
    const i64 cells = rs.extended.volume() - rs.owned.volume();
    result.halo_bytes =
        util::checked_add(result.halo_bytes,
                          util::checked_mul(cells, ctx.bpe));
  }
  result.events = ctx.cluster->engine().events_processed();
  result.traffic = ctx.cluster->traffic();
  if (opts.functional) result.field = assemble_field(ctx);
  if (opts.sink) {
    obs::Sink& s = *opts.sink;
    s.counter("run.runs", 1.0);
    s.counter("run.ranks", static_cast<double>(num_ranks));
    s.counter("run.messages", static_cast<double>(result.messages));
    s.counter("run.bytes", static_cast<double>(result.bytes));
    s.counter("run.halo_bytes", static_cast<double>(result.halo_bytes));
  }
  return result;
}

double run_and_validate(const loop::LoopNest& nest, const TilePlan& plan,
                        const mach::MachineParams& params) {
  RunOptions opts;
  opts.functional = true;
  const RunResult run = run_plan(
      nest, plan, std::make_shared<mach::IdealOverlapModel>(params), opts);
  TILO_ASSERT(run.field.has_value(), "functional run produced no field");
  const loop::DenseField ref = loop::run_sequential(nest);
  return loop::max_abs_diff(*run.field, ref);
}

}  // namespace tilo::exec
