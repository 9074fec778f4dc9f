#include "tilo/exec/run.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "tilo/exec/comm_table.hpp"
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

/// Where a plan's ranks sit in its tile space, flat, rebuilt only when the
/// plan's geometry (tiled space or mapping) changes, so a warm run reads it
/// without allocating.  Programs walk each owned tile column by linear tile
/// index: rank r owns columns [first[r], first[r+1]); tile k of column c is
/// lin[c] + (k - klo)·stride, the neighbour along tile direction e is
/// lin ∓ delta[e], and its message tag is (consumer lin)·ndirs + e.
struct RankLayout {
  bool valid = false;
  Vec procs;               // mapping key (the space's is the comm table's)
  std::size_t md = 0;      // mapped dimension
  i64 klo = 0, khi = 0;    // tile range along it
  i64 stride = 0;          // linear-index stride along it
  i64 ndirs = 1;
  std::vector<i64> delta;  // per tile direction: linear-index offset
  std::vector<std::size_t> kclass;  // per k - klo: profile(md, k)·radix[md]
  std::vector<std::size_t> first;   // per rank, plus the end
  // Per column: coordinates (mapped dimension at klo; only read by the
  // TileCostModel hook and functional runs), linear index of its klo tile,
  // class base, and the 2·ndirs neighbour owners (see column_owners).
  std::vector<Vec> col;
  std::vector<i64> lin;
  std::vector<std::size_t> base;
  std::vector<int> owners;
  std::vector<RankState> ranks;  // boxes here; values filled per run

  bool matches(const TilePlan& plan) const {
    return valid && md == plan.mapped_dim && procs == plan.mapping.procs();
  }

  void build(const TilePlan& plan, const CommTable& comm);
};

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

/// Owned and extended boxes of `rank`.  A rank can own no tiles when the
/// block distribution does not divide evenly (e.g. 4 tile columns over 3
/// processors); it then simply idles.
void rank_boxes(const TilePlan& plan, int rank, RankState& rs) {
  const auto& tiling = plan.space.tiling();
  const Box tiles = plan.mapping.tiles_of_rank(rank);
  if (tiles.empty()) {
    rs.owned = tiles;
    rs.extended = tiles;
    return;
  }
  const Box owned = Box(tiling.tile_origin(tiles.lo()),
                        tiling.tile_box(tiles.hi()).hi())
                        .intersect(plan.space.domain());
  TILO_ASSERT(!owned.empty(), "rank ", rank, " owns no iterations");
  Vec elo = owned.lo();
  for (std::size_t d = 0; d < elo.size(); ++d)
    elo[d] -= plan.space.deps().max_component(d);
  rs.extended = Box(elo, owned.hi());
  rs.owned = owned;
}

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
  kclass.clear();
  for (i64 k = klo; k <= khi; ++k)
    kclass.push_back(comm.profile(md, k) * comm.radix[md]);

  const int num_ranks = static_cast<int>(plan.mapping.num_ranks());
  first.assign(1, 0);
  col.clear();
  lin.clear();
  base.clear();
  owners.clear();
  ranks.resize(static_cast<std::size_t>(num_ranks));
  const std::size_t per_column = static_cast<std::size_t>(2 * ndirs);
  for (int r = 0; r < num_ranks; ++r) {
    for (const Vec& c : plan.mapping.columns_of_rank(r)) {
      col.push_back(c);
      lin.push_back(ts.linear_index(c));
      base.push_back(comm.column_base(c, md));
      owners.resize(owners.size() + per_column);
      column_owners(plan, c, ndirs, &owners[owners.size() - per_column]);
    }
    first.push_back(col.size());
    rank_boxes(plan, r, ranks[static_cast<std::size_t>(r)]);
  }
  valid = true;
}

/// A posted receive of the nonblocking program, waited on at the end of
/// the step that posted it; its consumer is the next tile of the column.
struct PendingRecv {
  msg::RequestId id;
  const TileComm* comm = nullptr;
  i64 bytes = 0;  ///< message size, resolved at post time (consumer tile)
};

/// Run context shared by the rank programs.
struct Ctx : ProgramContext {
  const loop::LoopNest* nest = nullptr;
  const TilePlan* plan = nullptr;
  RunOptions opts;
  msg::Cluster* cluster = nullptr;
  const CommTable* comm = nullptr;
  RankLayout* layout = nullptr;
  // Nonblocking program scratch, ndirs entries per rank: a step posts at
  // most one send and one receive per tile direction.
  msg::RequestId* sends = nullptr;
  PendingRecv* recvs = nullptr;
  int bpe = 4;
  int completed_ranks = 0;

  RankState& rank_state(int rank) const {
    return layout->ranks[static_cast<std::size_t>(rank)];
  }

  /// Coordinate of tile k of column c.
  Vec tile(std::size_t c, i64 k) const {
    Vec t = layout->col[c];
    t[layout->md] = k;
    return t;
  }

  /// Message tags are unique per (consumer tile, direction).
  i64 tag(i64 consumer_lin, std::size_t dir) const {
    return util::checked_add(util::checked_mul(consumer_lin, layout->ndirs),
                             static_cast<i64>(dir));
  }

  /// Class of tile k of column c.
  const CommTable::TileClass& tile_class(std::size_t c, i64 k) const {
    return comm->classes[layout->base[c] +
                         layout->kclass[static_cast<std::size_t>(
                             k - layout->klo)]];
  }

  /// Inbound (or outbound) comm list of tile k of column c.
  const std::vector<TileComm>& comms(std::size_t c, i64 k,
                                     bool outbound) const {
    const CommTable::TileClass& tc = tile_class(c, k);
    return outbound ? tc.out : tc.in;
  }

  /// CPU time of tile k of column c: its iterations (the full box volume,
  /// or the TileCostModel's refinement for non-uniform workloads) over its
  /// working set.
  sim::Time compute_ns(std::size_t c, i64 k) const {
    const CommTable::TileClass& tc = tile_class(c, k);
    i64 iterations = tc.volume;
    if (opts.tile_costs) {
      const Vec t = tile(c, k);
      iterations = opts.tile_costs->tile_iterations(
          t, plan->space.tile_iterations(t));
    }
    return cluster->compute_ns(iterations,
                               util::checked_mul(tc.ws_cells, bpe));
  }

  /// Bytes of the message for comm record `tc` of tile k of column c; its
  /// consumer is that tile (inbound) or the tile at +tc.offset (outbound).
  /// Both ends of a message route through the consumer's coordinate, so
  /// sender and receiver always agree on its size.  The hook-free path
  /// never touches tile geometry.
  i64 message_bytes(std::size_t c, i64 k, const TileComm& tc,
                    bool outbound) const {
    i64 points = tc.points;
    if (opts.tile_costs) {
      Vec consumer = tile(c, k);
      if (outbound) consumer += tc.offset;
      points = opts.tile_costs->message_points(
          consumer, plan->space.tile_iterations(consumer), tc.offset,
          tc.points);
    }
    return util::checked_mul(points, bpe);
  }
};

/// Fills a rank's value buffer for a functional run: ghost cells outside
/// the domain hold the boundary values, so every kernel input is a plain
/// array read.  In-domain cells start as NaN: a read of a never-filled cell
/// poisons the result visibly.
void init_values(const Ctx& ctx, RankState& rs) {
  if (rs.owned.empty()) {
    rs.values.clear();
    return;
  }
  const loop::Kernel& kernel = ctx.nest->kernel();
  const Box& domain = ctx.plan->space.domain();
  rs.values.assign(static_cast<std::size_t>(rs.extended.volume()),
                   std::numeric_limits<double>::quiet_NaN());
  rs.extended.for_each_point([&](const Vec& p) {
    if (!domain.contains(p)) rs.at(p) = kernel.boundary(p);
  });
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

msg::Payload encode_payload(msg::Cluster& cluster, const RankState& rs,
                            const std::vector<CommRegion>& regions) {
  const msg::Payload payload = cluster.make_payload();
  std::vector<double>& data = cluster.payload_values(payload);
  data.reserve(static_cast<std::size_t>(region_points(regions)));
  for (const CommRegion& r : regions) {
    r.points.for_each_point([&](const Vec& p) { data.push_back(rs.get(p)); });
  }
  return payload;
}

/// Writes a received payload into the rank's cells and hands its buffer
/// back to the cluster.
void apply_payload(msg::Cluster& cluster, RankState& rs,
                   const std::vector<CommRegion>& regions,
                   msg::Payload payload) {
  if (!payload.has_data()) return;  // timed mode
  const std::vector<double>& data = cluster.payload_values(payload);
  std::size_t off = 0;
  for (const CommRegion& r : regions) {
    r.points.for_each_point([&](const Vec& p) {
      TILO_ASSERT(off < data.size(), "payload shorter than region");
      rs.at(p) = data[off++];
    });
  }
  TILO_ASSERT(off == data.size(), "payload longer than region");
  cluster.free_payload(payload);
}

/// The paper's blocking ProcB program (Section 5 pseudocode): for every
/// owned tile, in column-major k order: blocking-receive all inbound
/// messages, compute, blocking-send all outbound messages.
RankProgram blocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  RankState& rs = ctx.rank_state(rank);
  const RankLayout& g = *ctx.layout;

  for (std::size_t c = g.first[static_cast<std::size_t>(rank)];
       c < g.first[static_cast<std::size_t>(rank) + 1]; ++c) {
    const int* owners = &g.owners[c * static_cast<std::size_t>(2 * g.ndirs)];
    for (i64 k = g.klo; k <= g.khi; ++k) {
      const i64 lin = g.lin[c] + (k - g.klo) * g.stride;

      // Receive phase: block until each message is on the wire-side done,
      // then pay the receive pipeline on the CPU (no overlap, Fig. 7).
      const std::vector<TileComm>& ins = ctx.comms(c, k, false);
      for (const TileComm& in : ins) {
        const int src_rank = owners[in.dir];
        if (src_rank == rank) continue;
        const msg::Message m = co_await msg::Wait{
            *ctx.cluster, ep.irecv(src_rank, ctx.tag(lin, in.dir))};
        const i64 bytes = ctx.message_bytes(c, k, in, false);
        co_await CpuAwait{ep,
                          ctx.cluster->half_wire_ns(bytes) +
                              ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelRecv};
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiRecv};
        if (ctx.opts.functional)
          apply_payload(*ctx.cluster, rs,
                        comm_regions(ctx.plan->space,
                                     ctx.tile(c, k) - in.offset, in.offset),
                        m.payload);
      }

      // Compute phase.
      co_await CpuAwait{ep, ctx.compute_ns(c, k), obs::Phase::kCompute};
      if (ctx.opts.functional)
        compute_tile_values(ctx, rs,
                            ctx.plan->space.tile_iterations(ctx.tile(c, k)));

      // Send phase: the whole send pipeline runs on the CPU.
      const std::vector<TileComm>& outs = ctx.comms(c, k, true);
      for (const TileComm& out : outs) {
        const int dst_rank =
            owners[static_cast<std::size_t>(g.ndirs) + out.dir];
        if (dst_rank == rank) continue;
        const i64 bytes = ctx.message_bytes(c, k, out, true);
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                          obs::Phase::kFillMpiSend};
        co_await CpuAwait{ep, ctx.cluster->fill_kernel_ns(bytes),
                          obs::Phase::kKernelSend};
        co_await CpuAwait{ep, ctx.cluster->half_wire_ns(bytes),
                          obs::Phase::kWire};
        msg::Payload payload;
        if (ctx.opts.functional)
          payload = encode_payload(
              *ctx.cluster, rs,
              comm_regions(ctx.plan->space, ctx.tile(c, k), out.offset));
        ep.post_blocking(dst_rank, ctx.tag(lin + g.delta[out.dir], out.dir),
                         bytes, payload);
      }
    }
  }
  ++ctx.completed_ranks;
}

/// The paper's nonblocking ProcNB program (Section 5 pseudocode), one step
/// per j in [klo-1, khi+1]: send the results of tile j-1, post receives for
/// tile j+1, compute tile j (each if that tile exists), then wait on all
/// requests — the pipelined overlapping schedule of Fig. 2.  The first
/// step only fetches tile klo's inputs and the last only ships tile khi's
/// results.
RankProgram nonblocking_program(Ctx& ctx, int rank) {
  msg::Endpoint& ep = ctx.cluster->node(rank);
  RankState& rs = ctx.rank_state(rank);
  const RankLayout& g = *ctx.layout;
  msg::RequestId* const sends =
      ctx.sends + static_cast<std::size_t>(rank * g.ndirs);
  PendingRecv* const recvs =
      ctx.recvs + static_cast<std::size_t>(rank * g.ndirs);

  for (std::size_t c = g.first[static_cast<std::size_t>(rank)];
       c < g.first[static_cast<std::size_t>(rank) + 1]; ++c) {
    const int* owners = &g.owners[c * static_cast<std::size_t>(2 * g.ndirs)];
    for (i64 j = g.klo - 1; j <= g.khi + 1; ++j) {
      const i64 lin = g.lin[c] + (j - g.klo) * g.stride;
      std::size_t nsends = 0;
      std::size_t nrecvs = 0;

      // 1. Nonblocking sends of tile (j-1)'s results (A1 on the CPU, the
      //    rest of the pipeline on the DMA channel).
      if (j > g.klo) {
        const i64 prev = lin - g.stride;
        const std::vector<TileComm>& outs = ctx.comms(c, j - 1, true);
        for (const TileComm& out : outs) {
          const int dst_rank =
              owners[static_cast<std::size_t>(g.ndirs) + out.dir];
          if (dst_rank == rank) continue;
          const i64 bytes = ctx.message_bytes(c, j - 1, out, true);
          co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(bytes),
                            obs::Phase::kFillMpiSend};
          msg::Payload payload;
          if (ctx.opts.functional)
            payload = encode_payload(
                *ctx.cluster, rs,
                comm_regions(ctx.plan->space, ctx.tile(c, j - 1),
                             out.offset));
          sends[nsends++] =
              ep.isend(dst_rank, ctx.tag(prev + g.delta[out.dir], out.dir),
                       bytes, payload);
          // Imperfect overlap: the offloaded send steals CPU cycles.
          // Guarded so ideal models (stall == 0) leave the trace untouched.
          const sim::Time sstall = ctx.cluster->send_interference_ns(bytes);
          if (sstall > 0)
            co_await CpuAwait{ep, sstall, obs::Phase::kKernelSend};
        }
      }

      // 2. Post receives for tile (j+1)'s data.
      if (j < g.khi) {
        const i64 next = lin + g.stride;
        const std::vector<TileComm>& ins = ctx.comms(c, j + 1, false);
        for (const TileComm& in : ins) {
          const int src_rank = owners[in.dir];
          if (src_rank == rank) continue;
          recvs[nrecvs++] =
              PendingRecv{ep.irecv(src_rank, ctx.tag(next, in.dir)), &in,
                          ctx.message_bytes(c, j + 1, in, false)};
        }
      }

      // 3. Compute tile j while the DMA channels move data.
      if (j >= g.klo && j <= g.khi) {
        co_await CpuAwait{ep, ctx.compute_ns(c, j), obs::Phase::kCompute};
        if (ctx.opts.functional)
          compute_tile_values(
              ctx, rs, ctx.plan->space.tile_iterations(ctx.tile(c, j)));
      }

      // 4. Wait for the sends (buffer reuse) ...
      for (std::size_t i = 0; i < nsends; ++i)
        co_await msg::Wait{*ctx.cluster, sends[i]};

      // 5. ... and for the receives: kernel-ready, then the A3 CPU copy.
      for (std::size_t i = 0; i < nrecvs; ++i) {
        const PendingRecv& pr = recvs[i];
        const msg::Message m = co_await msg::Wait{*ctx.cluster, pr.id};
        co_await CpuAwait{ep, ctx.cluster->fill_mpi_ns(pr.bytes),
                          obs::Phase::kFillMpiRecv};
        // Imperfect overlap: the offloaded receive steals CPU cycles.
        const sim::Time rstall = ctx.cluster->recv_interference_ns(pr.bytes);
        if (rstall > 0)
          co_await CpuAwait{ep, rstall, obs::Phase::kKernelRecv};
        if (ctx.opts.functional) {
          const Vec& e = pr.comm->offset;
          apply_payload(
              *ctx.cluster, rs,
              comm_regions(ctx.plan->space, ctx.tile(c, j + 1) - e, e),
              m.payload);
        }
      }
    }
  }
  ++ctx.completed_ranks;
}

loop::DenseField assemble_field(const Ctx& ctx) {
  const Box& domain = ctx.plan->space.domain();
  loop::DenseField field{
      domain,
      std::vector<double>(static_cast<std::size_t>(domain.volume()), 0.0)};
  for (const RankState& rs : ctx.layout->ranks) {
    rs.owned.for_each_point([&](const Vec& p) {
      field.values[static_cast<std::size_t>(domain.linear_index(p))] =
          rs.get(p);
    });
  }
  return field;
}

}  // namespace

struct RunWorkspace::Impl {
  /// Declared first so it outlives everything that may hold a frame.
  FrameArena frames;
  CommTable comm;
  RankLayout layout;
  std::vector<msg::RequestId> sends;
  std::vector<PendingRecv> recvs;
  /// Reset per run; its event, transfer, request and payload tables stay
  /// warm.
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
  if (!ws.comm.matches(plan.space)) {
    ws.comm.build(plan.space);
    ws.layout.valid = false;
  }
  if (!ws.layout.matches(plan)) ws.layout.build(plan, ws.comm);
  const std::size_t scratch =
      static_cast<std::size_t>(num_ranks * ws.layout.ndirs);
  ws.sends.resize(scratch);
  ws.recvs.resize(scratch);

  Ctx ctx;
  ctx.nest = &nest;
  ctx.plan = &plan;
  ctx.opts = opts;
  ctx.comm = &ws.comm;
  ctx.layout = &ws.layout;
  ctx.frames = &ws.frames;
  ctx.sends = ws.sends.data();
  ctx.recvs = ws.recvs.data();
  ctx.bpe = model->params().bytes_per_element;

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
  for (RankState& rs : ws.layout.ranks) {
    if (opts.functional) {
      init_values(ctx, rs);
    } else {
      rs.values.clear();
    }
  }

  for (int r = 0; r < static_cast<int>(num_ranks); ++r) {
    if (plan.kind == sched::ScheduleKind::kOverlap) {
      nonblocking_program(ctx, r);
    } else {
      blocking_program(ctx, r);
    }
  }

  const sim::Time end = ctx.cluster->run();
  // Destroy any programs still parked on a request (lost message or
  // deadlock) and take back every request slot and payload buffer.
  const std::size_t stalled = ctx.cluster->reclaim();
  TILO_ASSERT(ws.frames.live() == 0, ws.frames.live(),
              " rank-program frames outlived the run");
  if (ctx.error) std::rethrow_exception(ctx.error);
  TILO_REQUIRE(ctx.completed_ranks == static_cast<int>(num_ranks),
               "rank programs stalled: only ", ctx.completed_ranks, " of ",
               num_ranks,
               " completed — lost message or scheduling deadlock (",
               stalled, " programs reclaimed)");

  RunResult result;
  result.completion = end;
  result.seconds = sim::to_seconds(end);
  result.messages = ctx.cluster->messages_sent();
  result.bytes = ctx.cluster->bytes_sent();
  result.peak_inflight_bytes = ctx.cluster->peak_inflight_bytes();
  for (const RankState& rs : ws.layout.ranks) {
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
