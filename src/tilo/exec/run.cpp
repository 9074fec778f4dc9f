#include "tilo/exec/run.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "tilo/exec/regions.hpp"
#include "tilo/exec/workspace.hpp"
#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

using lat::Box;
using lat::Vec;
using util::i64;

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
  ws.prepare(plan);
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

  ctx.cluster = &ws.reset_cluster(static_cast<int>(num_ranks),
                                 std::move(model), level, opts.comm,
                                 opts.sink);
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
