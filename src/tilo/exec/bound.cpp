// exec::completion_lower_bound: per-rank serial CPU work after a
// contention-free earliest start (see run.hpp).
#include <algorithm>
#include <limits>
#include <optional>
#include <vector>

#include "tilo/exec/run.hpp"
#include "tilo/exec/workspace.hpp"
#include "tilo/util/error.hpp"

namespace tilo::exec {

namespace {

/// The CPU charges of one executor kind, priced exactly as its program
/// charges them (blocking_program / nonblocking_program in run.cpp).
struct Charges {
  const msg::Cluster& c;
  bool blocking;

  /// CPU time a cross-rank inbound message of `bytes` costs its receiver.
  sim::Time in(i64 bytes) const {
    return blocking ? c.half_wire_ns(bytes) + c.fill_kernel_ns(bytes) +
                          c.fill_mpi_ns(bytes)
                    : c.fill_mpi_ns(bytes) + c.recv_interference_ns(bytes);
  }

  /// CPU time a cross-rank outbound message of `bytes` costs its sender.
  sim::Time out(i64 bytes) const {
    return blocking ? c.fill_mpi_ns(bytes) + c.fill_kernel_ns(bytes) +
                          c.half_wire_ns(bytes)
                    : c.fill_mpi_ns(bytes) + c.send_interference_ns(bytes);
  }

  /// Least time from the end of the producing tile's compute to the
  /// message's delivery at `dst`: the send-side charges, then the
  /// latency (ProcB), or A1 and the eager DMA pipeline B3+B4, latency,
  /// B1+B2 on the (src, dst) link (ProcNB; a rendezvous handshake and
  /// every queue only add to it).
  sim::Time transit(i64 bytes, int src, int dst) const {
    if (blocking) return out(bytes) + c.latency_ns(src, dst);
    return c.fill_mpi_ns(bytes) + 2 * c.fill_kernel_ns(bytes) +
           2 * c.half_wire_ns(bytes, src, dst) + c.latency_ns(src, dst);
  }

  sim::Time compute(const CommTable::TileClass& tc, int bpe) const {
    return c.compute_ns(tc.volume, util::checked_mul(tc.ws_cells, bpe));
  }
};

}  // namespace

sim::Time completion_lower_bound(const TilePlan& plan,
                                 std::shared_ptr<const mach::Model> model,
                                 RunWorkspace* workspace) {
  TILO_REQUIRE(model != nullptr, "completion_lower_bound needs a model");
  const i64 num_ranks = plan.mapping.num_ranks();
  TILO_REQUIRE(num_ranks <= std::numeric_limits<int>::max(),
               "too many ranks");
  std::optional<RunWorkspace> local;
  RunWorkspace::Impl& ws = *(workspace ? workspace : &local.emplace())->impl_;
  ws.prepare(plan);
  const int bpe = model->params().bytes_per_element;
  const bool blocking = plan.kind == sched::ScheduleKind::kNonOverlap;
  const Charges charge{
      ws.pricing_cluster(static_cast<int>(num_ranks), std::move(model)),
      blocking};
  const CommTable& table = ws.comm;
  const RankLayout& g = ws.layout;
  const std::size_t per_column = static_cast<std::size_t>(2 * g.ndirs);
  const std::size_t kstep = table.radix[g.md];

  // start[r] for ranks below the current one; the first cross-rank input's
  // producer column is componentwise below the consumer's, so its owner
  // has a lower (row-major) rank and is already final.
  std::vector<sim::Time> start(static_cast<std::size_t>(num_ranks), 0);
  sim::Time bound = 0;
  for (int r = 0; r < static_cast<int>(num_ranks); ++r) {
    const std::size_t c0 = g.first[static_cast<std::size_t>(r)];
    const std::size_t c1 = g.first[static_cast<std::size_t>(r) + 1];
    if (c0 == c1) continue;  // owns no tiles

    // Earliest start: the first cross-rank input of tile klo of column c0.
    sim::Time& s = start[static_cast<std::size_t>(r)];
    const int* owners0 = &g.owners[c0 * per_column];
    for (const TileComm& in : table.classes[g.base[c0] + g.kclass[0]].in) {
      const int src = owners0[in.dir];
      if (src == r) continue;
      std::size_t cls = 0;
      for (std::size_t d = 0; d < g.col[c0].size(); ++d)
        cls += table.profile(d, g.col[c0][d] - in.offset[d]) * table.radix[d];
      const i64 bytes = util::checked_mul(in.points, bpe);
      s = start[static_cast<std::size_t>(src)] +
          charge.compute(table.classes[cls], bpe) +
          charge.transit(bytes, src, r);
      break;
    }

    // Serial work: every charge of every owned tile, one class at a time
    // times its multiplicity along the column.
    sim::Time busy = 0;
    for (std::size_t c = c0; c < c1; ++c) {
      const int* owners = &g.owners[c * per_column];
      for (std::size_t p = 0; p < g.kmult.size(); ++p) {
        const CommTable::TileClass& tc = table.classes[g.base[c] + p * kstep];
        sim::Time work = charge.compute(tc, bpe);
        for (const TileComm& in : tc.in)
          if (owners[in.dir] != r)
            work += charge.in(util::checked_mul(in.points, bpe));
        for (const TileComm& out : tc.out)
          if (owners[static_cast<std::size_t>(g.ndirs) + out.dir] != r)
            work += charge.out(util::checked_mul(out.points, bpe));
        busy = util::checked_add(busy, util::checked_mul(work, g.kmult[p]));
      }
    }
    bound = std::max(bound, util::checked_add(s, busy));
  }
  return bound;
}

}  // namespace tilo::exec
