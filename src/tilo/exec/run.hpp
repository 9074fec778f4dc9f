// The executors: run a TilePlan on the simulated cluster.
//
// ScheduleKind::kNonOverlap runs the paper's blocking ProcB program
// (receive - compute - send triplets, Section 3 / Fig. 1) and
// ScheduleKind::kOverlap runs the nonblocking ProcNB program
// (isend(k-1) / irecv(k+1) / compute(k) / wait, Section 4.1 / Fig. 2).
//
// Timed mode advances the clock by the machine cost model; functional mode
// additionally moves real values through the messages and can validate the
// distributed result against the sequential nest.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "tilo/exec/plan.hpp"
#include "tilo/loopnest/reference.hpp"
#include "tilo/machine/cost.hpp"
#include "tilo/msg/cluster.hpp"
#include "tilo/obs/sink.hpp"

namespace tilo::exec {

/// Communication-model knobs, shared by single runs (RunOptions) and
/// sweeps (core::SweepOptions) so the two cannot drift apart.
struct CommConfig {
  /// DMA capability for the overlapping executor (kDma or kDuplexDma).
  mach::OverlapLevel level = mach::OverlapLevel::kDma;
  /// Interconnect model.
  msg::Network network = msg::Network::kSwitched;
  /// Message protocol for the nonblocking path (eager vs rendezvous).
  msg::Protocol protocol = msg::Protocol::kEager;
};

/// Per-tile cost refinement for non-uniform workloads (projective nests
/// and other domains whose tiles do not all carry the same iteration
/// volume).  A null hook means every tile costs its full box volume and
/// every message its full face surface — the historical constant-cost fast
/// path, whose event trace (and result bytes) must never change.
class TileCostModel {
 public:
  virtual ~TileCostModel() = default;

  /// Iterations actually executed in the tile at coordinate `tile` whose
  /// bounding box is `box` (<= box.volume()).
  virtual util::i64 tile_iterations(const lat::Vec& tile,
                                    const lat::Box& box) const = 0;

  /// Points actually exchanged by the message consumed by `tile` (whose
  /// bounding box is `box`) along tile-offset `offset`, where `points` is
  /// the uniform face surface the plan's geometry derives.  Producer and
  /// consumer both route through the consumer's coordinate, so the two
  /// ends of one message always agree on its size.
  virtual util::i64 message_points(const lat::Vec& tile, const lat::Box& box,
                                   const lat::Vec& offset,
                                   util::i64 points) const = 0;
};

/// Failure injection (tests): lets tests exercise the stall detector in
/// run_plan without reaching into the cluster.
struct FaultPlan {
  /// The N-th message sent (0-based) is silently lost on the wire
  /// (-1 = off).
  util::i64 drop_message = -1;

  bool any() const { return drop_message >= 0; }
};

/// Execution options.
struct RunOptions {
  /// Move and verify real values (tests/examples); otherwise timing only.
  bool functional = false;
  /// Communication model (overlap level, network, protocol).
  CommConfig comm;
  /// Optional observer for phase spans and run counters (must outlive the
  /// call).  Pass a trace::Timeline, obs::Registry, obs::ChromeTraceSink,
  /// ... — or an obs::MultiSink fanning out to several.  Observation never
  /// changes simulated behavior: the (time, seq) event trace is identical
  /// with or without a sink.
  obs::Sink* sink = nullptr;
  /// Failure injection (tests).
  FaultPlan faults;
  /// Per-tile cost refinement (must outlive the call); nullptr keeps the
  /// constant-cost fast path.  Incompatible with `functional` (trimmed
  /// messages would no longer match the value regions).
  const TileCostModel* tile_costs = nullptr;
};

/// Execution outcome.
struct RunResult {
  double seconds = 0.0;       ///< simulated completion time
  sim::Time completion = 0;   ///< same, in ns
  util::i64 messages = 0;     ///< messages sent
  util::i64 bytes = 0;        ///< payload bytes sent
  /// Peak bytes simultaneously in flight — the extra message buffering the
  /// overlap needs (paper Fig. 6).
  util::i64 peak_inflight_bytes = 0;
  /// Total halo storage across ranks (extended minus owned cells, in
  /// bytes) — the per-node extra space of Fig. 6.
  util::i64 halo_bytes = 0;
  std::uint64_t events = 0;   ///< simulator events processed
  /// Tile-DAG runs: the ALAP-based makespan lower bound in ns (see
  /// workload::alap_lower_bound); 0 for workloads without a DAG bound.
  sim::Time alap_lower_bound = 0;
  /// Bytes sent per (src rank, dst rank) — the communication matrix.
  std::map<std::pair<int, int>, util::i64> traffic;
  /// Functional mode: the assembled global result field.
  std::optional<loop::DenseField> field;
};

class RunWorkspace;

/// Runs the plan on a simulated cluster whose every stage cost (and any
/// interference stall) comes from `model` — wrap bare MachineParams in a
/// mach::IdealOverlapModel for the paper's machine.  The nest must be the
/// one the plan's tiled space was built from.  Throws util::Error if any
/// rank program stalls (e.g. a lost message or a scheduling deadlock)
/// instead of silently returning partial results.
///
/// `workspace` (optional) carries reusable state across runs: the
/// communication-geometry table of tile boundary classes (keyed by tile
/// sides, domain and dependence set), each rank's column geometry (keyed
/// additionally by the mapping), the rank-program frame arena and the
/// simulated cluster, whose event, transfer, request and payload tables
/// stay warm.  Passing the same workspace to consecutive runs over the
/// same tiled geometry (e.g. the overlap and non-overlap schedules at one
/// tile height V, timed or functional) amortizes the geometry build, and a
/// warm timed run allocates only the nodes of RunResult::traffic; results
/// are byte-identical with or without one.
RunResult run_plan(const loop::LoopNest& nest, const TilePlan& plan,
                   std::shared_ptr<const mach::Model> model,
                   const RunOptions& opts = {},
                   RunWorkspace* workspace = nullptr);

/// A lower bound on run_plan's simulated completion (ns) of a hook-free
/// timed run of `plan` under `model`, whatever its CommConfig: the maximum
/// over ranks r of start_r + busy_r.
///
///  * busy_r sums every CPU charge the plan's executor makes on r, priced
///    through the same memoized ns helpers the run uses: ProcB pays
///    compute, B1+B2+A3 per inbound and A1+B3+B4 per outbound cross-rank
///    message; ProcNB pays compute, A3 plus the receive stall per inbound
///    and A1 plus the send stall per outbound cross-rank message.
///  * start_r is a contention-free lower bound on r's first CPU charge.
///    Both programs first wait on the first cross-rank input of r's first
///    tile, which leaves its producer rank p no earlier than start_p plus
///    the producing tile's compute and the message's send-side charges,
///    then crosses the wire (ProcB: latency; ProcNB: the eager DMA
///    pipeline on its link).  Producers precede consumers in rank order,
///    so one ascending pass computes every start.
///
/// A rank's charges serialize on its one CPU after start_r, so the run
/// cannot finish earlier.  `workspace` is shared with run_plan: bounding
/// and then running a plan builds its geometry once.
sim::Time completion_lower_bound(const TilePlan& plan,
                                 std::shared_ptr<const mach::Model> model,
                                 RunWorkspace* workspace = nullptr);

/// Opaque reusable execution scratch (see run_plan).  Cheap to construct;
/// not thread-safe — use one workspace per worker thread.
class RunWorkspace {
 public:
  RunWorkspace();
  ~RunWorkspace();
  RunWorkspace(RunWorkspace&&) noexcept;
  RunWorkspace& operator=(RunWorkspace&&) noexcept;
  RunWorkspace(const RunWorkspace&) = delete;
  RunWorkspace& operator=(const RunWorkspace&) = delete;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;

  friend RunResult run_plan(const loop::LoopNest&, const TilePlan&,
                            std::shared_ptr<const mach::Model>,
                            const RunOptions&, RunWorkspace*);
  friend sim::Time completion_lower_bound(const TilePlan&,
                                         std::shared_ptr<const mach::Model>,
                                         RunWorkspace*);
};

/// Convenience: functional run + comparison against the sequential
/// reference.  Returns the max absolute element difference.
double run_and_validate(const loop::LoopNest& nest, const TilePlan& plan,
                        const mach::MachineParams& params);

}  // namespace tilo::exec
