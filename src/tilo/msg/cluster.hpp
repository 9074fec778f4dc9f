// The simulated cluster: engine + per-node endpoints, DMA channels and the
// network model.  Substitutes the paper's 16-node Pentium/FastEthernet
// testbed (see DESIGN.md §2).
#pragma once

#include <array>
#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "tilo/machine/model.hpp"
#include "tilo/machine/params.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/obs/sink.hpp"
#include "tilo/sim/engine.hpp"
#include "tilo/sim/resource.hpp"
#include "tilo/util/error.hpp"

namespace tilo::msg {

/// Network topology model.
enum class Network {
  kSwitched,  ///< full-duplex switch: contention only at node ports (default)
  kSharedBus, ///< classic shared Ethernet: one bus serializes all wire time
};

/// Message protocol for the nonblocking (DMA) path.
enum class Protocol {
  kEager,       ///< data ships immediately; receiver buffers unexpected
                ///< messages (MPICH's small-message behavior, the paper's
                ///< regime)
  kRendezvous,  ///< data ships only after a request-to-send /
                ///< clear-to-send handshake with a posted receive
                ///< (large-message behavior; adds round-trip latency)
};

/// A simulated cluster of `num_nodes` identical nodes.
class Cluster {
 public:
  /// `sink` (optional, must outlive the cluster) observes every phase
  /// interval the cluster and its endpoints charge; nullptr disables all
  /// recording at the cost of one branch per interval.  All stage costs
  /// come from `model` (per-link wire times, interference stalls, ...).
  Cluster(int num_nodes, std::shared_ptr<const mach::Model> model,
          mach::OverlapLevel level = mach::OverlapLevel::kDma,
          Network network = Network::kSwitched,
          obs::Sink* sink = nullptr,
          Protocol protocol = Protocol::kEager);

  /// Re-initializes the cluster for a new run, as if freshly constructed
  /// with these arguments: the clock, every counter, the channels and the
  /// matching tables start empty.  Pending events are dropped, and so is
  /// everything reclaim() gives back.  The event pool, transfer pool,
  /// request and payload tables and match-table nodes keep their capacity,
  /// so a reused cluster moves messages without heap allocation once warm.
  void reset(int num_nodes, std::shared_ptr<const mach::Model> model,
             mach::OverlapLevel level = mach::OverlapLevel::kDma,
             Network network = Network::kSwitched,
             obs::Sink* sink = nullptr,
             Protocol protocol = Protocol::kEager);

  int num_nodes() const { return static_cast<int>(nodes_.size()); }
  sim::Engine& engine() { return engine_; }
  const mach::MachineParams& params() const { return params_; }
  const mach::Model& model() const { return *model_; }
  mach::OverlapLevel level() const { return level_; }
  Protocol protocol() const { return protocol_; }
  obs::Sink* sink() { return sink_; }

  Endpoint& node(int rank);

  /// Runs the simulation to completion and returns the final time.
  sim::Time run();

  /// Totals across the whole run.
  i64 messages_sent() const { return messages_; }
  i64 bytes_sent() const { return bytes_; }
  /// Peak bytes simultaneously in flight (sent but not yet handed to a
  /// receive) — the extra buffer space communication overlap needs
  /// (paper Fig. 6).
  i64 peak_inflight_bytes() const { return peak_inflight_; }

  /// Failure injection (tests): the `index`-th message sent (0-based)
  /// is silently lost on the wire — its send completes locally, the
  /// receiver never sees it.  -1 disables (default).
  void inject_message_loss(i64 index) { drop_index_ = index; }

  /// Bytes sent per (src, dst) pair that exchanged at least one message —
  /// the communication matrix.
  std::map<std::pair<int, int>, i64> traffic() const;

  /// The state of request `id`; throws util::Error when the id is stale
  /// (already waited on, or posted before a reset).
  const Request& request(RequestId id) const {
    check_live(id);
    return requests_[id.slot];
  }
  /// Requests posted and not yet waited on (or reclaimed).
  std::size_t live_requests() const {
    return requests_.size() - free_requests_.size();
  }

  /// A fresh, empty value buffer for a functional payload.  The receiver
  /// reads it with payload_values() and hands it back with free_payload();
  /// reclaim() and reset() take back whatever is left.  References from
  /// payload_values() stay valid until the next make_payload().
  Payload make_payload();
  std::vector<double>& payload_values(Payload p) {
    TILO_REQUIRE(p.index < payloads_.size(), "no payload ", p.index);
    return payloads_[p.index];
  }
  void free_payload(Payload p);

  /// Gives back everything a drained run left behind: destroys every
  /// program still parked in msg::Wait (a stalled run: lost message or
  /// deadlock), releases every request slot and payload buffer, and drops
  /// unmatched messages, posted receives and pending transfers.  Returns
  /// the number of programs destroyed.  Outstanding ids become stale.
  std::size_t reclaim();

  // --- cost conversion helpers (seconds model -> simulated ns) ---
  // Wire helpers take an optional (src, dst) so heterogeneous-link models
  // can charge per-link costs; negative endpoints mean the default link.
  // Each result is memoized per run on the hook and its arguments (model
  // hooks are pure, see mach::Model), so a repeated stage costs a table
  // probe instead of a virtual call and a rounding.
  sim::Time fill_mpi_ns(i64 bytes) const;
  sim::Time fill_kernel_ns(i64 bytes) const;
  sim::Time half_wire_ns(i64 bytes, int src = -1, int dst = -1) const;
  sim::Time latency_ns(int src = -1, int dst = -1) const;
  sim::Time compute_ns(i64 iterations, i64 working_set_bytes = 0) const;
  /// CPU stall charged alongside an offloaded send/recv (0 under perfect
  /// overlap; executors guard on > 0 so ideal traces are untouched).
  sim::Time send_interference_ns(i64 bytes) const;
  sim::Time recv_interference_ns(i64 bytes) const;

 private:
  friend class Endpoint;
  friend class Wait;

  struct NodeState {
    std::unique_ptr<Endpoint> endpoint;
    // kDma: send and recv share channel[0]; kDuplexDma: [0]=send, [1]=recv.
    std::unique_ptr<sim::Resource> channel[2];
  };

  static constexpr std::uint32_t kNoRequest = UINT32_MAX;

  /// One message between send and delivery.  Pipeline callbacks capture
  /// only {this, id}, which fits the engine's inline event slot.
  struct Transfer {
    Message m;
    std::uint32_t request = kNoRequest;  // send slot; none when blocking
    sim::Time wire = 0;       // B4 = B1: one half of the wire time
    sim::Time recv_copy = 0;  // B2: receiver kernel copy
    sim::Time latency = 0;
  };

  /// Bytes sent from one source to destination `dst`.
  struct Link {
    int dst = -1;
    i64 bytes = 0;
  };

  sim::Resource& send_channel(int rank);
  sim::Resource& recv_channel(int rank);
  Endpoint& endpoint(int rank) {
    return *nodes_[static_cast<std::size_t>(rank)].endpoint;
  }

  void check_live(RequestId id) const {
    TILO_REQUIRE(id.slot < requests_.size() &&
                     requests_[id.slot].gen == id.gen &&
                     requests_[id.slot].live,
                 "stale request id (slot ", id.slot, ", generation ", id.gen,
                 "): already waited on, or posted before a reset");
  }
  /// Opens a request slot holding `m`: a send's message, or a receive's
  /// (src, dst, tag).
  RequestId open_request(bool send, const Message& m);
  /// Marks the request in `slot` complete and resumes its parked program,
  /// reporting the blocked interval to the sink.
  void complete_request(std::uint32_t slot);
  /// msg::Wait's halves: park a program on a pending request, and release
  /// a completed one, returning its message.
  void park(RequestId id, std::coroutine_handle<> program);
  Message release(RequestId id);

  std::uint32_t add_transfer(const Message& m, std::uint32_t request);
  const Message& transfer_message(std::uint32_t id) const {
    return transfers_[id].m;
  }
  /// Hands the transfer's message to its destination endpoint and returns
  /// the record to the pool.
  void deliver_transfer(std::uint32_t id);

  /// Overlapped (DMA) transfer entry; called by Endpoint::isend.  Eager
  /// protocol pipelines immediately; rendezvous first runs the RTS/CTS
  /// handshake against the receiver's posted-receive table.
  void start_transfer(const Message& m, std::uint32_t request);
  /// The data pipeline itself (post-handshake under rendezvous).
  void start_pipeline(std::uint32_t id);
  /// Sender side of the pipeline finished: the send buffer is free.
  void send_leg_done(std::uint32_t id);
  /// Rendezvous: receiver granted the transfer; CTS travels back, then the
  /// pipeline runs.  Called by Endpoint when a matching irecv is posted.
  void clear_to_send(std::uint32_t id);
  /// Blocking-path delivery; called by Endpoint::post_blocking.
  void start_blocking_transfer(const Message& m);

  sim::Engine engine_;
  std::shared_ptr<const mach::Model> model_;
  mach::MachineParams params_;  // = model_->params(), cached for callers
  mach::OverlapLevel level_ = mach::OverlapLevel::kDma;
  Network network_ = Network::kSwitched;
  Protocol protocol_ = Protocol::kEager;
  obs::Sink* sink_ = nullptr;
  std::vector<NodeState> nodes_;
  std::unique_ptr<sim::Resource> bus_;  // kSharedBus only
  i64 messages_ = 0;
  i64 bytes_ = 0;
  i64 inflight_ = 0;
  i64 peak_inflight_ = 0;
  i64 drop_index_ = -1;
  // Per source rank, one entry per destination it has sent to: a rank
  // talks to a few tile neighbours, so rows stay short and, unlike a
  // ranks x ranks matrix, memory stays linear in the rank count.
  std::vector<std::vector<Link>> links_;
  std::vector<Transfer> transfers_;
  std::vector<std::uint32_t> free_transfers_;
  std::vector<Request> requests_;
  std::vector<std::uint32_t> free_requests_;
  std::vector<std::vector<double>> payloads_;
  std::vector<std::uint32_t> free_payloads_;

  void track_sent(int src, int dst, i64 bytes);
  void track_delivered(i64 bytes);

  // Stage-cost memo: per hook, a direct-mapped table on the hook's
  // arguments (a, b), emptied by reset() because the model may change
  // between runs.  A slot keeps the last key hashed to it, so a collision
  // costs a recomputation, never a wrong answer.
  enum Hook : std::size_t {
    kFillMpi,
    kFillKernel,
    kHalfWire,
    kLatency,
    kCompute,
    kSendStall,
    kRecvStall,
    kHooks
  };
  struct Memo {
    i64 a = 0;
    i64 b = 0;
    sim::Time ns = -1;  // < 0: empty (stage costs are never negative)
  };
  static constexpr int kMemoBits = 7;
  template <typename Price>
  sim::Time memo(Hook hook, i64 a, i64 b, Price price) const;
  mutable std::array<std::array<Memo, std::size_t{1} << kMemoBits>, kHooks>
      memo_{};
};

/// co_await Wait(cluster, id) (MPI_Wait): suspends the calling program
/// until request `id` completes (immediately ready when it already has),
/// then releases the id and returns the request's message: for a receive,
/// the matched message with its size and payload (the A3 CPU copy is still
/// the caller's to pay).  The blocked interval goes to the cluster's sink
/// as "wait-send" or "wait-recv".  A stale or already-waited id, or a
/// second waiter on one request, throws util::Error.
///
/// Not an aggregate: GCC 12 miscompiles aggregate awaitables that carry
/// default member initializers (frame slots overlap).
class Wait {
 public:
  Wait(Cluster& cluster, RequestId id) : cluster_(&cluster), id_(id) {}

  bool await_ready() const { return cluster_->request(id_).complete; }
  void await_suspend(std::coroutine_handle<> program) {
    cluster_->park(id_, program);
  }
  Message await_resume() { return cluster_->release(id_); }

 private:
  Cluster* cluster_;
  RequestId id_;
};

}  // namespace tilo::msg
