// One simulated rank's messaging endpoint: nonblocking isend/irecv with
// (source, tag) matching and DMA-pipelined transfers, plus the blocking
// wire path used by the non-overlapping executor.
//
// Cost placement follows the paper's Fig. 4/5 decomposition.  The CPU-bound
// A-stages (A1 fill-MPI-send, A3 fill-MPI-recv) are *not* charged here —
// the executor charges them on the calling processor via Endpoint::cpu(),
// which is what makes the overlap explicit.  The B-stages are charged here:
//   isend:  B3 (kernel copy) + B4 (send-half wire) on the sender's channel,
//   then, after the wire latency,
//           B1 (recv-half wire) + B2 (kernel copy) on the receiver's channel,
// after which the message is "kernel-ready" and a matching irecv completes.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <string>

#include "tilo/msg/match_table.hpp"
#include "tilo/msg/message.hpp"
#include "tilo/obs/sink.hpp"
#include "tilo/sim/resource.hpp"

namespace tilo::msg {

class Cluster;

/// One nonblocking request's slot in the cluster's request table.  A slot
/// lives from isend/irecv until the program that waits on it resumes
/// (msg::Wait), or until Cluster::reclaim/reset.
struct Request {
  /// Send: the message sent (its payload already handed on).  Receive:
  /// (src, dst, tag) at post, then the matched message.
  Message m;
  /// The program parked in msg::Wait on this request, if any.
  std::coroutine_handle<> waiter;
  sim::Time parked_at = 0;
  std::uint32_t gen = 0;  ///< bumped on release: stale ids fail
  bool live = false;
  bool send = false;
  /// Send: the local pipeline (kernel copy + wire send half) finished and
  /// the send buffer is free.  Receive: the message is in the kernel
  /// buffer; the CPU-side A3 copy is still the caller's to pay.
  bool complete = false;
  /// Rendezvous receive: a clear-to-send has been granted against it.
  bool granted = false;
};

/// The per-rank endpoint.  Created and owned by Cluster.
class Endpoint {
 public:
  Endpoint(Cluster& cluster, int rank);
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  int rank() const { return rank_; }

  /// Occupies the CPU for `dt`, reports `phase` to the cluster's sink,
  /// then runs `fn`.  The executor's building block for A1/A2/A3 costs.
  /// The callable goes straight into the engine's pooled event store.
  template <typename F>
  void cpu(sim::Time dt, obs::Phase phase, F&& fn,
           std::string_view label = {}) {
    cpu_record(dt, phase, label);
    engine().after(dt, std::forward<F>(fn));
  }

  /// Nonblocking send (MPI_Isend).  The caller must charge A1 via cpu()
  /// first.  Requires a DMA-capable overlap level.  The returned id is
  /// waited on with msg::Wait; an id never waited on keeps its slot until
  /// the cluster is reset.
  RequestId isend(int dst, i64 tag, i64 bytes, Payload payload = {});

  /// Nonblocking receive (MPI_Irecv): posts the buffer; matches by
  /// (src, tag), FIFO within a key.  Matches an already-arrived message
  /// immediately (the paper's "underlying layers receive the message before
  /// the actual issue of the receive call").
  RequestId irecv(int src, i64 tag);

  /// Blocking-path transfer: the caller has already charged the whole send
  /// side (A1 + B3 + B4) on its CPU; this just delivers the message after
  /// the wire latency.  The receiver charges B1 + B2 + A3 on its own CPU
  /// when it picks the message up (non-overlapping semantics, Fig. 7).
  void post_blocking(int dst, i64 tag, i64 bytes, Payload payload = {});

  /// Entries pending in the matching tables: arrived messages, posted
  /// receives and (rendezvous) parked senders.
  std::size_t pending_entries() const {
    return arrived_.size() + posted_.size() + rts_pending_.size();
  }

 private:
  friend class Cluster;

  /// Sink reporting + validation half of cpu(); out of line so the
  /// template above does not need the Cluster definition.
  void cpu_record(sim::Time dt, obs::Phase phase, std::string_view label);
  sim::Engine& engine() const { return *engine_; }

  /// Called by Cluster when a message addressed to this rank becomes
  /// kernel-ready.
  void deliver(const Message& m);

  /// Rendezvous protocol: the request-to-send of the cluster's in-flight
  /// transfer `transfer` reached this rank.  Grants a clear-to-send
  /// immediately when an ungranted matching receive is posted; otherwise
  /// parks the request until irecv.
  void rts_arrived(std::uint32_t transfer);

  /// Drops every pending entry (a reset cluster starts empty).
  void clear();

  Cluster* cluster_;
  sim::Engine* engine_;  // the cluster's, which never moves
  int rank_;

  MatchTable<Message> arrived_;
  MatchTable<std::uint32_t> posted_;  // request slots of posted receives
  // Rendezvous: senders (cluster transfer ids) parked until a receive.
  MatchTable<std::uint32_t> rts_pending_;
};

}  // namespace tilo::msg
