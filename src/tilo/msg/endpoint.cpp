#include "tilo/msg/endpoint.hpp"

#include <optional>
#include <vector>

#include "tilo/msg/cluster.hpp"
#include "tilo/util/error.hpp"

namespace tilo::msg {

Endpoint::Endpoint(Cluster& cluster, int rank)
    : cluster_(&cluster), engine_(&cluster.engine()), rank_(rank) {}

void Endpoint::cpu_record(sim::Time dt, obs::Phase phase,
                          std::string_view label) {
  TILO_REQUIRE(dt >= 0, "negative CPU time");
  if (obs::Sink* sink = cluster_->sink()) {
    const sim::Time now = cluster_->engine().now();
    sink->span(rank_, phase, now, now + dt, label);
  }
}

RequestId Endpoint::isend(int dst, i64 tag, i64 bytes, Payload payload) {
  TILO_REQUIRE(cluster_->level() != mach::OverlapLevel::kNone,
               "isend needs a DMA-capable overlap level; use the blocking "
               "path for OverlapLevel::kNone");
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  const RequestId id =
      cluster_->open_request(true, Message{rank_, dst, tag, bytes, {}});
  cluster_->start_transfer(Message{rank_, dst, tag, bytes, payload}, id.slot);
  return id;
}

RequestId Endpoint::irecv(int src, i64 tag) {
  TILO_REQUIRE(src >= 0 && src < cluster_->num_nodes(), "bad source ", src);
  TILO_REQUIRE(src != rank_, "self-receive is not supported");
  const RequestId id =
      cluster_->open_request(false, Message{src, rank_, tag, 0, {}});
  Request& r = cluster_->requests_[id.slot];

  const MatchTable<Message>::Key key{src, tag};
  if (std::optional<Message> m = arrived_.pop(key)) {
    r.m = *m;
    r.complete = true;
    return id;
  }
  posted_.push(key, id.slot);
  if (cluster_->protocol() == Protocol::kRendezvous) {
    // A sender parked on this key gets its clear-to-send now; otherwise
    // the receive waits, ungranted, for a request-to-send.
    if (const std::optional<std::uint32_t> sender = rts_pending_.pop(key)) {
      r.granted = true;
      cluster_->clear_to_send(*sender);
    }
  }
  return id;
}

void Endpoint::rts_arrived(std::uint32_t transfer) {
  const Message& m = cluster_->transfer_message(transfer);
  const MatchTable<Message>::Key key{m.src, m.tag};
  // Grants go to posted receives in posting order, so the ungranted ones
  // are always a suffix of the key's FIFO.
  std::vector<Request>& requests = cluster_->requests_;
  const std::uint32_t* receiver = posted_.find_if(
      key, [&](std::uint32_t slot) { return !requests[slot].granted; });
  if (receiver) {
    requests[*receiver].granted = true;
    cluster_->clear_to_send(transfer);
    return;
  }
  rts_pending_.push(key, transfer);
}

void Endpoint::clear() {
  arrived_.clear();
  posted_.clear();
  rts_pending_.clear();
}

void Endpoint::post_blocking(int dst, i64 tag, i64 bytes, Payload payload) {
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  cluster_->start_blocking_transfer(Message{rank_, dst, tag, bytes, payload});
}

void Endpoint::deliver(const Message& m) {
  cluster_->track_delivered(m.bytes);
  const MatchTable<Message>::Key key{m.src, m.tag};
  if (const std::optional<std::uint32_t> slot = posted_.pop(key)) {
    cluster_->requests_[*slot].m = m;
    cluster_->complete_request(*slot);
    return;
  }
  arrived_.push(key, m);
}

}  // namespace tilo::msg
