#include "tilo/msg/endpoint.hpp"

#include <optional>

#include "tilo/msg/cluster.hpp"
#include "tilo/util/pool.hpp"
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

std::shared_ptr<SendHandle> Endpoint::isend(int dst, i64 tag, i64 bytes,
                                            Payload payload) {
  TILO_REQUIRE(cluster_->level() != mach::OverlapLevel::kNone,
               "isend needs a DMA-capable overlap level; use the blocking "
               "path for OverlapLevel::kNone");
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  auto handle = std::allocate_shared<SendHandle>(
      util::PoolAllocator<SendHandle>(cluster_->send_handles_));
  handle->bytes = bytes;
  cluster_->start_transfer(
      Message{rank_, dst, tag, bytes, std::move(payload)}, handle);
  return handle;
}

std::shared_ptr<RecvHandle> Endpoint::irecv(int src, i64 tag) {
  TILO_REQUIRE(src >= 0 && src < cluster_->num_nodes(), "bad source ", src);
  TILO_REQUIRE(src != rank_, "self-receive is not supported");
  auto handle = std::allocate_shared<RecvHandle>(
      util::PoolAllocator<RecvHandle>(cluster_->recv_handles_));
  handle->src = src;
  handle->tag = tag;

  const MatchTable<Message>::Key key{src, tag};
  if (std::optional<Message> m = arrived_.pop(key)) {
    handle->ready = true;
    handle->payload = std::move(m->payload);
    handle->bytes = m->bytes;
    return handle;
  }
  posted_.push(key, handle);
  if (cluster_->protocol() == Protocol::kRendezvous) {
    // A sender parked on this key gets its clear-to-send now; otherwise
    // the receive waits, ungranted, for a request-to-send.
    if (const std::optional<std::uint32_t> sender = rts_pending_.pop(key)) {
      handle->granted = true;
      cluster_->clear_to_send(*sender);
    }
  }
  return handle;
}

void Endpoint::rts_arrived(std::uint32_t transfer) {
  const Message& m = cluster_->transfer_message(transfer);
  const MatchTable<Message>::Key key{m.src, m.tag};
  // Grants go to posted receives in posting order, so the ungranted ones
  // are always a suffix of the key's FIFO.
  std::shared_ptr<RecvHandle>* receiver = posted_.find_if(
      key, [](const std::shared_ptr<RecvHandle>& h) { return !h->granted; });
  if (receiver) {
    (*receiver)->granted = true;
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

void Endpoint::when_done(const std::shared_ptr<SendHandle>& h, Waiter fn) {
  TILO_REQUIRE(h != nullptr, "null send handle");
  if (h->done) {
    fn();
    return;
  }
  TILO_REQUIRE(!h->waiter, "send handle already has a waiter");
  h->waiter = std::move(fn);
}

void Endpoint::when_ready(const std::shared_ptr<RecvHandle>& h, Waiter fn) {
  TILO_REQUIRE(h != nullptr, "null recv handle");
  if (h->ready) {
    fn();
    return;
  }
  TILO_REQUIRE(!h->waiter, "recv handle already has a waiter");
  h->waiter = std::move(fn);
}

void Endpoint::post_blocking(int dst, i64 tag, i64 bytes, Payload payload) {
  TILO_REQUIRE(dst >= 0 && dst < cluster_->num_nodes(), "bad destination ",
               dst);
  TILO_REQUIRE(dst != rank_, "self-send is not supported");
  TILO_REQUIRE(bytes >= 0, "negative message size");
  cluster_->start_blocking_transfer(
      Message{rank_, dst, tag, bytes, std::move(payload)});
}

void Endpoint::deliver(Message m) {
  cluster_->track_delivered(m.bytes);
  const MatchTable<Message>::Key key{m.src, m.tag};
  if (std::optional<std::shared_ptr<RecvHandle>> posted = posted_.pop(key)) {
    RecvHandle& h = **posted;
    h.ready = true;
    h.payload = std::move(m.payload);
    h.bytes = m.bytes;
    if (h.waiter) {
      auto w = std::move(h.waiter);
      h.waiter = nullptr;
      w();
    }
    return;
  }
  arrived_.push(key, std::move(m));
}

}  // namespace tilo::msg
