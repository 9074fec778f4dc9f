#include "tilo/msg/cluster.hpp"

#include <algorithm>
#include <cstdint>

#include "tilo/util/error.hpp"

namespace tilo::msg {

Cluster::Cluster(int num_nodes, std::shared_ptr<const mach::Model> model,
                 mach::OverlapLevel level, Network network,
                 obs::Sink* sink, Protocol protocol) {
  reset(num_nodes, std::move(model), level, network, sink, protocol);
}

void Cluster::reset(int num_nodes, std::shared_ptr<const mach::Model> model,
                    mach::OverlapLevel level, Network network,
                    obs::Sink* sink, Protocol protocol) {
  TILO_REQUIRE(model != nullptr, "cluster needs a machine model");
  TILO_REQUIRE(num_nodes >= 1, "cluster needs at least one node");
  reclaim();
  engine_.reset();
  model_ = std::move(model);
  params_ = model_->params();
  level_ = level;
  network_ = network;
  protocol_ = protocol;
  sink_ = sink;
  engine_.set_sink(sink_);
  nodes_.resize(static_cast<std::size_t>(num_nodes));
  for (int r = 0; r < num_nodes; ++r) {
    auto& st = nodes_[static_cast<std::size_t>(r)];
    if (!st.endpoint) st.endpoint = std::make_unique<Endpoint>(*this, r);
    st.endpoint->clear();
    for (int c = 0; c < (level == mach::OverlapLevel::kDuplexDma ? 2 : 1);
         ++c) {
      if (!st.channel[c])
        st.channel[c] = std::make_unique<sim::Resource>(
            engine_, util::concat("node", r, ".dma", c));
      st.channel[c]->reset();
    }
  }
  if (network_ == Network::kSharedBus) {
    if (!bus_) bus_ = std::make_unique<sim::Resource>(engine_, "bus");
    bus_->reset();
  }
  messages_ = 0;
  bytes_ = 0;
  inflight_ = 0;
  peak_inflight_ = 0;
  drop_index_ = -1;
  links_.resize(static_cast<std::size_t>(num_nodes));
  for (auto& row : links_) row.clear();
  for (auto& table : memo_) table.fill(Memo{});
}

Endpoint& Cluster::node(int rank) {
  TILO_REQUIRE(rank >= 0 && rank < num_nodes(), "rank ", rank,
               " out of range [0, ", num_nodes(), ")");
  return *nodes_[static_cast<std::size_t>(rank)].endpoint;
}

sim::Time Cluster::run() {
  engine_.run();
  return engine_.now();
}

namespace {

/// One i64 key word for a (src, dst) link.
i64 link_key(int src, int dst) {
  return static_cast<i64>((static_cast<std::uint64_t>(
                               static_cast<std::uint32_t>(src))
                           << 32) |
                          static_cast<std::uint32_t>(dst));
}

}  // namespace

template <typename Price>
sim::Time Cluster::memo(Hook hook, i64 a, i64 b, Price price) const {
  const std::uint64_t h =
      (static_cast<std::uint64_t>(a) ^
       static_cast<std::uint64_t>(b) * 0xC2B2AE3D27D4EB4Full) *
      0x9E3779B97F4A7C15ull;
  Memo& m = memo_[hook][h >> (64 - kMemoBits)];
  if (m.ns >= 0 && m.a == a && m.b == b) return m.ns;
  const sim::Time ns = price();
  m = Memo{a, b, ns};
  return ns;
}

sim::Time Cluster::fill_mpi_ns(i64 bytes) const {
  return memo(kFillMpi, bytes, 0, [&] {
    return sim::from_seconds(model_->fill_mpi_seconds(bytes));
  });
}

sim::Time Cluster::fill_kernel_ns(i64 bytes) const {
  return memo(kFillKernel, bytes, 0, [&] {
    return sim::from_seconds(model_->fill_kernel_seconds(bytes));
  });
}

sim::Time Cluster::half_wire_ns(i64 bytes, int src, int dst) const {
  return memo(kHalfWire, bytes, link_key(src, dst), [&] {
    return sim::from_seconds(model_->half_wire_seconds(bytes, src, dst));
  });
}

sim::Time Cluster::latency_ns(int src, int dst) const {
  return memo(kLatency, link_key(src, dst), 0, [&] {
    return sim::from_seconds(model_->wire_latency_seconds(src, dst));
  });
}

sim::Time Cluster::compute_ns(i64 iterations, i64 working_set_bytes) const {
  TILO_REQUIRE(iterations >= 0, "negative iteration count");
  return memo(kCompute, iterations, working_set_bytes, [&] {
    return sim::from_seconds(
        model_->compute_seconds(iterations, working_set_bytes));
  });
}

sim::Time Cluster::send_interference_ns(i64 bytes) const {
  return memo(kSendStall, bytes, 0, [&] {
    return sim::from_seconds(model_->send_interference_seconds(bytes));
  });
}

sim::Time Cluster::recv_interference_ns(i64 bytes) const {
  return memo(kRecvStall, bytes, 0, [&] {
    return sim::from_seconds(model_->recv_interference_seconds(bytes));
  });
}

sim::Resource& Cluster::send_channel(int rank) {
  return *nodes_[static_cast<std::size_t>(rank)].channel[0];
}

sim::Resource& Cluster::recv_channel(int rank) {
  // kDma shares one channel for both directions; kDuplexDma splits them.
  return *nodes_[static_cast<std::size_t>(rank)]
              .channel[level_ == mach::OverlapLevel::kDuplexDma ? 1 : 0];
}

std::map<std::pair<int, int>, i64> Cluster::traffic() const {
  std::map<std::pair<int, int>, i64> out;
  for (std::size_t src = 0; src < links_.size(); ++src)
    for (const Link& l : links_[src])
      out.emplace(std::make_pair(static_cast<int>(src), l.dst), l.bytes);
  return out;
}

RequestId Cluster::open_request(bool send, const Message& m) {
  std::uint32_t slot;
  if (free_requests_.empty()) {
    TILO_REQUIRE(requests_.size() < kNoRequest, "request table exhausted");
    slot = static_cast<std::uint32_t>(requests_.size());
    requests_.emplace_back();
    // Room for every slot, so release() never reallocates.
    if (free_requests_.capacity() < requests_.size())
      free_requests_.reserve(requests_.capacity());
  } else {
    slot = free_requests_.back();
    free_requests_.pop_back();
  }
  Request& r = requests_[slot];
  r.m = m;
  r.waiter = nullptr;
  r.live = true;
  r.send = send;
  r.complete = false;
  r.granted = false;
  return RequestId{slot, r.gen};
}

void Cluster::complete_request(std::uint32_t slot) {
  Request& r = requests_[slot];
  r.complete = true;
  if (!r.waiter) return;
  const std::coroutine_handle<> program = r.waiter;
  r.waiter = nullptr;
  if (sink_)
    sink_->span(r.send ? r.m.src : r.m.dst, obs::Phase::kBlocked, r.parked_at,
                engine_.now(), r.send ? "wait-send" : "wait-recv");
  // The program may post new requests (growing the table): `r` is dead.
  program.resume();
}

void Cluster::park(RequestId id, std::coroutine_handle<> program) {
  check_live(id);
  Request& r = requests_[id.slot];
  TILO_REQUIRE(!r.waiter, "request already has a waiter");
  r.waiter = program;
  r.parked_at = engine_.now();
}

Message Cluster::release(RequestId id) {
  check_live(id);
  Request& r = requests_[id.slot];
  TILO_ASSERT(r.complete, "releasing an incomplete request");
  r.live = false;
  ++r.gen;
  free_requests_.push_back(id.slot);
  return r.m;
}

Payload Cluster::make_payload() {
  std::uint32_t index;
  if (free_payloads_.empty()) {
    TILO_REQUIRE(payloads_.size() < Payload::kNone, "payload table exhausted");
    index = static_cast<std::uint32_t>(payloads_.size());
    payloads_.emplace_back();
  } else {
    index = free_payloads_.back();
    free_payloads_.pop_back();
    payloads_[index].clear();
  }
  return Payload{index};
}

void Cluster::free_payload(Payload p) {
  TILO_REQUIRE(p.index < payloads_.size(), "no payload ", p.index);
  free_payloads_.push_back(p.index);
}

std::size_t Cluster::reclaim() {
  std::size_t destroyed = 0;
  for (Request& r : requests_) {
    if (!r.waiter) continue;
    const std::coroutine_handle<> program = r.waiter;
    r.waiter = nullptr;
    program.destroy();
    ++destroyed;
  }
  // Every slot and buffer goes back, lowest index handed out first.
  free_requests_.clear();
  for (std::uint32_t s = static_cast<std::uint32_t>(requests_.size());
       s-- > 0;) {
    Request& r = requests_[s];
    if (r.live) ++r.gen;
    r.live = false;
    free_requests_.push_back(s);
  }
  free_payloads_.clear();
  for (std::uint32_t p = static_cast<std::uint32_t>(payloads_.size());
       p-- > 0;)
    free_payloads_.push_back(p);
  for (NodeState& st : nodes_) st.endpoint->clear();
  transfers_.clear();
  free_transfers_.clear();
  return destroyed;
}

void Cluster::track_sent(int src, int dst, i64 bytes) {
  ++messages_;
  bytes_ += bytes;
  inflight_ += bytes;
  peak_inflight_ = std::max(peak_inflight_, inflight_);
  std::vector<Link>& row = links_[static_cast<std::size_t>(src)];
  for (Link& l : row)
    if (l.dst == dst) {
      l.bytes += bytes;
      return;
    }
  row.push_back(Link{dst, bytes});
}

void Cluster::track_delivered(i64 bytes) {
  inflight_ -= bytes;
  TILO_ASSERT(inflight_ >= 0, "in-flight byte accounting went negative");
}

std::uint32_t Cluster::add_transfer(const Message& m, std::uint32_t request) {
  std::uint32_t id;
  if (free_transfers_.empty()) {
    TILO_REQUIRE(transfers_.size() < UINT32_MAX, "transfer pool exhausted");
    id = static_cast<std::uint32_t>(transfers_.size());
    transfers_.emplace_back();
  } else {
    id = free_transfers_.back();
    free_transfers_.pop_back();
  }
  Transfer& x = transfers_[id];
  x.m = m;
  x.request = request;
  return id;
}

void Cluster::deliver_transfer(std::uint32_t id) {
  const Message m = transfers_[id].m;
  free_transfers_.push_back(id);
  endpoint(m.dst).deliver(m);
}

void Cluster::start_transfer(const Message& m, std::uint32_t request) {
  const i64 index = messages_;
  track_sent(m.src, m.dst, m.bytes);
  if (index == drop_index_) {
    // Lost on the wire: the local send "succeeds", nothing arrives.
    complete_request(request);
    if (m.payload.has_data()) free_payload(m.payload);
    track_delivered(m.bytes);
    return;
  }
  const std::uint32_t id = add_transfer(m, request);
  if (protocol_ == Protocol::kRendezvous) {
    // Request-to-send travels to the receiver; the data pipeline starts
    // only once a matching receive is posted (clear_to_send).
    const Message& x = transfers_[id].m;
    engine_.after(latency_ns(x.src, x.dst), [this, id] {
      endpoint(transfers_[id].m.dst).rts_arrived(id);
    });
    return;
  }
  start_pipeline(id);
}

void Cluster::clear_to_send(std::uint32_t id) {
  // CTS travels back to the sender, then the data ships.
  const Message& x = transfers_[id].m;
  engine_.after(latency_ns(x.dst, x.src), [this, id] { start_pipeline(id); });
}

void Cluster::start_pipeline(std::uint32_t id) {
  Transfer& x = transfers_[id];
  const int src = x.m.src;
  const int dst = x.m.dst;
  const sim::Time b3 = fill_kernel_ns(x.m.bytes);
  x.wire = half_wire_ns(x.m.bytes, src, dst);  // B4, and B1 on arrival
  x.recv_copy = b3;                            // B2 = B3
  x.latency = latency_ns(src, dst);
  const sim::Time b4 = x.wire;

  if (network_ == Network::kSwitched) {
    // Sender channel: kernel copy + send half of the wire time; then the
    // receiver channel picks up after the propagation latency.
    const auto grant = send_channel(src).acquire(
        engine_.now(), b3 + b4, [this, id] { send_leg_done(id); });
    if (sink_) {
      sink_->span(src, obs::Phase::kKernelSend, grant.start,
                  grant.start + b3);
      sink_->span(src, obs::Phase::kWire, grant.start + b3,
                  grant.completion);
    }
    return;
  }
  // Shared bus: the kernel copy runs on the sender channel, then the whole
  // frame occupies the single bus, then the receiver kernel copy.
  const auto grant =
      send_channel(src).acquire(engine_.now(), b3, [this, id] {
        const Transfer& t = transfers_[id];
        const auto bus_grant =
            bus_->acquire(engine_.now(), t.wire + t.wire,
                          [this, id] { send_leg_done(id); });
        if (sink_)
          sink_->span(t.m.src, obs::Phase::kWire, bus_grant.start,
                      bus_grant.completion);
      });
  if (sink_)
    sink_->span(src, obs::Phase::kKernelSend, grant.start, grant.completion);
}

void Cluster::send_leg_done(std::uint32_t id) {
  // The waiter may resume a program that sends again (growing the pool),
  // so the record is re-read afterwards, never held across the call.
  complete_request(transfers_[id].request);
  const Transfer& x = transfers_[id];
  const int dst = x.m.dst;
  if (network_ == Network::kSwitched) {
    const sim::Time b1 = x.wire;
    const auto grant = recv_channel(dst).acquire(
        engine_.now() + x.latency, b1 + x.recv_copy,
        [this, id] { deliver_transfer(id); });
    if (sink_) {
      sink_->span(dst, obs::Phase::kWire, grant.start, grant.start + b1);
      sink_->span(dst, obs::Phase::kKernelRecv, grant.start + b1,
                  grant.completion);
    }
    return;
  }
  // Shared bus: only the kernel copy remains on the receiver channel.
  const auto grant =
      recv_channel(dst).acquire(engine_.now() + x.latency, x.recv_copy,
                                [this, id] { deliver_transfer(id); });
  if (sink_)
    sink_->span(dst, obs::Phase::kKernelRecv, grant.start, grant.completion);
}

void Cluster::start_blocking_transfer(const Message& m) {
  const i64 index = messages_;
  track_sent(m.src, m.dst, m.bytes);
  if (index == drop_index_) {
    if (m.payload.has_data()) free_payload(m.payload);
    track_delivered(m.bytes);
    return;  // lost on the wire
  }
  const sim::Time lat = latency_ns(m.src, m.dst);
  const std::uint32_t id = add_transfer(m, kNoRequest);
  engine_.after(lat, [this, id] { deliver_transfer(id); });
}

}  // namespace tilo::msg
