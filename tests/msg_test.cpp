// Unit tests for tilo::msg — the simulated MPI-like layer: matching,
// nonblocking pipelines, blocking transfers, channel sharing and network
// models.  Timings are verified against hand-computed stage sums.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "tilo/msg/cluster.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/msg/match_table.hpp"
#include "tilo/trace/timeline.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using mach::AffineCost;
using mach::MachineParams;
using mach::OverlapLevel;
using msg::Cluster;
using msg::Network;
using sim::Time;
using util::i64;

namespace {

/// Simple round numbers so stage sums are easy to verify:
/// fill_mpi = 10 us, fill_kernel = 20 us, wire = 1 us/B (0.5 each half),
/// latency = 5 us, t_c = 1 us.
MachineParams test_params() {
  MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 1e-6;
  p.bytes_per_element = 4;
  p.wire_latency = 5e-6;
  p.fill_mpi_buffer = AffineCost{10e-6, 0.0};
  p.fill_kernel_buffer = AffineCost{20e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> test_model() {
  return std::make_shared<mach::IdealOverlapModel>(test_params());
}

constexpr Time kUs = 1000;  // ns per microsecond

}  // namespace

TEST(ClusterTest, CostConversions) {
  Cluster c(2, test_model());
  EXPECT_EQ(c.fill_mpi_ns(123), 10 * kUs);
  EXPECT_EQ(c.fill_kernel_ns(123), 20 * kUs);
  EXPECT_EQ(c.half_wire_ns(100), 50 * kUs);
  EXPECT_EQ(c.latency_ns(), 5 * kUs);
  EXPECT_EQ(c.compute_ns(7), 7 * kUs);
}

TEST(ClusterTest, InvalidRankThrows) {
  Cluster c(2, test_model());
  EXPECT_THROW(c.node(2), util::Error);
  EXPECT_THROW(c.node(0).isend(0, 1, 8), util::Error);   // self-send
  EXPECT_THROW(c.node(0).isend(9, 1, 8), util::Error);   // bad dest
  EXPECT_THROW(c.node(0).irecv(0, 1), util::Error);      // self-recv
}

TEST(ClusterTest, IsendRequiresDmaLevel) {
  Cluster c(2, test_model(), OverlapLevel::kNone);
  EXPECT_THROW(c.node(0).isend(1, 1, 8), util::Error);
  EXPECT_NO_THROW(c.node(0).post_blocking(1, 1, 8));
}

TEST(TransferTest, NonblockingPipelineTiming) {
  // Message of 100 B: sender channel B3+B4 = 20 + 50 = 70 us, done at 70;
  // +latency 5 -> receiver channel B1+B2 = 50 + 20 = 70; kernel-ready at
  // 145 us.
  Cluster c(2, test_model());
  Time send_done = -1;
  Time recv_ready = -1;
  auto rh = c.node(1).irecv(0, 7);
  msg::Endpoint::when_ready(rh, [&] { recv_ready = c.engine().now(); });
  c.engine().at(0, [&] {
    auto sh = c.node(0).isend(1, 7, 100);
    // The cluster keeps the handle alive while the transfer is in flight,
    // so the waiter (a trivially-copyable SmallCallback) needs no capture
    // of sh.
    msg::Endpoint::when_done(sh, [&] { send_done = c.engine().now(); });
  });
  c.run();
  EXPECT_EQ(send_done, 70 * kUs);
  EXPECT_EQ(recv_ready, 145 * kUs);
  EXPECT_EQ(c.messages_sent(), 1);
  EXPECT_EQ(c.bytes_sent(), 100);
}

TEST(TransferTest, SharedChannelSerializesTwoSends) {
  // Two 100 B sends from the same node on one DMA channel: the second's
  // pipeline starts when the first's B3+B4 finishes.
  Cluster c(3, test_model(), OverlapLevel::kDma);
  Time ready1 = -1;
  Time ready2 = -1;
  auto r1 = c.node(1).irecv(0, 1);
  auto r2 = c.node(2).irecv(0, 2);
  msg::Endpoint::when_ready(r1, [&] { ready1 = c.engine().now(); });
  msg::Endpoint::when_ready(r2, [&] { ready2 = c.engine().now(); });
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 100);
    c.node(0).isend(2, 2, 100);
  });
  c.run();
  EXPECT_EQ(ready1, 145 * kUs);
  EXPECT_EQ(ready2, (70 + 75 + 70) * kUs);  // second leaves at 140
}

TEST(TransferTest, ReceiveChannelSharedWithSendsUnderKDma) {
  // Under kDma one channel carries both directions on a node: an incoming
  // message's B1+B2 must queue behind an outgoing B3+B4 in progress.
  Cluster c(2, test_model(), OverlapLevel::kDma);
  Time ready = -1;
  auto r = c.node(1).irecv(0, 1);
  msg::Endpoint::when_ready(r, [&] { ready = c.engine().now(); });
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 100);   // arrives at node 1 at t = 75 us
    c.node(1).isend(0, 9, 100);   // occupies node 1's channel [0, 70]
  });
  c.run();
  // Receive leg starts at 75 (after its own channel frees at 70 and the
  // wire-arrival at 75), so ready at 75 + 70 = 145.
  EXPECT_EQ(ready, 145 * kUs);
}

TEST(TransferTest, DuplexChannelsDoNotInterfere) {
  // Same scenario at kDuplexDma: receives use their own channel.
  Cluster c(2, test_model(), OverlapLevel::kDuplexDma);
  Time ready = -1;
  auto r = c.node(1).irecv(0, 1);
  msg::Endpoint::when_ready(r, [&] { ready = c.engine().now(); });
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 100);
    c.node(1).isend(0, 9, 100);  // send channel only
  });
  c.run();
  EXPECT_EQ(ready, 145 * kUs);  // unchanged, but now trivially so
}

TEST(TransferTest, SharedBusSerializesAllWireTime) {
  // Two simultaneous transfers between disjoint pairs: on a switched
  // network they proceed in parallel; on a shared bus the second frame
  // waits for the first (100 us of wire each).
  auto run_net = [](Network net) {
    Cluster c(4, test_model(), OverlapLevel::kDma, net);
    Time last_ready = -1;
    auto r1 = c.node(1).irecv(0, 1);
    auto r2 = c.node(3).irecv(2, 2);
    msg::Endpoint::when_ready(r1, [&] { last_ready = std::max(last_ready,
                                                              c.engine().now()); });
    msg::Endpoint::when_ready(r2, [&] { last_ready = std::max(last_ready,
                                                              c.engine().now()); });
    c.engine().at(0, [&] {
      c.node(0).isend(1, 1, 100);
      c.node(2).isend(3, 2, 100);
    });
    c.run();
    return last_ready;
  };
  const Time switched = run_net(Network::kSwitched);
  const Time bus = run_net(Network::kSharedBus);
  EXPECT_EQ(switched, 145 * kUs);
  EXPECT_GT(bus, switched);
}

TEST(MatchingTest, ArrivalBeforePostMatchesImmediately) {
  Cluster c(2, test_model());
  bool ready_at_post = false;
  c.engine().at(0, [&] { c.node(0).isend(1, 42, 8); });
  // Post the receive long after the message landed.
  c.engine().at(1'000'000'000, [&] {
    auto h = c.node(1).irecv(0, 42);
    ready_at_post = h->ready;
  });
  c.run();
  EXPECT_TRUE(ready_at_post);
}

TEST(MatchingTest, TagsKeepMessagesApart) {
  Cluster c(2, test_model());
  auto ha = c.node(1).irecv(0, 1);
  auto hb = c.node(1).irecv(0, 2);
  bool a_ready_first = false;
  msg::Endpoint::when_ready(hb, [&] { a_ready_first = ha->ready; });
  c.engine().at(0, [&] {
    // Send tag 1 first; tag 2 second — each matches its own handle even
    // though both come from the same source.
    c.node(0).isend(1, 1, 8);
    c.node(0).isend(1, 2, 8);
  });
  c.run();
  EXPECT_TRUE(ha->ready);
  EXPECT_TRUE(hb->ready);
  EXPECT_TRUE(a_ready_first);  // FIFO on the shared channel
}

TEST(MatchingTest, SameTagFifoWithinKey) {
  Cluster c(2, test_model());
  // Payloads distinguish the two messages.
  auto p1 = std::make_shared<std::vector<double>>(std::vector<double>{1.0});
  auto p2 = std::make_shared<std::vector<double>>(std::vector<double>{2.0});
  c.engine().at(0, [&] {
    c.node(0).isend(1, 5, 8, msg::Payload{p1});
    c.node(0).isend(1, 5, 8, msg::Payload{p2});
  });
  c.run();
  auto h1 = c.node(1).irecv(0, 5);
  auto h2 = c.node(1).irecv(0, 5);
  ASSERT_TRUE(h1->ready && h2->ready);
  EXPECT_DOUBLE_EQ((*h1->payload.data)[0], 1.0);
  EXPECT_DOUBLE_EQ((*h2->payload.data)[0], 2.0);
}

TEST(MatchingTest, FifoWithinKeyWhenKeysInterleave) {
  Cluster c(3, test_model());
  // Arrivals alternate between two tags and two sources; each message's
  // size records its order within its key.
  c.engine().at(0, [&] {
    for (int i = 0; i < 4; ++i) {
      c.node(0).isend(2, 7, 100 + i);
      c.node(0).isend(2, 8, 200 + i);
      c.node(1).isend(2, 7, 300 + i);
    }
  });
  c.run();
  EXPECT_EQ(c.node(2).pending_entries(), 12u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(c.node(2).irecv(1, 7)->bytes, 300 + i);
    EXPECT_EQ(c.node(2).irecv(0, 8)->bytes, 200 + i);
    EXPECT_EQ(c.node(2).irecv(0, 7)->bytes, 100 + i);
  }
  EXPECT_EQ(c.node(2).pending_entries(), 0u);
}

TEST(MatchTableTest, FifoWithinKeyWhenKeysInterleave) {
  msg::MatchTable<int> t;
  const std::vector<std::pair<int, i64>> keys = {{0, 1}, {0, 2}, {1, 1}};
  for (int i = 0; i < 5; ++i)
    for (std::size_t k = 0; k < keys.size(); ++k)
      t.push(keys[k], static_cast<int>(10 * k) + i);
  EXPECT_EQ(t.size(), 15u);
  EXPECT_EQ(*t.find_if(keys[1], [](int v) { return v > 11; }), 12);
  for (int i = 0; i < 5; ++i)
    for (std::size_t k = keys.size(); k-- > 0;)
      EXPECT_EQ(t.pop(keys[k]), std::optional<int>(static_cast<int>(10 * k) + i));
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.pop(keys[0]), std::nullopt);
  EXPECT_EQ(t.find_if(keys[0], [](int) { return true; }), nullptr);
}

TEST(MatchTableTest, GrowsThroughRehashesWithLiveEntries) {
  // Thousands of keys live at once (several rehashes), with pops mixed in
  // so deletions shift probe runs; every key stays FIFO against a
  // std::map<key, deque> reference.
  msg::MatchTable<i64> t;
  std::map<std::pair<int, i64>, std::deque<i64>> ref;
  util::Rng rng(11);
  i64 next = 0;
  std::size_t live = 0;
  for (int step = 0; step < 40000; ++step) {
    const std::pair<int, i64> key{static_cast<int>(rng.uniform(0, 15)),
                                  rng.uniform(0, 600)};
    if (rng.chance(0.6)) {
      t.push(key, next);
      ref[key].push_back(next++);
      ++live;
    } else {
      std::deque<i64>& q = ref[key];
      const std::optional<i64> got = t.pop(key);
      if (q.empty()) {
        ASSERT_EQ(got, std::nullopt) << "step " << step;
      } else {
        ASSERT_EQ(got, std::optional<i64>(q.front())) << "step " << step;
        q.pop_front();
        --live;
      }
    }
    ASSERT_EQ(t.size(), live);
  }
  EXPECT_GT(live, 5000u);
  for (auto& [key, q] : ref)
    for (const i64 v : q) ASSERT_EQ(t.pop(key), std::optional<i64>(v));
  EXPECT_TRUE(t.empty());
}

TEST(MatchTableTest, ClearEmptiesAndTableStaysUsable) {
  msg::MatchTable<std::shared_ptr<int>> t;
  auto held = std::make_shared<int>(1);
  for (i64 tag = 0; tag < 100; ++tag) t.push({0, tag}, held);
  EXPECT_EQ(held.use_count(), 101);
  t.clear();
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(held.use_count(), 1);  // cleared entries release what they held
  for (i64 tag = 0; tag < 100; ++tag) EXPECT_EQ(t.pop({0, tag}), std::nullopt);
  t.push({0, 3}, held);
  EXPECT_EQ(*t.pop({0, 3}).value(), 1);
}

TEST(ClusterTest, ResetLeavesEveryMatchTableEmpty) {
  Cluster c(3, test_model(), OverlapLevel::kDma, Network::kSwitched, nullptr,
            msg::Protocol::kRendezvous);
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 8);  // rendezvous: parks at node 1
  });
  c.node(2).irecv(0, 2);       // posted, never sent
  c.run();
  EXPECT_EQ(c.node(1).pending_entries(), 1u);
  EXPECT_EQ(c.node(2).pending_entries(), 1u);
  c.reset(3, test_model());
  for (int r = 0; r < 3; ++r) EXPECT_EQ(c.node(r).pending_entries(), 0u);

  // Eager: an unmatched arrival, then reset — the old message must not
  // satisfy a receive posted after the reset.
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 8); });
  c.run();
  EXPECT_EQ(c.node(1).pending_entries(), 1u);
  c.reset(3, test_model());
  for (int r = 0; r < 3; ++r) EXPECT_EQ(c.node(r).pending_entries(), 0u);
  EXPECT_FALSE(c.node(1).irecv(0, 1)->ready);
}

TEST(BlockingPathTest, DeliversAfterLatencyOnly) {
  // The blocking path models the CPU doing all the work: the message
  // itself only carries the propagation latency.
  Cluster c(2, test_model(), OverlapLevel::kNone);
  Time ready = -1;
  auto h = c.node(1).irecv(0, 3);
  msg::Endpoint::when_ready(h, [&] { ready = c.engine().now(); });
  c.engine().at(0, [&] { c.node(0).post_blocking(1, 3, 64); });
  c.run();
  EXPECT_EQ(ready, 5 * kUs);
}

TEST(CpuTest, RecordsPhaseAndAdvancesClock) {
  trace::Timeline tl;
  Cluster c(1, test_model(), OverlapLevel::kDma, Network::kSwitched, &tl);
  Time after = -1;
  c.engine().at(0, [&] {
    c.node(0).cpu(12 * kUs, trace::Phase::kCompute,
                  [&] { after = c.engine().now(); }, "tile");
  });
  c.run();
  EXPECT_EQ(after, 12 * kUs);
  ASSERT_EQ(tl.intervals().size(), 1u);
  EXPECT_EQ(tl.intervals()[0].phase, trace::Phase::kCompute);
  EXPECT_EQ(tl.intervals()[0].end, 12 * kUs);
  EXPECT_EQ(tl.intervals()[0].label, "tile");
}

TEST(TimelineIntegrationTest, TransferRecordsDmaAndWirePhases) {
  trace::Timeline tl;
  Cluster c(2, test_model(), OverlapLevel::kDma, Network::kSwitched, &tl);
  c.node(1).irecv(0, 1);
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 100); });
  c.run();
  EXPECT_GT(tl.phase_time(0, trace::Phase::kKernelSend), 0);
  EXPECT_GT(tl.phase_time(0, trace::Phase::kWire), 0);
  EXPECT_GT(tl.phase_time(1, trace::Phase::kKernelRecv), 0);
}

TEST(TrafficTest, MatrixAccumulatesPerPair) {
  Cluster c(3, test_model());
  c.node(1).irecv(0, 1);
  c.node(2).irecv(0, 2);
  c.node(2).irecv(1, 3);
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 100);
    c.node(0).isend(2, 2, 50);
    c.node(1).isend(2, 3, 25);
  });
  c.run();
  const auto& m = c.traffic();
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m.at({0, 1}), 100);
  EXPECT_EQ(m.at({0, 2}), 50);
  EXPECT_EQ(m.at({1, 2}), 25);
}

TEST(TrafficTest, PeakInflightTracksConcurrentMessages) {
  Cluster c(3, test_model());
  c.node(1).irecv(0, 1);
  c.node(2).irecv(0, 2);
  c.engine().at(0, [&] {
    c.node(0).isend(1, 1, 100);
    c.node(0).isend(2, 2, 100);
  });
  c.run();
  EXPECT_EQ(c.peak_inflight_bytes(), 200);  // both in flight at once
}

TEST(DeterminismTest, IdenticalRunsProduceIdenticalTimes) {
  auto run = [] {
    Cluster c(4, test_model());
    for (int r = 1; r < 4; ++r) c.node(r).irecv(0, r);
    c.engine().at(0, [&] {
      for (int r = 1; r < 4; ++r) c.node(0).isend(r, r, 64 * r);
    });
    return c.run();
  };
  EXPECT_EQ(run(), run());
}
