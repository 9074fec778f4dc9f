// Unit tests for tilo::msg — the simulated MPI-like layer: matching,
// nonblocking pipelines, blocking transfers, channel sharing and network
// models.  Timings are verified against hand-computed stage sums.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "tilo/msg/cluster.hpp"
#include "tilo/msg/endpoint.hpp"
#include "tilo/msg/match_table.hpp"
#include "tilo/trace/timeline.hpp"
#include "tilo/util/rng.hpp"
#include "wait_helper.hpp"

using namespace tilo;
using mach::AffineCost;
using mach::MachineParams;
using mach::OverlapLevel;
using msg::Cluster;
using msg::Network;
using sim::Time;
using util::i64;
using testing_support::on_complete;

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
  on_complete(c, rh, [&](msg::Message) { recv_ready = c.engine().now(); });
  c.engine().at(0, [&] {
    const msg::RequestId sh = c.node(0).isend(1, 7, 100);
    on_complete(c, sh, [&](msg::Message) { send_done = c.engine().now(); });
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
  on_complete(c, r1, [&](msg::Message) { ready1 = c.engine().now(); });
  on_complete(c, r2, [&](msg::Message) { ready2 = c.engine().now(); });
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
  on_complete(c, r, [&](msg::Message) { ready = c.engine().now(); });
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
  on_complete(c, r, [&](msg::Message) { ready = c.engine().now(); });
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
    on_complete(c, r1, [&](msg::Message) { last_ready = std::max(last_ready,
                                                              c.engine().now()); });
    on_complete(c, r2, [&](msg::Message) { last_ready = std::max(last_ready,
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
    const msg::RequestId h = c.node(1).irecv(0, 42);
    ready_at_post = c.request(h).complete;
  });
  c.run();
  EXPECT_TRUE(ready_at_post);
}

TEST(MatchingTest, TagsKeepMessagesApart) {
  Cluster c(2, test_model());
  const msg::RequestId ha = c.node(1).irecv(0, 1);
  const msg::RequestId hb = c.node(1).irecv(0, 2);
  bool a_ready_first = false;
  bool b_ready = false;
  on_complete(c, hb, [&](msg::Message) {
    a_ready_first = c.request(ha).complete;
    b_ready = true;
  });
  c.engine().at(0, [&] {
    // Send tag 1 first; tag 2 second — each matches its own handle even
    // though both come from the same source.
    c.node(0).isend(1, 1, 8);
    c.node(0).isend(1, 2, 8);
  });
  c.run();
  EXPECT_TRUE(c.request(ha).complete);
  EXPECT_TRUE(b_ready);
  EXPECT_TRUE(a_ready_first);  // FIFO on the shared channel
}

TEST(MatchingTest, SameTagFifoWithinKey) {
  Cluster c(2, test_model());
  // Payloads distinguish the two messages.
  const msg::Payload p1 = c.make_payload();
  c.payload_values(p1).push_back(1.0);
  const msg::Payload p2 = c.make_payload();
  c.payload_values(p2).push_back(2.0);
  c.engine().at(0, [&] {
    c.node(0).isend(1, 5, 8, p1);
    c.node(0).isend(1, 5, 8, p2);
  });
  c.run();
  const msg::RequestId h1 = c.node(1).irecv(0, 5);
  const msg::RequestId h2 = c.node(1).irecv(0, 5);
  ASSERT_TRUE(c.request(h1).complete && c.request(h2).complete);
  EXPECT_DOUBLE_EQ(c.payload_values(c.request(h1).m.payload)[0], 1.0);
  EXPECT_DOUBLE_EQ(c.payload_values(c.request(h2).m.payload)[0], 2.0);
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
    EXPECT_EQ(c.request(c.node(2).irecv(1, 7)).m.bytes, 300 + i);
    EXPECT_EQ(c.request(c.node(2).irecv(0, 8)).m.bytes, 200 + i);
    EXPECT_EQ(c.request(c.node(2).irecv(0, 7)).m.bytes, 100 + i);
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
  EXPECT_FALSE(c.request(c.node(1).irecv(0, 1)).complete);
}

TEST(BlockingPathTest, DeliversAfterLatencyOnly) {
  // The blocking path models the CPU doing all the work: the message
  // itself only carries the propagation latency.
  Cluster c(2, test_model(), OverlapLevel::kNone);
  Time ready = -1;
  auto h = c.node(1).irecv(0, 3);
  on_complete(c, h, [&](msg::Message) { ready = c.engine().now(); });
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

namespace {

/// Waits on `id` and records the util::Error the wait throws, if any.
testing_support::Detached wait_catching(Cluster& c, msg::RequestId id,
                                        std::string& error) {
  try {
    (void)co_await msg::Wait(c, id);
  } catch (const util::Error& e) {
    error = e.what();
  }
}

}  // namespace

TEST(MsgRequestTest, WaitReleasesTheIdAndAStaleIdThrows) {
  Cluster c(2, test_model());
  const msg::RequestId r = c.node(1).irecv(0, 1);
  i64 got = -1;
  on_complete(c, r, [&](msg::Message m) { got = m.bytes; });
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 24); });
  c.run();
  EXPECT_EQ(got, 24);
  // The send was never waited on: it stays live.  The receive was.
  EXPECT_EQ(c.live_requests(), 1u);
  EXPECT_THROW(c.request(r), util::Error);
  EXPECT_THROW(msg::Wait(c, r).await_ready(), util::Error);

  // The freed slot is reused under a new generation; the old id stays
  // stale and never aliases the new request.
  const msg::RequestId again = c.node(1).irecv(0, 2);
  EXPECT_EQ(again.slot, r.slot);
  EXPECT_NE(again.gen, r.gen);
  EXPECT_FALSE(c.request(again).complete);
  EXPECT_THROW(c.request(r), util::Error);
  EXPECT_THROW(c.request(msg::RequestId{}), util::Error);
}

TEST(MsgRequestTest, DoubleWaitThrows) {
  Cluster c(2, test_model());
  const msg::RequestId r = c.node(1).irecv(0, 1);
  bool first_done = false;
  on_complete(c, r, [&](msg::Message) { first_done = true; });
  // A second waiter on a pending request.
  std::string second;
  wait_catching(c, r, second);
  EXPECT_NE(second.find("already has a waiter"), std::string::npos)
      << second;
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 8); });
  c.run();
  EXPECT_TRUE(first_done);
  // A wait on the id the first wait released.
  std::string third;
  wait_catching(c, r, third);
  EXPECT_NE(third.find("stale request id"), std::string::npos) << third;
}

TEST(MsgRequestTest, DiscardedIdsAreReclaimedAcrossReset) {
  Cluster c(3, test_model());
  std::vector<msg::RequestId> old;
  for (int i = 0; i < 4; ++i) old.push_back(c.node(1).irecv(0, i));
  c.engine().at(0, [&] {
    for (int i = 0; i < 6; ++i) c.node(0).isend(1, i, 8);  // ids discarded
  });
  c.run();
  EXPECT_EQ(c.live_requests(), 10u);
  c.reset(3, test_model());
  EXPECT_EQ(c.live_requests(), 0u);
  for (const msg::RequestId id : old) EXPECT_THROW(c.request(id), util::Error);

  // The same traffic again reuses the reclaimed slots: the table does not
  // grow across resets.
  for (int round = 0; round < 3; ++round) {
    std::uint32_t top = 0;
    for (int i = 0; i < 4; ++i)
      top = std::max(top, c.node(1).irecv(0, i).slot);
    c.engine().at(0, [&] {
      for (int i = 0; i < 6; ++i)
        top = std::max(top, c.node(0).isend(1, i, 8).slot);
    });
    c.run();
    EXPECT_LT(top, 10u);
    EXPECT_EQ(c.live_requests(), 10u);
    c.reset(3, test_model());
  }
}

TEST(MsgRequestTest, ReclaimDestroysParkedWaitersAndFreesPayloads) {
  Cluster c(2, test_model());
  // A waiter that never completes: nothing is ever sent to it.
  bool resumed = false;
  on_complete(c, c.node(1).irecv(0, 1), [&](msg::Message) { resumed = true; });
  // A payload lost on the wire goes back to the cluster.
  c.inject_message_loss(0);
  const msg::Payload lost = c.make_payload();
  c.payload_values(lost).assign(16, 1.0);
  c.engine().at(0, [&] { c.node(0).isend(1, 2, 8, lost); });
  c.run();
  EXPECT_EQ(c.reclaim(), 1u);
  EXPECT_FALSE(resumed);
  EXPECT_EQ(c.live_requests(), 0u);
  EXPECT_EQ(c.make_payload().index, lost.index);  // recycled, emptied
  EXPECT_TRUE(c.payload_values(lost).empty());
}
