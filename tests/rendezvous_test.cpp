// Tests for the rendezvous protocol extension: handshake timing, parked
// senders, and end-to-end executor behavior (functional equality, timing
// never better than eager).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/msg/cluster.hpp"
#include "wait_helper.hpp"

using namespace tilo;
using mach::AffineCost;
using mach::MachineParams;
using msg::Cluster;
using msg::Protocol;
using sim::Time;
using util::i64;
using testing_support::on_complete;

namespace {

MachineParams round_params() {
  MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 1e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 5e-6;
  p.fill_mpi_buffer = AffineCost{10e-6, 0.0};
  p.fill_kernel_buffer = AffineCost{20e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> round_model() {
  return std::make_shared<mach::IdealOverlapModel>(round_params());
}

constexpr Time kUs = 1000;

}  // namespace

TEST(RendezvousTest, PostedReceiveGrantsAfterOneRoundTrip) {
  // RTS at t=0 arrives at 5 us; recv already posted -> CTS back by 10 us;
  // pipeline B3+B4 = 70 us on the sender channel -> done 80 us; +5 us
  // latency; receiver leg B1+B2 = 70 us -> kernel-ready at 155 us
  // (eager would be 145 us: one extra round trip minus the overlap of...
  // exactly 2*latency later on the send start).
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time ready = -1;
  auto h = c.node(1).irecv(0, 1);
  on_complete(c, h, [&](msg::Message) { ready = c.engine().now(); });
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 100); });
  c.run();
  EXPECT_EQ(ready, (10 + 70 + 5 + 70) * kUs);
}

TEST(RendezvousTest, UnpostedReceiveParksTheSender) {
  // RTS arrives at 5 us but the recv is posted at t = 100 us: CTS leaves
  // then, pipeline starts at 105 us.
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time ready = -1;
  c.engine().at(0, [&] { c.node(0).isend(1, 1, 100); });
  c.engine().at(100 * kUs, [&] {
    auto h = c.node(1).irecv(0, 1);
    on_complete(c, h, [&](msg::Message) { ready = c.engine().now(); });
  });
  c.run();
  EXPECT_EQ(ready, (100 + 5 + 70 + 5 + 70) * kUs);
}

TEST(RendezvousTest, SendDoneWaitsForHandshake) {
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  Time done = -1;
  c.node(1).irecv(0, 1);
  c.engine().at(0, [&] {
    const msg::RequestId sh = c.node(0).isend(1, 1, 100);
    on_complete(c, sh, [&](msg::Message) { done = c.engine().now(); });
  });
  c.run();
  EXPECT_EQ(done, (10 + 70) * kUs);  // handshake + local pipeline
}

TEST(RendezvousTest, TwoSendersFifoPerKey) {
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  const msg::Payload p1 = c.make_payload();
  c.payload_values(p1).push_back(1.0);
  const msg::Payload p2 = c.make_payload();
  c.payload_values(p2).push_back(2.0);
  c.engine().at(0, [&] {
    c.node(0).isend(1, 5, 8, p1);
    c.node(0).isend(1, 5, 8, p2);
  });
  std::vector<double> got;
  c.engine().at(1 * kUs, [&] {
    for (int i = 0; i < 2; ++i) {
      on_complete(c, c.node(1).irecv(0, 5), [&](msg::Message m) {
        got.push_back(c.payload_values(m.payload)[0]);
        c.free_payload(m.payload);
      });
    }
  });
  c.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_DOUBLE_EQ(got[0], 1.0);
  EXPECT_DOUBLE_EQ(got[1], 2.0);
}

TEST(RendezvousTest, GrantsGoToTheOldestUngrantedReceive) {
  // Three receives posted on one key; two request-to-sends reach node 1
  // at 5 us, before either message's data.  The second RTS must skip the
  // already-granted first receive and grant the second; the third stays
  // ungranted until a third sender arrives.
  Cluster c(2, round_model(), mach::OverlapLevel::kDma,
            msg::Network::kSwitched, nullptr, Protocol::kRendezvous);
  std::vector<msg::RequestId> id;
  for (int i = 0; i < 3; ++i) id.push_back(c.node(1).irecv(0, 5));
  auto h = [&](int i) { return c.request(id[static_cast<std::size_t>(i)]); };
  c.engine().at(0, [&] {
    c.node(0).isend(1, 5, 100);
    c.node(0).isend(1, 5, 200);
  });
  bool checked = false;
  c.engine().at(6 * kUs, [&] {
    EXPECT_TRUE(h(0).granted && h(1).granted);
    EXPECT_FALSE(h(2).granted);
    EXPECT_FALSE(h(0).complete || h(1).complete);
    checked = true;
  });
  c.engine().at(1000 * kUs, [&] { c.node(0).isend(1, 5, 300); });
  c.run();
  EXPECT_TRUE(checked);
  EXPECT_EQ(h(0).m.bytes, 100);
  EXPECT_EQ(h(1).m.bytes, 200);
  EXPECT_TRUE(h(2).granted && h(2).complete);
  EXPECT_EQ(h(2).m.bytes, 300);
  EXPECT_EQ(c.node(1).pending_entries(), 0u);
}

TEST(RendezvousTest, ExecutorStillComputesCorrectly) {
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 6}),
      sched::ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.functional = true;
  opts.comm.protocol = Protocol::kRendezvous;
  const exec::RunResult run =
      exec::run_plan(nest, plan, round_model(), opts);
  const loop::DenseField ref = loop::run_sequential(nest);
  EXPECT_DOUBLE_EQ(loop::max_abs_diff(*run.field, ref), 0.0);
}

TEST(RendezvousTest, CommBoundRunsPayTheHandshake) {
  // At small grain (communication-bound steps) the per-message round trip
  // must show up as real overhead.  (At large grain rendezvous can even
  // edge out eager by a hair — deferring pipelines relieves the shared
  // DMA channel — so the comparison is only one-sided here.)
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 128);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 8}),
      sched::ScheduleKind::kOverlap);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  exec::RunOptions eager;
  exec::RunOptions rdv;
  rdv.comm.protocol = Protocol::kRendezvous;
  const double t_eager = exec::run_plan(nest, plan, model, eager).seconds;
  const double t_rdv = exec::run_plan(nest, plan, model, rdv).seconds;
  EXPECT_GT(t_rdv, t_eager);
  EXPECT_LT(t_rdv, 1.6 * t_eager);  // but bounded
}

TEST(RendezvousTest, OverheadShrinksWithGrain) {
  // The handshake penalty is per message: the ProcNB wait-for-sends pulls
  // it into the step's critical path, so the relative overhead falls as
  // the tile grain (steps' compute share) grows — the same grain argument
  // the paper makes for the startup costs.
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 1024);
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  auto overhead = [&](util::i64 V) {
    const exec::TilePlan plan = exec::make_plan(
        nest, tile::RectTiling(lat::Vec{4, 4, V}),
        sched::ScheduleKind::kOverlap);
    exec::RunOptions eager;
    exec::RunOptions rdv;
    rdv.comm.protocol = Protocol::kRendezvous;
    const double t_eager = exec::run_plan(nest, plan, model, eager).seconds;
    const double t_rdv = exec::run_plan(nest, plan, model, rdv).seconds;
    return (t_rdv - t_eager) / t_eager;
  };
  const double small_grain = overhead(8);
  const double large_grain = overhead(256);
  EXPECT_GE(small_grain, 0.0);
  EXPECT_LT(large_grain, small_grain);
  EXPECT_LT(large_grain, 0.25);
}
