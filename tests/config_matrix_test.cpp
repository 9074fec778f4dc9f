// Configuration-matrix property suite: functional correctness must hold
// for every combination of overlap level, network model and protocol —
// machine configuration may change *timing*, never *values*.
#include <gtest/gtest.h>

#include <tuple>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using mach::OverlapLevel;
using msg::Network;
using msg::Protocol;
using sched::ScheduleKind;

namespace {

std::shared_ptr<const mach::Model> varied_model() {
  mach::MachineParams p;
  p.t_c = 0.7e-6;
  p.t_t = 0.09e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 12e-6;
  p.fill_mpi_buffer = mach::AffineCost{21e-6, 3e-9};
  p.fill_kernel_buffer = mach::AffineCost{17e-6, 2e-9};
  return std::make_shared<mach::IdealOverlapModel>(p);
}

}  // namespace

using Config = std::tuple<OverlapLevel, Network, Protocol>;

class ConfigMatrixTest : public ::testing::TestWithParam<Config> {};

TEST_P(ConfigMatrixTest, OverlapScheduleValuesInvariant) {
  const auto [level, network, protocol] = GetParam();
  const LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 6}), ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.functional = true;
  opts.comm.level = level;
  opts.comm.network = network;
  opts.comm.protocol = protocol;
  const exec::RunResult run =
      exec::run_plan(nest, plan, varied_model(), opts);
  const loop::DenseField ref = loop::run_sequential(nest);
  EXPECT_DOUBLE_EQ(loop::max_abs_diff(*run.field, ref), 0.0);
}

TEST_P(ConfigMatrixTest, TimingDeterministicPerConfig) {
  const auto [level, network, protocol] = GetParam();
  const LoopNest nest = loop::stencil3d_nest(8, 8, 48);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 8}), ScheduleKind::kOverlap);
  exec::RunOptions opts;
  opts.comm.level = level;
  opts.comm.network = network;
  opts.comm.protocol = protocol;
  const auto a = exec::run_plan(nest, plan, varied_model(), opts);
  const auto b = exec::run_plan(nest, plan, varied_model(), opts);
  EXPECT_EQ(a.completion, b.completion);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
}

namespace {

std::string config_name(const ::testing::TestParamInfo<Config>& info) {
  const OverlapLevel level = std::get<0>(info.param);
  const Network network = std::get<1>(info.param);
  const Protocol protocol = std::get<2>(info.param);
  std::string name = level == OverlapLevel::kDma ? "dma" : "duplex";
  name += network == Network::kSwitched ? "_switch" : "_bus";
  name += protocol == Protocol::kEager ? "_eager" : "_rdv";
  return name;
}

}  // namespace

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, ConfigMatrixTest,
    ::testing::Combine(
        ::testing::Values(OverlapLevel::kDma, OverlapLevel::kDuplexDma),
        ::testing::Values(Network::kSwitched, Network::kSharedBus),
        ::testing::Values(Protocol::kEager, Protocol::kRendezvous)),
    config_name);

class BlockingConfigTest
    : public ::testing::TestWithParam<Network> {};

TEST_P(BlockingConfigTest, NonOverlapScheduleValuesInvariant) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 6}), ScheduleKind::kNonOverlap);
  exec::RunOptions opts;
  opts.functional = true;
  opts.comm.network = GetParam();
  const exec::RunResult run =
      exec::run_plan(nest, plan, varied_model(), opts);
  EXPECT_DOUBLE_EQ(
      loop::max_abs_diff(*run.field, loop::run_sequential(nest)), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Networks, BlockingConfigTest,
                         ::testing::Values(Network::kSwitched,
                                           Network::kSharedBus));
