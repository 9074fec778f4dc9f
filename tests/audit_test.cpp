// Tests the critical-path audit and uses it as an invariant over many
// random plans: the simulator can never beat the contention-free lower
// bound, under any schedule, level, network or protocol.
#include <gtest/gtest.h>

#include "tilo/exec/audit.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using sched::ScheduleKind;
using util::i64;

TEST(AuditTest, SingleRankBoundIsPureCompute) {
  const LoopNest nest = loop::stencil3d_nest(4, 4, 16);
  const exec::TilePlan plan = exec::make_plan_with_procs(
      nest, tile::RectTiling(Vec{4, 4, 4}), ScheduleKind::kOverlap,
      Vec{1, 1, 1});
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  // One rank, one column: the k-chain serializes all compute.
  EXPECT_NEAR(exec::critical_path_lower_bound(plan, p),
              static_cast<double>(nest.iterations()) * p.t_c, 1e-12);
}

TEST(AuditTest, CrossRankChainAddsPipelines) {
  // 2 ranks, tiles 4x4x(whole k): the second rank starts after the first
  // tile's message; hand-check the bound.
  const LoopNest nest = loop::stencil3d_nest(8, 4, 4);
  const exec::TilePlan plan = exec::make_plan_explicit(
      nest, tile::RectTiling(Vec{4, 4, 4}), ScheduleKind::kOverlap, 2,
      Vec{2, 1, 1});
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.5e-6;
  p.bytes_per_element = 4;
  p.wire_latency = 10e-6;
  p.fill_kernel_buffer = mach::AffineCost{20e-6, 0.0};
  p.fill_mpi_buffer = mach::AffineCost{20e-6, 0.0};
  const double comp = 64.0 * p.t_c;          // one 4x4x4 tile
  const double bytes = 4.0 * 16.0;           // face 4x4 floats
  const double pipe = 2 * 20e-6 + 0.5e-6 * bytes + 10e-6;
  EXPECT_NEAR(exec::critical_path_lower_bound(plan, p),
              comp + pipe + comp, 1e-9);
}

TEST(AuditTest, SimulationNeverBeatsTheBound) {
  util::Rng rng(31);
  for (int iter = 0; iter < 10; ++iter) {
    loop::RandomNestOptions opts;
    opts.dims = 3;
    opts.num_deps = static_cast<std::size_t>(rng.uniform(1, 3));
    opts.max_dep_component = 1;
    opts.min_extent = 8;
    opts.max_extent = 16;
    opts.nonneg_deps = true;
    const LoopNest nest = loop::random_nest(rng, opts);
    Vec sides(3);
    Vec procs(3, 1);
    for (std::size_t d = 0; d < 3; ++d)
      sides[d] = rng.uniform(2, 5);
    const std::size_t md = static_cast<std::size_t>(rng.uniform(0, 2));
    for (std::size_t d = 0; d < 3; ++d) {
      if (d == md) continue;
      const i64 cols = util::ceil_div(nest.domain().extent(d), sides[d]);
      procs[d] = rng.uniform(1, std::min<i64>(cols, 2));
    }
    const mach::MachineParams p = mach::MachineParams::paper_cluster();
    const auto model = std::make_shared<mach::IdealOverlapModel>(p);
    for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
      const exec::TilePlan plan = exec::make_plan_explicit(
          nest, tile::RectTiling(sides), kind, md, procs);
      const double bound = exec::critical_path_lower_bound(plan, p);
      const double sim = exec::run_plan(nest, plan, model).seconds;
      EXPECT_GE(sim, bound * (1.0 - 1e-9))
          << "iter " << iter << " kind " << static_cast<int>(kind);
    }
  }
}

TEST(AuditTest, BoundHoldsAcrossConfigurations) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 8}), ScheduleKind::kOverlap);
  const double bound = exec::critical_path_lower_bound(plan, p);
  for (auto level : {mach::OverlapLevel::kDma,
                     mach::OverlapLevel::kDuplexDma}) {
    for (auto network : {msg::Network::kSwitched, msg::Network::kSharedBus}) {
      for (auto protocol : {msg::Protocol::kEager,
                            msg::Protocol::kRendezvous}) {
        exec::RunOptions opts;
        opts.comm.level = level;
        opts.comm.network = network;
        opts.comm.protocol = protocol;
        const double sim = exec::run_plan(nest, plan, model, opts).seconds;
        EXPECT_GE(sim, bound * (1.0 - 1e-9));
        EXPECT_LT(sim, bound * 50);  // sanity: not absurdly inflated
      }
    }
  }
}

TEST(AuditTest, PaperOptimaSitCloseToTheBound) {
  // At the tuned grain the overlapping schedule runs within ~2x of the
  // contention-free bound — the pipeline is doing its job.
  const LoopNest nest = loop::paper_space_i();
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 223}), ScheduleKind::kOverlap);
  const double bound = exec::critical_path_lower_bound(plan, p);
  const double sim = exec::run_plan(nest, plan, model).seconds;
  EXPECT_GE(sim, bound);
  EXPECT_LT(sim, 2.5 * bound);
}
