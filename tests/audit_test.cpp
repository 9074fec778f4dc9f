// Tests exec::completion_lower_bound and uses it as an invariant over many
// random plans: the simulator can never beat a rank's serial CPU work after
// its earliest start, under any model, schedule, level, network, protocol
// or link speed.
#include <gtest/gtest.h>

#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/util/error.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using sched::ScheduleKind;
using util::i64;

namespace {

/// Round numbers for hand-checked bounds: 1 µs per iteration, 4-byte
/// elements, 0.5 µs per wire byte, 10 µs latency, 20 µs per buffer fill.
mach::MachineParams round_params() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.5e-6;
  p.bytes_per_element = 4;
  p.wire_latency = 10e-6;
  p.fill_kernel_buffer = mach::AffineCost{20e-6, 0.0};
  p.fill_mpi_buffer = mach::AffineCost{20e-6, 0.0};
  return p;
}

constexpr ScheduleKind kKinds[] = {ScheduleKind::kNonOverlap,
                                   ScheduleKind::kOverlap};

}  // namespace

TEST(AuditTest, SingleRankBoundIsPureCompute) {
  // One rank owns the single 4x4 column of four 4x4x4 tiles.  Every
  // message is rank-local, so no charge but compute remains and nothing
  // delays the first one: bound = 4 tiles x 64 iterations x 1 µs
  // = 256 µs, for both programs, and the simulation takes exactly that.
  const LoopNest nest = loop::stencil3d_nest(4, 4, 16);
  const auto model = std::make_shared<mach::IdealOverlapModel>(round_params());
  for (const ScheduleKind kind : kKinds) {
    const exec::TilePlan plan = exec::make_plan_with_procs(
        nest, tile::RectTiling(Vec{4, 4, 4}), kind, Vec{1, 1, 1});
    EXPECT_EQ(exec::completion_lower_bound(plan, model), 256'000);
    EXPECT_EQ(exec::run_plan(nest, plan, model).completion, 256'000);
  }
}

TEST(AuditTest, CrossRankChainAddsPipelines) {
  // Two ranks, one 4x4x4 tile each; tile 0 (rank 0) sends tile 1 (rank 1)
  // its 4x4 face, 16 points = 64 bytes.  Stage costs: compute 64 µs,
  // A1 = A3 = B2 = B3 = 20 µs, B1 = B4 = 0.5 µs/B x 64 B / 2 = 16 µs,
  // latency 10 µs.
  //  ProcNB: rank 0 starts at 0 and pays compute + A1 = 84 µs.  Rank 1
  //   starts after compute, A1, the pipeline B3+B4, latency, B1+B2:
  //   64 + 20 + 36 + 10 + 36 = 166 µs, then pays A3 + compute = 84 µs:
  //   bound 250 µs.
  //  ProcB: rank 0 pays compute + A1+B3+B4 = 120 µs.  Rank 1 starts at
  //   64 + 56 + 10 = 130 µs and pays B1+B2+A3 + compute = 120 µs: 250 µs.
  // Nothing contends, so both simulations take exactly the bound.
  const LoopNest nest = loop::stencil3d_nest(8, 4, 4);
  const auto model = std::make_shared<mach::IdealOverlapModel>(round_params());
  for (const ScheduleKind kind : kKinds) {
    const exec::TilePlan plan = exec::make_plan_explicit(
        nest, tile::RectTiling(Vec{4, 4, 4}), kind, 2, Vec{2, 1, 1});
    EXPECT_EQ(exec::completion_lower_bound(plan, model), 250'000);
    EXPECT_EQ(exec::run_plan(nest, plan, model).completion, 250'000);
  }
}

TEST(AuditTest, SimulationNeverBeatsTheBound) {
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  std::vector<std::shared_ptr<const mach::Model>> models;
  for (const std::string& name : mach::model_names())
    models.push_back(mach::make_model(name, p));
  // One link four times faster than the default and one four times
  // slower, in both directions.
  mach::HeteroConfig hetero;
  hetero.links = {{0, 1, p.t_t / 4, p.wire_latency / 4},
                  {1, 0, p.t_t / 4, p.wire_latency / 4},
                  {1, 2, p.t_t * 4, p.wire_latency * 4}};
  models.push_back(std::make_shared<mach::HeteroLinkModel>(p, hetero));

  util::Rng rng(31);
  int stalled = 0, bounded = 0;
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
    for (const ScheduleKind kind : kKinds) {
      const exec::TilePlan plan = exec::make_plan_explicit(
          nest, tile::RectTiling(sides), kind, md, procs);
      for (const auto& model : models) {
        // The bound prices through the model alone, so one bound covers
        // every communication configuration.
        const sim::Time bound = exec::completion_lower_bound(plan, model);
        for (auto level :
             {mach::OverlapLevel::kDma, mach::OverlapLevel::kDuplexDma}) {
          for (auto network :
               {msg::Network::kSwitched, msg::Network::kSharedBus}) {
            for (auto protocol :
                 {msg::Protocol::kEager, msg::Protocol::kRendezvous}) {
              exec::RunOptions ro;
              ro.comm = exec::CommConfig{level, network, protocol};
              sim::Time sim = 0;
              try {
                sim = exec::run_plan(nest, plan, model, ro).completion;
              } catch (const util::Error&) {
                // ProcNB waits on its sends before its receives.  Under
                // rendezvous a rank owning several columns can wait on a
                // send into a column its consumer has not reached yet: the
                // program deadlocks and run_plan reports the stall.  Such
                // a run has no completion to bound.
                EXPECT_EQ(protocol, msg::Protocol::kRendezvous);
                EXPECT_EQ(kind, ScheduleKind::kOverlap);
                ++stalled;
                continue;
              }
              EXPECT_GE(sim, bound)
                  << "iter " << iter << " kind " << static_cast<int>(kind)
                  << " model " << model->kind() << " level "
                  << static_cast<int>(level) << " network "
                  << static_cast<int>(network) << " protocol "
                  << static_cast<int>(protocol);
              ++bounded;
            }
          }
        }
      }
    }
  }
  EXPECT_GT(bounded, 10 * stalled);
}

TEST(AuditTest, BoundHoldsAcrossConfigurations) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 8}), ScheduleKind::kOverlap);
  const double bound =
      sim::to_seconds(exec::completion_lower_bound(plan, model));
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
        EXPECT_GE(sim, bound);
        EXPECT_LT(sim, bound * 50);  // sanity: not absurdly inflated
      }
    }
  }
}

TEST(AuditTest, PaperOptimaSitCloseToTheBound) {
  // Near the tuned grain the overlapping schedule runs within a few
  // percent of its busiest rank's serial work: the pipeline keeps every
  // CPU busy.
  const LoopNest nest = loop::paper_space_i();
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 223}), ScheduleKind::kOverlap);
  const sim::Time bound = exec::completion_lower_bound(plan, model);
  const sim::Time sim = exec::run_plan(nest, plan, model).completion;
  EXPECT_GE(sim, bound);
  EXPECT_LT(static_cast<double>(sim), 1.1 * static_cast<double>(bound));
}
