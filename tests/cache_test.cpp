// Tests for the optional cache model: tiles spilling the cache pay a
// compute penalty, the simulated sweep's optimum shifts toward smaller
// tiles, and the disabled model reproduces the paper's constant-t_c world.
#include <gtest/gtest.h>

#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"

using namespace tilo;
using lat::Vec;
using loop::LoopNest;
using mach::CacheModel;
using sched::ScheduleKind;
using util::i64;

TEST(CacheModelTest, FactorSaturatesSmoothly) {
  CacheModel cache{1024, 2.0};
  EXPECT_DOUBLE_EQ(cache.factor(0), 1.0);
  EXPECT_DOUBLE_EQ(cache.factor(1024), 1.0);
  EXPECT_DOUBLE_EQ(cache.factor(2048), 1.0 + 2.0 * 0.5);
  EXPECT_NEAR(cache.factor(1 << 20), 3.0, 0.01);  // asymptote 1 + penalty
  // Disabled model never penalizes.
  EXPECT_DOUBLE_EQ(CacheModel{}.factor(1 << 30), 1.0);
}

TEST(CacheModelTest, DisabledModelMatchesPaperDefaults) {
  // The calibrated cluster keeps the paper's constant-t_c assumption.
  EXPECT_FALSE(mach::MachineParams::paper_cluster().cache.enabled());
}

TEST(CacheModelTest, SpillingTilesSlowTheSimulationDown) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 256);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 64}), ScheduleKind::kOverlap);
  mach::MachineParams base = mach::MachineParams::paper_cluster();
  mach::MachineParams small_cache = base;
  // 4x4x64 floats = 4 KiB tiles; a 1 KiB cache makes them spill hard.
  small_cache.cache = CacheModel{1024, 4.0};
  const double t_base = exec::run_plan(
      nest, plan, std::make_shared<mach::IdealOverlapModel>(base)).seconds;
  const double t_cache =
      exec::run_plan(nest, plan,
                     std::make_shared<mach::IdealOverlapModel>(small_cache))
          .seconds;
  EXPECT_GT(t_cache, 1.5 * t_base);
}

TEST(CacheModelTest, SimulatedPenaltyRatioMatchesTheModelFactor) {
  // The cache model's claim is a per-tile compute multiplier; compare the
  // with/without simulation ratio against the analytic factor on a
  // compute-bound configuration (ratios cancel the border effects that
  // make absolute completion-time comparisons loose on short pipelines).
  core::Problem p{loop::stencil3d_nest(16, 16, 2048),
                  mach::MachineParams::paper_cluster(), Vec{4, 4, 1}};
  const exec::TilePlan plan = p.plan(512, ScheduleKind::kOverlap);
  const double t_plain = exec::run_plan(p.nest, plan, p.cost_model()).seconds;
  p.machine.cache = CacheModel{8 * 1024, 3.0};
  const double t_cache = exec::run_plan(p.nest, plan, p.cost_model()).seconds;
  const mach::StepShape shape = core::steady_step_shape(plan, p.machine);
  const double factor = p.machine.cache.factor(shape.working_set_bytes);
  ASSERT_GT(factor, 2.0);  // the configuration really spills
  // Only the compute share of the critical path is multiplied, so the
  // end-to-end ratio is sandwiched between 1 and the per-tile factor.
  EXPECT_GT(t_cache / t_plain, 1.8);
  EXPECT_LE(t_cache / t_plain, factor);
}

TEST(CacheModelTest, OptimalTileHeightShrinksUnderASmallCache) {
  // The classic effect: the cache bends the right side of the U-curve
  // upward, pulling V_optimal toward smaller tiles.
  core::Problem p{loop::stencil3d_nest(16, 16, 4096),
                  mach::MachineParams::paper_cluster(), Vec{4, 4, 1}};
  const core::Autotune no_cache = core::autotune_tile_height(
      p, ScheduleKind::kOverlap, 16, p.max_tile_height() / 4);
  // 2 KiB capacity: the cache-less optimum (~10 KiB tiles) spills hard.
  p.machine.cache = CacheModel{2 * 1024, 6.0};
  const core::Autotune with_cache = core::autotune_tile_height(
      p, ScheduleKind::kOverlap, 16, p.max_tile_height() / 4);
  EXPECT_LT(with_cache.V_opt, no_cache.V_opt);
  EXPECT_GT(with_cache.t_opt, no_cache.t_opt);
}

TEST(CacheModelTest, FunctionalResultsUnaffectedByTiming) {
  const LoopNest nest = loop::stencil3d_nest(8, 8, 24);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(Vec{4, 4, 6}), ScheduleKind::kOverlap);
  mach::MachineParams m = mach::MachineParams::paper_cluster();
  m.cache = CacheModel{512, 5.0};
  EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, m), 0.0);
}
