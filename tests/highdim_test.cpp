// Higher-dimensional coverage: the paper's model is n-dimensional; these
// tests run 4-D nests through the whole stack (tiling, both schedules,
// functional validation, codegen) and check the n-D closed forms.
#include <gtest/gtest.h>

#include "tilo/codegen/mpi_program.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/sched/pi_search.hpp"
#include "tilo/sched/uetuct.hpp"

using namespace tilo;
using lat::Box;
using lat::Vec;
using loop::DependenceSet;
using loop::LoopNest;
using sched::ScheduleKind;
using tile::RectTiling;
using util::i64;

namespace {

mach::MachineParams tiny_params() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.02e-6;
  p.bytes_per_element = 8;
  p.wire_latency = 1e-6;
  p.fill_mpi_buffer = mach::AffineCost{3e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{3e-6, 0.0};
  return p;
}

std::shared_ptr<const mach::Model> tiny_model() {
  return std::make_shared<mach::IdealOverlapModel>(tiny_params());
}

LoopNest stencil4d() {
  return LoopNest(
      "stencil4d", Box::from_extents(Vec{6, 6, 6, 20}),
      DependenceSet({Vec{1, 0, 0, 0}, Vec{0, 1, 0, 0}, Vec{0, 0, 1, 0},
                     Vec{0, 0, 0, 1}}),
      std::make_shared<loop::SqrtSumKernel>());
}

}  // namespace

TEST(HighDimTest, FourDimensionalFunctionalBothSchedules) {
  const LoopNest nest = stencil4d();
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const exec::TilePlan plan = exec::make_plan_explicit(
        nest, RectTiling(Vec{3, 3, 3, 5}), kind, 3, Vec{2, 2, 2, 1});
    EXPECT_EQ(plan.mapping.num_ranks(), 8);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, tiny_params()), 0.0)
        << "kind " << static_cast<int>(kind);
  }
}

TEST(HighDimTest, FourDimensionalScheduleLengths) {
  const LoopNest nest = stencil4d();
  const tile::TiledSpace space(nest, RectTiling(Vec{3, 3, 3, 5}));
  const Vec u = space.last_tile();  // (1, 1, 1, 3)
  EXPECT_EQ(sched::nonoverlap_schedule_length(u), 1 + 1 + 1 + 3 + 1);
  EXPECT_EQ(sched::overlap_schedule_length(u, 3), 2 + 2 + 2 + 3 + 1);
  EXPECT_EQ(sched::overlap_schedule_length(u, 3),
            sched::uetuct_makespan(u, 3));
}

TEST(HighDimTest, FourDimensionalPiSearchRecoversClosedForms) {
  const LoopNest nest = stencil4d();
  const tile::TiledSpace space(nest, RectTiling(Vec{3, 3, 3, 5}));
  const auto plain = sched::optimal_pi_uniform(space.tile_space(),
                                               space.tile_deps(), 1, 2);
  EXPECT_EQ(plain.pi, (Vec{1, 1, 1, 1}));

  std::vector<i64> gaps;
  for (const Vec& e : space.tile_deps()) {
    bool comm = false;
    for (std::size_t d = 0; d < 3; ++d)
      if (e[d] != 0) comm = true;
    gaps.push_back(comm ? 2 : 1);
  }
  const auto over =
      sched::optimal_pi(space.tile_space(), space.tile_deps(), gaps, 2);
  EXPECT_EQ(over.pi, (Vec{2, 2, 2, 1}));
}

TEST(HighDimTest, FourDimensionalCodegenIsValidC) {
  const LoopNest nest = stencil4d();
  const exec::TilePlan plan = exec::make_plan_explicit(
      nest, RectTiling(Vec{3, 3, 3, 5}), ScheduleKind::kOverlap, 3,
      Vec{2, 2, 2, 1});
  const std::string src = gen::generate_mpi_program(nest, plan);
  EXPECT_NE(src.find("#define NDIMS 4"), std::string::npos);
  EXPECT_NE(src.find("#define TOTAL_RANKS 8"), std::string::npos);
}

TEST(HighDimTest, OneDimensionalDegenerateChain) {
  // n = 1: a pure recurrence; one processor, no communication, both
  // schedules collapse to sequential chunked execution.
  const LoopNest nest("chain", Box::from_extents(Vec{64}),
                      DependenceSet({Vec{1}}),
                      std::make_shared<loop::SumKernel>(0.5));
  for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
    const exec::TilePlan plan =
        exec::make_plan(nest, RectTiling(Vec{8}), kind);
    EXPECT_EQ(plan.mapping.num_ranks(), 1);
    const exec::RunResult r = exec::run_plan(
        nest, plan, tiny_model(), exec::RunOptions{.functional = true});
    EXPECT_EQ(r.messages, 0);
    EXPECT_DOUBLE_EQ(exec::run_and_validate(nest, plan, tiny_params()),
                     0.0);
  }
}
