// Quickstart: tile a small 3-D stencil, run both the non-overlapping and
// the overlapping schedules on the simulated cluster, validate the results
// against sequential execution, and compare completion times.
//
//   ./examples/quickstart
#include <iostream>

#include "tilo/core/problem.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/util/csv.hpp"

int main() {
  using namespace tilo;

  // The paper's experimental kernel on a reduced 16 x 16 x 512 space,
  // 4 x 4 processors, tiles of height V = 32.
  core::Problem problem{loop::stencil3d_nest(16, 16, 512),
                        mach::MachineParams::paper_cluster(),
                        lat::Vec{4, 4, 1}, nullptr};
  const util::i64 V = 32;

  std::cout << "nest: " << problem.nest.name() << ", domain "
            << problem.nest.domain() << ", deps "
            << problem.nest.deps().str() << "\n";
  std::cout << "kernel: " << problem.nest.kernel().statement() << "\n\n";

  for (auto kind : {sched::ScheduleKind::kNonOverlap,
                    sched::ScheduleKind::kOverlap}) {
    const exec::TilePlan plan = problem.plan(V, kind);
    const bool overlap = kind == sched::ScheduleKind::kOverlap;

    // Functional run: the distributed result must equal the sequential one.
    const double err =
        exec::run_and_validate(problem.nest, plan, problem.machine);

    // Timed run for the completion time.
    const exec::RunResult timed =
        exec::run_plan(problem.nest, plan, problem.cost_model());

    std::cout << (overlap ? "overlapping   " : "non-overlapping")
              << "  P(g) = " << plan.schedule_length()
              << "  simulated = " << util::fmt_seconds(timed.seconds)
              << "  predicted = "
              << util::fmt_seconds(
                     core::predict_completion(plan, *problem.cost_model()))
              << "  messages = " << timed.messages
              << "  max |err| vs sequential = " << err << "\n";
  }
  return 0;
}
