// Reproduces the paper's Section 5 program pair at fixed tile height: the
// blocking ProcB program (MPI_Recv/compute/MPI_Send) vs the nonblocking
// ProcNB program (MPI_Isend/MPI_Irecv/compute/MPI_Wait), on all three
// evaluation spaces at the paper's reported V_optimal, plus a network-model
// ablation (switched vs shared-bus Ethernet).
#include <iostream>

#include "../bench/common.hpp"
#include "tilo/exec/run.hpp"

int main() {
  using namespace tilo;
  using util::i64;

  struct Row {
    const char* name;
    core::Problem problem;
    i64 v_paper;
  };
  Row rows[] = {{"i:   16x16x16384", core::paper_problem_i(), 444},
                {"ii:  16x16x32768", core::paper_problem_ii(), 538},
                {"iii: 32x32x4096", core::paper_problem_iii(), 164}};

  std::cout << "== Blocking (ProcB) vs nonblocking (ProcNB) at the paper's "
               "V_optimal ==\n\n";
  util::Table table;
  table.set_header({"space", "V", "t blocking", "t nonblocking",
                    "improvement", "t nonblocking (shared bus)"});
  for (Row& r : rows) {
    const exec::TilePlan blocking =
        r.problem.plan(r.v_paper, sched::ScheduleKind::kNonOverlap);
    const exec::TilePlan nonblocking =
        r.problem.plan(r.v_paper, sched::ScheduleKind::kOverlap);
    const double t_b =
        exec::run_plan(r.problem.nest, blocking, r.problem.cost_model())
            .seconds;
    const double t_nb =
        exec::run_plan(r.problem.nest, nonblocking, r.problem.cost_model())
            .seconds;
    exec::RunOptions bus;
    bus.comm.network = msg::Network::kSharedBus;
    const double t_bus =
        exec::run_plan(r.problem.nest, nonblocking, r.problem.cost_model(), bus)
            .seconds;
    table.add_row({r.name, std::to_string(r.v_paper),
                   util::fmt_seconds(t_b), util::fmt_seconds(t_nb),
                   util::fmt_fixed(100.0 * (t_b - t_nb) / t_b, 1) + " %",
                   util::fmt_seconds(t_bus)});
  }
  table.write_text(std::cout);
  std::cout << "\npaper improvements at V_optimal: 38 % / 33 % / 32 % "
               "(switched FastEthernet).\n";
  return 0;
}
