// A domain application on top of the library: explicit time-stepping of
// the 2-D heat equation,
//
//   u(t, x, y) = u(t-1, x, y)
//              + k * (u(t-1, x-1, y) + u(t-1, x, y-1) - 2 u(t-1, x, y))
//
// folded into the paper's uniform-dependence model by treating time as the
// outermost loop dimension (a one-sided stencil so all dependencies stay
// lexicographically positive).  The nest is tiled in (t, x, y), the time
// dimension carries the pipeline, and the overlapping schedule hides the
// halo exchanges of every time slab — the classic "temporal tiling with
// communication overlap" use case the paper's technique enables.
//
//   ./examples/heat2d
#include <iostream>

#include "tilo/core/analytic.hpp"
#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/obs/report.hpp"
#include "tilo/util/csv.hpp"

namespace {

/// The discretized one-sided heat update.
class HeatKernel final : public tilo::loop::Kernel {
 public:
  explicit HeatKernel(double k) : k_(k) {}

  // Initial condition: a hot spot in the middle of the (x, y) plane at
  // every t < 0 read (and cold walls on the spatial boundary reads).
  double boundary(const tilo::lat::Vec& j) const override {
    if (j[0] < 0) {  // initial temperature field
      const double dx = static_cast<double>(j[1]) - 32.0;
      const double dy = static_cast<double>(j[2]) - 32.0;
      return dx * dx + dy * dy < 64.0 ? 100.0 : 0.0;
    }
    return 0.0;  // cold walls
  }

  double apply(const tilo::lat::Vec&,
               const std::vector<double>& in) const override {
    // deps order: (1,0,0) = u(t-1,x,y), (1,1,0) = u(t-1,x-1,y),
    // (1,0,1) = u(t-1,x,y-1).
    return in[0] + k_ * (in[1] + in[2] - 2.0 * in[0]);
  }

  std::string statement() const override {
    return "u(t,x,y) = u(t-1,x,y) + k*(u(t-1,x-1,y) + u(t-1,x,y-1) "
           "- 2*u(t-1,x,y))";
  }

 private:
  double k_;
};

}  // namespace

int main() {
  using namespace tilo;
  using lat::Vec;
  using util::i64;

  // 48 time steps of a 64 x 64 grid on a 1 x 4 x 4 processor grid.  (The
  // one-sided scheme also drifts the field toward the origin, so keep the
  // horizon short enough that heat remains in the domain.)
  const loop::LoopNest nest(
      "heat2d", lat::Box::from_extents(Vec{48, 64, 64}),
      loop::DependenceSet({Vec{1, 0, 0}, Vec{1, 1, 0}, Vec{1, 0, 1}}),
      std::make_shared<HeatKernel>(0.2));
  const core::Problem problem{nest, mach::MachineParams::paper_cluster(),
                              Vec{1, 4, 4}, nullptr};

  std::cout << "heat2d: " << nest.kernel().statement() << "\n";
  std::cout << "domain " << nest.domain().extents().str()
            << " (t, x, y), 16 processors on the spatial grid, time "
            << "mapped along dimension " << problem.mapped_dim() << "\n\n";

  const i64 V = core::analytic_optimal_height_overlap(problem).V;
  std::cout << "time-slab height V = " << V << " (analytic optimum)\n\n";

  util::Table table;
  table.set_header({"schedule", "completion", "mean compute util"});
  for (auto kind : {sched::ScheduleKind::kNonOverlap,
                    sched::ScheduleKind::kOverlap}) {
    const exec::TilePlan plan = problem.plan(V, kind);
    obs::ReportSink report;
    exec::RunOptions opts;
    opts.sink = &report;
    const exec::RunResult r =
        exec::run_plan(nest, plan, problem.cost_model(), opts);
    table.add_row({kind == sched::ScheduleKind::kOverlap
                       ? "overlapping"
                       : "non-overlapping",
                   util::fmt_seconds(r.seconds),
                   util::fmt_fixed(
                       100.0 * report.report().mean_compute_utilization,
                       1) +
                       " %"});
  }
  table.write_text(std::cout);

  // Physics sanity: run functionally and check the heat spreads but the
  // total never grows (the one-sided scheme is dissipative at the walls).
  const exec::TilePlan plan =
      problem.plan(V, sched::ScheduleKind::kOverlap);
  exec::RunOptions fopts;
  fopts.functional = true;
  const exec::RunResult run =
      exec::run_plan(nest, plan, problem.cost_model(), fopts);
  double first_slice = 0.0;
  double last_slice = 0.0;
  double peak_last = 0.0;
  nest.domain().for_each_point([&](const Vec& j) {
    const double v = run.field->at(j);
    if (j[0] == 0) first_slice += v;
    if (j[0] == nest.domain().hi()[0]) {
      last_slice += v;
      peak_last = std::max(peak_last, v);
    }
  });
  std::cout << "\ntotal heat: t=0 slice " << util::fmt_fixed(first_slice, 1)
            << ", final slice " << util::fmt_fixed(last_slice, 1)
            << "; final peak " << util::fmt_fixed(peak_last, 2)
            << " (diffused from 100.00)\n";
  const double err = exec::run_and_validate(nest, plan, problem.machine);
  std::cout << "distributed vs sequential: max |err| = " << err << "\n";
  return 0;
}
