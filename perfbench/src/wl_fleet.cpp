// fleet-sweep: an in-process fleet::Controller (default fifo policy) with
// 2 co-located workers on the local lane (WorkerConfig::local).  One op is
// one fleet run of sweep_batch_units over the exhaustive height grids of
// spaces i, ii and iii (in the seeded order), up to the merged document.
// It is the only workload that exercises fleet dispatch, batching and
// merge, and the only one dominated by small-V, per-event-heavy runs.
#include <cmath>
#include <exception>
#include <filesystem>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "gen.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/fleet/controller.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/fleet/worker.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace fleet = tilo::fleet;
using i64 = std::int64_t;

constexpr int kWorkers = 2;

/// One space's slice of the fleet plan.
struct Slice {
  tilo::core::Problem problem;
  std::vector<i64> heights;
  std::vector<fleet::WorkUnit> units;  ///< indices local to the slice
  std::size_t first = 0;               ///< offset in the combined plan
};

struct Plan {
  std::vector<Slice> slices;
  std::vector<fleet::WorkUnit> units;  ///< all slices, densely indexed
  std::size_t points = 0;
};

Plan make_plan(const std::vector<int>& order) {
  const tilo::core::Problem all[] = {tilo::core::paper_problem_i(),
                                     tilo::core::paper_problem_ii(),
                                     tilo::core::paper_problem_iii()};
  Plan plan;
  for (const int s : order) {
    Slice sl{all[s], {}, {}, plan.units.size()};
    sl.heights =
        tilo::core::height_grid(8, sl.problem.max_tile_height(), 1.25);
    sl.units = fleet::sweep_batch_units(sl.problem, sl.heights);
    for (const fleet::WorkUnit& u : sl.units)
      plan.units.push_back(fleet::WorkUnit{sl.first + u.index, u.payload});
    plan.points += sl.heights.size();
    plan.slices.push_back(std::move(sl));
  }
  return plan;
}

/// The merged document of each slice.
std::vector<std::string> slice_documents(const Plan& plan,
                                         const std::vector<std::string>& all) {
  std::vector<std::string> docs;
  for (const Slice& sl : plan.slices)
    docs.push_back(fleet::sweep_points_document(std::vector<std::string>(
        all.begin() + std::ptrdiff_t(sl.first),
        all.begin() + std::ptrdiff_t(sl.first + sl.units.size()))));
  return docs;
}

struct FleetRun {
  std::vector<std::string> payloads;
  fleet::FleetStats stats;
};

/// One fleet run up to completion.  With a tracer, spans cover the
/// controller start, each worker's run and the stop.
FleetRun fleet_run(const std::vector<fleet::WorkUnit>& units,
                   const std::string& address, Tracer* tr = nullptr,
                   int parent = -1, std::int64_t op = -1) {
  fleet::ControllerConfig cc;
  cc.address = address;
  std::optional<fleet::Controller> controller;
  {
    Span s(tr, "fleet.start", parent, op);
    controller.emplace(cc, units);
    controller->start();
  }
  std::vector<std::thread> workers;
  std::vector<std::exception_ptr> errors(kWorkers);
  for (int w = 0; w < kWorkers; ++w)
    workers.emplace_back([&, w] {
      Span s(tr, "fleet.worker", parent, op, w + 1);
      fleet::WorkerConfig wc;
      wc.local = &*controller;
      wc.name = "bench-w" + std::to_string(w);
      try {
        fleet::Worker(wc).run();
      } catch (...) {
        errors[std::size_t(w)] = std::current_exception();
      }
    });
  // Bounded, so a fleet whose workers all died cannot hang the run.
  const bool done = controller->wait_for_ms(120'000);
  if (!done) controller->stop();  // workers see the controller go away
  for (std::thread& t : workers) t.join();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);
  if (!done) throw std::runtime_error("fleet run incomplete after 120 s");
  FleetRun r;
  {
    Span s(tr, "fleet.stop", parent, op);
    controller->stop();
  }
  r.payloads = controller->merged().payloads();
  r.stats = controller->stats();
  return r;
}

/// The single-node reference documents (outside any timed window).
std::vector<std::string> reference_documents(const Plan& plan,
                                             std::uint64_t* events) {
  std::vector<std::string> docs;
  *events = 0;
  for (const Slice& sl : plan.slices) {
    tilo::core::SweepOptions o;
    o.threads = kWorkers;
    std::vector<std::string> payloads;
    for (const tilo::core::SweepPoint& p :
         tilo::core::sweep_tile_height(sl.problem, sl.heights, o)) {
      payloads.push_back(fleet::sweep_point_to_json(p).dump());
      *events += p.events;
    }
    docs.push_back(fleet::sweep_points_document(payloads));
  }
  return docs;
}

std::string address(const RunConfig& cfg) {
  std::filesystem::create_directories(cfg.work_dir);
  return "unix:" + cfg.work_dir + "/fleet.sock";
}

}  // namespace

void run_fleet_sweep(const RunConfig& cfg, Result& out) {
  const std::vector<int> order = space_order(cfg.seed);
  const std::string addr = address(cfg);

  // Set-up: the unit plan plus one warm-up fleet run over space iii.
  std::vector<double> setups;
  Plan plan;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const i64 t0 = now_ns();
    plan = make_plan(order);
    const tilo::core::Problem iii = tilo::core::paper_problem_iii();
    (void)fleet_run(
        fleet::sweep_batch_units(
            iii, tilo::core::height_grid(8, iii.max_tile_height(), 1.25)),
        addr);
    setups.push_back(double(now_ns() - t0) / 1e9);
  }
  out.set("setup_s", median(setups), "s");

  std::vector<double> lat_ms;
  std::vector<FleetRun> runs;
  const i64 start = now_ns();
  const auto budget = i64(cfg.seconds * 1e9);
  i64 end = start;
  while (end - start < budget) {
    const i64 t0 = now_ns();
    runs.push_back(fleet_run(plan.units, addr));
    end = now_ns();
    lat_ms.push_back(double(end - t0) / 1e6);
  }
  const double wall = double(end - start) / 1e9;
  out.set("peak_rss_mb", peak_rss_mb(), "MB");

  std::uint64_t events = 0;
  const std::vector<std::string> ref = reference_documents(plan, &events);
  std::uint64_t bad = 0;
  std::uint64_t requeued = 0, duplicates = 0;
  for (const FleetRun& r : runs) {
    const bool complete = r.stats.completed == plan.units.size() &&
                          r.stats.units == plan.units.size();
    if (!complete || slice_documents(plan, r.payloads) != ref) ++bad;
    requeued += r.stats.requeued;
    duplicates += r.stats.duplicates;
  }
  out.attempted = runs.size();
  out.failed = bad;
  out.set("ops_per_s", double(runs.size() * plan.points) / wall, "1/s");
  out.set("sim_events_per_s", double(events * runs.size()) / wall, "1/s");
  out.set_latency(summarize(lat_ms));
  out.check(bad == 0, std::to_string(bad) +
                          " fleet run(s) incomplete or not byte-identical to "
                          "the single-node sweep");
  std::ostringstream line;
  line << "fleet-sweep: " << runs.size() << " run(s) of " << plan.units.size()
       << " unit(s) / " << plan.points << " point(s); requeued " << requeued
       << ", duplicates " << duplicates;
  note(line.str());
}

void trace_fleet_sweep(const RunConfig& cfg, Result& out, bool named) {
  const std::vector<int> order = space_order(cfg.seed);
  const std::string addr = address(cfg);
  const Plan plan = make_plan(order);

  std::uint64_t events = 0;
  const std::vector<std::string> ref = reference_documents(plan, &events);
  // One op: a fleet run up to the merged documents; ms of wall time.
  FleetRun traced;
  auto one_op = [&](Tracer* tr, std::int64_t id) {
    const i64 t0 = now_ns();
    Span op(tr, "fleet.op", -1, id);
    traced = fleet_run(plan.units, addr, tr, op.index(), id);
    Span s(tr, "fleet.merge", op.index(), id);
    out.check(slice_documents(plan, traced.payloads) == ref,
              "fleet run not byte-identical to the single-node sweep");
    return double(now_ns() - t0) / 1e6;
  };
  // A warm-up run, the untraced twin (named only), then the traced ops.
  (void)fleet_run(plan.slices.back().units, addr);
  const int reps = named ? 2 : 1;
  double untraced_ms = 0, traced_ms = 0;
  for (int r = 0; named && r < reps; ++r)
    untraced_ms += one_op(nullptr, r) / reps;
  Tracer tr;
  for (int r = 0; r < reps; ++r) traced_ms += one_op(&tr, r) / reps;

  // Every unit payload executed once more, alone, for its cost.
  std::vector<double> exec_ms;
  double exec_total = 0, cost_error = 0;
  for (const Slice& sl : plan.slices) {
    std::vector<double> ms;
    for (const fleet::WorkUnit& u : sl.units) {
      Span s(&tr, "fleet.execute_unit", -1, reps);
      const i64 e0 = now_ns();
      (void)fleet::execute_unit(u.payload);
      ms.push_back(double(now_ns() - e0) / 1e6);
    }
    // Batch imbalance: total-variation distance between the estimated
    // and the measured per-unit shares of the slice's cost.
    const std::vector<double> est =
        fleet::unit_cost_estimates(sl.problem, sl.units);
    double est_sum = 0, ms_sum = 0, tv = 0;
    for (std::size_t i = 0; i < ms.size(); ++i) {
      est_sum += est[i];
      ms_sum += ms[i];
    }
    for (std::size_t i = 0; i < ms.size(); ++i)
      tv += std::abs(est[i] / est_sum - ms[i] / ms_sum);
    cost_error += tv / 2 / double(plan.slices.size());
    exec_total += ms_sum;
    exec_ms.insert(exec_ms.end(), ms.begin(), ms.end());
  }
  double layers_ms = 0;
  const std::vector<SpanRec> spans = tr.spans();
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].name == "fleet.op")
      for (const auto& [name, ns] : attribute_children(spans, int(i)))
        layers_ms += ns / 1e6 / reps;
  out.set("fleet.unit_exec_ms", exec_total / double(exec_ms.size()), "ms");
  out.set("fleet.overhead_ratio", traced_ms * kWorkers / exec_total, "ratio");
  out.set("fleet.cost_estimate_error", cost_error, "ratio");
  out.set("fleet.merge_ms", median(self_times(spans)["fleet.merge"]) / 1e6,
          "ms");
  out.set("fleet.units", double(traced.stats.units), "count");
  out.set("fleet.requeued", double(traced.stats.requeued), "count");
  out.set("fleet.duplicates", double(traced.stats.duplicates), "count");
  if (named) {
    const double pts = double(plan.points);
    report_accounting(out, untraced_ms, traced_ms, layers_ms,
                      pts * 1e3 / untraced_ms, pts * 1e3 / traced_ms);
  }
  tr.write_chrome(cfg.trace_dir + "/trace-fleet-sweep.json");
}

}  // namespace perfbench
