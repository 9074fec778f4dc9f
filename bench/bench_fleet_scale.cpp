// Closed-loop scaling bench for the fleet orchestrator (DESIGN.md §12):
// an in-process fleet::Controller dispatching an analytically batched
// sweep plan to 1, 2, 4 and 8 co-located workers over the in-process
// fast lane, plus a fault-injection phase that SIGKILLs an external
// (socket-attached) worker process mid-sweep and measures how long the
// fleet takes to recover (evict, requeue, complete).
//
// Checks the fleet's two contracts while measuring:
//   * determinism — every merged document is byte-identical to the
//     single-node core::sweep run, at every worker count;
//   * exactly-once — the kill phase completes every unit exactly once
//     (completed == units, duplicates only ever dropped).
//
// Prints a human-readable summary plus one JSON line (stdout), and with
// --json[=PATH] writes the full BENCH_fleet.json perf record
// (validate_bench.py checks its schema under the bench_smoke ctest label).
//
// Flags:  --quick        short run (CI smoke): fewer, cheaper units
//         --json[=PATH]  write BENCH_fleet.json (or PATH)
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/fleet/controller.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/fleet/worker.hpp"
#include "tilo/pipeline/json.hpp"

using namespace tilo;
using bench::JsonLine;
using pipeline::Json;
using util::i64;

namespace {

std::string fresh_address(const char* tag) {
  const char* tmp = std::getenv("TMPDIR");
  return "unix:" + std::string(tmp ? tmp : "/tmp") + "/tilo_bench_fleet_" +
         tag + "_" + std::to_string(::getpid()) + ".sock";
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct ScalePoint {
  int workers = 0;
  double wall_seconds = 0.0;
  double units_per_sec = 0.0;
  bool identical = false;  ///< merged bytes == single-node reference
};

/// One timed fleet run with `nworkers` co-located workers on the
/// in-process fast lane (no sockets; the controller still binds one for
/// protocol parity but nothing connects to it).  Identity is checked on
/// the flattened canonical sweep document, which is invariant to how the
/// heights were chunked into units.
ScalePoint run_scale(const std::vector<fleet::WorkUnit>& units, int nworkers,
                     const std::string& reference) {
  fleet::ControllerConfig cfg;
  cfg.address = fresh_address("scale");
  cfg.credit = 2;  // multiple round trips even at 1 worker
  fleet::Controller controller(cfg, units);
  controller.start();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int i = 0; i < nworkers; ++i) {
    threads.emplace_back([&controller, i] {
      fleet::WorkerConfig wc;
      wc.local = &controller;
      wc.name = "bench-w" + std::to_string(i);
      fleet::Worker(wc).run();
    });
  }
  controller.wait();
  ScalePoint p;
  p.workers = nworkers;
  p.wall_seconds = seconds_since(t0);
  p.units_per_sec = static_cast<double>(units.size()) / p.wall_seconds;
  p.identical =
      fleet::sweep_points_document(controller.merged().payloads()) ==
      reference;
  for (std::thread& t : threads) t.join();
  controller.stop();
  return p;
}

struct KillResult {
  std::size_t units = 0;
  std::size_t completed = 0;
  std::uint64_t requeued = 0;
  std::uint64_t speculated = 0;
  std::uint64_t evicted = 0;
  std::uint64_t duplicates = 0;
  double recovery_seconds = 0.0;  ///< SIGKILL -> all units merged
  bool identical = false;
  bool armed = false;  ///< the victim reached a kill window at all
};

/// The fault-injection phase: an external worker process (fork, before any
/// controller thread exists, so the child is a clean single-threaded copy)
/// is SIGKILLed mid-sweep; an in-process rescue worker finishes the run.
KillResult run_kill(const std::vector<fleet::WorkUnit>& units,
                    const std::string& reference, std::ostream& report_os) {
  fleet::ControllerConfig cfg;
  cfg.address = fresh_address("kill");
  cfg.credit = 2;
  cfg.heartbeat_ms = 100;  // evict the corpse after ~300 ms
  cfg.miss_threshold = 3;

  // Fork the victim first — the parent is still single-threaded here.
  // The child retries until the controller is up, works, then exits.
  const pid_t victim = ::fork();
  if (victim == 0) {
    for (int attempt = 0; attempt < 200; ++attempt) {
      try {
        fleet::WorkerConfig wc;
        wc.address = cfg.address;
        wc.name = "victim";
        fleet::Worker(wc).run();
        break;
      } catch (const util::Error&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(25));
      }
    }
    ::_exit(0);
  }

  KillResult r;
  r.units = units.size();
  if (victim < 0) {
    std::cerr << "FAIL: fork() failed\n";
    return r;
  }

  fleet::Controller controller(cfg, units);
  controller.start();

  // Arm: the victim has delivered at least one result and holds leases.
  for (int attempt = 0; attempt < 3000; ++attempt) {
    const fleet::FleetStats s = controller.stats();
    if (s.completed >= 1 && s.in_flight >= 1) {
      r.armed = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const auto t_kill = std::chrono::steady_clock::now();
  ::kill(victim, SIGKILL);
  int wstatus = 0;
  ::waitpid(victim, &wstatus, 0);

  fleet::WorkerConfig wc;
  wc.address = cfg.address;
  wc.name = "rescue";
  fleet::Worker rescue(wc);
  std::thread runner([&rescue] { rescue.run(); });
  controller.wait();
  r.recovery_seconds = seconds_since(t_kill);
  runner.join();

  const fleet::FleetStats s = controller.stats();
  r.completed = s.completed;
  r.requeued = s.requeued;
  r.speculated = s.speculated;
  r.evicted = s.evicted;
  r.duplicates = s.duplicates;
  r.identical = controller.merged_document() == reference;
  controller.write_report(report_os);
  controller.stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool json = false;
  std::string json_path = "BENCH_fleet.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::cerr << "usage: " << argv[0] << " [--quick] [--json[=PATH]]\n";
      return 2;
    }
  }

  // Paper space (i): the scale phase dispatches analytically batched
  // chunks (several heights per unit, cost-balanced); the kill phase
  // keeps one-height units on the socket path so eviction/requeue is
  // exercised at unit granularity.
  const core::Problem problem = core::paper_problem_i();
  const std::vector<i64> heights = core::height_grid(
      quick ? 32 : 8, problem.max_tile_height() / 2, quick ? 1.6 : 1.3);
  const std::vector<fleet::WorkUnit> units =
      fleet::sweep_batch_units(problem, heights);
  const std::vector<fleet::WorkUnit> kill_units =
      fleet::sweep_units(problem, heights);

  // Single-node reference: the bytes every fleet run must reproduce.
  const auto t_ref = std::chrono::steady_clock::now();
  const std::vector<core::SweepPoint> points =
      core::sweep_tile_height(problem, heights);
  const double single_node_seconds = seconds_since(t_ref);
  std::vector<std::string> reference_payloads;
  reference_payloads.reserve(points.size());
  fleet::Merge reference_merge(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    reference_payloads.push_back(fleet::sweep_point_to_json(points[i]).dump());
    reference_merge.add(i, reference_payloads.back());
  }
  // Chunking-invariant canonical document (scale phase, batched units)
  // and the raw per-point merge (kill phase, one-height units).
  const std::string reference = fleet::sweep_points_document(reference_payloads);
  const std::string kill_reference = reference_merge.document();

  std::cout << "== fleet scaling, " << heights.size() << " height(s) in "
            << units.size()
            << " batched unit(s), local transport, workers {1, 2, 4, 8} ==\n"
            << "  single-node " << util::fmt_fixed(single_node_seconds, 2)
            << " s  ("
            << util::fmt_fixed(
                   static_cast<double>(units.size()) / single_node_seconds, 1)
            << " units/s)\n";

  // Each point is the median-wall of three runs: a run at 4 or 8 workers
  // takes about 0.1 s, short enough for one scheduler stall on a shared
  // host to decide a single-shot comparison between worker counts.
  std::vector<ScalePoint> scaling;
  bool determinism_ok = true;
  for (const int nworkers : {1, 2, 4, 8}) {
    std::vector<ScalePoint> reps;
    bool identical = true;
    for (int rep = 0; rep < 3; ++rep) {
      reps.push_back(run_scale(units, nworkers, reference));
      identical = identical && reps.back().identical;
    }
    std::sort(reps.begin(), reps.end(),
              [](const ScalePoint& a, const ScalePoint& b) {
                return a.wall_seconds < b.wall_seconds;
              });
    ScalePoint p = reps[1];
    p.identical = identical;
    determinism_ok = determinism_ok && identical;
    std::cout << "  " << nworkers << " worker(s)  "
              << util::fmt_fixed(p.wall_seconds, 2) << " s  ("
              << util::fmt_fixed(p.units_per_sec, 1) << " units/s)"
              << (p.identical ? "" : "  MERGE DIVERGED") << "\n";
    scaling.push_back(p);
  }

  std::cout << "\n== kill one worker mid-sweep ==\n";
  std::ostringstream report;
  const KillResult kill = run_kill(kill_units, kill_reference, report);
  std::cout << "  recovery    " << util::fmt_fixed(kill.recovery_seconds, 2)
            << " s from SIGKILL to complete merge\n"
            << "  resilience  " << kill.requeued << " requeued, "
            << kill.speculated << " speculated, " << kill.evicted
            << " evicted, " << kill.duplicates << " duplicate(s) dropped\n"
            << "  completed   " << kill.completed << "/" << kill.units
            << (kill.identical ? "" : "  MERGE DIVERGED") << "\n\n"
            << report.str();

  bool ok = true;
  if (!determinism_ok || !kill.identical) {
    std::cerr << "FAIL: a fleet merge diverged from the single-node bytes\n";
    ok = false;
  }
  if (kill.completed != kill.units) {
    std::cerr << "FAIL: the kill run lost " << (kill.units - kill.completed)
              << " unit(s)\n";
    ok = false;
  }
  if (kill.armed && kill.requeued + kill.speculated == 0) {
    std::cerr << "FAIL: the victim's leases were never recovered\n";
    ok = false;
  }

  JsonLine line;
  line.str("bench", "fleet_scale")
      .num("units", static_cast<i64>(units.size()))
      .num("single_node_units_per_sec",
           static_cast<double>(units.size()) / single_node_seconds)
      .num("workers_1_units_per_sec", scaling[0].units_per_sec)
      .num("workers_2_units_per_sec", scaling[1].units_per_sec)
      .num("workers_4_units_per_sec", scaling[2].units_per_sec)
      .num("workers_8_units_per_sec", scaling[3].units_per_sec)
      .num("kill_recovery_seconds", kill.recovery_seconds)
      .boolean("determinism_ok", determinism_ok && kill.identical);
  line.write(std::cout);

  if (json) {
    Json doc = Json::object();
    doc.set("bench", Json::string("fleet_scale"));
    doc.set("quick", Json::boolean(quick));
    doc.set("transport", Json::string("local"));
    doc.set("batch", Json::string("analytic"));
    doc.set("units", Json::integer(static_cast<i64>(units.size())));
    doc.set("heights", Json::integer(static_cast<i64>(heights.size())));
    doc.set("single_node_seconds", Json::number(single_node_seconds));
    doc.set("determinism_ok", Json::boolean(determinism_ok));
    Json arr = Json::array();
    for (const ScalePoint& p : scaling) {
      Json e = Json::object();
      e.set("workers", Json::integer(p.workers));
      e.set("wall_seconds", Json::number(p.wall_seconds));
      e.set("units_per_sec", Json::number(p.units_per_sec));
      e.set("identical", Json::boolean(p.identical));
      arr.push(std::move(e));
    }
    doc.set("scaling", std::move(arr));
    Json k = Json::object();
    k.set("units", Json::integer(static_cast<i64>(kill.units)));
    k.set("completed", Json::integer(static_cast<i64>(kill.completed)));
    k.set("requeued", Json::integer(static_cast<i64>(kill.requeued)));
    k.set("speculated", Json::integer(static_cast<i64>(kill.speculated)));
    k.set("evicted", Json::integer(static_cast<i64>(kill.evicted)));
    k.set("duplicates", Json::integer(static_cast<i64>(kill.duplicates)));
    k.set("recovery_seconds", Json::number(kill.recovery_seconds));
    k.set("identical", Json::boolean(kill.identical));
    doc.set("kill", std::move(k));
    std::ofstream os(json_path);
    if (!os) {
      std::cerr << "FAIL: cannot open " << json_path << " for writing\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "bench report written to " << json_path << "\n";
  }
  return ok ? 0 : 1;
}
