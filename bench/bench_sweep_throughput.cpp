// Sweep-orchestration throughput: how many V-sweep points (and simulator
// events) per wall-second the host sustains on the paper's experiment (i)
// space, serial versus thread-pooled, and exhaustive versus bound-driven
// ("pruned") selection.
//
// Prints a human-readable table plus one JSON object per configuration
// (lines starting with '{'), e.g.
//   {"bench":"sweep_throughput","mode":"parallel","threads":4,...}
//
// Flags:  --quick        small V grid (CI smoke)
//         --threads=N    parallel worker count (default: all hardware)
//         --json[=PATH]  bench_report mode: additionally re-run the two
//                        schedules at the tuned optimum under an
//                        obs::ReportSink/Registry and write the whole
//                        result (configs + A/B phase report + counters)
//                        as BENCH_sweep.json (or PATH), together with
//                        the bare sim::Engine chain rate and a fixed
//                        integer loop's rate measured in the same process
//                        (the loop is the host normalizer for events/s)
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "tilo/core/parallel.hpp"
#include "tilo/obs/registry.hpp"
#include "tilo/obs/report.hpp"
#include "tilo/sim/engine.hpp"

using namespace tilo;
using bench::JsonLine;
using core::SweepPoint;
using util::i64;

namespace {

struct Measurement {
  double wall_seconds = 0;
  std::size_t points = 0;
  std::uint64_t events = 0;
  std::vector<SweepPoint> pts;
};

Measurement measure(const core::Problem& problem,
                    const std::vector<i64>& heights,
                    const core::SweepOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  Measurement m;
  m.pts = core::sweep_tile_height(problem, heights, opts);
  const auto t1 = std::chrono::steady_clock::now();
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.points = m.pts.size();
  for (const SweepPoint& p : m.pts) m.events += p.events;
  return m;
}

struct ConfigResult {
  std::string mode;
  int threads = 1;
  Measurement m;
};

/// The bound-driven selection: bound every height, simulate only the
/// heights the bound cannot rule out.  `points` still counts the whole
/// grid — the selection bounds every height — so points/s is directly
/// comparable with the exhaustive configs.
struct SelectResult {
  core::SweepSelection sel;
  Measurement m;
};

SelectResult measure_select(const core::Problem& problem,
                            const std::vector<i64>& heights,
                            const core::SweepOptions& opts) {
  const auto t0 = std::chrono::steady_clock::now();
  SelectResult r;
  r.sel = core::sweep_select(problem, heights, opts);
  const auto t1 = std::chrono::steady_clock::now();
  r.m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  r.m.points = r.sel.points.size();
  for (std::size_t i = 0; i < r.sel.points.size(); ++i)
    if (r.sel.simulated_overlap[i] || r.sel.simulated_nonoverlap[i])
      r.m.events += r.sel.points[i].events;
  return r;
}

/// Events per second of a bare sim::Engine self-rescheduling chain (median
/// of 5): the host's ceiling for any simulation, reported beside the
/// sweep's events/s.
double engine_events_per_sec() {
  struct Tick {
    sim::Engine* engine;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) engine->after(10, *this);
    }
  };
  constexpr int kChain = 200000;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    sim::Engine engine;
    int remaining = kChain;
    const auto t0 = std::chrono::steady_clock::now();
    engine.after(10, Tick{&engine, &remaining});
    engine.run();
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    rates.push_back(static_cast<double>(engine.events_processed()) / s);
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// Iterations per second of a fixed xorshift64 chain (median of 5): a
/// host-speed reference that no simulator change can move, measured in the
/// same process so validate_bench.py can hold a host-normalized floor under
/// the sweep's events/s.  (The bare engine is no such reference: work on
/// the event path speeds it up along with the runs.)
double host_loop_per_sec() {
  constexpr std::uint64_t kIters = 20'000'000;
  std::vector<double> rates;
  volatile std::uint64_t sink = 0;
  for (int rep = 0; rep < 5; ++rep) {
    std::uint64_t x = 0x9E3779B97F4A7C15ull + static_cast<std::uint64_t>(rep);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i) {
      x ^= x << 13;  // one serial dependency chain: not vectorizable
      x ^= x >> 7;
      x ^= x << 17;
    }
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    sink = x;
    rates.push_back(static_cast<double>(kIters) / s);
  }
  (void)sink;
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

/// True when built optimized and without sanitizers.  Only then is the
/// fixed loop a fair yardstick: a -O0 or sanitized build slows the
/// simulator tens of times more than a register-only loop, so
/// validate_bench.py judges such records against the bare engine instead.
constexpr bool kOptimizedBuild =
#if defined(__OPTIMIZE__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
    true;
#else
    false;
#endif

bool verdict_bits_equal(const core::SweepVerdict& a,
                        const core::SweepVerdict& b) {
  return std::memcmp(&a, &b, sizeof(core::SweepVerdict)) == 0;
}

void report(const ConfigResult& c) {
  const Measurement& m = c.m;
  const double pps = static_cast<double>(m.points) / m.wall_seconds;
  const double eps = static_cast<double>(m.events) / m.wall_seconds;
  std::cout << "  " << c.mode << " (threads=" << c.threads
            << "): " << m.points
            << " points, " << m.events << " events in "
            << util::fmt_fixed(m.wall_seconds, 3) << " s  ->  "
            << util::fmt_fixed(pps, 1) << " points/s, "
            << util::fmt_fixed(eps / 1e6, 2) << " M events/s\n";
  JsonLine line;
  line.str("bench", "sweep_throughput")
      .str("space", "i")
      .str("mode", c.mode)
      .num("threads", static_cast<i64>(c.threads))
      .num("points", static_cast<i64>(m.points))
      .num("events", m.events)
      .num("wall_seconds", m.wall_seconds)
      .num("points_per_sec", pps)
      .num("events_per_sec", eps);
  line.write(std::cout);
}

/// What the prune phase proved, recorded alongside the configs so
/// validate_bench.py can enforce its speedup floor.
struct PruneSummary {
  bool quick = false;  ///< small CI grid: validators relax perf floors
  i64 simulated_runs = 0;
  i64 total_runs = 0;
  double speedup = 0;  ///< pruned points/s over exhaustive-select points/s
  bool verdict_identical = false;
  /// Every simulated run's completion is at least its bound.
  bool bound_sound = false;
  /// Every height whose bound is at most its kind's verdict was simulated.
  bool bound_covers_verdict = false;
  /// Wall time of bounding every height for both kinds, over the pruned
  /// selection's wall time.
  double bound_share = 0;
  i64 V_overlap = 0;
  i64 V_nonoverlap = 0;
};

/// Checks the bound's two guarantees on one kind of a selection.
void check_bound(const std::vector<sim::Time>& bounds,
                 const std::vector<std::uint8_t>& simulated,
                 const std::vector<SweepPoint>& points,
                 double SweepPoint::*t, double verdict, PruneSummary& out) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const double bound = sim::to_seconds(bounds[i]);
    if (simulated[i] && bound > points[i].*t) out.bound_sound = false;
    if (!simulated[i] && bound <= verdict) out.bound_covers_verdict = false;
  }
}

/// Every height's completion bound for both kinds, and the seconds it
/// takes to compute them all on one workspace (plans built beforehand,
/// median of 5).
struct Bounds {
  std::vector<sim::Time> overlap, nonoverlap;
  double seconds = 0;
};

Bounds bound_heights(const core::Problem& problem,
                     const std::vector<i64>& heights) {
  std::vector<core::TilePlan> plans;
  for (const i64 V : heights)
    for (const auto kind :
         {core::ScheduleKind::kOverlap, core::ScheduleKind::kNonOverlap})
      plans.push_back(problem.plan(V, kind));
  const auto model = problem.cost_model();
  Bounds out;
  std::vector<double> walls;
  for (int rep = 0; rep < 5; ++rep) {
    exec::RunWorkspace ws;
    out.overlap.clear();
    out.nonoverlap.clear();
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < plans.size(); ++i)
      (i % 2 ? out.nonoverlap : out.overlap)
          .push_back(exec::completion_lower_bound(plans[i], model, &ws));
    walls.push_back(std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count());
  }
  std::sort(walls.begin(), walls.end());
  out.seconds = walls[walls.size() / 2];
  return out;
}

/// bench_report mode: re-run both schedules at the tuned optimum under a
/// ReportSink + Registry and emit the paper's A/B breakdown plus the
/// throughput configs as one JSON document (the BENCH_sweep.json perf
/// trajectory record).
void write_bench_report(const std::string& path,
                        const core::Problem& problem,
                        const std::vector<SweepPoint>& pts,
                        const std::vector<ConfigResult>& configs,
                        const PruneSummary& prune,
                        double engine_eps, double host_ips) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "FAIL: cannot open " << path << " for writing\n";
    std::exit(1);
  }

  os << "{\"bench\":\"sweep_throughput\",\"space\":\"i\",\"quick\":"
     << (prune.quick ? "true" : "false")
     << ",\"engine_events_per_sec\":" << util::fmt_fixed(engine_eps, 0)
     << ",\"host_loop_per_sec\":" << util::fmt_fixed(host_ips, 0)
     << ",\"optimized_build\":" << (kOptimizedBuild ? "true" : "false")
     << ",\"configs\":[";
  {
    std::ostringstream lines;
    for (std::size_t i = 0; i < configs.size(); ++i) {
      JsonLine line;
      const ConfigResult& c = configs[i];
      const double pps =
          static_cast<double>(c.m.points) / c.m.wall_seconds;
      const double eps =
          static_cast<double>(c.m.events) / c.m.wall_seconds;
      line.str("mode", c.mode)
          .num("threads", static_cast<i64>(c.threads))
          .num("points", static_cast<i64>(c.m.points))
          .num("events", c.m.events)
          .num("wall_seconds", c.m.wall_seconds)
          .num("points_per_sec", pps)
          .num("events_per_sec", eps);
      if (i) lines << ',';
      line.write(lines);
    }
    std::string text = lines.str();
    // JsonLine::write appends newlines; strip them inside the array.
    std::string flat;
    for (char ch : text)
      if (ch != '\n') flat += ch;
    os << flat;
  }
  os << "],";

  os << "\"prune\":{\"simulated_runs\":" << prune.simulated_runs
     << ",\"total_runs\":" << prune.total_runs
     << ",\"speedup\":" << util::fmt_fixed(prune.speedup, 3)
     << ",\"verdict_identical\":"
     << (prune.verdict_identical ? "true" : "false")
     << ",\"bound_sound\":" << (prune.bound_sound ? "true" : "false")
     << ",\"bound_covers_verdict\":"
     << (prune.bound_covers_verdict ? "true" : "false")
     << ",\"bound_share\":" << util::fmt_fixed(prune.bound_share, 4)
     << ",\"V_overlap\":" << prune.V_overlap
     << ",\"V_nonoverlap\":" << prune.V_nonoverlap << "},";

  const bench::Optimum over = bench::best_overlap(pts);
  const bench::Optimum non = bench::best_nonoverlap(pts);
  os << "\"V_opt_overlap\":" << over.V << ",\"V_opt_nonoverlap\":"
     << non.V << ',';

  // One instrumented run per schedule at its optimum.
  obs::Registry registry;
  const auto instrumented = [&](i64 V, core::ScheduleKind kind) {
    obs::ReportSink rs;
    obs::MultiSink fan;
    fan.add(&rs);
    fan.add(&registry);
    exec::RunOptions ro;
    ro.sink = &fan;
    const core::TilePlan plan = problem.plan(V, kind);
    exec::run_plan(problem.nest, plan, problem.cost_model(), ro);
    return rs.report();
  };
  os << "\"overlap\":";
  instrumented(over.V, core::ScheduleKind::kOverlap).write_json(os);
  os << ",\"nonoverlap\":";
  instrumented(non.V, core::ScheduleKind::kNonOverlap).write_json(os);

  os << ",\"counters\":{";
  const auto counters = registry.counters();
  for (std::size_t i = 0; i < counters.size(); ++i) {
    if (i) os << ',';
    JsonLine entry;
    entry.num(counters[i].first, counters[i].second);
    std::ostringstream one;
    entry.write(one);
    std::string text = one.str();  // "{...}\n"
    os << text.substr(1, text.rfind('}') - 1);
  }
  os << "}}\n";
  std::cout << "bench report written to " << path << "\n";
}

bool identical(const std::vector<SweepPoint>& a,
               const std::vector<SweepPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].V != b[i].V || a[i].t_overlap != b[i].t_overlap ||
        a[i].t_nonoverlap != b[i].t_nonoverlap ||
        a[i].events != b[i].events)
      return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  int threads = 0;  // 0 = all hardware threads
  bool json = false;
  std::string json_path = "BENCH_sweep.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::atoi(argv[i] + 10);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json = true;
      json_path = argv[i] + 7;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--quick] [--threads=N] [--json[=PATH]]\n";
      return 2;
    }
  }

  const core::Problem problem = core::paper_problem_i();
  const i64 v_hi = problem.max_tile_height();
  const std::vector<i64> heights =
      quick ? core::height_grid(64, v_hi, 4.0)
            : core::height_grid(8, v_hi, 1.25);
  const int par_threads = core::resolve_threads(threads);

  std::cout << "== sweep throughput, experiment (i), " << heights.size()
            << " heights ==\n";

  const double engine_eps = engine_events_per_sec();
  std::cout << "  bare engine chain: "
            << util::fmt_fixed(engine_eps / 1e6, 2) << " M events/s\n";
  const double host_ips = host_loop_per_sec();
  std::cout << "  host loop: " << util::fmt_fixed(host_ips / 1e6, 1)
            << " M iterations/s\n";

  // Start a pool thread before timing anything, so every config runs in a
  // multithreaded process, as the tuned workloads do: libstdc++ reference
  // counts become atomic only once a thread has started.
  core::parallel_for_index(2, 2, [](int, std::size_t) {});

  std::vector<ConfigResult> configs;

  // Serial baseline (one worker).
  configs.push_back({"serial", 1, measure(problem, heights, {})});
  report(configs.back());

  // Thread-pooled.
  core::SweepOptions par_opts;
  par_opts.threads = par_threads;
  configs.push_back({"parallel", par_threads,
                     measure(problem, heights, par_opts)});
  report(configs.back());

  if (!identical(configs[0].m.pts, configs[1].m.pts)) {
    std::cerr << "FAIL: configurations disagree on sweep results\n";
    return 1;
  }
  std::cout << "all configurations byte-identical: yes\n";

  // Selection: exhaustive (every height simulated) vs bound-driven (only
  // the heights the completion bound cannot rule out simulated).  The
  // pruned run must land on the bit-identical recommendation; the speedup
  // is the number validate_bench.py holds a floor under.  Each is timed
  // kSelectReps times, interleaved, and the median-wall run is kept: a
  // pruned selection takes well under 0.1 s, short enough for one
  // scheduler stall on a shared host to halve a single-shot speedup.
  constexpr int kSelectReps = 5;
  core::SweepOptions ex_opts;
  ex_opts.exhaustive = true;
  std::vector<SelectResult> ex_reps, pruned_reps;
  for (int rep = 0; rep < kSelectReps; ++rep) {
    ex_reps.push_back(measure_select(problem, heights, ex_opts));
    pruned_reps.push_back(measure_select(problem, heights, {}));
  }
  const auto median_wall = [](std::vector<SelectResult>& reps) {
    std::sort(reps.begin(), reps.end(),
              [](const SelectResult& a, const SelectResult& b) {
                return a.m.wall_seconds < b.m.wall_seconds;
              });
    return reps[reps.size() / 2];
  };
  const SelectResult exhaustive = median_wall(ex_reps);
  configs.push_back({"select-exhaustive", 1, exhaustive.m});
  report(configs.back());

  const SelectResult pruned = median_wall(pruned_reps);
  configs.push_back({"pruned", 1, pruned.m});
  report(configs.back());

  PruneSummary prune;
  prune.quick = quick;
  prune.simulated_runs = pruned.sel.simulated_runs;
  prune.total_runs = pruned.sel.total_runs;
  prune.speedup = exhaustive.m.wall_seconds / pruned.m.wall_seconds;
  prune.verdict_identical =
      verdict_bits_equal(pruned.sel.best_overlap,
                         exhaustive.sel.best_overlap) &&
      verdict_bits_equal(pruned.sel.best_nonoverlap,
                         exhaustive.sel.best_nonoverlap);
  prune.V_overlap = pruned.sel.best_overlap.V;
  prune.V_nonoverlap = pruned.sel.best_nonoverlap.V;
  prune.bound_sound = prune.bound_covers_verdict = true;
  const Bounds bounds = bound_heights(problem, heights);
  check_bound(bounds.overlap, pruned.sel.simulated_overlap, pruned.sel.points,
              &SweepPoint::t_overlap, pruned.sel.best_overlap.t, prune);
  check_bound(bounds.nonoverlap, pruned.sel.simulated_nonoverlap,
              pruned.sel.points, &SweepPoint::t_nonoverlap,
              pruned.sel.best_nonoverlap.t, prune);
  prune.bound_share = bounds.seconds / pruned.m.wall_seconds;
  std::cout << "  pruned selection: " << prune.simulated_runs << "/"
            << prune.total_runs << " runs simulated, "
            << util::fmt_fixed(prune.speedup, 1)
            << "x over exhaustive, bounding "
            << util::fmt_fixed(100 * prune.bound_share, 1)
            << "% of it, recommendation bit-identical: "
            << (prune.verdict_identical ? "yes" : "NO") << "\n";
  if (!prune.verdict_identical || !prune.bound_sound ||
      !prune.bound_covers_verdict) {
    std::cerr << "FAIL: pruned selection diverged from exhaustive or broke "
                 "a bound guarantee\n";
    return 1;
  }

  if (json)
    write_bench_report(json_path, problem, configs[0].m.pts, configs,
                       prune, engine_eps, host_ips);
  return 0;
}
