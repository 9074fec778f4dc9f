// perfbench — the repository benchmark's harness binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --work-dir DIR --trace-dir DIR
//
// Runs one workload in this process and prints its result as one JSON
// line on stdout (human-readable notes go to stderr).  --trace 0 is the
// timed run: end-to-end metrics, correctness gates, counter
// reconciliation.  --trace 1 is the traced run: a sample of every
// workload's ops replayed with spans around each public call, so every
// per-layer metric is measured in every traced run; the named workload
// additionally reports its accounting and tracing overhead (trace.*).
// Exit status: 0 when every gate held, 1 when one failed, 2 on bad usage.
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <sstream>

#include "workloads.hpp"

namespace perfbench {

void report_accounting(Result& out, double untraced_ms, double traced_ms,
                       double layers_ms, double untraced_ops_per_s,
                       double traced_ops_per_s) {
  const double error = std::abs(traced_ms - untraced_ms) / untraced_ms;
  out.set("trace.layers_ms", layers_ms, "ms");
  out.set("trace.unattributed_ms", untraced_ms - layers_ms, "ms");
  out.set("trace.accounting_error", error, "ratio");
  out.set("trace.overhead_ops_per_s", traced_ops_per_s - untraced_ops_per_s,
          "1/s");
  std::ostringstream line;
  line << "accounting: untraced " << untraced_ms << " ms/op, traced "
       << traced_ms << " ms/op = layers " << layers_ms << " + unattributed "
       << traced_ms - layers_ms << "; |traced - untraced| / untraced = "
       << error << (error <= kAccountingTolerance ? " (within " : " (OUTSIDE ")
       << kAccountingTolerance << "); tracing overhead "
       << traced_ops_per_s - untraced_ops_per_s << " ops/s";
  note(line.str());
}

namespace {

struct Workload {
  const char* name;
  void (*run)(const RunConfig&, Result&);
  void (*trace)(const RunConfig&, Result&, bool);
};

constexpr Workload kWorkloads[] = {
    {"tune", run_tune, trace_tune},
    {"svc-hot", run_svc_hot, trace_svc_hot},
    {"svc-cold", run_svc_cold, trace_svc_cold},
    {"fleet-sweep", run_fleet_sweep, trace_fleet_sweep},
};

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " --workload tune|svc-hot|svc-cold|fleet-sweep --seed N"
               " --seconds S --trace 0|1 --work-dir DIR --trace-dir DIR\n";
  return 2;
}

/// Runs `fn`, turning an escaping exception into a failed gate.
void guarded(Result& out, const std::string& what,
             const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::exception& e) {
    out.fail(what + " threw: " + e.what());
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      cfg.workload = value;
    } else if (flag == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      cfg.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (flag == "--work-dir") {
      cfg.work_dir = value;
    } else if (flag == "--trace-dir") {
      cfg.trace_dir = value;
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (cfg.workload == w.name) wl = &w;
  if (!wl || argc % 2 == 0 || (trace != 0 && trace != 1) ||
      cfg.seconds <= 0 || cfg.work_dir.empty() || cfg.trace_dir.empty())
    return usage(argv[0]);
  std::filesystem::create_directories(cfg.work_dir);
  std::filesystem::create_directories(cfg.trace_dir);

  Result out;
  if (trace == 0) {
    guarded(out, cfg.workload, [&] { wl->run(cfg, out); });
    if (!out.metrics.count("peak_rss_mb"))
      out.set("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    // The named workload first (its trace.* metrics and its own layer
    // figures win), then every other workload's sample for the layers
    // the table assigns to it.
    guarded(out, cfg.workload, [&] { wl->trace(cfg, out, true); });
    out.attempted = 1;
    out.failed = out.correct ? 0 : 1;
    for (const Workload& w : kWorkloads) {
      if (&w == wl) continue;
      Result other;
      guarded(other, w.name, [&] { w.trace(cfg, other, false); });
      for (const auto& [name, m] : other.metrics) out.metrics.emplace(name, m);
      for (const std::string& f : other.failures) {
        out.correct = false;
        out.failures.push_back(f);
      }
      ++out.attempted;
      out.failed += other.correct ? 0 : 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(cfg.work_dir, ec);
  std::cout << out.json() << std::endl;
  return out.correct ? 0 : 1;
}
