// The four workloads.  Each has a timed run (tracing off) that fills the
// end-to-end metrics and runs the correctness gates, and a traced sample
// that fills its per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Scratch directory inside the checkout for sockets and store logs.
  std::string work_dir;
  /// Where traced runs write their Chrome trace files.
  std::string trace_dir;
};

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 5;

/// Latency limit behind svc-hot's max_rate_rps.
inline constexpr double kSvcHotLimitMs = 1.0;

/// The traced sample's accounting tolerance: the layer self times plus
/// the unattributed remainder must land within this share of the untraced
/// per-op latency of the same ops.
inline constexpr double kAccountingTolerance = 0.25;

void run_tune(const RunConfig& cfg, Result& out);
void run_svc_hot(const RunConfig& cfg, Result& out);
void run_svc_cold(const RunConfig& cfg, Result& out);
void run_fleet_sweep(const RunConfig& cfg, Result& out);

/// Traced samples.  `named` is true for the workload the run was asked
/// for: it then also times the same ops untraced and reports the
/// accounting (trace.*) metrics.
void trace_tune(const RunConfig& cfg, Result& out, bool named);
void trace_svc_hot(const RunConfig& cfg, Result& out, bool named);
void trace_svc_cold(const RunConfig& cfg, Result& out, bool named);
void trace_fleet_sweep(const RunConfig& cfg, Result& out, bool named);

/// Reports the accounting of a traced sample against its untraced twin:
/// per-op means of the traced wall time, of the layer self times (their
/// sum), and of the untraced wall time, plus both sides' op rates.
void report_accounting(Result& out, double untraced_ms, double traced_ms,
                       double layers_ms, double untraced_ops_per_s,
                       double traced_ops_per_s);

}  // namespace perfbench
