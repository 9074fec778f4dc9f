// The paper's experimental procedure (Section 5): sweep the tile height V,
// run both the overlapping and the non-overlapping programs, and find
// V_optimal / t_optimal for each.
//
// Sweep points are independent simulations, so the sweep (and the
// autotuner's probe batches) can fan out over threads; results are
// guaranteed identical to the serial sweep — each worker owns its Engine
// and writes its point into an index-addressed slot.
#pragma once

#include <cstdint>
#include <vector>

#include "tilo/core/predict.hpp"
#include "tilo/core/problem.hpp"

namespace tilo::core {

/// One sweep sample.
struct SweepPoint {
  i64 V = 0;            ///< tile height
  i64 g = 0;            ///< tile volume (iterations per full tile)
  double t_overlap = 0;     ///< simulated, overlapping schedule
  double t_nonoverlap = 0;  ///< simulated, non-overlapping schedule
  double predicted_overlap = 0;     ///< eq. (4)
  double predicted_nonoverlap = 0;  ///< eq. (3)
  double predicted_cpu_bound = 0;   ///< eq. (5)
  /// Simulator events processed across the runs at this point (throughput
  /// accounting for the benches).
  std::uint64_t events = 0;
};

/// The contending-region slack of the analytic pruning that the bound-driven
/// sweep_select replaced: a height was simulated when its closed-form
/// prediction lay within this factor of the predicted minimum.  Kept only as
/// the constant perfbench's traced tune replay prunes with.
inline constexpr double kDefaultPruneSlack = 1.25;

/// Sweep options.
struct SweepOptions {
  /// Communication model, shared with exec::RunOptions so sweeps and
  /// single runs cannot drift apart.
  exec::CommConfig comm;
  /// Worker threads for the sweep / autotune fan-out: 1 = serial (default),
  /// 0 = all hardware threads, n = exactly n.  Results are byte-identical
  /// for every value.
  int threads = 1;
  /// Optional observer: forwarded into every run (simulated phase spans,
  /// run counters) and fed wall-clock host spans for each sweep point /
  /// autotune probe (lane = worker thread).  With threads != 1 the sink
  /// must be thread-safe (obs::Registry, obs::ChromeTraceSink,
  /// obs::JsonlSink, obs::ReportSink are; trace::Timeline is not).
  obs::Sink* sink = nullptr;
  /// sweep_select only: escape hatch — simulate every height for both
  /// schedules instead of just the heights the completion bound cannot
  /// rule out.
  bool exhaustive = false;
};

/// Runs both schedules (timed mode) for each V in `heights`: the points of
/// the exhaustive sweep_select.
std::vector<SweepPoint> sweep_tile_height(const Problem& problem,
                                          const std::vector<i64>& heights,
                                          const SweepOptions& opts = {});

/// The sweep's verdict for one schedule kind: the simulated-optimal height
/// with its simulated and model-predicted completion times.  The
/// bound-driven selection returns it bit-identical to the exhaustive
/// sweep's.
struct SweepVerdict {
  i64 V = 0;            ///< simulated-optimal tile height (lowest V on ties)
  i64 g = 0;            ///< its tile volume
  double t = 0;         ///< simulated completion at V
  double predicted = 0; ///< plan-level prediction at V (eq. 3 / eq. 4)
};

/// A bound-driven sweep: every height's plans are bounded with
/// exec::completion_lower_bound, each kind's smallest-bound height is
/// simulated, and then every other height whose bound does not exceed that
/// kind's best simulated completion.  A height left out is provably slower
/// than one simulated, so the verdicts equal the exhaustive sweep's.
struct SweepSelection {
  /// One entry per input height, carrying g and the plan-level predictions
  /// one measured point of both kinds carries; t_* and events only for the
  /// kinds simulated there (0 otherwise).
  std::vector<SweepPoint> points;
  std::vector<std::uint8_t> simulated_overlap;     ///< per-point: timed run?
  std::vector<std::uint8_t> simulated_nonoverlap;
  SweepVerdict best_overlap;
  SweepVerdict best_nonoverlap;
  i64 simulated_runs = 0;  ///< timed simulations executed
  i64 total_runs = 0;      ///< what an exhaustive sweep would execute
};

/// Sweeps `heights` with bound-driven selection (or exhaustively, with
/// opts.exhaustive).  The recommendation equals the exhaustive sweep's by
/// construction, and which heights are simulated depends only on the
/// inputs, never on opts.threads.
SweepSelection sweep_select(const Problem& problem,
                            const std::vector<i64>& heights,
                            const SweepOptions& opts = {});

/// A geometric grid of candidate heights in [lo, hi] (dividing nothing:
/// heights need not divide the extent; boundary tiles are partial) —
/// mach::geometric_grid.
std::vector<i64> height_grid(i64 lo, i64 hi, double ratio = 1.3);

/// Result of autotuning one schedule.
struct Autotune {
  i64 V_opt = 0;
  double t_opt = 0.0;
};

/// Finds the simulated-optimal tile height for the given schedule kind via
/// a geometric sweep plus local refinement — the paper's "experimentally
/// tune tile size g" procedure: mach::geometric_sweep with each probe batch
/// fanned out over opts.threads (the result is identical for every thread
/// count).
Autotune autotune_tile_height(const Problem& problem, ScheduleKind kind,
                              i64 lo, i64 hi, const SweepOptions& opts = {});

}  // namespace tilo::core
