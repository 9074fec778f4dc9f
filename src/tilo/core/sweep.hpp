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

/// Default contending-region slack for sweep_select: a height is simulated
/// when its model-predicted completion is within this factor of the best
/// model prediction.  The model's worst observed ranking error on the
/// three paper spaces is 0.63% (the simulated optimum's prediction sits
/// within 1.0063x of the predicted minimum), so 1.25 carries ~40x margin
/// while pruning the expensive small-V points; verify_pruned_selection
/// certifies it end to end.
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
  /// schedules instead of just the analytic contending region.  Ranks
  /// nothing, so it runs on any nest (even one without dependences).
  bool exhaustive = false;
  /// sweep_select only: contending-region slack factor (>= 1).  Tighter
  /// slack simulates fewer points but risks pruning the true optimum;
  /// verify_pruned_selection detects that.
  double prune_slack = kDefaultPruneSlack;
};

/// Runs both schedules (timed mode) for each V in `heights`: the points of
/// the exhaustive sweep_select.
std::vector<SweepPoint> sweep_tile_height(const Problem& problem,
                                          const std::vector<i64>& heights,
                                          const SweepOptions& opts = {});

/// The sweep's verdict for one schedule kind: the simulated-optimal height
/// with its simulated and model-predicted completion times.  This is the
/// payload the pruned fast path certifies — verify_pruned_selection
/// requires it bit-identical to the exhaustive sweep's.
struct SweepVerdict {
  i64 V = 0;            ///< simulated-optimal tile height (lowest V on ties)
  i64 g = 0;            ///< its tile volume
  double t = 0;         ///< simulated completion at V
  double predicted = 0; ///< plan-level prediction at V (eq. 3 / eq. 4)
};

/// An analytically pre-pruned sweep: every height is ranked with the
/// closed-form model (analytic.hpp), and only heights whose predicted
/// completion lies within prune_slack of the best prediction — the
/// *contending region*, computed per schedule kind — are simulated.
struct SweepSelection {
  /// One entry per input height.  Simulated entries carry the same fields
  /// a sweep_tile_height point does; pruned entries carry the analytic
  /// predictions (predicted_*), the tile volume g, and zero t_*.
  std::vector<SweepPoint> points;
  std::vector<std::uint8_t> simulated_overlap;     ///< per-point: timed run?
  std::vector<std::uint8_t> simulated_nonoverlap;
  SweepVerdict best_overlap;
  SweepVerdict best_nonoverlap;
  /// The model's own argmin per kind; 0 in exhaustive mode (no ranking).
  i64 V_analytic_overlap = 0;
  i64 V_analytic_nonoverlap = 0;
  i64 simulated_runs = 0;  ///< timed simulations executed
  i64 total_runs = 0;      ///< what an exhaustive sweep would execute
};

/// Sweeps `heights` with analytic pre-pruning (or exhaustively, with
/// opts.exhaustive).  The sweep's recommendation equals the exhaustive
/// sweep's whenever the contending region contains the true optimum; the
/// default slack is certified by verify_pruned_selection on the paper
/// spaces, and tighter slacks can be checked the same way.
SweepSelection sweep_select(const Problem& problem,
                            const std::vector<i64>& heights,
                            const SweepOptions& opts = {});

/// Runs the pruned and the exhaustive sweep and requires bit-identical
/// recommendations for both kinds; throws util::Error naming the
/// kind and heights on any divergence (e.g. an over-tight prune_slack).
/// Returns the pruned selection on success.
SweepSelection verify_pruned_selection(const Problem& problem,
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
