// The benchmark harness: clocks, latency summaries, the open-loop arrival
// schedule, in-memory span tracing with self-time attribution, and the
// result record every workload fills in.
//
// Nothing here calls into tilo; the workloads (wl_*.cpp) do, and wrap
// each public call they time in a Span.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "tilo/util/rng.hpp"

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
std::int64_t now_ns();

/// ru_maxrss of this process, in MiB.
double peak_rss_mb();

// ------------------------------------------------------------ latencies

/// Samples that must lie beyond the tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// The highest percentile of `n` samples with kTailBeyond samples beyond
/// it, (n - 10) / n, or 1.0 (the maximum) when that would not reach the
/// median (n < 20).  It moves smoothly with n, so a run with a few more
/// or fewer samples does not jump to another percentile.
double tail_quantile(std::size_t n);

/// Nearest-rank quantile of an ascending-sorted sample (q in (0, 1]).
double quantile_sorted(const std::vector<double>& sorted, double q);

/// Consecutive samples per block when a sample is long enough to split.
/// 100 puts the block tail at p90: on a virtualized host, CPU steal of a
/// few percent turns the p99 of a 0.1 ms request into milliseconds in
/// some runs and not others, so a p99 would not repeat from run to run.
inline constexpr std::size_t kTailBlock = 100;

struct LatencySummary {
  std::size_t n = 0;
  double p50 = 0;
  double tail = 0;
  double tail_q = 0;          ///< the percentile the tail was taken at
                              ///< (median over the blocks)
  std::size_t beyond = 0;     ///< samples beyond the tail, per block
  std::size_t blocks = 1;     ///< blocks the tail is the median over
};

/// Summarizes a latency sample given in time order (any unit).  p50 is
/// over the whole sample.  The tail is the highest percentile with
/// kTailBeyond samples beyond it, taken per block of kTailBlock
/// consecutive samples (the last block keeps the remainder) and reported
/// as the median over the blocks, so one host stall moves one block's
/// tail, not the run's.  A sample shorter than two blocks is one block.
LatencySummary summarize(const std::vector<double>& samples);

/// Median of a sample (mean of the middle two for even sizes).
double median(std::vector<double> v);

// ---------------------------------------------------------- open loop

/// Poisson arrivals: exponential inter-arrival gaps at `rate_per_s`,
/// drawn from a seeded SplitMix64 stream, as due times (ns) relative to
/// the schedule's start.
class PoissonSchedule {
 public:
  PoissonSchedule(double rate_per_s, std::uint64_t seed);
  /// The next due time, in ns after the start.
  std::int64_t next();

 private:
  double mean_gap_ns_;
  tilo::util::Rng rng_;
  double t_ = 0;
};

/// How late an open-loop sender ran: for each send, actual − due (never
/// negative: a sender that is early waits until the due time).
struct Lateness {
  std::uint64_t sends = 0;
  std::uint64_t late_sends = 0;  ///< sends more than kLateNs after due
  double sum_us = 0;
  static constexpr std::int64_t kLateNs = 100'000;
  void add(std::int64_t due_ns, std::int64_t sent_ns);
  double mean_us() const { return sends ? sum_us / double(sends) : 0.0; }
};

// -------------------------------------------------------------- tracing

/// One recorded span.  Spans of one op share `op`; `parent` is the index
/// of the enclosing span in the tracer (-1 for an op's root).
struct SpanRec {
  std::string name;
  std::int64_t start = 0, end = 0;
  int parent = -1;
  std::int64_t op = -1;
  int lane = 0;  ///< recording thread, for the trace file
};

/// Collects spans in memory (thread-safe); written out once at exit.
class Tracer {
 public:
  /// Opens a span and returns its index.
  int open(std::string name, int parent, std::int64_t op, int lane);
  void close(int index);
  std::vector<SpanRec> spans() const;
  /// Writes Chrome trace-event JSON (load in Perfetto / about:tracing).
  void write_chrome(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<SpanRec> spans_;
};

/// RAII span: open on construction, close on destruction.  A null tracer
/// records nothing, so the same code path runs traced and untraced.
class Span {
 public:
  Span(Tracer* t, const char* name, int parent, std::int64_t op,
       int lane = 0)
      : t_(t), index_(t ? t->open(name, parent, op, lane) : -1) {}
  ~Span() {
    if (t_) t_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int index() const { return index_; }

 private:
  Tracer* t_;
  int index_;
};

using Interval = std::pair<std::int64_t, std::int64_t>;

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t union_length(std::vector<Interval> intervals, std::int64_t lo,
                          std::int64_t hi);

/// Per span name, the self time of every recorded call, in ns: the
/// span's duration minus the part of it covered by the union of its
/// direct children (children overlapping on several threads are counted
/// once).
std::map<std::string, std::vector<double>> self_times(
    const std::vector<SpanRec>& spans);

/// Splits the covered time of an op root's direct children among their
/// span names: at every instant the active children share it equally, so
/// the per-name totals add up to the union of the children (time on two
/// threads is counted once).  Returns name -> ns.
std::map<std::string, double> attribute_children(
    const std::vector<SpanRec>& spans, int root);

// --------------------------------------------------------------- result

/// A metric value with its unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run reports.  `metrics` holds every figure the run
/// produced (end-to-end and per-layer); run.py selects the declared ones.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  ///< gate / reconciliation messages

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Records a failed gate; the run then reports correct = false.
  void fail(const std::string& why);
  /// Records `what` as a failed gate unless `ok`.
  void check(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
  /// The latency trio (p50, tail, with the tail's percentile and count).
  void set_latency(const LatencySummary& ms);
  /// The JSON line run.py consumes.
  std::string json() const;
};

/// Prints a human-readable line to stderr (stdout carries only the
/// result line).
void note(const std::string& line);

}  // namespace perfbench
