#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ latencies

double tail_quantile(std::size_t n) {
  return n >= 2 * kTailBeyond ? double(n - kTailBeyond) / double(n) : 1.0;
}

double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(std::ceil(q * double(sorted.size())));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

LatencySummary summarize(const std::vector<double>& samples) {
  LatencySummary s;
  s.n = samples.size();
  if (samples.empty()) return s;
  s.blocks = std::max<std::size_t>(1, s.n / kTailBlock);
  const std::size_t per = s.blocks == 1 ? s.n : kTailBlock;
  std::vector<double> tails, quantiles;
  for (std::size_t b = 0; b < s.blocks; ++b) {
    const auto first = samples.begin() + std::ptrdiff_t(b * per);
    const auto last =
        b + 1 == s.blocks ? samples.end() : first + std::ptrdiff_t(per);
    std::vector<double> block(first, last);
    std::sort(block.begin(), block.end());
    const std::size_t m = block.size();
    s.beyond = m >= 2 * kTailBeyond ? kTailBeyond : 0;
    tails.push_back(block[m - 1 - s.beyond]);
    quantiles.push_back(tail_quantile(m));
  }
  s.tail = median(tails);
  s.tail_q = median(quantiles);
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = quantile_sorted(sorted, 0.5);
  return s;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ---------------------------------------------------------- open loop

PoissonSchedule::PoissonSchedule(double rate_per_s, std::uint64_t seed)
    : mean_gap_ns_(1e9 / rate_per_s), rng_(seed) {}

std::int64_t PoissonSchedule::next() {
  // Inverse-CDF exponential gap; 1 - u lies in (0, 1], so log is finite.
  t_ += -std::log(1.0 - rng_.uniform01()) * mean_gap_ns_;
  return static_cast<std::int64_t>(t_);
}

void Lateness::add(std::int64_t due_ns, std::int64_t sent_ns) {
  const std::int64_t late = std::max<std::int64_t>(0, sent_ns - due_ns);
  ++sends;
  if (late > kLateNs) ++late_sends;
  sum_us += double(late) / 1e3;
}

// -------------------------------------------------------------- tracing

int Tracer::open(std::string name, int parent, std::int64_t op, int lane) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(SpanRec{std::move(name), t, t, parent, op, lane});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::close(int index) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end = t;
}

std::vector<SpanRec> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void Tracer::write_chrome(const std::string& path) const {
  const std::vector<SpanRec> spans = this->spans();
  std::ofstream out(path);
  if (!out) return;
  const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"op\":%lld,\"parent\":%d}}",
                  s.lane, double(s.start - t0) / 1e3,
                  double(s.end - s.start) / 1e3,
                  static_cast<long long>(s.op), s.parent);
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name << "\"," << buf;
  }
  out << "\n]}\n";
}

std::int64_t union_length(std::vector<Interval> intervals, std::int64_t lo,
                          std::int64_t hi) {
  for (Interval& iv : intervals) {
    iv.first = std::max(iv.first, lo);
    iv.second = std::min(iv.second, hi);
  }
  std::sort(intervals.begin(), intervals.end());
  std::int64_t total = 0;
  std::int64_t cur_lo = 0, cur_hi = 0;
  bool open = false;
  for (const Interval& iv : intervals) {
    if (iv.second <= iv.first) continue;
    if (open && iv.first <= cur_hi) {
      cur_hi = std::max(cur_hi, iv.second);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = iv.first;
    cur_hi = iv.second;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::map<std::string, std::vector<double>> self_times(
    const std::vector<SpanRec>& spans) {
  // Children's intervals per parent, gathered in one pass.
  std::vector<std::vector<Interval>> children(spans.size());
  for (const SpanRec& s : spans)
    if (s.parent >= 0)
      children[std::size_t(s.parent)].emplace_back(s.start, s.end);
  std::map<std::string, std::vector<double>> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& s = spans[i];
    const std::int64_t covered =
        union_length(std::move(children[i]), s.start, s.end);
    out[s.name].push_back(double(s.end - s.start - covered));
  }
  return out;
}

std::map<std::string, double> attribute_children(
    const std::vector<SpanRec>& spans, int root) {
  const SpanRec& r = spans[static_cast<std::size_t>(root)];
  // Sweep the children's start/end events; between consecutive events
  // the k active children each get 1/k of the elapsed time.
  struct Edge {
    std::int64_t t;
    int child;
    bool start;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRec& c = spans[i];
    if (c.parent != root) continue;
    const std::int64_t lo = std::max(c.start, r.start);
    const std::int64_t hi = std::min(c.end, r.end);
    if (hi <= lo) continue;
    edges.push_back({lo, int(i), true});
    edges.push_back({hi, int(i), false});
  }
  std::sort(edges.begin(), edges.end(), [](const Edge& a, const Edge& b) {
    return a.t != b.t ? a.t < b.t : (!a.start && b.start);
  });
  std::map<std::string, double> out;
  std::vector<int> active;
  std::int64_t last = 0;
  for (const Edge& e : edges) {
    if (!active.empty() && e.t > last) {
      const double share = double(e.t - last) / double(active.size());
      for (const int c : active)
        out[spans[static_cast<std::size_t>(c)].name] += share;
    }
    last = e.t;
    if (e.start) {
      active.push_back(e.child);
    } else {
      active.erase(std::find(active.begin(), active.end(), e.child));
    }
  }
  return out;
}

// --------------------------------------------------------------- result

void Result::fail(const std::string& why) {
  correct = false;
  failures.push_back(why);
  note("FAIL: " + why);
}

void Result::set_latency(const LatencySummary& ms) {
  set("latency_p50_ms", ms.p50, "ms");
  set("latency_tail_ms", ms.tail, "ms");
  set("latency_tail_pct", 100.0 * ms.tail_q, "%");
  set("latency_samples", double(ms.n), "count");
  set("latency_tail_blocks", double(ms.blocks), "count");
}

std::string Result::json() const {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    os << (first ? "" : ", ") << '"' << name << "\": {\"value\": ";
    if (std::isfinite(m.value)) {
      os << m.value;
    } else {
      os << "null";
    }
    os << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  os << "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    std::string esc;
    for (const char c : failures[i]) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n' ? ' ' : c);
    }
    os << (i ? ", " : "") << '"' << esc << '"';
  }
  os << "]}";
  return os.str();
}

void note(const std::string& line) { std::cerr << line << std::endl; }

}  // namespace perfbench
