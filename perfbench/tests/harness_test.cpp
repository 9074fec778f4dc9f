// Self-tests of the benchmark harness: tail selection, seeded generators,
// open-loop due times and lateness, and span self time.  Exit 0 = pass.
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "gen.hpp"
#include "harness.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

using namespace perfbench;

void test_tail_selection() {
  // The tail is the highest percentile with 10 samples beyond it.
  expect(tail_quantile(10) == 1.0, "n=10: no sample has 10 beyond");
  expect(tail_quantile(19) == 1.0, "n=19: below the median, so the max");
  expect(tail_quantile(20) == 0.5, "n=20: p50 has exactly 10 beyond");
  expect(tail_quantile(99) == 89.0 / 99, "n=99: just below p90");
  expect(tail_quantile(100) == 0.9, "n=100: p90");
  expect(tail_quantile(1000) == 0.99, "n=1000: p99");
  expect(tail_quantile(10000) == 0.999, "n=10000: p99.9");

  // One block: B..1, unsorted.
  const auto n = double(kTailBlock);
  std::vector<double> v;
  for (std::size_t i = 0; i < kTailBlock; ++i) v.push_back(n - double(i));
  const LatencySummary s = summarize(v);
  const double q1 = tail_quantile(kTailBlock);
  expect(s.n == kTailBlock && s.blocks == 1, "sample count");
  expect(s.p50 == n / 2, "nearest-rank median of 1..B");
  expect(s.tail_q == q1 && s.tail == q1 * n, "the tail of 1..B");
  expect(s.beyond == 10, "10 samples beyond the tail");
  const LatencySummary few = summarize({3, 1, 2});
  expect(few.tail_q == 1.0 && few.tail == 3 && few.beyond == 0,
         "too few samples: the tail is the maximum");

  // 5.5 blocks of samples: 5 blocks (the last keeps the remainder), each
  // a permutation of 1..B (the last also B/2 small values), and a stall
  // of B/20 huge samples inside block 2.  The tail is the median of the
  // per-block tails, so the stall moves one block only.
  const int B = int(kTailBlock);
  std::vector<double> w;
  for (int b = 0; b < 5; ++b)
    for (int i = 1; i <= B; ++i)
      w.push_back(b == 2 && i > B - B / 20 ? 1e6 : double((i * 7) % B + 1));
  for (int i = 0; i < B / 2; ++i) w.push_back(1.0);
  const LatencySummary blk = summarize(w);
  const double q = tail_quantile(kTailBlock);
  expect(blk.n == w.size() && blk.blocks == 5, "5 blocks");
  expect(blk.tail_q == q && blk.tail == q * B,
         "the stalled block does not move the median of the block tails");
  expect(blk.beyond == 10, "10 samples beyond each block's tail");
}

void test_generators_repeat() {
  expect(space_order(7) == space_order(7), "space order repeats per seed");
  bool orders_differ = false;
  for (std::uint64_t s = 1; s < 10; ++s)
    orders_differ |= space_order(s) != space_order(s + 100);
  expect(orders_differ, "space orders differ across seeds");

  const auto a = hot_workloads(11), b = hot_workloads(11),
             c = hot_workloads(12);
  expect(a.size() == std::size_t(kHotKeys), "64 hot keys");
  bool same = true, differ = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same &= a[i].source == b[i].source && a[i].height == b[i].height &&
            a[i].kind == b[i].kind;
    differ |= a[i].source != c[i].source;
  }
  expect(same, "hot workloads repeat for the same seed");
  expect(differ, "hot workloads differ across seeds");

  expect(cold_workload(5, 3).source == cold_workload(5, 3).source,
         "cold request repeats for the same (seed, index)");
  expect(cold_workload(5, 3).name != cold_workload(5, 4).name,
         "cold requests are distinct");
  expect(cold_workload(5, 3).source != cold_workload(6, 3).source,
         "cold requests differ across seeds");

  const Zipf z(64, 1.0);
  tilo::util::Rng r1(9), r2(9);
  std::vector<int> counts(64, 0);
  bool zipf_same = true;
  for (int i = 0; i < 20000; ++i) {
    const int k = z.draw(r1);
    zipf_same &= k == z.draw(r2);
    ++counts[std::size_t(k)];
  }
  expect(zipf_same, "Zipf draws repeat for the same seed");
  expect(counts[0] > counts[1] && counts[1] > counts[7] &&
             counts[7] > counts[63],
         "Zipf rank 0 is the most popular");
}

void test_poisson_and_lateness() {
  PoissonSchedule p(1000.0, 42), q(1000.0, 42), r(1000.0, 43);
  std::int64_t last = 0, t = 0;
  int n = 0;
  bool same = true, differ = false, increasing = true;
  while ((t = p.next()) < 10'000'000'000) {
    const std::int64_t u = q.next();
    same &= t == u;
    differ |= t != r.next();
    increasing &= t >= last;
    last = t;
    ++n;
  }
  expect(same, "Poisson due times repeat for the same seed");
  expect(differ, "Poisson due times differ across seeds");
  expect(increasing, "due times never go backwards");
  // 10 s at 1000/s: 10000 arrivals, sd 100.
  expect(n > 9600 && n < 10400, "Poisson rate: " + std::to_string(n));

  Lateness l;
  l.add(1000, 500);      // early: the sender waits, lateness 0
  l.add(1000, 1000);     // on time
  l.add(1000, 201'000);  // 200 us late
  expect(l.sends == 3 && l.late_sends == 1, "late sends counted");
  expect(std::abs(l.mean_us() - 200.0 / 3) < 1e-9, "mean lateness");
}

void test_self_time() {
  // root [0,100); children [10,30), [20,50) (overlapping, e.g. two
  // threads), [60,70); a grandchild inside the first child.
  std::vector<SpanRec> s = {
      {"op", 0, 100, -1, 1, 0},  {"a", 10, 30, 0, 1, 0},
      {"b", 20, 50, 0, 1, 1},    {"c", 60, 70, 0, 1, 0},
      {"a.inner", 12, 18, 1, 1, 0}, {"other-op", 0, 100, -1, 2, 0},
  };
  expect(union_length({{10, 30}, {20, 50}, {60, 70}}, 0, 100) == 50,
         "union of overlapping intervals");
  expect(union_length({{-5, 30}, {90, 200}}, 0, 100) == 40,
         "union clipped to the parent");
  const auto self = self_times(s);
  expect(self.at("op") == std::vector<double>{50},
         "root self = 100 - union 50");
  expect(self.at("a") == std::vector<double>{14},
         "child self = 20 - grandchild 6");
  expect(self.at("c") == std::vector<double>{10}, "leaf self = its duration");
  expect(self.at("other-op") == std::vector<double>{100},
         "another op's root has no children");
  const auto att = attribute_children(s, 0);
  // [10,20) a alone; [20,30) a and b share; [30,50) b; [60,70) c.
  expect(att.at("a") == 15 && att.at("b") == 25 && att.at("c") == 10,
         "overlapping children share time, counted once");
  double sum = 0;
  for (const auto& [name, ns] : att) sum += ns;
  expect(sum == 50, "attributed time equals the union");
}

}  // namespace

int main() {
  test_tail_selection();
  test_generators_repeat();
  test_poisson_and_lateness();
  test_self_time();
  if (failures == 0) std::cout << "perfbench self-test: all checks passed\n";
  return failures == 0 ? 0 : 1;
}
