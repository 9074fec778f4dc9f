#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

namespace perfbench {

using tilo::util::Rng;
using i64 = std::int64_t;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  Rng r(seed * 0x9E3779B97F4A7C15ULL + purpose);
  return r.next_u64();
}

std::vector<int> space_order(std::uint64_t seed) {
  Rng rng(stream_seed(seed, 1));
  std::vector<int> order{0, 1, 2};
  for (int i = 2; i > 0; --i)
    std::swap(order[std::size_t(i)], order[std::size_t(rng.uniform(0, i))]);
  return order;
}

namespace {

struct NestShape {
  i64 mapped_lo, mapped_hi;  ///< mapped-dimension extent range
  i64 side_hi;               ///< max cross tile side (>= 2)
  i64 v_lo, v_hi;            ///< tile height range (>= 2)
};

/// One random uniform nest (see gen.hpp for what is drawn).
tilo::svc::CompileParams random_nest(Rng& rng, const NestShape& shape,
                                     const std::string& name) {
  const int dims = int(rng.uniform(2, 3));
  const int mapped = int(rng.uniform(0, dims - 1));
  const auto n = static_cast<std::size_t>(dims);
  std::vector<i64> extent(n, 0), procs(n, 1);
  for (int d = 0; d < dims; ++d) {
    if (d == mapped) {
      extent[std::size_t(d)] = rng.uniform(shape.mapped_lo, shape.mapped_hi);
    } else {
      procs[std::size_t(d)] = i64{1} << rng.uniform(0, 2);  // 1, 2 or 4
      extent[std::size_t(d)] =
          procs[std::size_t(d)] * rng.uniform(2, shape.side_hi);
    }
  }
  // Distinct nonzero 0/1 offsets; lexicographically positive because
  // nonnegative and nonzero.
  std::vector<int> masks;
  for (int m = 1; m < (1 << dims); ++m) masks.push_back(m);
  for (std::size_t i = masks.size() - 1; i > 0; --i)
    std::swap(masks[i], masks[std::size_t(rng.uniform(0, i64(i)))]);
  const i64 ndeps = rng.uniform(1, std::min<i64>(4, i64(masks.size())));
  masks.resize(std::size_t(ndeps));

  static const char* kVars[] = {"i", "j", "k"};
  auto ref = [&](int mask) {
    std::string r = "A(";
    for (int d = 0; d < dims; ++d) {
      if (d) r += ", ";
      r += kVars[d];
      if (mask & (1 << d)) r += "-1";
    }
    return r + ")";
  };
  std::ostringstream src;
  for (int d = 0; d < dims; ++d)
    src << std::string(std::size_t(d), ' ') << "FOR " << kVars[d]
        << " = 0 TO " << extent[std::size_t(d)] - 1 << "\n";
  src << std::string(std::size_t(dims), ' ') << ref(0) << " = "
      << 1.0 / double(masks.size() + 1) << " * (1";
  for (const int m : masks) src << " + " << ref(m);
  src << ")\n";
  for (int d = dims - 1; d >= 0; --d)
    src << std::string(std::size_t(d), ' ') << "ENDFOR\n";

  tilo::svc::CompileParams p;
  p.name = name;
  p.source = src.str();
  p.procs = tilo::lat::Vec(procs);
  p.height = std::min(rng.uniform(shape.v_lo, shape.v_hi),
                      extent[std::size_t(mapped)]);
  p.kind = rng.chance(0.5) ? tilo::sched::ScheduleKind::kOverlap
                           : tilo::sched::ScheduleKind::kNonOverlap;
  return p;
}

}  // namespace

std::vector<tilo::svc::CompileParams> hot_workloads(std::uint64_t seed) {
  Rng rng(stream_seed(seed, 2));
  const NestShape small{64, 256, 8, 4, 32};
  std::vector<tilo::svc::CompileParams> out;
  for (int i = 0; i < kHotKeys; ++i)
    out.push_back(random_nest(rng, small, "hot-" + std::to_string(i)));
  return out;
}

tilo::svc::CompileParams cold_workload(std::uint64_t seed,
                                       std::uint64_t index) {
  Rng rng(stream_seed(stream_seed(seed, 3), index));
  const NestShape shape{96, 512, 16, 8, 64};
  tilo::svc::CompileParams p = random_nest(
      rng, shape,
      "cold-" + std::to_string(seed) + "-" + std::to_string(index));
  p.simulate = true;
  return p;
}

Zipf::Zipf(int n, double s) {
  double sum = 0;
  for (int k = 1; k <= n; ++k) sum += 1.0 / std::pow(double(k), s);
  double acc = 0;
  for (int k = 1; k <= n; ++k) {
    acc += 1.0 / std::pow(double(k), s) / sum;
    cdf_.push_back(acc);
  }
  cdf_.back() = 1.0;
}

int Zipf::draw(Rng& rng) const {
  const double u = rng.uniform01();
  return int(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
}

}  // namespace perfbench
