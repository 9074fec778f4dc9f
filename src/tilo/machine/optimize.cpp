#include "tilo/machine/optimize.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tilo/util/error.hpp"

namespace tilo::mach {

Minimum golden_section(const std::function<double(double)>& f, double lo,
                       double hi, double tol, int max_iters) {
  TILO_REQUIRE(lo < hi, "golden_section: lo >= hi");
  TILO_REQUIRE(tol > 0, "golden_section: tol must be positive");
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;  // 0.618...
  double a = lo;
  double b = hi;
  double x1 = b - phi * (b - a);
  double x2 = a + phi * (b - a);
  double f1 = f(x1);
  double f2 = f(x2);
  for (int i = 0; i < max_iters && (b - a) > tol; ++i) {
    if (f1 <= f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = f(x1);
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = f(x2);
    }
  }
  const double x = 0.5 * (a + b);
  return Minimum{x, f(x)};
}

IntMinimum integer_sweep(const std::function<double(i64)>& f, i64 lo, i64 hi,
                         i64 step) {
  TILO_REQUIRE(lo <= hi, "integer_sweep: lo > hi");
  TILO_REQUIRE(step >= 1, "integer_sweep: step must be >= 1");
  IntMinimum best{lo, f(lo)};
  for (i64 x = lo + step; x <= hi; x += step) {
    const double v = f(x);
    if (v < best.value) best = IntMinimum{x, v};
  }
  return best;
}

std::vector<i64> geometric_grid(i64 lo, i64 hi, double ratio) {
  TILO_REQUIRE(lo >= 1 && lo <= hi, "geometric_grid: bad range");
  TILO_REQUIRE(ratio > 1.0, "geometric_grid: ratio must be > 1");
  std::vector<i64> grid;
  double x = static_cast<double>(lo);
  i64 last = -1;
  while (static_cast<i64>(x) <= hi) {
    const i64 xi = std::max<i64>(static_cast<i64>(x), last + 1);
    if (xi > hi) break;
    grid.push_back(xi);
    last = xi;
    x *= ratio;
  }
  if (grid.empty() || grid.back() != hi) grid.push_back(hi);
  return grid;
}

namespace {

/// The linear refinement window around the best coarse grid point:
/// [neighbor below, neighbor above] with a stride that caps the number of
/// probes at ~512.
std::vector<i64> refinement_candidates(const std::vector<i64>& grid,
                                       std::size_t best_idx) {
  const i64 ref_lo = best_idx > 0 ? grid[best_idx - 1] : grid[best_idx];
  const i64 ref_hi =
      best_idx + 1 < grid.size() ? grid[best_idx + 1] : grid[best_idx];
  // Cap the refinement work; completion-time curves are flat near the
  // optimum, so a stride > 1 on huge intervals costs little accuracy.
  const i64 span = ref_hi - ref_lo;
  const i64 stride = std::max<i64>(1, span / 512);
  std::vector<i64> cand;
  for (i64 x = ref_lo; x <= ref_hi; x += stride) cand.push_back(x);
  return cand;
}

/// First strict minimum of `values` (ties keep the earliest index).
std::size_t argmin(const std::vector<double>& values) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < values.size(); ++i)
    if (values[i] < values[best]) best = i;
  return best;
}

}  // namespace

IntMinimum geometric_sweep(const BatchObjective& evaluate, i64 lo, i64 hi,
                           double ratio) {
  TILO_REQUIRE(lo >= 1 && lo <= hi, "geometric_sweep: bad range");

  // Coarse pass on a multiplicative grid.
  const std::vector<i64> grid = geometric_grid(lo, hi, ratio);
  const std::vector<double> coarse = evaluate(grid);
  TILO_REQUIRE(coarse.size() == grid.size(),
               "geometric_sweep: objective returned ", coarse.size(),
               " values for ", grid.size(), " candidates");
  const std::size_t best = argmin(coarse);

  // Linear refinement between the neighbors of the best coarse point.
  const std::vector<i64> cand = refinement_candidates(grid, best);
  const std::vector<double> fine = evaluate(cand);
  TILO_REQUIRE(fine.size() == cand.size(),
               "geometric_sweep: objective returned ", fine.size(),
               " values for ", cand.size(), " candidates");
  const std::size_t fine_best = argmin(fine);
  if (fine[fine_best] < coarse[best])
    return IntMinimum{cand[fine_best], fine[fine_best]};
  return IntMinimum{grid[best], coarse[best]};
}

IntMinimum geometric_sweep(const std::function<double(i64)>& f, i64 lo,
                           i64 hi, double ratio) {
  const BatchObjective each = [&f](const std::vector<i64>& xs) {
    std::vector<double> values;
    values.reserve(xs.size());
    for (const i64 x : xs) values.push_back(f(x));
    return values;
  };
  return geometric_sweep(each, lo, hi, ratio);
}

}  // namespace tilo::mach
