// One-dimensional minimizers used to find the optimal tile grain g (the
// paper finds g_optimal experimentally because A_i(g) has no closed form;
// we expose both a continuous and an exhaustive integer search).
#pragma once

#include <functional>
#include <vector>

#include "tilo/util/math.hpp"

namespace tilo::mach {

using util::i64;

/// Result of a 1-D minimization.
struct Minimum {
  double x = 0.0;
  double value = 0.0;
};

/// Golden-section search for a (quasi-)unimodal f on [lo, hi].
/// `tol` is the absolute interval width at which the search stops.
Minimum golden_section(const std::function<double(double)>& f, double lo,
                       double hi, double tol = 1e-6, int max_iters = 200);

/// Result of an integer sweep.
struct IntMinimum {
  i64 x = 0;
  double value = 0.0;
};

/// Evaluates f on {lo, lo+step, ..., <= hi} and returns the argmin.
/// Ties resolve to the smallest x.  This is the paper's experimental
/// procedure ("for all possible values of V ... we ran both programs").
IntMinimum integer_sweep(const std::function<double(i64)>& f, i64 lo, i64 hi,
                         i64 step = 1);

/// The multiplicative candidate grid geometric_sweep's coarse pass
/// evaluates: start at lo (>= 1), multiply by ratio, round down, dedup to
/// strictly increasing, always end at hi.
std::vector<i64> geometric_grid(i64 lo, i64 hi, double ratio = 1.25);

/// Evaluates a whole batch of candidates, one value per candidate in order.
using BatchObjective =
    std::function<std::vector<double>(const std::vector<i64>&)>;

/// Geometric sweep: evaluates f on geometric_grid(lo, hi, ratio), then
/// refines linearly around the best coarse point (the neighbors' span, at
/// most ~512 probes).  Much cheaper than a full sweep when f(x) is smooth,
/// as the completion-time curves are.
IntMinimum geometric_sweep(const std::function<double(i64)>& f, i64 lo,
                           i64 hi, double ratio = 1.25);

/// The same search with batched probes: `evaluate` receives the coarse
/// grid, then the refinement window, so a caller can fan each batch out
/// (e.g. a parallel autotuner).  Returns what the scalar form returns for
/// the same values.
IntMinimum geometric_sweep(const BatchObjective& evaluate, i64 lo, i64 hi,
                           double ratio = 1.25);

}  // namespace tilo::mach
