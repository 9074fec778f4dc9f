// Seeded input generators.  Every input the program under test receives
// is drawn here from the run's --seed, so one seed always yields the same
// requests, spaces and arrival times, and different seeds differ.
#pragma once

#include <cstdint>
#include <vector>

#include "tilo/svc/protocol.hpp"
#include "tilo/util/rng.hpp"

namespace perfbench {

/// Derives an independent stream for one purpose of one run.
std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose);

/// The order tune / fleet-sweep visit the paper's spaces i, ii, iii
/// (indices 0..2): a seeded permutation.
std::vector<int> space_order(std::uint64_t seed);

/// svc-hot's key set: 64 small nests, compiled without simulation.  Both
/// generators draw random uniform nests: 2-3 dimensions, a strictly
/// largest mapped extent, cross extents that are multiples of their
/// processor counts, 1-4 distinct 0/1 dependence vectors, a tile height V
/// and a schedule — valid by construction (every tile side exceeds every
/// dependence component), so every compile succeeds.
inline constexpr int kHotKeys = 64;
std::vector<tilo::svc::CompileParams> hot_workloads(std::uint64_t seed);

/// svc-cold's request stream: distinct simulated nests; request `index`
/// of a run depends only on (seed, index).
tilo::svc::CompileParams cold_workload(std::uint64_t seed,
                                       std::uint64_t index);

/// Zipf(s) over {0, ..., n-1} (rank 0 most popular), by inverse CDF.
class Zipf {
 public:
  Zipf(int n, double s);
  int draw(tilo::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

}  // namespace perfbench
