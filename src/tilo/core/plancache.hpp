// A thread-safe cache of built TilePlans keyed by (tile height V, schedule
// kind).  pipeline::Compiler, the svc server and scenario compiles lower
// the same (problem, V, kind) repeatedly across requests and workloads;
// building the plan re-enumerates tile geometry each time, so they share
// one cache.  Sweeps do not use it: each sweep point builds its overlap
// plan once and derives the non-overlap plan by flipping the kind.  Plans
// are immutable once built and shared by const pointer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <utility>

#include "tilo/core/problem.hpp"

namespace tilo::core {

/// Cache of Problem::plan(V, kind) results.
///
/// In the default kSingleProblem scope the cache serves ONE problem
/// instance: the key is (V, kind) only, get() records an identity tag
/// (domain, deps, procs, machine scalars — everything the serialized plan
/// depends on) from the first problem it sees and throws util::Error if a
/// later call presents a different problem, so a stale cache cannot
/// silently serve plans built for the wrong domain.
///
/// In kMultiProblem scope the identity tag joins the key, so one cache can
/// back a whole pipeline scenario (several workloads compiled in one
/// Compiler invocation) without cross-talk between problems.
///
/// Either way the cache must outlive every call it is passed to
/// (pipeline::CompileOptions::plan_cache is a raw pointer).
class PlanCache {
 public:
  enum class Scope {
    kSingleProblem,  ///< key (V, kind); different problem = util::Error
    kMultiProblem,   ///< key (problem tag, V, kind); any mix of problems
  };

  explicit PlanCache(Scope scope = Scope::kSingleProblem) : scope_(scope) {}

  /// Returns the cached plan, building (and caching) it on a miss.  The
  /// geometry of a plan is independent of the schedule kind, so a miss
  /// whose sibling kind is present is served by copying the sibling and
  /// flipping the kind instead of rebuilding the tiling.
  /// Throws util::Error in kSingleProblem scope when `problem` is not the
  /// problem this cache was first used with (see class comment).
  std::shared_ptr<const TilePlan> get(const Problem& problem, i64 V,
                                      ScheduleKind kind);

  Scope scope() const { return scope_; }

  /// Cache effectiveness counters (for benches and tests).
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  using Key = std::tuple<std::string, i64, int>;

  const Scope scope_;
  mutable std::mutex mu_;
  /// kSingleProblem only: identity tag of the first problem served.
  std::string problem_tag_;
  std::map<Key, std::shared_ptr<const TilePlan>> plans_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace tilo::core
