// The reusable state behind exec::RunWorkspace: the communication table,
// the ranks' flat column geometry, the rank-program frame arena and the
// simulated cluster.  Internal to the exec library: run_plan executes on
// it and completion_lower_bound prices on it.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "tilo/exec/comm_table.hpp"
#include "tilo/exec/coro.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/msg/cluster.hpp"

namespace tilo::exec {

/// Per-rank distributed state.  `extended` grows `owned` on its low sides by
/// the maximum dependence component, so every read p - d of an owned point p
/// is an in-array access: cells outside the domain hold boundary values,
/// cells owned by neighbors are filled by received messages.
struct RankState {
  Box owned;
  Box extended;
  std::vector<double> values;  // functional mode only, over `extended`

  double& at(const Vec& p) {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
  double get(const Vec& p) const {
    return values[static_cast<std::size_t>(extended.linear_index(p))];
  }
};

/// Where a plan's ranks sit in its tile space, flat, rebuilt only when the
/// plan's geometry (tiled space or mapping) changes, so a warm run reads it
/// without allocating.  Programs walk each owned tile column by linear tile
/// index: rank r owns columns [first[r], first[r+1]); tile k of column c is
/// lin[c] + (k - klo)·stride, the neighbour along tile direction e is
/// lin ∓ delta[e], and its message tag is (consumer lin)·ndirs + e.
struct RankLayout {
  bool valid = false;
  Vec procs;               // mapping key (the space's is the comm table's)
  std::size_t md = 0;      // mapped dimension
  i64 klo = 0, khi = 0;    // tile range along it
  i64 stride = 0;          // linear-index stride along it
  i64 ndirs = 1;
  std::vector<i64> delta;  // per tile direction: linear-index offset
  std::vector<std::size_t> kclass;  // per k - klo: profile(md, k)·radix[md]
  std::vector<i64> kmult;  // per profile along md: tiles of a column in it
  std::vector<std::size_t> first;   // per rank, plus the end
  // Per column: coordinates (mapped dimension at klo), linear index of its
  // klo tile, class base, and the 2·ndirs neighbour owners (entry e: the
  // owner of the column at -e, entry ndirs + e: at +e; -1 outside).
  std::vector<Vec> col;
  std::vector<i64> lin;
  std::vector<std::size_t> base;
  std::vector<int> owners;
  std::vector<RankState> ranks;  // boxes here; values filled per run

  bool matches(const TilePlan& plan) const {
    return valid && md == plan.mapped_dim && procs == plan.mapping.procs();
  }

  void build(const TilePlan& plan, const CommTable& comm);
};

/// A posted receive of the nonblocking program, waited on at the end of
/// the step that posted it; its consumer is the next tile of the column.
struct PendingRecv {
  msg::RequestId id;
  const TileComm* comm = nullptr;
  i64 bytes = 0;  ///< message size, resolved at post time (consumer tile)
};

struct RunWorkspace::Impl {
  /// Declared first so it outlives everything that may hold a frame.
  FrameArena frames;
  CommTable comm;
  RankLayout layout;
  std::vector<msg::RequestId> sends;
  std::vector<PendingRecv> recvs;
  /// Reset per run; its event, transfer, request and payload tables stay
  /// warm.
  std::unique_ptr<msg::Cluster> cluster;

  /// Rebuilds the comm table and the rank layout where `plan`'s geometry
  /// differs from the one they hold.
  void prepare(const TilePlan& plan);

  /// The cluster reset (or created) for a run of `num_ranks` ranks.
  msg::Cluster& reset_cluster(int num_ranks,
                              std::shared_ptr<const mach::Model> model,
                              mach::OverlapLevel level,
                              const CommConfig& comm, obs::Sink* sink);

  /// A cluster whose ns helpers price with `model`.  They depend on the
  /// model alone, and the cluster keeps its model alive, so one already
  /// priced with this model is returned as it stands, memo and all;
  /// otherwise the cluster is reset for it under the default CommConfig.
  const msg::Cluster& pricing_cluster(int num_ranks,
                                      std::shared_ptr<const mach::Model> model);
};

}  // namespace tilo::exec
