// tune: the paper's own procedure (Section 5).  One caller, closed loop:
// each op is a fresh core::sweep_select (2 threads) over one paper space
// on height_grid(8, max_tile_height, 1.25), cycling through spaces i, ii
// and iii in the seeded order.  Host time goes to exec::run_plan, sim and
// msg; svc, store, JSON and sockets are never touched.
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <vector>

#include "gen.hpp"
#include "tilo/core/analytic.hpp"
#include "tilo/core/parallel.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/machine/calibrate.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/msg/cluster.hpp"
#include "tilo/sim/engine.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using tilo::core::Problem;
using tilo::core::SweepSelection;
using tilo::core::SweepVerdict;
using tilo::sched::ScheduleKind;
using i64 = std::int64_t;

constexpr int kThreads = 2;
constexpr const char* kSpaceNames[] = {"i", "ii", "iii"};

struct Space {
  Problem problem;
  std::vector<i64> heights;
};

std::vector<Space> make_spaces() {
  std::vector<Space> s;
  for (Problem p : {tilo::core::paper_problem_i(),
                    tilo::core::paper_problem_ii(),
                    tilo::core::paper_problem_iii()}) {
    std::vector<i64> h = tilo::core::height_grid(8, p.max_tile_height(), 1.25);
    s.push_back(Space{std::move(p), std::move(h)});
  }
  return s;
}

tilo::core::SweepOptions sweep_options(bool exhaustive = false) {
  tilo::core::SweepOptions o;
  o.threads = kThreads;
  o.exhaustive = exhaustive;
  return o;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_verdict(const SweepVerdict& a, const SweepVerdict& b) {
  return a.V == b.V && a.g == b.g && same_bits(a.t, b.t) &&
         same_bits(a.predicted, b.predicted);
}

std::uint64_t selection_events(const SweepSelection& sel) {
  std::uint64_t ev = 0;
  for (const auto& pt : sel.points) ev += pt.events;
  return ev;
}

}  // namespace

void run_tune(const RunConfig& cfg, Result& out) {
  const std::vector<int> order = space_order(cfg.seed);

  // Set-up: build the problems and grids, then one warm-up call per space
  // (thread pool, workspaces and allocator reach steady state).
  std::vector<double> setups;
  std::vector<Space> spaces;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const std::int64_t t0 = now_ns();
    spaces = make_spaces();
    for (const int s : order)
      (void)tilo::core::sweep_select(spaces[std::size_t(s)].problem,
                                     spaces[std::size_t(s)].heights,
                                     sweep_options());
    setups.push_back(double(now_ns() - t0) / 1e9);
  }
  out.set("setup_s", median(setups), "s");

  std::vector<double> lat_ms;
  std::vector<std::pair<int, SweepSelection>> verdicts;
  std::uint64_t events = 0;
  const std::int64_t start = now_ns();
  const auto budget = std::int64_t(cfg.seconds * 1e9);
  std::int64_t end = start;
  for (std::size_t k = 0; end - start < budget; ++k) {
    const int s = order[k % order.size()];
    const Space& sp = spaces[std::size_t(s)];
    const std::int64_t t0 = now_ns();
    SweepSelection sel =
        tilo::core::sweep_select(sp.problem, sp.heights, sweep_options());
    end = now_ns();
    lat_ms.push_back(double(end - t0) / 1e6);
    events += selection_events(sel);
    verdicts.emplace_back(s, std::move(sel));
  }
  const double wall = double(end - start) / 1e9;
  out.attempted = verdicts.size();
  out.set("ops_per_s", double(verdicts.size()) / wall, "1/s");
  out.set("sim_events_per_s", double(events) / wall, "1/s");
  out.set_latency(summarize(lat_ms));

  // Gate: every verdict bit-identical to the exhaustive sweep's, computed
  // after the window.
  std::vector<SweepSelection> ref;
  for (const Space& sp : spaces)
    ref.push_back(tilo::core::sweep_select(sp.problem, sp.heights,
                                           sweep_options(true)));
  std::uint64_t bad = 0;
  for (const auto& [s, sel] : verdicts) {
    const SweepSelection& r = ref[std::size_t(s)];
    if (!same_verdict(sel.best_overlap, r.best_overlap) ||
        !same_verdict(sel.best_nonoverlap, r.best_nonoverlap))
      ++bad;
  }
  out.failed = bad;
  out.check(bad == 0, std::to_string(bad) +
                          " tune verdict(s) differ from the exhaustive sweep");
  std::ostringstream v;
  v << "tune verdicts V_overlap/V_nonoverlap:";
  for (std::size_t s = 0; s < ref.size(); ++s)
    v << ' ' << kSpaceNames[s] << '=' << ref[s].best_overlap.V << '/'
      << ref[s].best_nonoverlap.V;
  note(v.str());
}

// ------------------------------------------------------------------ trace

namespace {

/// One tune op replayed through the public calls the sweep is built
/// from: the analytic ranking of the grid, then Problem::plan and
/// exec::run_plan (one workspace per height) for every height in the
/// contending region, on kThreads threads.  Returns the verdict pair so
/// the caller can check the replay against sweep_select.
std::pair<SweepVerdict, SweepVerdict> replay_op(
    const Space& sp, Tracer* tr, std::int64_t op,
    std::vector<std::pair<i64, double>>* runs, std::uint64_t* events) {
  const Problem& p = sp.problem;
  const std::size_t n = sp.heights.size();
  const auto model =
      std::make_shared<const tilo::mach::IdealOverlapModel>(p.machine);
  Span root(tr, "tune.op", -1, op);

  std::vector<double> pred_over(n), pred_non(n);
  {
    Span s(tr, "core.rank", root.index(), op);
    for (std::size_t i = 0; i < n; ++i) {
      pred_over[i] = tilo::core::analytic_completion(p, *model, sp.heights[i],
                                                     ScheduleKind::kOverlap);
      pred_non[i] = tilo::core::analytic_completion(
          p, *model, sp.heights[i], ScheduleKind::kNonOverlap);
    }
  }
  double min_over = pred_over[0], min_non = pred_non[0];
  for (std::size_t i = 0; i < n; ++i) {
    min_over = std::min(min_over, pred_over[i]);
    min_non = std::min(min_non, pred_non[i]);
  }
  const double slack = tilo::core::kDefaultPruneSlack;
  struct Job {
    std::size_t i;
    bool over, non;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < n; ++i) {
    const bool o = pred_over[i] <= slack * min_over;
    const bool q = pred_non[i] <= slack * min_non;
    if (o || q) jobs.push_back({i, o, q});
  }
  std::vector<double> t_over(n, -1), t_non(n, -1);
  std::vector<std::uint64_t> ev(jobs.size(), 0);
  std::mutex runs_mu;
  tilo::core::parallel_for_index(
      kThreads, jobs.size(), [&](int worker, std::size_t j) {
        const Job& job = jobs[j];
        tilo::exec::RunWorkspace ws;
        for (const ScheduleKind kind :
             {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
          if (kind == ScheduleKind::kOverlap ? !job.over : !job.non) continue;
          std::unique_ptr<tilo::exec::TilePlan> plan;
          {
            Span s(tr, "core.plan", root.index(), op, worker);
            plan = std::make_unique<tilo::exec::TilePlan>(
                p.plan(sp.heights[job.i], kind));
          }
          const std::int64_t t0 = now_ns();
          tilo::exec::RunResult r;
          {
            Span s(tr, "exec.run_plan", root.index(), op, worker);
            r = tilo::exec::run_plan(p.nest, *plan, model, {}, &ws);
          }
          const double secs = double(now_ns() - t0) / 1e9;
          (kind == ScheduleKind::kOverlap ? t_over : t_non)[job.i] = r.seconds;
          ev[j] += r.events;
          if (runs) {
            std::lock_guard<std::mutex> lock(runs_mu);
            runs->emplace_back(i64(r.events), secs);
          }
        }
      });
  for (const std::uint64_t e : ev) *events += e;
  std::pair<SweepVerdict, SweepVerdict> best;
  bool seen_o = false, seen_n = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (t_over[i] >= 0 && (!seen_o || t_over[i] < best.first.t)) {
      best.first = SweepVerdict{sp.heights[i], 0, t_over[i], 0};
      seen_o = true;
    }
    if (t_non[i] >= 0 && (!seen_n || t_non[i] < best.second.t)) {
      best.second = SweepVerdict{sp.heights[i], 0, t_non[i], 0};
      seen_n = true;
    }
  }
  return best;
}

/// Events per second of a bare sim::Engine self-rescheduling chain.
double engine_events_per_s() {
  struct Tick {
    tilo::sim::Engine* e;
    int* remaining;
    void operator()() const {
      if (--*remaining > 0) e->after(10, *this);
    }
  };
  constexpr int kChain = 200000;
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    tilo::sim::Engine e;
    int remaining = kChain;
    const std::int64_t t0 = now_ns();
    e.after(10, Tick{&e, &remaining});
    e.run();
    rates.push_back(double(e.events_processed()) /
                    (double(now_ns() - t0) / 1e9));
  }
  return median(rates);
}

/// Host time of one message through msg::Cluster's pipeline (ideal model,
/// the paper's space-i message size).
double message_us() {
  const auto model = std::make_shared<const tilo::mach::IdealOverlapModel>(
      tilo::mach::MachineParams::paper_cluster());
  constexpr int kMsgs = 2000;
  std::vector<double> per;
  for (int rep = 0; rep < 5; ++rep) {
    const std::int64_t t0 = now_ns();
    tilo::msg::Cluster c(2, model);
    for (int i = 0; i < kMsgs; ++i) c.node(1).irecv(0, i);
    c.engine().at(0, [&] {
      for (int i = 0; i < kMsgs; ++i) c.node(0).isend(1, i, 7104);
    });
    c.run();
    per.push_back(double(now_ns() - t0) / 1e3 / kMsgs);
  }
  return median(per);
}

}  // namespace

void trace_tune(const RunConfig& cfg, Result& out, bool named) {
  const std::vector<int> order = space_order(cfg.seed);
  const std::vector<Space> spaces = make_spaces();
  constexpr int kRounds = 2;  // each space twice

  // The verdicts the replay must reproduce (this also warms up), then the
  // replay untraced (named only), then traced.
  std::vector<SweepSelection> sels;
  for (const Space& sp : spaces)
    sels.push_back(
        tilo::core::sweep_select(sp.problem, sp.heights, sweep_options()));
  const std::int64_t u0 = now_ns();
  std::uint64_t untraced_events = 0;
  for (int round = 0; named && round < kRounds; ++round)
    for (const int s : order)
      (void)replay_op(spaces[std::size_t(s)], nullptr, -1, nullptr,
                      &untraced_events);
  const double untraced_ms =
      double(now_ns() - u0) / 1e6 / double(kRounds * order.size());

  Tracer tr;
  std::vector<std::pair<i64, double>> runs;
  std::uint64_t events = 0;
  std::int64_t op = 0;
  double prune_num = 0, prune_den = 0;
  for (int round = 0; round < kRounds; ++round)
    for (const int s : order) {
      const Space& sp = spaces[std::size_t(s)];
      const auto best = replay_op(sp, &tr, op++, &runs, &events);
      const SweepSelection& sel = sels[std::size_t(s)];
      out.check(best.first.V == sel.best_overlap.V &&
                    same_bits(best.first.t, sel.best_overlap.t) &&
                    best.second.V == sel.best_nonoverlap.V &&
                    same_bits(best.second.t, sel.best_nonoverlap.t),
                std::string("traced tune replay disagrees with sweep_select "
                            "on space ") + kSpaceNames[s]);
      prune_num += double(sel.simulated_runs);
      prune_den += double(sel.total_runs);
    }

  const std::vector<SpanRec> spans = tr.spans();
  double wall_ms = 0, layers_ms = 0;
  std::map<std::string, double> layer_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) continue;
    wall_ms += double(spans[i].end - spans[i].start) / 1e6;
    for (const auto& [name, ns] : attribute_children(spans, int(i))) {
      layer_ms[name] += ns / 1e6;
      layers_ms += ns / 1e6;
    }
  }
  auto calls = self_times(spans);
  const std::vector<double>& run_ns = calls["exec.run_plan"];
  double run_total_ms = 0;
  for (const double ns : run_ns) run_total_ms += ns / 1e6;
  const double nops = double(op);
  out.set("core.rank_ms", median(calls["core.rank"]) / 1e6, "ms");
  out.set("core.plan_us", median(calls["core.plan"]) / 1e3, "us");
  out.set("exec.run_plan_us", median(run_ns) / 1e3, "us");
  out.set("exec.runs", double(run_ns.size()) / nops, "count");
  std::vector<tilo::mach::CostSample> samples;
  for (const auto& [ev, secs] : runs) samples.push_back({ev, secs});
  const tilo::mach::AffineCost fit = tilo::mach::fit_affine(samples);
  out.set("exec.run_fixed_us", fit.base * 1e6, "us");
  out.set("exec.run_event_ns", fit.per_byte * 1e9, "ns");
  out.set("sim.events", double(events) / nops, "count");
  out.set("core.prune_ratio", prune_num / prune_den, "ratio");
  out.set("sim.engine_events_per_s", engine_events_per_s(), "1/s");
  out.set("msg.message_us", message_us(), "us");
  out.set("core.pool_efficiency",
          run_total_ms / (wall_ms * kThreads), "ratio");
  if (named) {
    const double traced_ms = wall_ms / nops;
    report_accounting(out, untraced_ms, traced_ms, layers_ms / nops,
                      1e3 / untraced_ms, 1e3 / traced_ms);
    for (const auto& [name, ms] : layer_ms)
      note("  layer " + name + " self " + std::to_string(ms / nops) +
           " ms/op");
  }
  tr.write_chrome(cfg.trace_dir + "/trace-tune.json");
}

}  // namespace perfbench
