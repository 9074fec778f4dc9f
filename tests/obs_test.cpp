// Tests for the observability layer (src/tilo/obs): histogram bucket
// boundaries, the Chrome-trace golden for a tiny 2-rank run, RunReport's
// reconciliation with RunResult, counter plumbing, sink determinism and
// the PlanCache problem-identity guard.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "tilo/core/plancache.hpp"
#include "tilo/core/problem.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/exec/run.hpp"
#include "tilo/loopnest/workloads.hpp"
#include "tilo/obs/chrome_trace.hpp"
#include "tilo/obs/jsonl.hpp"
#include "tilo/obs/registry.hpp"
#include "tilo/obs/report.hpp"
#include "tilo/trace/timeline.hpp"

using namespace tilo;
using obs::LogHistogram;
using obs::Phase;
using sched::ScheduleKind;
using util::i64;

namespace {

/// Round-number costs (matching msg_test): fill_mpi = 10 us, fill_kernel =
/// 20 us, wire = 1 us/B, latency = 5 us, t_c = 1 us — so every span edge
/// in the golden below is a whole microsecond.
std::shared_ptr<const mach::Model> round_model() {
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 1e-6;
  p.bytes_per_element = 4;
  p.wire_latency = 5e-6;
  p.fill_mpi_buffer = mach::AffineCost{10e-6, 0.0};
  p.fill_kernel_buffer = mach::AffineCost{20e-6, 0.0};
  return std::make_shared<mach::IdealOverlapModel>(p);
}

/// The tiny 2-rank workload: a 4x2x4 stencil cut into 2x2x2 tiles, two
/// tile columns mapped to two ranks (two tiles per rank, two messages
/// rank 0 -> rank 1).
exec::TilePlan tiny_plan(const loop::LoopNest& nest, ScheduleKind kind) {
  return exec::make_plan_with_procs(nest, tile::RectTiling(lat::Vec{2, 2, 2}),
                                    kind, lat::Vec{1, 1, 2});
}

}  // namespace

TEST(LogHistogramTest, BucketBoundaries) {
  // Bucket 0 = [0, 1], bucket i = (2^(i-1), 2^i].
  EXPECT_EQ(LogHistogram::bucket_of(0), 0);
  EXPECT_EQ(LogHistogram::bucket_of(1), 0);
  EXPECT_EQ(LogHistogram::bucket_of(2), 1);
  EXPECT_EQ(LogHistogram::bucket_of(3), 2);
  EXPECT_EQ(LogHistogram::bucket_of(4), 2);
  EXPECT_EQ(LogHistogram::bucket_of(5), 3);
  EXPECT_EQ(LogHistogram::bucket_of(8), 3);
  EXPECT_EQ(LogHistogram::bucket_of(9), 4);
  EXPECT_EQ(LogHistogram::bucket_of((i64{1} << 20)), 20);
  EXPECT_EQ(LogHistogram::bucket_of((i64{1} << 20) + 1), 21);
  // Negative durations clamp into bucket 0; beyond-the-top durations land
  // in the last bucket.
  EXPECT_EQ(LogHistogram::bucket_of(-5), 0);
  EXPECT_EQ(LogHistogram::bucket_of(std::numeric_limits<i64>::max()),
            LogHistogram::kBuckets - 1);

  // Edges are consistent with membership: lo(i) < dt <= hi(i).
  for (int b = 0; b < LogHistogram::kBuckets - 1; ++b) {
    EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_hi(b)), b);
    EXPECT_EQ(LogHistogram::bucket_of(LogHistogram::bucket_hi(b) + 1), b + 1);
    EXPECT_LT(LogHistogram::bucket_lo(b), LogHistogram::bucket_hi(b));
  }

  LogHistogram h;
  h.add(1);
  h.add(2);
  h.add(1024);
  h.add(-7);  // clamped: counted in bucket 0, contributes 0 to the sum
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(1), 1u);
  EXPECT_EQ(h.count(10), 1u);
  EXPECT_EQ(h.total_count(), 4u);
  EXPECT_EQ(h.sum_ns(), 1027);
}

TEST(RegistryTest, SpansLandInPhaseHistogramsAndCountersAccumulate) {
  obs::Registry reg;
  reg.span(0, Phase::kCompute, 0, 1000);
  reg.span(1, Phase::kCompute, 500, 1500);
  reg.span(0, Phase::kWire, 0, 8);
  reg.host_span("sweep", 10, 20, 0);
  reg.counter("x", 1.0);
  reg.counter("x", 2.5);
  reg.counter("y", -1.0);

  EXPECT_EQ(reg.phase_histogram(Phase::kCompute).total_count(), 2u);
  EXPECT_EQ(reg.phase_histogram(Phase::kCompute).sum_ns(), 2000);
  EXPECT_EQ(reg.phase_histogram(Phase::kWire).sum_ns(), 8);
  EXPECT_EQ(reg.phase_histogram(Phase::kBlocked).total_count(), 0u);
  EXPECT_EQ(reg.host_histogram().sum_ns(), 10);
  EXPECT_DOUBLE_EQ(reg.counter_value("x"), 3.5);
  EXPECT_DOUBLE_EQ(reg.counter_value("y"), -1.0);
  EXPECT_DOUBLE_EQ(reg.counter_value("never"), 0.0);
  const auto all = reg.counters();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, "x");  // sorted by name
  EXPECT_EQ(all[1].first, "y");
}

TEST(PhaseTest, PaperTermMapping) {
  EXPECT_STREQ(obs::phase_paper_term(Phase::kFillMpiSend), "A1");
  EXPECT_STREQ(obs::phase_paper_term(Phase::kCompute), "A2");
  EXPECT_STREQ(obs::phase_paper_term(Phase::kFillMpiRecv), "A3");
  EXPECT_STREQ(obs::phase_paper_term(Phase::kKernelRecv), "B2");
  EXPECT_STREQ(obs::phase_paper_term(Phase::kKernelSend), "B3");
  EXPECT_STREQ(obs::phase_paper_term(Phase::kWire), "B1-B4");
  for (const Phase p : obs::kAllPhases) {
    EXPECT_EQ(obs::is_cpu_phase(p),
              p == Phase::kCompute || p == Phase::kFillMpiSend ||
                  p == Phase::kFillMpiRecv);
    EXPECT_EQ(obs::is_comm_phase(p),
              p == Phase::kWire || p == Phase::kKernelSend ||
                  p == Phase::kKernelRecv);
  }
}

// The golden Chrome trace of the tiny 2-rank overlapping run.  Captured
// from the simulator's deterministic (time, seq) event order; any change
// here means either the executors' scheduling or the exporter's format
// drifted — both must be deliberate.
const char* kTinyTraceGolden = R"({"traceEvents":[
{"ph":"M","pid":0,"name":"process_name","args":{"name":"sim"}},
{"ph":"M","pid":1,"name":"process_name","args":{"name":"host"}},
{"ph":"M","pid":0,"tid":0,"name":"thread_name","args":{"name":"rank 0"}},
{"ph":"M","pid":0,"tid":1,"name":"thread_name","args":{"name":"rank 1"}},
{"ph":"X","pid":0,"tid":0,"name":"compute","cat":"A2","ts":0.000,"dur":8.000},
{"ph":"X","pid":0,"tid":0,"name":"fill-mpi-send","cat":"A1","ts":8.000,"dur":10.000},
{"ph":"X","pid":0,"tid":0,"name":"kernel-copy-send","cat":"B3","ts":18.000,"dur":20.000},
{"ph":"X","pid":0,"tid":0,"name":"wire","cat":"B1-B4","ts":38.000,"dur":8.000},
{"ph":"X","pid":0,"tid":0,"name":"compute","cat":"A2","ts":18.000,"dur":8.000},
{"ph":"X","pid":0,"tid":0,"name":"blocked","cat":"-","ts":26.000,"dur":20.000,"args":{"label":"wait-send"}},
{"ph":"X","pid":0,"tid":0,"name":"fill-mpi-send","cat":"A1","ts":46.000,"dur":10.000},
{"ph":"X","pid":0,"tid":1,"name":"wire","cat":"B1-B4","ts":51.000,"dur":8.000},
{"ph":"X","pid":0,"tid":1,"name":"kernel-copy-recv","cat":"B2","ts":59.000,"dur":20.000},
{"ph":"X","pid":0,"tid":0,"name":"kernel-copy-send","cat":"B3","ts":56.000,"dur":20.000},
{"ph":"X","pid":0,"tid":0,"name":"wire","cat":"B1-B4","ts":76.000,"dur":8.000},
{"ph":"X","pid":0,"tid":1,"name":"blocked","cat":"-","ts":0.000,"dur":79.000,"args":{"label":"wait-recv"}},
{"ph":"X","pid":0,"tid":1,"name":"fill-mpi-recv","cat":"A3","ts":79.000,"dur":10.000},
{"ph":"X","pid":0,"tid":0,"name":"blocked","cat":"-","ts":56.000,"dur":28.000,"args":{"label":"wait-send"}},
{"ph":"X","pid":0,"tid":1,"name":"wire","cat":"B1-B4","ts":89.000,"dur":8.000},
{"ph":"X","pid":0,"tid":1,"name":"kernel-copy-recv","cat":"B2","ts":97.000,"dur":20.000},
{"ph":"X","pid":0,"tid":1,"name":"compute","cat":"A2","ts":89.000,"dur":8.000},
{"ph":"X","pid":0,"tid":1,"name":"blocked","cat":"-","ts":97.000,"dur":20.000,"args":{"label":"wait-recv"}},
{"ph":"X","pid":0,"tid":1,"name":"fill-mpi-recv","cat":"A3","ts":117.000,"dur":10.000},
{"ph":"X","pid":0,"tid":1,"name":"compute","cat":"A2","ts":127.000,"dur":8.000}
],"displayTimeUnit":"ns","otherData":{"engine.drains":1,"engine.events":12,"run.bytes":32,"run.halo_bytes":232,"run.messages":2,"run.ranks":2,"run.runs":1}}
)";

TEST(ChromeTraceTest, TinyTwoRankRunMatchesGolden) {
  const loop::LoopNest nest = loop::stencil3d_nest(4, 2, 4);
  const exec::TilePlan plan = tiny_plan(nest, ScheduleKind::kOverlap);
  obs::ChromeTraceSink chrome;
  exec::RunOptions opts;
  opts.sink = &chrome;
  exec::run_plan(nest, plan, round_model(), opts);
  EXPECT_EQ(chrome.size(), 20u);
  std::ostringstream os;
  chrome.write(os);
  EXPECT_EQ(os.str(), kTinyTraceGolden);
}

TEST(ChromeTraceTest, HostSpansRebaseToEarliestAndKeepLanes) {
  obs::ChromeTraceSink chrome;
  chrome.host_span("late", 2'000'000, 2'500'000, 1);
  chrome.host_span("early", 1'000'000, 1'250'000, 0);
  std::ostringstream os;
  chrome.write(os);
  const std::string text = os.str();
  // Rebased to the earliest host span: "early" starts at 0, "late" 1 ms in.
  EXPECT_NE(text.find("{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"late\","
                      "\"cat\":\"host\",\"ts\":1000.000,\"dur\":500.000}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"name\":\"early\","
                      "\"cat\":\"host\",\"ts\":0.000,\"dur\":250.000}"),
            std::string::npos)
      << text;
}

TEST(JsonlSinkTest, EmitsOneObjectPerLine) {
  std::ostringstream os;
  obs::JsonlSink sink(os);
  sink.span(0, Phase::kCompute, 0, 125);
  sink.span(1, Phase::kBlocked, 10, 35, "wait-recv");
  sink.host_span("sweep V=64", 100, 200, 2);
  sink.counter("run.messages", 888);
  EXPECT_EQ(os.str(),
            "{\"type\":\"span\",\"node\":0,\"phase\":\"compute\","
            "\"paper\":\"A2\",\"start_ns\":0,\"end_ns\":125}\n"
            "{\"type\":\"span\",\"node\":1,\"phase\":\"blocked\","
            "\"paper\":\"-\",\"start_ns\":10,\"end_ns\":35,"
            "\"label\":\"wait-recv\"}\n"
            "{\"type\":\"host_span\",\"name\":\"sweep V=64\",\"lane\":2,"
            "\"start_ns\":100,\"end_ns\":200}\n"
            "{\"type\":\"counter\",\"name\":\"run.messages\","
            "\"delta\":888}\n");
}

TEST(RunReportTest, MakespanReconcilesWithRunResultWithinOneUlp) {
  const core::Problem problem = core::paper_problem_i();
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const exec::TilePlan plan = problem.plan(444, kind);
    obs::ReportSink sink;
    exec::RunOptions opts;
    opts.sink = &sink;
    const exec::RunResult r =
        exec::run_plan(problem.nest, plan, problem.cost_model(), opts);
    const obs::RunReport rep = sink.report();

    // The last span to end IS the completion event, so the integer-ns
    // makespans agree exactly and the seconds within 1 ulp.
    EXPECT_EQ(rep.makespan, r.completion);
    const double rep_seconds = sim::to_seconds(rep.makespan);
    EXPECT_LE(std::abs(rep_seconds - r.seconds),
              std::nextafter(r.seconds, INFINITY) - r.seconds);

    EXPECT_EQ(static_cast<int>(rep.ranks.size()), 16);
    EXPECT_GE(rep.critical_rank, 0);
    EXPECT_GE(rep.overlap_efficiency, 1.0);  // can never beat the bound
    EXPECT_GT(rep.total_cpu_ns, 0);
    EXPECT_GT(rep.total_comm_ns, 0);
    EXPECT_GT(rep.mean_compute_utilization, 0.0);
    EXPECT_LE(rep.max_compute_utilization, 1.0);
  }
}

TEST(RunReportTest, OverlapRunCpuPlusBlockedPartitionsEachRank) {
  // In the nonblocking executor every rank's CPU timeline is a partition
  // of [0, rank end]: A-phases and blocked waits, nothing else, no gaps.
  // (The blocking executor spends CPU inside blocking sends without a
  // span, so the identity is specific to the overlap program.)
  const core::Problem problem = core::paper_problem_iii();
  const exec::TilePlan plan = problem.plan(64, ScheduleKind::kOverlap);
  obs::ReportSink sink;
  exec::RunOptions opts;
  opts.sink = &sink;
  exec::run_plan(problem.nest, plan, problem.cost_model(), opts);
  const obs::RunReport rep = sink.report();
  ASSERT_FALSE(rep.ranks.empty());
  for (const obs::RankBreakdown& r : rep.ranks)
    EXPECT_EQ(r.cpu_ns() + r.blocked_ns(), r.end_ns) << "rank " << r.node;
}

TEST(RunReportTest, OverlapScheduleRaisesMeanComputeUtilization) {
  // The paper's Section 4 argument, measured: at the same grain the
  // pipelined schedule computes a strictly larger share of the makespan.
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 512);
  double util[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    const auto kind =
        i == 0 ? ScheduleKind::kNonOverlap : ScheduleKind::kOverlap;
    const exec::TilePlan plan =
        exec::make_plan(nest, tile::RectTiling(lat::Vec{4, 4, 32}), kind);
    obs::ReportSink sink;
    exec::RunOptions opts;
    opts.sink = &sink;
    const auto model = std::make_shared<mach::IdealOverlapModel>(
        mach::MachineParams::paper_cluster());
    exec::run_plan(nest, plan, model, opts);
    util[i] = sink.report().mean_compute_utilization;
  }
  EXPECT_GT(util[1], util[0]);
}

TEST(RunReportTest, EachRankCpuTimeFitsInTheMakespan) {
  const loop::LoopNest nest = loop::stencil3d_nest(8, 8, 64);
  const exec::TilePlan plan = exec::make_plan(
      nest, tile::RectTiling(lat::Vec{4, 4, 8}), ScheduleKind::kOverlap);
  obs::ReportSink sink;
  exec::RunOptions opts;
  opts.sink = &sink;
  const auto model = std::make_shared<mach::IdealOverlapModel>(
      mach::MachineParams::paper_cluster());
  exec::run_plan(nest, plan, model, opts);
  const obs::RunReport rep = sink.report();
  ASSERT_FALSE(rep.ranks.empty());
  for (const obs::RankBreakdown& r : rep.ranks)
    EXPECT_LE(r.cpu_ns(), rep.makespan) << "rank " << r.node;
}

TEST(RunReportTest, WriteOutputsContainSummary) {
  const loop::LoopNest nest = loop::stencil3d_nest(4, 2, 4);
  obs::ReportSink sink;
  exec::RunOptions opts;
  opts.sink = &sink;
  exec::run_plan(nest, tiny_plan(nest, ScheduleKind::kOverlap),
                 round_model(), opts);
  const obs::RunReport rep = sink.report();
  std::ostringstream table;
  rep.write_table(table);
  EXPECT_NE(table.str().find("overlap efficiency"), std::string::npos);
  EXPECT_NE(table.str().find("A2"), std::string::npos);
  std::ostringstream json;
  rep.write_json(json);
  EXPECT_NE(json.str().find("\"makespan_ns\":135000"), std::string::npos);
  EXPECT_NE(json.str().find("\"ranks\":["), std::string::npos);
}

TEST(SinkDeterminismTest, EnablingSinksNeverChangesTheRun) {
  // Observation must be pure: the (time, seq) trace — and therefore the
  // completion time, event count and message count — is identical with no
  // sink, with one sink, and with a fan-out of every sink type.
  const core::Problem problem = core::paper_problem_i();
  for (const ScheduleKind kind :
       {ScheduleKind::kOverlap, ScheduleKind::kNonOverlap}) {
    const exec::TilePlan plan = problem.plan(444, kind);
    const exec::RunResult bare =
        exec::run_plan(problem.nest, plan, problem.cost_model());

    obs::Registry reg;
    obs::ChromeTraceSink chrome;
    obs::ReportSink report;
    trace::Timeline timeline;
    std::ostringstream jsonl_os;
    obs::JsonlSink jsonl(jsonl_os);
    obs::MultiSink fan;
    fan.add(&reg);
    fan.add(&chrome);
    fan.add(&report);
    fan.add(&timeline);
    fan.add(&jsonl);
    fan.add(nullptr);  // null entries are skipped, not dereferenced
    exec::RunOptions opts;
    opts.sink = &fan;
    const exec::RunResult observed =
        exec::run_plan(problem.nest, plan, problem.cost_model(), opts);

    EXPECT_EQ(bare.completion, observed.completion);
    EXPECT_EQ(bare.events, observed.events);
    EXPECT_EQ(bare.messages, observed.messages);
    EXPECT_EQ(bare.bytes, observed.bytes);

    // Every fan-out target saw the same spans.
    EXPECT_EQ(reg.phase_histogram(Phase::kCompute).sum_ns(),
              report.report().ranks.empty()
                  ? 0
                  : [&] {
                      obs::Time acc = 0;
                      for (const auto& r : report.report().ranks)
                        acc += r.time(Phase::kCompute);
                      return acc;
                    }());
    // Timeline and ChromeTraceSink buffered the same spans (run_plan emits
    // no host spans, and counters are not buffered as events).
    EXPECT_EQ(timeline.intervals().size(), chrome.size());
    EXPECT_GT(chrome.size(), 0u);
    EXPECT_FALSE(jsonl_os.str().empty());
  }
}

TEST(SinkDeterminismTest, ChromeTraceByteIdenticalAcrossRuns) {
  const loop::LoopNest nest = loop::stencil3d_nest(4, 2, 4);
  const exec::TilePlan plan = tiny_plan(nest, ScheduleKind::kNonOverlap);
  std::string first;
  for (int i = 0; i < 2; ++i) {
    obs::ChromeTraceSink chrome;
    exec::RunOptions opts;
    opts.sink = &chrome;
    exec::run_plan(nest, plan, round_model(), opts);
    std::ostringstream os;
    chrome.write(os);
    if (i == 0)
      first = os.str();
    else
      EXPECT_EQ(first, os.str());
  }
  EXPECT_FALSE(first.empty());
}

// Timeline is an ordinary obs::Sink (the deprecated raw-Timeline run_plan
// overload is gone): RunOptions::sink records the same intervals.
TEST(TimelineSinkTest, RecordsViaRunOptions) {
  const loop::LoopNest nest = loop::stencil3d_nest(4, 2, 4);
  const exec::TilePlan plan = tiny_plan(nest, ScheduleKind::kOverlap);
  trace::Timeline tl;
  exec::RunOptions opts;
  opts.sink = &tl;
  const exec::RunResult r = exec::run_plan(nest, plan, round_model(), opts);
  EXPECT_EQ(r.completion, 135000);
  EXPECT_EQ(tl.intervals().size(), 20u);
}

TEST(PlanCacheTest, RejectsADifferentProblem) {
  core::PlanCache cache;
  const core::Problem a = core::paper_problem_i();
  core::Problem b = core::paper_problem_i();
  EXPECT_NO_THROW(cache.get(a, 64, ScheduleKind::kOverlap));
  // The identical problem (even another instance) is fine...
  EXPECT_NO_THROW(cache.get(b, 64, ScheduleKind::kNonOverlap));
  // ...but any identity-relevant difference throws instead of silently
  // serving plans built for the wrong problem.
  b.machine.t_c *= 2.0;
  EXPECT_THROW(cache.get(b, 64, ScheduleKind::kOverlap), util::Error);
  EXPECT_THROW(cache.get(core::paper_problem_ii(), 64,
                         ScheduleKind::kOverlap),
               util::Error);
  // The original problem keeps working after rejected lookups.
  EXPECT_NO_THROW(cache.get(a, 128, ScheduleKind::kOverlap));
}

TEST(SweepSinkTest, SweepEmitsHostSpansAndForwardsRunSpans) {
  const core::Problem problem = core::paper_problem_iii();
  obs::Registry reg;
  core::SweepOptions opts;
  opts.sink = &reg;
  const auto pts =
      core::sweep_tile_height(problem, {64, 128}, opts);
  ASSERT_EQ(pts.size(), 2u);
  // One host span per sweep point...
  EXPECT_EQ(reg.host_histogram().total_count(), 2u);
  EXPECT_DOUBLE_EQ(reg.counter_value("sweep.points"), 2.0);
  // ...and the runs' spans / counters flowed through the same sink (two
  // schedules per point → 4 runs).
  EXPECT_DOUBLE_EQ(reg.counter_value("run.runs"), 4.0);
  EXPECT_GT(reg.phase_histogram(Phase::kCompute).total_count(), 0u);
}

TEST(SweepSinkTest, ParallelSweepWithSharedRegistryMatchesSerial) {
  const core::Problem problem = core::paper_problem_iii();
  obs::Registry serial_reg;
  core::SweepOptions serial;
  serial.sink = &serial_reg;
  const auto a = core::sweep_tile_height(problem, {64, 128, 256}, serial);

  obs::Registry par_reg;
  core::SweepOptions parallel;
  parallel.threads = 3;
  parallel.sink = &par_reg;
  const auto b = core::sweep_tile_height(problem, {64, 128, 256}, parallel);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].t_overlap, b[i].t_overlap);
    EXPECT_EQ(a[i].t_nonoverlap, b[i].t_nonoverlap);
    EXPECT_EQ(a[i].events, b[i].events);
  }
  // The shared registry aggregates the same simulated time regardless of
  // the thread interleaving.
  for (const Phase p : obs::kAllPhases)
    EXPECT_EQ(serial_reg.phase_histogram(p).sum_ns(),
              par_reg.phase_histogram(p).sum_ns())
        << obs::phase_name(p);
}
