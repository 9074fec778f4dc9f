// The staged compiler: per-stage invariant verifiers (every one has a
// negative test whose error names the failing stage), full compiles through
// pipeline::Compiler, scenario batches, and the PlanCache scopes.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "tilo/core/plancache.hpp"
#include "tilo/core/recommend.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/obs/chrome_trace.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/util/error.hpp"

namespace {

using namespace tilo;
using pipeline::Stage;
using sched::ScheduleKind;
using util::i64;

const char* kDemoSource = R"(FOR i = 0 TO 15
  FOR j = 0 TO 15
    FOR k = 0 TO 511
      A(i, j, k) = sqrt(A(i-1, j, k)) + sqrt(A(i, j-1, k)) + sqrt(A(i, j, k-1))
    ENDFOR
  ENDFOR
ENDFOR
)";

/// Runs `fn`, expects util::Error whose message contains `substr`.
template <typename Fn>
void expect_error_containing(Fn&& fn, const std::string& substr) {
  try {
    fn();
    FAIL() << "expected util::Error containing \"" << substr << "\"";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "actual message: " << e.what();
  }
}

pipeline::AnalysisArtifact demo_analysis(const lat::Vec& procs) {
  const loop::LoopNest nest = loop::parse_nest(kDemoSource);
  return pipeline::run_analysis(nest, mach::MachineParams::paper_cluster(),
                                procs, std::nullopt,
                                ScheduleKind::kOverlap);
}

// ------------------------------------------------------- stage negatives

TEST(PipelineStageErrors, FrontendNamesItselfOnEmptySource) {
  expect_error_containing(
      [] { pipeline::run_frontend({"empty.loop", ""}); },
      "pipeline stage Frontend");
}

TEST(PipelineStageErrors, AnalysisRejectsNegativeDependences) {
  const loop::LoopNest nest(
      "neg", lat::Box(lat::Vec{0, 0}, lat::Vec{7, 7}),
      loop::DependenceSet({lat::Vec{1, -1}}));
  expect_error_containing(
      [&] {
        pipeline::run_analysis(nest, mach::MachineParams::paper_cluster(),
                               std::nullopt, std::nullopt,
                               ScheduleKind::kOverlap);
      },
      "pipeline stage Analysis");
}

TEST(PipelineStageErrors, AnalysisRejectsOversubscribedAutoGrid) {
  const loop::LoopNest nest = loop::parse_nest(kDemoSource);
  // 1024 processors cannot factor into the 16x16 cross-section caps.
  expect_error_containing(
      [&] {
        pipeline::run_analysis(nest, mach::MachineParams::paper_cluster(),
                               std::nullopt, i64{1024},
                               ScheduleKind::kOverlap);
      },
      "pipeline stage Analysis");
}

TEST(PipelineStageErrors, TilingVerifierRejectsNonInversePair) {
  // H = I but P = 2I: H·P = 2I != I.
  const lat::RatMat H = lat::RatMat::identity(2);
  const lat::Mat P{{2, 0}, {0, 2}};
  expect_error_containing(
      [&] { pipeline::verify_supernode_identity(Stage::kTiling, H, P); },
      "pipeline stage Tiling");
}

TEST(PipelineStageErrors, TilingRejectsNonPositiveHeight) {
  const pipeline::AnalysisArtifact analysis =
      demo_analysis(lat::Vec{4, 4, 1});
  expect_error_containing(
      [&] { pipeline::run_tiling(analysis, i64{0}, ScheduleKind::kOverlap); },
      "pipeline stage Tiling");
}

TEST(PipelineStageErrors, SchedulingVerifierRejectsNon01TileDeps) {
  expect_error_containing(
      [] {
        pipeline::verify_tile_deps_01(Stage::kScheduling,
                                      {lat::Vec{2, 0, 0}});
      },
      "pipeline stage Scheduling");
}

TEST(PipelineStageErrors, SchedulingVerifierRejectsIllegalPi) {
  // Non-overlap Π = (1, 1, 1) but a communicating dependence under the
  // overlapping schedule needs Π·d >= 2.
  expect_error_containing(
      [] {
        pipeline::verify_pi_legality(Stage::kScheduling, lat::Vec{1, 1, 1},
                                     {lat::Vec{1, 0, 0}},
                                     ScheduleKind::kOverlap, 2);
      },
      "pipeline stage Scheduling");
}

TEST(PipelineStageErrors, SchedulingVerifierRejectsCausalityViolation) {
  expect_error_containing(
      [] {
        pipeline::verify_pi_legality(Stage::kScheduling, lat::Vec{0, 0, 1},
                                     {lat::Vec{1, 0, 0}},
                                     ScheduleKind::kNonOverlap, 2);
      },
      "pipeline stage Scheduling");
}

TEST(PipelineStageErrors, LoweringVerifierRejectsScheduleLengthMismatch) {
  const pipeline::AnalysisArtifact analysis =
      demo_analysis(lat::Vec{4, 4, 1});
  const pipeline::TilingArtifact tiling =
      pipeline::run_tiling(analysis, i64{64}, ScheduleKind::kOverlap);
  const pipeline::ScheduleArtifact schedule =
      pipeline::run_scheduling(analysis, tiling, ScheduleKind::kOverlap);
  const exec::TilePlan plan =
      analysis.problem.plan(64, ScheduleKind::kOverlap);
  expect_error_containing(
      [&] {
        pipeline::verify_lowered_plan(Stage::kLowering, plan, tiling.tiling,
                                      analysis.mapped_dim,
                                      analysis.problem.procs,
                                      schedule.length + 1);
      },
      "pipeline stage Lowering");
}

TEST(PipelineStageErrors, LoweringVerifierRejectsForeignTiling) {
  const pipeline::AnalysisArtifact analysis =
      demo_analysis(lat::Vec{4, 4, 1});
  const pipeline::TilingArtifact tiling =
      pipeline::run_tiling(analysis, i64{64}, ScheduleKind::kOverlap);
  const pipeline::ScheduleArtifact schedule =
      pipeline::run_scheduling(analysis, tiling, ScheduleKind::kOverlap);
  // A plan built at a different height than the Tiling stage chose.
  const exec::TilePlan plan =
      analysis.problem.plan(32, ScheduleKind::kOverlap);
  expect_error_containing(
      [&] {
        pipeline::verify_lowered_plan(Stage::kLowering, plan, tiling.tiling,
                                      analysis.mapped_dim,
                                      analysis.problem.procs,
                                      schedule.length);
      },
      "pipeline stage Lowering");
}

TEST(PipelineStageErrors, BackendRejectsFunctionalRunWithoutKernel) {
  // A nest without a body cannot execute functionally.
  const loop::LoopNest bare("bare",
                            lat::Box(lat::Vec{0, 0}, lat::Vec{7, 15}),
                            loop::DependenceSet({lat::Vec{1, 0}}));
  pipeline::CompileOptions opts;
  opts.procs = lat::Vec{1, 1};
  opts.functional = true;
  expect_error_containing(
      [&] { pipeline::Compiler(opts).compile_nest(bare); },
      "pipeline stage Backend");
}

TEST(PipelineStageErrors, StoreNamesConsumingStageWhenArtifactMissing) {
  const pipeline::ArtifactStore store;
  expect_error_containing([&] { store.tiling(Stage::kScheduling); },
                          "pipeline stage Scheduling");
  expect_error_containing([&] { store.plan(); }, "no plan artifact");
}

// ----------------------------------------------------------- full compiles

TEST(PipelineCompiler, CompileSourceProducesEveryArtifact) {
  pipeline::CompileOptions opts;
  opts.procs = lat::Vec{4, 4, 1};
  opts.height = i64{64};
  const pipeline::ArtifactStore out =
      pipeline::Compiler(opts).compile_source("demo", kDemoSource);
  EXPECT_TRUE(out.has_source());
  EXPECT_TRUE(out.has_nest());
  EXPECT_TRUE(out.has_analysis());
  EXPECT_TRUE(out.has_tiling());
  EXPECT_TRUE(out.has_schedule());
  EXPECT_TRUE(out.has_plan());
  EXPECT_TRUE(out.has_backend());
  EXPECT_EQ(out.tiling().V, 64);
  EXPECT_FALSE(out.tiling().analytic_height);
  EXPECT_EQ(out.schedule().length, out.plan().plan->schedule_length());
  ASSERT_TRUE(out.backend().run.has_value());

  // The pipeline's result matches a direct plan + run of the same problem.
  const core::Problem& problem = out.analysis().problem;
  const exec::TilePlan direct = problem.plan(64, ScheduleKind::kOverlap);
  const exec::RunResult reference =
      exec::run_plan(problem.nest, direct, problem.cost_model());
  EXPECT_EQ(out.backend().run->completion, reference.completion);
}

TEST(PipelineCompiler, MatchesRecommendPlan) {
  const loop::LoopNest nest = loop::parse_nest(kDemoSource);
  const mach::MachineParams machine = mach::MachineParams::paper_cluster();
  const core::Recommendation rec = core::recommend_plan(nest, machine, 16);

  pipeline::CompileOptions opts;
  opts.machine = machine;
  opts.auto_procs = i64{16};
  opts.simulate = false;
  const pipeline::ArtifactStore out =
      pipeline::Compiler(opts).compile_nest(nest);
  EXPECT_TRUE(out.analysis().auto_grid);
  EXPECT_EQ(out.analysis().problem.procs, rec.problem.procs);
  EXPECT_EQ(out.tiling().V, rec.V);
  EXPECT_EQ(out.plan().predicted_seconds, rec.predicted_seconds);
}

TEST(PipelineCompiler, StageSpansReachTheSink) {
  obs::ChromeTraceSink sink;
  pipeline::CompileOptions opts;
  opts.procs = lat::Vec{4, 4, 1};
  opts.height = i64{64};
  opts.sink = &sink;
  pipeline::Compiler(opts).compile_source("demo", kDemoSource);
  std::ostringstream os;
  sink.write(os);
  const std::string trace = os.str();
  for (const char* stage : {"pipeline.Frontend", "pipeline.Analysis",
                            "pipeline.Tiling", "pipeline.Scheduling",
                            "pipeline.Lowering", "pipeline.Backend"})
    EXPECT_NE(trace.find(stage), std::string::npos) << stage;
}

// --------------------------------------------------------------- scenarios

pipeline::ScenarioFile three_workload_scenario() {
  const std::string json = std::string(R"({"tilo": "scenario", "version": 1,
    "workloads": [
      {"name": "wl_overlap", "source": )") +
                           pipeline::Json::string(kDemoSource).dump() +
                           R"(, "procs": [4, 4, 1], "height": 64},
      {"name": "wl_nonoverlap", "source": )" +
                           pipeline::Json::string(kDemoSource).dump() +
                           R"(, "procs": [2, 2, 1], "height": 32,
       "schedule": "nonoverlap"},
      {"name": "wl_auto", "source": )" +
                           pipeline::Json::string(kDemoSource).dump() +
                           R"(, "auto_procs": 8}]})";
  return pipeline::parse_scenario(json);
}

TEST(PipelineScenario, OneInvocationCompilesThreeWorkloadsWithSpans) {
  obs::ChromeTraceSink sink;
  core::PlanCache cache(core::PlanCache::Scope::kMultiProblem);
  pipeline::CompileOptions opts;
  opts.plan_cache = &cache;
  opts.sink = &sink;
  const std::vector<pipeline::ArtifactStore> stores =
      pipeline::Compiler(opts).compile(three_workload_scenario());
  ASSERT_EQ(stores.size(), 3u);
  for (const pipeline::ArtifactStore& store : stores) {
    EXPECT_TRUE(store.has_backend());
    ASSERT_TRUE(store.backend().run.has_value());
    EXPECT_GT(store.backend().run->seconds, 0.0);
  }
  EXPECT_EQ(stores[0].schedule().kind, ScheduleKind::kOverlap);
  EXPECT_EQ(stores[1].schedule().kind, ScheduleKind::kNonOverlap);
  EXPECT_TRUE(stores[2].analysis().auto_grid);
  EXPECT_GT(cache.misses(), 0u);

  // Per-workload, per-stage spans are visible in the Chrome trace.
  std::ostringstream os;
  sink.write(os);
  const std::string trace = os.str();
  for (const char* span :
       {"pipeline.Frontend [wl_overlap]", "pipeline.Lowering [wl_overlap]",
        "pipeline.Backend [wl_nonoverlap]", "pipeline.Analysis [wl_auto]"})
    EXPECT_NE(trace.find(span), std::string::npos) << span;
}

TEST(PipelineScenario, WorkloadErrorsNameTheWorkloadAndStage) {
  const pipeline::ScenarioFile scenario = pipeline::parse_scenario(
      R"({"tilo": "scenario", "version": 1,
          "workloads": [{"name": "bad", "source": "not a loop nest"}]})");
  expect_error_containing(
      [&] { pipeline::Compiler().compile(scenario); }, "workload 'bad'");
}

TEST(PipelineScenario, RejectsWrongEnvelope) {
  expect_error_containing(
      [] { pipeline::parse_scenario(R"({"tilo": "plan", "version": 1})"); },
      "scenario");
  expect_error_containing(
      [] {
        pipeline::parse_scenario(
            R"({"tilo": "scenario", "version": 99, "workloads": []})");
      },
      "version");
}

// -------------------------------------------------------- plan cache scopes

TEST(PlanCacheScope, MultiProblemServesSeveralProblems) {
  core::PlanCache cache(core::PlanCache::Scope::kMultiProblem);
  const core::Problem a = core::paper_problem_i();
  const core::Problem b = core::paper_problem_iii();
  const auto pa = cache.get(a, 64, ScheduleKind::kOverlap);
  const auto pb = cache.get(b, 64, ScheduleKind::kOverlap);
  // Different problems get different plans, and each is cached under its
  // own identity: a second get is a hit that returns the same object.
  EXPECT_NE(pa->space.num_tiles(), pb->space.num_tiles());
  EXPECT_EQ(cache.get(a, 64, ScheduleKind::kOverlap).get(), pa.get());
  EXPECT_EQ(cache.get(b, 64, ScheduleKind::kOverlap).get(), pb.get());
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 2u);
  // The kind-sibling copy-flip still works per problem.
  const auto pa_non = cache.get(a, 64, ScheduleKind::kNonOverlap);
  EXPECT_EQ(pa_non->space.num_tiles(), pa->space.num_tiles());
  EXPECT_EQ(cache.hits(), 3u);
}

TEST(PlanCacheScope, SingleProblemStillRejectsAForeignProblem) {
  core::PlanCache cache;  // default scope
  EXPECT_EQ(cache.scope(), core::PlanCache::Scope::kSingleProblem);
  cache.get(core::paper_problem_i(), 64, ScheduleKind::kOverlap);
  EXPECT_THROW(
      cache.get(core::paper_problem_ii(), 64, ScheduleKind::kOverlap),
      util::Error);
}

}  // namespace
