// Serialization properties the pipeline guarantees: serialize →
// deserialize → serialize is byte-identical, and a deserialized plan
// replays to bit-identical simulation results — for all three paper
// spaces.  Plus schema-envelope and malformed-input failure modes.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tilo/core/recommend.hpp"
#include "tilo/loopnest/parse.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/pipeline/serialize.hpp"
#include "tilo/util/error.hpp"

namespace {

using namespace tilo;
using sched::ScheduleKind;
using util::i64;

std::vector<core::Problem> paper_problems() {
  return {core::paper_problem_i(), core::paper_problem_ii(),
          core::paper_problem_iii()};
}

TEST(PipelineSerialize, PlanRoundTripIsByteIdentical) {
  for (const core::Problem& problem : paper_problems()) {
    for (auto kind : {ScheduleKind::kNonOverlap, ScheduleKind::kOverlap}) {
      const exec::TilePlan plan = problem.plan(64, kind);
      const std::string once =
          pipeline::plan_to_json(problem.nest, problem.machine, plan).dump();
      const pipeline::PlanBundle bundle =
          pipeline::plan_from_json(pipeline::Json::parse(once));
      const std::string twice =
          pipeline::plan_to_json(bundle.nest, bundle.machine, bundle.plan)
              .dump();
      EXPECT_EQ(once, twice) << problem.nest.name();
    }
  }
}

TEST(PipelineSerialize, DeserializedPlanReplaysBitIdentically) {
  for (const core::Problem& problem : paper_problems()) {
    const exec::TilePlan plan = problem.plan(64, ScheduleKind::kOverlap);
    const exec::RunResult reference =
        exec::run_plan(problem.nest, plan, problem.cost_model());

    const pipeline::PlanBundle bundle = pipeline::plan_from_json(
        pipeline::Json::parse(
            pipeline::plan_to_json(problem.nest, problem.machine, plan)
                .dump()));
    const pipeline::ArtifactStore out = pipeline::Compiler().replay(
        bundle.nest, bundle.machine, bundle.plan);
    ASSERT_TRUE(out.backend().run.has_value());
    const exec::RunResult& replayed = *out.backend().run;
    EXPECT_EQ(replayed.completion, reference.completion)
        << problem.nest.name();
    EXPECT_EQ(replayed.messages, reference.messages);
    EXPECT_EQ(replayed.bytes, reference.bytes);
    EXPECT_EQ(replayed.events, reference.events);
  }
}

TEST(PipelineSerialize, BundleCarriesTheKernelForFunctionalReplay) {
  const core::Problem problem = core::paper_problem_iii();
  const exec::TilePlan plan = problem.plan(64, ScheduleKind::kOverlap);
  const pipeline::PlanBundle bundle = pipeline::plan_from_json(
      pipeline::Json::parse(
          pipeline::plan_to_json(problem.nest, problem.machine, plan)
              .dump()));
  // The source text rode along, so the reloaded nest still has its body.
  ASSERT_TRUE(bundle.nest.has_kernel());
  EXPECT_EQ(bundle.nest.domain(), problem.nest.domain());
  EXPECT_EQ(bundle.nest.deps().vectors(), problem.nest.deps().vectors());
}

TEST(PipelineSerialize, MachineRoundTripIsByteIdentical) {
  mach::MachineParams m = mach::MachineParams::paper_cluster();
  m.t_c = 1.0 / 3.0;  // exercise a non-terminating decimal
  const std::string once = pipeline::machine_to_json(m).dump();
  const mach::MachineParams back =
      pipeline::machine_from_json(pipeline::Json::parse(once));
  EXPECT_EQ(pipeline::machine_to_json(back).dump(), once);
  EXPECT_EQ(back.t_c, m.t_c);
  EXPECT_EQ(back.bytes_per_element, m.bytes_per_element);
  EXPECT_EQ(back.cache.capacity_bytes, m.cache.capacity_bytes);
}

TEST(PipelineSerialize, RecommendationRoundTripIsByteIdentical) {
  const core::Problem seed = core::paper_problem_iii();
  const core::Recommendation rec =
      core::recommend_plan(seed.nest, seed.machine, 16);
  const std::string once = pipeline::recommendation_to_json(rec).dump();
  const core::Recommendation back =
      pipeline::recommendation_from_json(pipeline::Json::parse(once));
  EXPECT_EQ(pipeline::recommendation_to_json(back).dump(), once);
  EXPECT_EQ(back.V, rec.V);
  EXPECT_EQ(back.predicted_seconds, rec.predicted_seconds);
  EXPECT_EQ(back.problem.procs, rec.problem.procs);
  EXPECT_EQ(back.analytic.V, rec.analytic.V);
}

TEST(PipelineSerialize, RejectsMalformedJson) {
  EXPECT_THROW(pipeline::Json::parse("{\"tilo\": "), util::Error);
  EXPECT_THROW(pipeline::Json::parse("{} trailing"), util::Error);
}

TEST(PipelineSerialize, RejectsWrongDocumentType) {
  try {
    pipeline::plan_from_json(
        pipeline::Json::parse(R"({"tilo": "scenario", "version": 1})"));
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("plan"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineSerialize, RejectsUnsupportedSchemaVersion) {
  const core::Problem problem = core::paper_problem_iii();
  pipeline::Json j = pipeline::plan_to_json(
      problem.nest, problem.machine,
      problem.plan(64, ScheduleKind::kOverlap));
  j.set("version", pipeline::Json::integer(99));
  try {
    pipeline::plan_from_json(j);
    FAIL() << "expected util::Error";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos)
        << e.what();
  }
}

TEST(PipelineSerialize, RejectsTamperedNest) {
  const core::Problem problem = core::paper_problem_iii();
  pipeline::Json j = pipeline::nest_to_json(problem.nest);
  // Claim a different domain than the embedded source parses to.
  pipeline::Json* domain = j.find("domain");
  ASSERT_NE(domain, nullptr);
  pipeline::Json hi = pipeline::Json::array();
  hi.push(pipeline::Json::integer(1));
  hi.push(pipeline::Json::integer(1));
  hi.push(pipeline::Json::integer(1));
  domain->set("hi", hi);
  EXPECT_THROW(pipeline::nest_from_json(j), util::Error);
}


TEST(PipelineSerialize, ModelEnvelopeRoundTripsByteIdentically) {
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  // One model of every serializable kind, each with non-default knobs so
  // the config block is exercised, not just the envelope.
  std::vector<std::shared_ptr<const mach::Model>> models;
  models.push_back(std::make_shared<mach::IdealOverlapModel>(p));
  for (const std::string& name : mach::model_names())
    models.push_back(mach::make_model(name, p));
  mach::InterferenceConfig ic;
  ic.beta_kernel = 0.63;
  ic.beta_wire = 0.91;
  ic.mcrit = 12288;
  ic.factor_below = 1.75;
  models.push_back(std::make_shared<mach::InterferenceModel>(p, ic));
  mach::HeteroConfig hc;
  hc.contention = 0.25;
  hc.links.push_back(mach::LinkParams{0, 3, 2.5e-9, 1.5e-5});
  models.push_back(std::make_shared<mach::HeteroLinkModel>(p, hc));

  for (const auto& model : models) {
    ASSERT_NE(model, nullptr);
    const std::string first = pipeline::model_to_json(*model).dump();
    const std::shared_ptr<const mach::Model> reloaded =
        pipeline::model_from_json(pipeline::Json::parse(first));
    ASSERT_NE(reloaded, nullptr) << model->kind();
    EXPECT_EQ(reloaded->kind(), model->kind());
    // Reserializing the reloaded model reproduces the exact bytes.
    EXPECT_EQ(pipeline::model_to_json(*reloaded).dump(), first)
        << model->kind();
    // And the reloaded model prices steps identically.
    mach::StepShape shape;
    shape.iterations = 16 * 444;
    shape.send_bytes = {4 * 444};
    shape.recv_bytes = {4 * 444};
    for (auto level :
         {mach::OverlapLevel::kNone, mach::OverlapLevel::kDma,
          mach::OverlapLevel::kDuplexDma})
      EXPECT_EQ(reloaded->step_seconds(shape, level),
                model->step_seconds(shape, level))
          << model->kind();
  }
}

TEST(PipelineSerialize, BareMachineParamsLoadAsIdealModel) {
  // Pre-redesign machine files are bare MachineParams JSON with no
  // envelope; they must keep loading, as an ideal model.
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const pipeline::Json bare = pipeline::machine_to_json(p);
  ASSERT_EQ(bare.find("tilo"), nullptr);
  const std::shared_ptr<const mach::Model> model =
      pipeline::model_from_json(bare);
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->ideal());
  // The params round-trip bit-for-bit through the bare reader.
  EXPECT_EQ(pipeline::machine_to_json(model->params()).dump(), bare.dump());
}

TEST(PipelineSerialize, ModelEnvelopeRejectsUnknownKind) {
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  pipeline::Json j =
      pipeline::model_to_json(mach::IdealOverlapModel(p));
  j.set("model", pipeline::Json::string("warp-drive"));
  try {
    pipeline::model_from_json(j);
    FAIL() << "unknown model kind must throw";
  } catch (const util::Error& e) {
    EXPECT_NE(std::string(e.what()).find("warp-drive"), std::string::npos)
        << e.what();
  }
}

}  // namespace
