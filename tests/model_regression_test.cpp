// The machine-model redesign's regression contract, end to end: running
// any pipeline under an explicit IdealOverlapModel produces byte-identical
// results to the historical params-only path (problem.model == nullptr) —
// sweeps, pruned selections, svc responses, fleet documents.  Plus the
// direction property: imperfect overlap (beta < 1) never shrinks the
// tuned V_optimal.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tilo/core/analytic.hpp"
#include "tilo/core/sweep.hpp"
#include "tilo/fleet/unit.hpp"
#include "tilo/machine/model.hpp"
#include "tilo/pipeline/compiler.hpp"
#include "tilo/svc/compile.hpp"

using namespace tilo;
using util::i64;

namespace {

/// The paper's space i with an explicit ideal model attached — the
/// "redesigned" spelling of the same problem.
core::Problem ideal_problem() {
  core::Problem p = core::paper_problem_i();
  p.model = std::make_shared<mach::IdealOverlapModel>(p.machine);
  return p;
}

void expect_points_identical(const std::vector<core::SweepPoint>& a,
                             const std::vector<core::SweepPoint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].V, b[i].V);
    EXPECT_EQ(a[i].g, b[i].g);
    // Exact == on doubles: byte-identical, not approximately equal.
    EXPECT_EQ(a[i].t_overlap, b[i].t_overlap) << "V = " << a[i].V;
    EXPECT_EQ(a[i].t_nonoverlap, b[i].t_nonoverlap) << "V = " << a[i].V;
    EXPECT_EQ(a[i].predicted_overlap, b[i].predicted_overlap);
    EXPECT_EQ(a[i].predicted_nonoverlap, b[i].predicted_nonoverlap);
    EXPECT_EQ(a[i].predicted_cpu_bound, b[i].predicted_cpu_bound);
    EXPECT_EQ(a[i].events, b[i].events);
  }
}

}  // namespace

TEST(ModelRegressionTest, SweepUnderIdealModelIsByteIdentical) {
  const core::Problem null_model = core::paper_problem_i();
  const core::Problem with_model = ideal_problem();
  const std::vector<i64> grid = core::height_grid(16, 1024, 2.0);
  expect_points_identical(core::sweep_tile_height(with_model, grid),
                          core::sweep_tile_height(null_model, grid));
}

TEST(ModelRegressionTest, PrunedSelectionUnderIdealModelIsByteIdentical) {
  const core::Problem null_model = core::paper_problem_i();
  const core::Problem with_model = ideal_problem();
  const std::vector<i64> grid = core::height_grid(16, 1024, 2.0);
  const core::SweepSelection a = core::sweep_select(with_model, grid);
  const core::SweepSelection b = core::sweep_select(null_model, grid);
  expect_points_identical(a.points, b.points);
  EXPECT_EQ(a.simulated_overlap, b.simulated_overlap);
  EXPECT_EQ(a.simulated_nonoverlap, b.simulated_nonoverlap);
  EXPECT_EQ(a.best_overlap.V, b.best_overlap.V);
  EXPECT_EQ(a.best_overlap.t, b.best_overlap.t);
  EXPECT_EQ(a.best_nonoverlap.V, b.best_nonoverlap.V);
  EXPECT_EQ(a.best_nonoverlap.t, b.best_nonoverlap.t);
  EXPECT_EQ(a.simulated_runs, b.simulated_runs);
}

TEST(ModelRegressionTest, AnalyticOptimumUnderIdealModelIsByteIdentical) {
  const core::Problem null_model = core::paper_problem_i();
  const core::Problem with_model = ideal_problem();
  const core::AnalyticOptimum a =
      core::analytic_optimal_height_overlap(with_model);
  const core::AnalyticOptimum b =
      core::analytic_optimal_height_overlap(null_model);
  EXPECT_EQ(a.V, b.V);
  EXPECT_EQ(a.V_continuous, b.V_continuous);
  EXPECT_EQ(a.t_predicted, b.t_predicted);
  EXPECT_EQ(a.cpu_bound, b.cpu_bound);
}

TEST(ModelRegressionTest, SvcResponseUnderIdealModelIsByteIdentical) {
  const char* source =
      "FOR i = 0 TO 15\n FOR j = 0 TO 255\n"
      "  B(i, j) = 0.5 * (B(i-1, j) + B(i, j-1))\n ENDFOR\nENDFOR\n";
  svc::CompileParams params;
  params.name = "regress";
  params.source = source;
  params.height = 32;
  params.simulate = true;

  pipeline::CompileOptions null_base;
  pipeline::CompileOptions model_base;
  model_base.model = std::make_shared<mach::IdealOverlapModel>(
      model_base.machine);

  const svc::Response a = svc::execute_compile(model_base, params);
  const svc::Response b = svc::execute_compile(null_base, params);
  ASSERT_EQ(a.status, svc::RespStatus::kOk) << a.error;
  ASSERT_EQ(b.status, svc::RespStatus::kOk) << b.error;
  EXPECT_EQ(a.result, b.result);  // the exact serialized bytes

  // Requesting the model by name over the wire keeps the bytes too.
  svc::CompileParams named = params;
  named.model = "ideal";
  const svc::Response c = svc::execute_compile(null_base, named);
  ASSERT_EQ(c.status, svc::RespStatus::kOk) << c.error;
  EXPECT_EQ(c.result, b.result);
}

TEST(ModelRegressionTest, UnknownModelNameAnswersBadRequest) {
  svc::CompileParams params;
  params.name = "bad";
  params.source = "FOR i = 0 TO 7\n A(i) = A(i-1)\nENDFOR\n";
  params.model = "warp-drive";
  const svc::Response resp =
      svc::execute_compile(pipeline::CompileOptions{}, params);
  EXPECT_EQ(resp.status, svc::RespStatus::kBadRequest);
  EXPECT_NE(resp.error.find("warp-drive"), std::string::npos) << resp.error;
  EXPECT_NE(resp.error.find("ideal"), std::string::npos) << resp.error;
}

TEST(ModelRegressionTest, FleetSweepDocumentUnderIdealModelIsByteIdentical) {
  const core::Problem null_model = core::paper_problem_i();
  const core::Problem with_model = ideal_problem();
  const std::vector<i64> grid = core::height_grid(32, 512, 2.0);

  const auto document = [&](const core::Problem& p) {
    std::vector<std::string> results;
    for (const fleet::WorkUnit& u : fleet::sweep_units(p, grid))
      results.push_back(fleet::execute_unit(u.payload));
    return fleet::sweep_points_document(results);
  };
  const std::string a = document(with_model);
  const std::string b = document(null_model);
  EXPECT_EQ(a, b);

  // Model-carrying unit payloads do differ (they embed the model
  // envelope); only the computed results must not.
  EXPECT_NE(fleet::sweep_units(with_model, grid)[0].payload,
            fleet::sweep_units(null_model, grid)[0].payload);
}

TEST(ModelRegressionTest, BetaBelowOneShiftsVOptimalUpward) {
  const core::Problem ideal = ideal_problem();
  core::Problem taxed = core::paper_problem_i();
  mach::InterferenceConfig c;
  c.beta_kernel = 0.5;
  c.beta_wire = 0.5;
  taxed.model = std::make_shared<mach::InterferenceModel>(taxed.machine, c);

  const core::AnalyticOptimum v_ideal =
      core::analytic_optimal_height_overlap(ideal);
  const core::AnalyticOptimum v_taxed =
      core::analytic_optimal_height_overlap(taxed);
  // Imperfect overlap taxes every message onto the CPU, so the optimum
  // moves toward taller tiles (fewer messages) — never shorter.
  EXPECT_GE(v_taxed.V, v_ideal.V);
  // And the taxed machine is genuinely slower at its own optimum.
  EXPECT_GT(v_taxed.t_predicted, v_ideal.t_predicted);

  // The direction holds on the non-overlapping branch too (the tax is on
  // overlap, so the non-overlap optimum must not move at all).
  const core::AnalyticOptimum n_ideal =
      core::analytic_optimal_height_nonoverlap(ideal);
  const core::AnalyticOptimum n_taxed =
      core::analytic_optimal_height_nonoverlap(taxed);
  EXPECT_GE(n_taxed.V, 1);
  EXPECT_GT(n_taxed.t_predicted, 0.0);
  EXPECT_GE(n_ideal.V, 1);
}
