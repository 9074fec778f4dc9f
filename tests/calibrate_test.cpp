// Tests for the measurement-driven calibration fitter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "tilo/machine/calibrate.hpp"
#include "tilo/msg/cluster.hpp"
#include "tilo/util/rng.hpp"

using namespace tilo;
using mach::AffineCost;
using mach::CostSample;

TEST(CalibrateTest, TwoPointsFitExactly) {
  const auto fit = mach::fit_affine({{100, 10e-6}, {300, 20e-6}});
  EXPECT_NEAR(fit.per_byte, 0.05e-6, 1e-12);
  EXPECT_NEAR(fit.base, 5e-6, 1e-12);
  EXPECT_NEAR(mach::fit_residual(fit, {{100, 10e-6}, {300, 20e-6}}), 0.0,
              1e-9);
}

TEST(CalibrateTest, PaperSamplesReproduceTheDefaultModel) {
  const auto fit = mach::fit_affine(mach::paper_fill_mpi_samples());
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  EXPECT_NEAR(fit.base, p.fill_mpi_buffer.base, 2e-6);
  EXPECT_NEAR(fit.per_byte, p.fill_mpi_buffer.per_byte, 1e-10);
  EXPECT_LT(mach::fit_residual(fit, mach::paper_fill_mpi_samples()), 1e-9);
}

TEST(CalibrateTest, SingleSamplePinsTheBase) {
  const auto fit = mach::fit_affine({{512, 42e-6}});
  EXPECT_DOUBLE_EQ(fit.base, 42e-6);
  EXPECT_DOUBLE_EQ(fit.per_byte, 0.0);
}

TEST(CalibrateTest, IdenticalSizesAverageTheBase) {
  const auto fit = mach::fit_affine({{64, 10e-6}, {64, 14e-6}});
  EXPECT_DOUBLE_EQ(fit.base, 12e-6);
  EXPECT_DOUBLE_EQ(fit.per_byte, 0.0);
}

TEST(CalibrateTest, NoisyOverdeterminedFitRecoversTruth) {
  // Synthesize samples from a known model with +/-2 % deterministic noise.
  const AffineCost truth{30e-6, 0.08e-9 * 1000};  // 80 ns/KB
  util::Rng rng(7);
  std::vector<CostSample> samples;
  for (int i = 1; i <= 20; ++i) {
    const util::i64 bytes = i * 500;
    const double noise = 1.0 + (rng.uniform01() - 0.5) * 0.04;
    samples.push_back({bytes, truth.at(bytes) * noise});
  }
  const auto fit = mach::fit_affine(samples);
  EXPECT_NEAR(fit.base, truth.base, truth.base * 0.2);
  EXPECT_NEAR(fit.per_byte, truth.per_byte, truth.per_byte * 0.05);
  EXPECT_LT(mach::fit_residual(fit, samples), 0.05);
}

TEST(CalibrateTest, NegativeBaseClampsToOrigin) {
  // Points that extrapolate below zero at bytes = 0.
  const auto fit = mach::fit_affine({{1000, 1e-6}, {2000, 3e-6}});
  EXPECT_GE(fit.base, 0.0);
  EXPECT_GT(fit.per_byte, 0.0);
}

TEST(CalibrateTest, FitsTheSimulatorsEmergentMessageCost) {
  // The paper's Section 5 methodology, run against the simulator instead
  // of the cluster: stream back-to-back messages of several sizes, time
  // them, fit the affine model — the fitted slope/base must recover the
  // configured B-side pipeline (B3 + B4 + B1 + B2 per message on the
  // shared channel; the one-off latency washes out over the stream).
  mach::MachineParams p;
  p.t_c = 1e-6;
  p.t_t = 0.1e-6;
  p.bytes_per_element = 4;
  p.wire_latency = 20e-6;
  p.fill_mpi_buffer = mach::AffineCost{10e-6, 1e-9};
  p.fill_kernel_buffer = mach::AffineCost{15e-6, 2e-9};

  const auto model = std::make_shared<mach::IdealOverlapModel>(p);
  std::vector<CostSample> samples;
  for (util::i64 bytes : {1000, 2000, 4000, 8000}) {
    constexpr int kMessages = 64;
    msg::Cluster c(2, model);
    for (int i = 0; i < kMessages; ++i) c.node(1).irecv(0, i);
    c.engine().at(0, [&] {
      for (int i = 0; i < kMessages; ++i) c.node(0).isend(1, i, bytes);
    });
    const double total = sim::to_seconds(c.run());
    samples.push_back({bytes, total / kMessages});
  }
  const AffineCost fit = mach::fit_affine(samples);
  // Steady state per message: sender leg B3+B4 and receiver leg B1+B2
  // pipeline, so the stream advances at max(leg) = the slower leg; with
  // symmetric kernel costs both legs are equal: 15us + 2ns/B + 0.05us/B.
  const double expect_base = p.fill_kernel_buffer.base;
  const double expect_slope =
      p.fill_kernel_buffer.per_byte + 0.5 * p.t_t;
  EXPECT_NEAR(fit.per_byte, expect_slope, 0.05 * expect_slope);
  EXPECT_NEAR(fit.base, expect_base, 0.25 * expect_base + 2e-6);
}

TEST(CalibrateTest, RejectsBadInput) {
  EXPECT_THROW(mach::fit_affine({}), util::Error);
  EXPECT_THROW(mach::fit_affine({{-1, 1e-6}}), util::Error);
  EXPECT_THROW(mach::fit_affine({{1, -1e-6}}), util::Error);
}

TEST(CalibrateTest, NegativeBaseClampRefitsTheSlope) {
  // Strongly decreasing intercept: the unconstrained regression lands at a
  // negative base.  The clamp must refit through the origin (not merely
  // zero the base and keep the old slope), so predictions stay sane.
  const std::vector<CostSample> samples{
      {1000, 0.5e-6}, {2000, 2e-6}, {4000, 5e-6}, {8000, 11e-6}};
  const AffineCost fit = mach::fit_affine(samples);
  EXPECT_DOUBLE_EQ(fit.base, 0.0);
  double sxy = 0.0;
  double sxx = 0.0;
  for (const CostSample& s : samples) {
    sxy += static_cast<double>(s.bytes) * s.seconds;
    sxx += static_cast<double>(s.bytes) * static_cast<double>(s.bytes);
  }
  EXPECT_DOUBLE_EQ(fit.per_byte, sxy / sxx);
  // The smallest sample sits far below the origin-refit line, so its
  // relative residual is large by construction — just bounded.
  EXPECT_LT(mach::fit_residual(fit, samples), 2.0);
}

TEST(CalibrateTest, FitResidualOnNoisySamplesIsBoundedByTheNoise) {
  const AffineCost truth{50e-6, 2e-9};
  const std::vector<util::i64> sizes = mach::probe_sizes(256, 65536, 20);
  util::Rng rng(11);
  std::vector<CostSample> samples;
  for (util::i64 b : sizes) {
    const double factor = 1.0 + (rng.uniform01() - 0.5) * 0.06;  // +/- 3 %
    samples.push_back({b, truth.at(b) * factor});
  }
  const AffineCost fit = mach::fit_affine(samples);
  // A least-squares fit through +/-3 % noise cannot be off by much more
  // than the noise itself (slack for the base, which is poorly pinned by
  // large sizes).
  EXPECT_LT(mach::fit_residual(fit, samples), 0.10);
  EXPECT_DOUBLE_EQ(mach::fit_residual(truth, samples), 0.0 + [&] {
    double worst = 0.0;
    for (const CostSample& s : samples)
      worst = std::max(worst,
                       std::fabs(truth.at(s.bytes) - s.seconds) / s.seconds);
    return worst;
  }());
}

TEST(CalibrateTest, ProbeSizesAreAscendingAndCoverTheRange) {
  const std::vector<util::i64> sizes = mach::probe_sizes(256, 65536, 25);
  ASSERT_GE(sizes.size(), 2u);
  EXPECT_EQ(sizes.front(), 256);
  EXPECT_EQ(sizes.back(), 65536);
  for (std::size_t i = 1; i < sizes.size(); ++i)
    EXPECT_LT(sizes[i - 1], sizes[i]);
  // The geometric ladder hits the power-of-two landmarks a planted Mcrit
  // sits on (256 * 2^(i/3)), so breakpoint recovery can be exact.
  EXPECT_NE(std::find(sizes.begin(), sizes.end(), 8192), sizes.end());
  EXPECT_THROW(mach::probe_sizes(0, 10, 3), util::Error);
  EXPECT_THROW(mach::probe_sizes(10, 5, 3), util::Error);
}

TEST(CalibrateTest, TwoSlopeFitRecoversAPlantedBreakpoint) {
  mach::TwoSlopeFit truth;
  truth.tail = AffineCost{20e-6, 1e-9};
  truth.mcrit = 8192;
  truth.factor_below = 2.0;
  std::vector<CostSample> samples;
  for (util::i64 b : mach::probe_sizes(256, 65536, 25))
    samples.push_back({b, truth.at(b)});
  const mach::TwoSlopeFit fit = mach::fit_two_slope(samples);
  EXPECT_EQ(fit.mcrit, truth.mcrit);
  EXPECT_NEAR(fit.factor_below, truth.factor_below, 1e-6);
  EXPECT_NEAR(fit.tail.base, truth.tail.base, 1e-9);
  EXPECT_NEAR(fit.tail.per_byte, truth.tail.per_byte, 1e-15);
  EXPECT_LT(fit.residual, 1e-9);
}

TEST(CalibrateTest, TwoSlopeFitIsParsimoniousOnAffineData) {
  // Pure affine data must come back with mcrit = 0 — the breakpoint may
  // not survive on rounding noise alone.
  const AffineCost truth{30e-6, 1.5e-9};
  std::vector<CostSample> samples;
  for (util::i64 b : mach::probe_sizes(256, 65536, 25))
    samples.push_back({b, truth.at(b)});
  const mach::TwoSlopeFit fit = mach::fit_two_slope(samples);
  EXPECT_EQ(fit.mcrit, 0);
  EXPECT_DOUBLE_EQ(fit.factor_below, 1.0);
  EXPECT_NEAR(fit.tail.base, truth.base, 1e-9);
  EXPECT_LT(fit.residual, 1e-9);
}

TEST(CalibrateTest, BetaFitRecoversPlantedEfficiencies) {
  const double beta_kernel = 0.6;
  const double beta_wire = 0.85;
  std::vector<mach::OverlapSample> samples;
  for (int i = 1; i <= 12; ++i) {
    mach::OverlapSample s;
    s.kernel_seconds = 3e-6 * i;
    s.wire_seconds = 1e-6 * (13 - i);  // decorrelate the two regressors
    s.extra_seconds = (1.0 - beta_kernel) * s.kernel_seconds +
                      (1.0 - beta_wire) * s.wire_seconds;
    samples.push_back(s);
  }
  const mach::BetaFit fit = mach::fit_betas(samples);
  EXPECT_NEAR(fit.beta_kernel, beta_kernel, 1e-9);
  EXPECT_NEAR(fit.beta_wire, beta_wire, 1e-9);
  EXPECT_LT(fit.residual, 1e-9);
}

TEST(CalibrateTest, BetaFitClampsIntoTheUnitInterval) {
  // Negative "extra" observations (measurement undershoot) would fit
  // beta > 1; the clamp keeps the model physical.
  std::vector<mach::OverlapSample> samples;
  for (int i = 1; i <= 6; ++i)
    samples.push_back({1e-6 * i, 0.5e-6 * i, -0.1e-6 * i});
  const mach::BetaFit fit = mach::fit_betas(samples);
  EXPECT_LE(fit.beta_kernel, 1.0);
  EXPECT_GE(fit.beta_kernel, 0.0);
  EXPECT_LE(fit.beta_wire, 1.0);
  EXPECT_GE(fit.beta_wire, 0.0);
}

TEST(CalibrateTest, RoundTripRecoversPlantedInterferenceExactly) {
  // The acceptance property: probe a planted InterferenceModel with zero
  // noise and the harness must hand back its parameters.  The planted
  // Mcrit sits on the probe ladder, so recovery is exact, not just close.
  mach::InterferenceConfig planted;
  planted.beta_kernel = 0.7;
  planted.beta_wire = 0.9;
  planted.mcrit = 8192;
  planted.factor_below = 1.8;
  const mach::MachineParams p = mach::MachineParams::paper_cluster();
  const mach::InterferenceModel reference(p, planted);

  const mach::CalibrationReport rep =
      mach::calibrate_interference(reference);
  EXPECT_NEAR(rep.interference.beta_kernel, planted.beta_kernel, 1e-6);
  EXPECT_NEAR(rep.interference.beta_wire, planted.beta_wire, 1e-6);
  EXPECT_EQ(rep.interference.mcrit, planted.mcrit);
  EXPECT_NEAR(rep.interference.factor_below, planted.factor_below, 1e-6);
  EXPECT_NEAR(rep.params.fill_mpi_buffer.base, p.fill_mpi_buffer.base,
              1e-12);
  EXPECT_NEAR(rep.params.fill_mpi_buffer.per_byte,
              p.fill_mpi_buffer.per_byte, 1e-15);
  EXPECT_LT(rep.fill_mpi_residual, 1e-9);
  EXPECT_LT(rep.fill_kernel_residual, 1e-9);
  EXPECT_LT(rep.beta_residual, 1e-6);

  // The report's loadable model predicts like the reference.
  const std::shared_ptr<const mach::Model> fitted = rep.model();
  mach::StepShape shape;
  shape.iterations = 4096;
  shape.send_bytes = {4096, 16384};
  shape.recv_bytes = {4096, 16384};
  for (auto level : {mach::OverlapLevel::kNone, mach::OverlapLevel::kDma,
                     mach::OverlapLevel::kDuplexDma})
    EXPECT_NEAR(fitted->step_seconds(shape, level),
                reference.step_seconds(shape, level),
                1e-9 * reference.step_seconds(shape, level));
}

TEST(CalibrateTest, RoundTripUnderNoiseStaysWithinTolerance) {
  mach::InterferenceConfig planted;
  planted.beta_kernel = 0.7;
  planted.beta_wire = 0.9;
  planted.mcrit = 8192;
  planted.factor_below = 1.8;
  const mach::InterferenceModel reference(
      mach::MachineParams::paper_cluster(), planted);
  const mach::CalibrationReport rep =
      mach::calibrate_interference(reference, 0.02, 42);
  EXPECT_NEAR(rep.interference.beta_kernel, planted.beta_kernel, 0.1);
  EXPECT_NEAR(rep.interference.beta_wire, planted.beta_wire, 0.1);
  // The breakpoint may land on a neighboring ladder rung under noise.
  if (rep.interference.mcrit > 0) {
    EXPECT_GE(rep.interference.mcrit, planted.mcrit / 2);
    EXPECT_LE(rep.interference.mcrit, planted.mcrit * 2);
  }
  EXPECT_LT(rep.fill_mpi_residual, 0.05);
  EXPECT_LT(rep.fill_kernel_residual, 0.05);
}

TEST(CalibrateTest, CalibratingAnIdealReferenceFindsNoInterference) {
  const mach::IdealOverlapModel reference(
      mach::MachineParams::paper_cluster());
  const mach::CalibrationReport rep =
      mach::calibrate_interference(reference);
  EXPECT_DOUBLE_EQ(rep.interference.beta_kernel, 1.0);
  EXPECT_DOUBLE_EQ(rep.interference.beta_wire, 1.0);
  EXPECT_EQ(rep.interference.mcrit, 0);
  EXPECT_LT(rep.fill_mpi_residual, 1e-9);
  EXPECT_LT(rep.fill_kernel_residual, 1e-9);
}
