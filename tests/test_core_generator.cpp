// Tests for the instant-mode draw (paper Sec. 4.4-4.5: a SamplePipeline
// over a ColoringPlan): achieved covariance, envelope moments
// (Eqs. 14-15), Rayleigh-ness, arbitrary powers, non-PSD handling,
// determinism and parallel validation.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/power.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::PipelineOptions;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;

TEST(Power, Eq11RoundTrip) {
  for (const double p : {0.1, 1.0, 7.5}) {
    EXPECT_NEAR(core::envelope_power_from_gaussian_power(
                    core::gaussian_power_from_envelope_power(p)),
                p, 1e-12);
  }
  // Constants of Eqs. (14)-(15).
  EXPECT_NEAR(core::envelope_mean_from_gaussian_power(1.0), 0.8862, 5e-5);
  EXPECT_NEAR(core::envelope_power_from_gaussian_power(1.0), 0.2146, 5e-5);
  EXPECT_NEAR(core::kRayleighVarianceFactor, 0.2146018, 1e-6);
  EXPECT_DOUBLE_EQ(core::envelope_rms_from_gaussian_power(4.0), 2.0);
  EXPECT_THROW((void)core::gaussian_power_from_envelope_power(0.0),
               ContractViolation);
}

TEST(Generator, AccessorsAndShapes) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const SamplePipeline gen(ColoringPlan::create(k));
  EXPECT_EQ(gen.dimension(), 3u);
  EXPECT_LT(numeric::max_abs_diff(gen.plan().desired_covariance(), k), 1e-15);
  EXPECT_LT(numeric::max_abs_diff(gen.plan().effective_covariance(), k),
            1e-12);

  random::Rng rng(1);
  EXPECT_EQ(gen.sample(rng).size(), 3u);
  EXPECT_EQ(gen.sample_envelopes(rng).size(), 3u);
  const CMatrix block = gen.sample_block(10, rng);
  EXPECT_EQ(block.rows(), 10u);
  EXPECT_EQ(block.cols(), 3u);
  EXPECT_THROW((void)gen.sample_block(0, rng), ContractViolation);
}

TEST(Generator, DeterministicGivenSeed) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const SamplePipeline gen(ColoringPlan::create(k));
  random::Rng a(77);
  random::Rng b(77);
  for (int i = 0; i < 20; ++i) {
    const auto za = gen.sample(a);
    const auto zb = gen.sample(b);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(za[j], zb[j]);
    }
  }
}

TEST(Generator, AchievesDesiredCovariance) {
  // Experiment E5's core assertion at test scale.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const SamplePipeline gen(ColoringPlan::create(k));
  random::Rng rng(2);
  stats::CovarianceAccumulator acc(3);
  numeric::CVector z(3);
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    gen.sample_into(rng, z);
    acc.add(z);
  }
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.01);
}

TEST(Generator, SampleVarianceOptionDoesNotChangeStatistics) {
  // Step 6 allows *arbitrary* variance sigma_w^2; the division by sigma_w
  // must make the output statistics invariant.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  PipelineOptions big_variance;
  big_variance.sample_variance = 25.0;
  const auto plan = ColoringPlan::create(k);
  const SamplePipeline unit(plan);
  const SamplePipeline scaled(plan, big_variance);

  for (const SamplePipeline* gen : {&unit, &scaled}) {
    random::Rng rng(3);
    stats::CovarianceAccumulator acc(3);
    numeric::CVector z(3);
    for (int i = 0; i < 100000; ++i) {
      gen->sample_into(rng, z);
      acc.add(z);
    }
    EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.02);
  }
  EXPECT_THROW(
      (void)SamplePipeline(plan, PipelineOptions{.sample_variance = 0.0}),
      ContractViolation);
}

TEST(Generator, UnequalPowersAreRealised) {
  // The headline generalisation: arbitrary (unequal) powers.
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 0.5)
      .set_gaussian_power(1, 2.0)
      .set_gaussian_power(2, 7.0);
  builder.set_cross_entry(0, 1, cdouble(0.4, 0.3));
  builder.set_cross_entry(0, 2, cdouble(-0.2, 0.5));
  builder.set_cross_entry(1, 2, cdouble(1.0, -0.8));
  const CMatrix k = builder.build();
  ASSERT_TRUE(core::is_positive_semidefinite(k));

  const SamplePipeline gen(ColoringPlan::create(k));
  const auto report = core::validate_generator(
      gen, {.samples = 150000, .seed = 4, .parallel = true,
            .chunk_size = 8192, .ks_samples_per_branch = 20000});
  EXPECT_LT(report.covariance_rel_error, 0.02);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_LT(report.envelope_mean_rel_error[j], 0.01) << "branch " << j;
    EXPECT_LT(report.envelope_variance_rel_error[j], 0.03) << "branch " << j;
  }
  EXPECT_GT(report.worst_ks_p_value, 1e-4);
}

TEST(Generator, DesiredEnvelopePowersViaEq11) {
  // Start from envelope powers sigma_r^2 (algorithm step 1) and verify the
  // measured envelope variance comes back as requested.
  const double sigma_r2 = 0.4;
  core::CovarianceBuilder builder(2);
  builder.set_envelope_power(0, sigma_r2).set_envelope_power(1, sigma_r2);
  builder.set_cross_entry(0, 1, cdouble(0.5, 0.0));
  const SamplePipeline gen(ColoringPlan::create(builder.build()));

  random::Rng rng(5);
  stats::RunningStats env0;
  for (int i = 0; i < 200000; ++i) {
    env0.add(gen.sample_envelopes(rng)[0]);
  }
  EXPECT_NEAR(env0.variance() / sigma_r2, 1.0, 0.03);
  // And the mean follows E{r} = sigma_r sqrt(pi / (4 - pi)).
  const double expected_mean =
      std::sqrt(sigma_r2) * std::sqrt(M_PI / (4.0 - M_PI));
  EXPECT_NEAR(env0.mean() / expected_mean, 1.0, 0.02);
}

TEST(Generator, NonPsdInputRealisesForcedCovariance) {
  // Desired K is not PSD; generator must realise the clipped K_bar.
  CMatrix k = CMatrix::identity(2);
  k(0, 1) = cdouble(1.4, 0.0);  // |corr| > 1 => eigenvalues {2.4, -0.4}
  k(1, 0) = cdouble(1.4, 0.0);
  const SamplePipeline gen(ColoringPlan::create(k));
  EXPECT_FALSE(gen.plan().coloring().psd.was_psd);
  EXPECT_GT(numeric::max_abs_diff(gen.plan().effective_covariance(), k), 0.1);

  random::Rng rng(6);
  stats::CovarianceAccumulator acc(2);
  numeric::CVector z(2);
  for (int i = 0; i < 150000; ++i) {
    gen.sample_into(rng, z);
    acc.add(z);
  }
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(),
                                            gen.plan().effective_covariance()),
            0.02);
}

TEST(Generator, FullyCorrelatedDegenerateCase) {
  // K = ones(2,2): rank 1, envelopes identical up to phase.
  CMatrix k(2, 2, cdouble(1.0, 0.0));
  const SamplePipeline gen(ColoringPlan::create(k));
  random::Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    const auto z = gen.sample(rng);
    // The zero eigenvalue of the rank-1 K is computed to ~1e-16, whose
    // square root injects ~1e-8 into the second coloring column; the two
    // outputs agree to sqrt(machine epsilon).
    EXPECT_NEAR(std::abs(z[0] - z[1]), 0.0, 1e-6);
  }
}

TEST(Generator, ParallelValidationMatchesSerial) {
  // Chunk-keyed streams: identical results for serial and parallel runs.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const SamplePipeline gen(ColoringPlan::create(k));
  core::ValidationOptions serial{.samples = 30000,
                                 .seed = 8,
                                 .parallel = false,
                                 .chunk_size = 4096,
                                 .ks_samples_per_branch = 5000};
  core::ValidationOptions parallel = serial;
  parallel.parallel = true;
  const auto a = core::validate_generator(gen, serial);
  const auto b = core::validate_generator(gen, parallel);
  EXPECT_DOUBLE_EQ(a.covariance_rel_error, b.covariance_rel_error);
  EXPECT_LT(
      numeric::max_abs_diff(a.sample_covariance, b.sample_covariance), 0.0 + 1e-15);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_DOUBLE_EQ(a.ks_p_values[j], b.ks_p_values[j]);
  }
}

TEST(Generator, CholeskyColoringOptionWorksOnPdMatrix) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  core::ColoringOptions options;
  options.method = core::ColoringMethod::Cholesky;
  const SamplePipeline gen(ColoringPlan::create(k, options));
  random::Rng rng(9);
  stats::CovarianceAccumulator acc(3);
  numeric::CVector z(3);
  for (int i = 0; i < 100000; ++i) {
    gen.sample_into(rng, z);
    acc.add(z);
  }
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.02);
}

TEST(Generator, RejectsInvalidCovariance) {
  EXPECT_THROW((void)ColoringPlan::create(CMatrix(2, 3)), ContractViolation);
  CMatrix bad_diag = CMatrix::identity(2);
  bad_diag(0, 0) = cdouble(-1.0, 0.0);
  EXPECT_THROW((void)ColoringPlan::create(bad_diag), ContractViolation);
}

TEST(Generator, SampleIntoValidatesSize) {
  const SamplePipeline gen(ColoringPlan::create(CMatrix::identity(3)));
  random::Rng rng(10);
  numeric::CVector wrong(2);
  EXPECT_THROW((void)gen.sample_into(rng, wrong), ContractViolation);
}

}  // namespace
