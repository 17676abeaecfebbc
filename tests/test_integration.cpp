// End-to-end integration tests: physical scenario -> covariance -> generator
// -> measured statistics, cross-validation of the proposed method against
// the conventional baselines inside their common scope, and the full
// paper-parameter real-time pipeline.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/baselines/beaulieu_merani.hpp"
#include "rfade/baselines/sorooshyari_daut.hpp"
#include "rfade/channel/spatial.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/generator.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/moments.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

TEST(Integration, SpectralScenarioEndToEnd) {
  // Paper Sec. 6 spectral case: scenario -> Eq. (22) -> generator -> stats.
  const auto scenario = channel::paper_spectral_scenario();
  const CMatrix k = channel::spectral_covariance_matrix(scenario);
  const core::EnvelopeGenerator gen(k);
  const auto report = core::validate_generator(
      gen, {.samples = 200000, .seed = 71, .parallel = true,
            .chunk_size = 8192, .ks_samples_per_branch = 20000});
  EXPECT_LT(report.covariance_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-4);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_LT(report.envelope_mean_rel_error[j], 0.01);
    EXPECT_LT(report.envelope_variance_rel_error[j], 0.03);
  }
}

TEST(Integration, SpatialScenarioEndToEnd) {
  const auto scenario = channel::paper_spatial_scenario();
  const CMatrix k = channel::spatial_covariance_matrix(scenario);
  const core::EnvelopeGenerator gen(k);
  const auto report = core::validate_generator(
      gen, {.samples = 200000, .seed = 72, .parallel = true,
            .chunk_size = 8192, .ks_samples_per_branch = 20000});
  EXPECT_LT(report.covariance_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-4);
}

TEST(Integration, ProposedMatchesBeaulieuMeraniInsideItsScope) {
  // On a PD equal-power K both methods must realise the same covariance;
  // the proposed method's advantage is only *outside* this scope.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const core::EnvelopeGenerator proposed(k);
  const baselines::BeaulieuMeraniGenerator conventional(k);

  random::Rng rng_a(73);
  random::Rng rng_b(74);
  stats::CovarianceAccumulator acc_a(3);
  stats::CovarianceAccumulator acc_b(3);
  numeric::CVector z(3);
  for (int i = 0; i < 150000; ++i) {
    proposed.sample_into(rng_a, z);
    acc_a.add(z);
    acc_b.add(conventional.sample(rng_b));
  }
  EXPECT_LT(stats::relative_frobenius_error(acc_a.covariance(),
                                            acc_b.covariance()),
            0.03);
}

TEST(Integration, ProposedHandlesWhatBaselinesCannot) {
  // A covariance specification no conventional method covers completely:
  // unequal powers (kills [1],[2],[3],[4],[6]) + complex covariances
  // (kills [5]) + not PSD (kills everything Cholesky-based).
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 1.0)
      .set_gaussian_power(1, 2.0)
      .set_gaussian_power(2, 0.5);
  builder.set_cross_entry(0, 1, cdouble(1.3, 0.4));
  builder.set_cross_entry(1, 2, cdouble(0.9, -0.2));
  builder.set_cross_entry(0, 2, cdouble(-0.6, 0.3));
  const CMatrix k = builder.build();
  ASSERT_FALSE(core::is_positive_semidefinite(k));

  const core::EnvelopeGenerator gen(k);
  EXPECT_FALSE(gen.coloring().psd.was_psd);
  const auto report = core::validate_generator(
      gen, {.samples = 150000, .seed = 75, .parallel = true,
            .chunk_size = 8192, .ks_samples_per_branch = 15000});
  // The generator realises the nearest-PSD covariance faithfully.
  EXPECT_LT(report.covariance_rel_error, 0.02);
  EXPECT_GT(report.worst_ks_p_value, 1e-4);
}

TEST(Integration, PaperParameterRealTimePipeline) {
  // Full Sec. 6 configuration: M=4096, fm=0.05, sigma_orig^2=1/2, Eq. (22).
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  core::FadingStreamOptions options;
  options.idft_size = 4096;
  options.normalized_doppler = 0.05;
  options.input_variance_per_dim = 0.5;
  const core::FadingStream gen(k, options);

  random::Rng rng(76);
  // Envelope RMS must equal sigma_g = sqrt(diag K) = 1 per branch.
  numeric::RVector e0;
  stats::CovarianceAccumulator acc(3);
  numeric::CVector z(3);
  for (int b = 0; b < 30; ++b) {
    const CMatrix block = gen.generate_block_from(rng);
    for (std::size_t l = 0; l < block.rows(); ++l) {
      e0.push_back(std::abs(block(l, 0)));
      for (std::size_t j = 0; j < 3; ++j) {
        z[j] = block(l, j);
      }
      acc.add(z);
    }
  }
  EXPECT_NEAR(stats::rms(e0), 1.0, 0.05);
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.08);
}

TEST(Integration, RealTimeFadingMetricsMatchRayleighTheory) {
  // LCR at rho = 1/sqrt(2) for the paper's Fs = 1 kHz, Fm = 50 Hz setup.
  const CMatrix k = CMatrix::identity(1);
  core::FadingStreamOptions options;
  options.idft_size = 4096;
  options.normalized_doppler = 0.05;  // Fm/Fs = 50/1000
  options.input_variance_per_dim = 0.5;
  const core::FadingStream gen(k, options);

  const double sample_rate_hz = 1000.0;
  const double max_doppler_hz = 50.0;
  random::Rng rng(77);
  numeric::RVector envelope;
  for (int b = 0; b < 40; ++b) {
    const numeric::RMatrix block =
        numeric::elementwise_abs(gen.generate_block_from(rng));
    for (std::size_t l = 0; l < block.rows(); ++l) {
      envelope.push_back(block(l, 0));
    }
  }
  const double rho = 1.0 / std::sqrt(2.0);
  const double threshold = rho * stats::rms(envelope);
  const auto metrics =
      stats::measure_fading_metrics(envelope, threshold, sample_rate_hz);
  const double lcr_theory = stats::theoretical_lcr(rho, max_doppler_hz);
  const double afd_theory = stats::theoretical_afd(rho, max_doppler_hz);
  EXPECT_NEAR(metrics.level_crossing_rate / lcr_theory, 1.0, 0.15);
  EXPECT_NEAR(metrics.average_fade_duration / afd_theory, 1.0, 0.2);
}

TEST(Integration, ProposedVsFlawedRealTimePowerComparison) {
  // The E7 headline, end to end: identical K, identical branch design;
  // only the variance handling differs.
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  core::FadingStreamOptions good;
  good.idft_size = 1024;
  good.normalized_doppler = 0.05;
  good.input_variance_per_dim = 0.5;
  const core::FadingStream proposed(k, good);
  const baselines::SorooshyariDautRealTime flawed(k, 1024, 0.05, 0.5);

  auto mean_power = [](const CMatrix& block) {
    double power = 0.0;
    for (std::size_t l = 0; l < block.rows(); ++l) {
      power += std::norm(block(l, 0));
    }
    return power / double(block.rows());
  };

  random::Rng rng_a(78);
  random::Rng rng_b(79);
  double power_good = 0.0;
  double power_flawed = 0.0;
  const int blocks = 40;
  for (int b = 0; b < blocks; ++b) {
    power_good += mean_power(proposed.generate_block_from(rng_a)) / blocks;
    power_flawed += mean_power(flawed.generate_block(rng_b)) / blocks;
  }
  EXPECT_NEAR(power_good, 1.0, 0.1);     // proposed: correct power
  EXPECT_LT(power_flawed, 1e-2);         // flawed: orders of magnitude off
}

TEST(Integration, EigenMethodAblationProducesIdenticalStatistics) {
  // A1 sanity: Jacobi- and QL-based coloring realise the same covariance.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  core::GeneratorOptions jacobi;
  jacobi.coloring.psd.eigen_method = numeric::EigenMethod::Jacobi;
  const core::EnvelopeGenerator gen_jacobi(k, jacobi);
  const core::EnvelopeGenerator gen_ql(k);
  EXPECT_LT(numeric::max_abs_diff(
                numeric::gram(gen_jacobi.coloring_matrix()),
                numeric::gram(gen_ql.coloring_matrix())),
            1e-9);
}

}  // namespace
