// Tests for the real-time generator (paper Sec. 5, Fig. 3) — the
// independent-block backend of core::FadingStream, drawn from a
// caller-owned rng: achieved covariance with the Eq. (19) correction, the
// Sorooshyari-Daut failure mode without it, per-branch J0
// autocorrelation, and Rayleigh marginals.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/channel/spatial.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/stats/autocorrelation.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/stats/moments.hpp"

namespace {

using namespace rfade;
using core::FadingStream;
using core::FadingStreamOptions;
using core::VarianceHandling;
using numeric::cdouble;
using numeric::CMatrix;

FadingStreamOptions small_options() {
  // Smaller blocks than the paper's M=4096 keep test runtime low while
  // exercising the same machinery.  The default backend is the paper's
  // independent-block Sec. 5 algorithm.
  FadingStreamOptions options;
  options.idft_size = 512;
  options.normalized_doppler = 0.05;
  options.input_variance_per_dim = 0.5;
  return options;
}

TEST(RealTime, BlockShapesAndAccessors) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const FadingStream gen(k, small_options());
  EXPECT_EQ(gen.dimension(), 3u);
  EXPECT_EQ(gen.block_size(), 512u);
  EXPECT_GT(gen.branch_output_variance(), 0.0);
  EXPECT_DOUBLE_EQ(gen.assumed_variance(), gen.branch_output_variance());

  random::Rng rng(1);
  const CMatrix block = gen.generate_block_from(rng);
  EXPECT_EQ(block.rows(), 512u);
  EXPECT_EQ(block.cols(), 3u);
  const numeric::RMatrix envelopes =
      numeric::elementwise_abs(gen.generate_block_from(rng));
  EXPECT_EQ(envelopes.rows(), 512u);
  EXPECT_EQ(envelopes.cols(), 3u);
}

TEST(RealTime, DeterministicGivenSeed) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const FadingStream gen(k, small_options());
  random::Rng a(5);
  random::Rng b(5);
  EXPECT_LT(numeric::max_abs_diff(gen.generate_block_from(a),
                                  gen.generate_block_from(b)),
            0.0 + 1e-15);
}

TEST(RealTime, AchievesDesiredCovarianceWithAnalyticCorrection) {
  // The paper's central Sec. 5 claim: with the Eq. (19) correction the
  // lag-0 covariance across time equals the desired K.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const FadingStream gen(k, small_options());
  random::Rng rng(2);
  stats::CovarianceAccumulator acc(3);
  numeric::CVector z(3);
  for (int b = 0; b < 120; ++b) {
    const CMatrix block = gen.generate_block_from(rng);
    for (std::size_t l = 0; l < block.rows(); ++l) {
      for (std::size_t j = 0; j < 3; ++j) {
        z[j] = block(l, j);
      }
      acc.add(z);
    }
  }
  // Time samples are correlated, so convergence is slower than i.i.d.;
  // 120 blocks x 512 samples still pins the covariance within ~5%.
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.05);
}

TEST(RealTime, VarianceUnawareModeMisscalesPower) {
  // Experiment E7's mechanism: without the Eq. (19) correction the
  // realised power is sigma_g^2 / (2 sigma_orig^2) times the desired one.
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  FadingStreamOptions flawed = small_options();
  flawed.variance_handling = VarianceHandling::AssumeInputVariance;
  const FadingStream gen(k, flawed);
  EXPECT_DOUBLE_EQ(gen.assumed_variance(), 1.0);  // 2 * 0.5

  const double expected_ratio = gen.branch_output_variance() / 1.0;
  random::Rng rng(3);
  double power = 0.0;
  std::size_t count = 0;
  for (int b = 0; b < 60; ++b) {
    const CMatrix block = gen.generate_block_from(rng);
    for (std::size_t l = 0; l < block.rows(); ++l) {
      power += std::norm(block(l, 0));
      ++count;
    }
  }
  const double measured_ratio = (power / double(count)) / k(0, 0).real();
  EXPECT_NEAR(measured_ratio / expected_ratio, 1.0, 0.1);
  // And the mis-scaling is dramatic (orders of magnitude).
  EXPECT_LT(measured_ratio, 1e-2);
}

TEST(RealTime, BranchAutocorrelationTracksJ0) {
  // Every colored output z_k keeps the J0(2 pi fm d) autocorrelation
  // because all branches share the same Doppler filter.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  FadingStreamOptions options = small_options();
  options.idft_size = 4096;  // long blocks for a clean estimate
  const FadingStream gen(k, options);
  random::Rng rng(4);

  const std::size_t max_lag = 60;
  numeric::RVector avg(max_lag + 1, 0.0);
  const int blocks = 12;
  for (int b = 0; b < blocks; ++b) {
    const CMatrix block = gen.generate_block_from(rng);
    numeric::CVector series(block.rows());
    for (std::size_t l = 0; l < block.rows(); ++l) {
      series[l] = block(l, 1);  // middle branch
    }
    const auto rho = stats::normalized_autocorrelation(series, max_lag);
    for (std::size_t d = 0; d <= max_lag; ++d) {
      avg[d] += rho[d] / blocks;
    }
  }
  for (std::size_t d = 0; d <= max_lag; d += 10) {
    EXPECT_NEAR(avg[d],
                special::bessel_j0(2.0 * M_PI * 0.05 * double(d)), 0.1)
        << "lag " << d;
  }
}

TEST(RealTime, EnvelopesAreRayleigh) {
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  const FadingStream gen(k, small_options());
  random::Rng rng(5);
  // One decorrelated sample per block per branch.
  numeric::RVector samples;
  for (int b = 0; b < 1500; ++b) {
    const numeric::RMatrix envelopes =
      numeric::elementwise_abs(gen.generate_block_from(rng));
    samples.push_back(envelopes(0, 0));
  }
  const auto rayleigh =
      stats::RayleighDistribution::from_gaussian_power(k(0, 0).real());
  const auto ks =
      stats::ks_test(samples, [&](double r) { return rayleigh.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(RealTime, CrossCorrelationOrderingFollowsK) {
  // Envelope correlation should be ordered like |K_kj| (strongly
  // correlated Gaussians => strongly correlated envelopes).
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  const FadingStream gen(k, small_options());
  random::Rng rng(6);
  double corr01 = 0.0;
  double corr02 = 0.0;
  int blocks = 40;
  for (int b = 0; b < blocks; ++b) {
    const numeric::RMatrix env =
        numeric::elementwise_abs(gen.generate_block_from(rng));
    numeric::RVector e0(env.rows()), e1(env.rows()), e2(env.rows());
    for (std::size_t l = 0; l < env.rows(); ++l) {
      e0[l] = env(l, 0);
      e1[l] = env(l, 1);
      e2[l] = env(l, 2);
    }
    corr01 += stats::pearson_correlation(e0, e1) / blocks;
    corr02 += stats::pearson_correlation(e0, e2) / blocks;
  }
  // |K_01| = 0.8123 > |K_02| = 0.3730 => envelope correlation follows.
  EXPECT_GT(corr01, corr02);
  EXPECT_GT(corr01, 0.4);
}

TEST(RealTime, NonPsdDesiredMatrixHandled) {
  CMatrix k = CMatrix::identity(2);
  k(0, 1) = cdouble(1.3, 0.0);
  k(1, 0) = cdouble(1.3, 0.0);
  const FadingStream gen(k, small_options());
  EXPECT_FALSE(gen.coloring().psd.was_psd);
  EXPECT_TRUE(core::is_positive_semidefinite(gen.effective_covariance()));
  random::Rng rng(7);
  EXPECT_NO_THROW((void)gen.generate_block_from(rng));
}

TEST(RealTime, RejectsInvalidOptions) {
  const CMatrix k = CMatrix::identity(2);
  FadingStreamOptions bad = small_options();
  bad.normalized_doppler = 0.9;  // above Nyquist
  EXPECT_THROW((void)FadingStream(k, bad), ContractViolation);
  bad = small_options();
  bad.input_variance_per_dim = 0.0;
  EXPECT_THROW((void)FadingStream(k, bad), ContractViolation);
}

}  // namespace
