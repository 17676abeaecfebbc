// Property-based sweeps over physical parameter grids: invariants that must
// hold for *every* physically-meaningful configuration, not just the
// paper's Sec. 6 instances.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/channel/spatial.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/envelope_correlation.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/psd.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/doppler/filter.hpp"
#include "rfade/fft/fft.hpp"
#include "rfade/numeric/eigen_hermitian.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/stats/moments.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

constexpr double kPi = 3.141592653589793238462643383279502884;

// ---------------------------------------------------------------------------
// Spatial covariance: physically realisable => positive semi-definite
// ---------------------------------------------------------------------------

struct SpatialGridCase {
  std::size_t antennas;
  double spacing;
  double spread_deg;
  double angle_deg;
};

class SpatialPhysics : public testing::TestWithParam<SpatialGridCase> {};

TEST_P(SpatialPhysics, CovarianceIsPositiveSemiDefinite) {
  // The Salz-Winters covariances come from an actual field model, so the
  // assembled matrix must be (numerically) PSD for every geometry.
  const auto [antennas, spacing, spread_deg, angle_deg] = GetParam();
  channel::SpatialScenario s;
  s.antenna_count = antennas;
  s.spacing_wavelengths = spacing;
  s.angle_spread_rad = spread_deg * kPi / 180.0;
  s.mean_angle_rad = angle_deg * kPi / 180.0;
  const CMatrix k = channel::spatial_covariance_matrix(s);
  EXPECT_TRUE(numeric::is_hermitian(k, 1e-10));
  const auto eig = numeric::eigen_hermitian(k);
  EXPECT_GE(eig.values.front(), -1e-8)
      << "min eigenvalue " << eig.values.front();
  // Unit diagonal (power sigma^2 = 1) and bounded correlations.
  for (std::size_t i = 0; i < antennas; ++i) {
    EXPECT_NEAR(k(i, i).real(), 1.0, 1e-10);
    for (std::size_t j = 0; j < antennas; ++j) {
      EXPECT_LE(std::abs(k(i, j)), 1.0 + 1e-9);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, SpatialPhysics,
    testing::Values(SpatialGridCase{2, 0.1, 5.0, 0.0},
                    SpatialGridCase{3, 0.5, 10.0, 30.0},
                    SpatialGridCase{4, 1.0, 20.0, -45.0},
                    SpatialGridCase{5, 2.0, 45.0, 90.0},
                    SpatialGridCase{6, 0.25, 90.0, 10.0},
                    SpatialGridCase{8, 0.5, 180.0, 0.0},
                    SpatialGridCase{3, 4.0, 2.0, 170.0},
                    SpatialGridCase{7, 1.5, 60.0, -120.0}),
    [](const auto& tinfo) {
      return "n" + std::to_string(tinfo.param.antennas) + "_idx" +
             std::to_string(static_cast<int>(tinfo.param.spacing * 100)) +
             "_" + std::to_string(static_cast<int>(tinfo.param.spread_deg));
    });

// ---------------------------------------------------------------------------
// Spectral covariance: magnitude bound and consistency
// ---------------------------------------------------------------------------

struct SpectralGridCase {
  double separation_khz;
  double tau_ms;
  double doppler_hz;
  double spread_us;
};

class SpectralPhysics : public testing::TestWithParam<SpectralGridCase> {};

TEST_P(SpectralPhysics, CrossCovarianceMagnitudeBounded) {
  // |mu_kj| = sigma^2 |J0| / sqrt(1 + (dw st)^2) <= sigma^2.
  const auto [sep_khz, tau_ms, doppler, spread_us] = GetParam();
  channel::SpectralScenario s;
  s.carrier_hz = {900e6, 900e6 - sep_khz * 1e3};
  s.delay_s = numeric::RMatrix(2, 2, 0.0);
  s.delay_s(0, 1) = s.delay_s(1, 0) = tau_ms * 1e-3;
  s.max_doppler_hz = doppler;
  s.rms_delay_spread_s = spread_us * 1e-6;
  s.gaussian_power = 2.0;
  const CMatrix k = channel::spectral_covariance_matrix(s);
  EXPECT_LE(std::abs(k(0, 1)), 2.0 + 1e-12);
  EXPECT_TRUE(numeric::is_hermitian(k));
  // Closed-form check of the magnitude.
  const double dw = 2.0 * kPi * sep_khz * 1e3;
  const double st = spread_us * 1e-6;
  const double expected =
      2.0 *
      std::abs(special::bessel_j0(2.0 * kPi * doppler * tau_ms * 1e-3)) /
      std::sqrt(1.0 + dw * st * dw * st);
  EXPECT_NEAR(std::abs(k(0, 1)), expected, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(
    Channels, SpectralPhysics,
    testing::Values(SpectralGridCase{0.0, 0.0, 10.0, 0.0},
                    SpectralGridCase{100.0, 0.5, 50.0, 1.0},
                    SpectralGridCase{200.0, 1.0, 50.0, 1.0},
                    SpectralGridCase{400.0, 3.0, 100.0, 2.0},
                    SpectralGridCase{1000.0, 10.0, 200.0, 5.0},
                    SpectralGridCase{50.0, 20.0, 5.0, 0.5}),
    [](const auto& tinfo) {
      return "sep" + std::to_string(static_cast<int>(tinfo.param.separation_khz)) +
             "_tau" + std::to_string(static_cast<int>(tinfo.param.tau_ms * 10));
    });

// ---------------------------------------------------------------------------
// Doppler filter: J0 tracking across the design grid
// ---------------------------------------------------------------------------

struct FilterGridCase {
  std::size_t m;
  double fm;
};

class FilterDesignGrid : public testing::TestWithParam<FilterGridCase> {};

TEST_P(FilterDesignGrid, TheoreticalAutocorrelationTracksJ0) {
  const auto [m, fm] = GetParam();
  const auto design = doppler::young_beaulieu_filter(m, fm);
  // Check over lags covering roughly two J0 oscillations.
  const auto max_lag = static_cast<std::size_t>(
      std::min(double(m) / 4.0, 1.2 / fm));
  const auto rho =
      doppler::theoretical_normalized_autocorrelation(design, max_lag);
  // The J0 approximation degrades with the coarseness of the spectral
  // sampling: km bins cover the Doppler band, so allow O(1/km) error.
  const double tolerance = 0.03 + 1.5 / static_cast<double>(design.km);
  for (std::size_t d = 0; d <= max_lag; ++d) {
    EXPECT_NEAR(rho[d], special::bessel_j0(2.0 * kPi * fm * double(d)),
                tolerance)
        << "M=" << m << " fm=" << fm << " lag=" << d;
  }
  // Eq. (19) variance is positive and far below the input variance for
  // narrowband filters.
  const double sigma_g2 = doppler::post_filter_variance(design, 0.5);
  EXPECT_GT(sigma_g2, 0.0);
  EXPECT_LT(sigma_g2, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Designs, FilterDesignGrid,
    testing::Values(FilterGridCase{512, 0.05}, FilterGridCase{1024, 0.02},
                    FilterGridCase{1024, 0.1}, FilterGridCase{2048, 0.05},
                    FilterGridCase{4096, 0.01}, FilterGridCase{4096, 0.05},
                    FilterGridCase{4096, 0.2}, FilterGridCase{8192, 0.005}),
    [](const auto& tinfo) {
      return "m" + std::to_string(tinfo.param.m) + "_fm" +
             std::to_string(static_cast<int>(tinfo.param.fm * 1000));
    });

// ---------------------------------------------------------------------------
// FFT: large and prime lengths
// ---------------------------------------------------------------------------

class FftLargeSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(FftLargeSizes, RoundTripAtScale) {
  const std::size_t n = GetParam();
  random::Rng rng(n);
  numeric::CVector x(n);
  for (auto& v : x) {
    v = cdouble(rng.gaussian(), rng.gaussian());
  }
  const auto back = fft::idft(fft::dft(x));
  double max_diff = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::abs(back[i] - x[i]));
  }
  EXPECT_LT(max_diff, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftLargeSizes,
                         testing::Values(std::size_t{1009},   // prime
                                         std::size_t{4099},   // prime
                                         std::size_t{6144},   // 3 * 2^11
                                         std::size_t{16384},  // 2^14
                                         std::size_t{10000}),
                         [](const auto& tinfo) {
                           return "n" + std::to_string(tinfo.param);
                         });

// ---------------------------------------------------------------------------
// Eigensolvers: degenerate (clustered) spectra
// ---------------------------------------------------------------------------

TEST(EigenDegenerate, ClusteredEigenvaluesStillDecompose) {
  // Spectrum {1, 1, 1, 2, 2}: eigenvectors are not unique, but the
  // decomposition identities must still hold for both methods.
  random::Rng rng(0x0DE);
  const std::size_t n = 5;
  CMatrix g(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      g(i, j) = cdouble(rng.gaussian(), rng.gaussian());
    }
  }
  const auto basis = numeric::eigen_hermitian(numeric::hermitian_part(
      numeric::add(g, numeric::conjugate_transpose(g))));
  numeric::HermitianEigen prescribed;
  prescribed.values = {1.0, 1.0, 1.0, 2.0, 2.0};
  prescribed.vectors = basis.vectors;
  const CMatrix a = numeric::reconstruct(prescribed);

  for (const auto method :
       {numeric::EigenMethod::Jacobi, numeric::EigenMethod::TridiagonalQL}) {
    const auto eig = numeric::eigen_hermitian(a, method);
    EXPECT_NEAR(eig.values[0], 1.0, 1e-10);
    EXPECT_NEAR(eig.values[2], 1.0, 1e-10);
    EXPECT_NEAR(eig.values[4], 2.0, 1e-10);
    EXPECT_LT(numeric::max_abs_diff(numeric::reconstruct(eig), a), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// End-to-end: envelope-correlation theory vs the paper's Eq. (23) scenario
// ---------------------------------------------------------------------------

TEST(EnvelopeTheory, SpatialScenarioEnvelopeCorrelationsPredicted) {
  // The exact 2F1 map must predict the measured envelope correlations of
  // the paper's own spatial configuration.
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  const auto predicted = core::envelope_correlation_matrix(k);
  const core::SamplePipeline gen(core::ColoringPlan::create(k));
  random::Rng rng(0x0E23);
  const std::size_t n = 150000;
  std::vector<numeric::RVector> env(3, numeric::RVector(n));
  for (std::size_t t = 0; t < n; ++t) {
    const auto r = gen.sample_envelopes(rng);
    for (std::size_t j = 0; j < 3; ++j) {
      env[j][t] = r[j];
    }
  }
  for (std::size_t a = 0; a < 3; ++a) {
    for (std::size_t b = a + 1; b < 3; ++b) {
      const double measured = stats::pearson_correlation(env[a], env[b]);
      EXPECT_NEAR(measured, predicted(a, b), 0.015)
          << "pair " << a << "," << b;
    }
  }
}

// ---------------------------------------------------------------------------
// Generator: dimension sweep end-to-end
// ---------------------------------------------------------------------------

class GeneratorDimensions : public testing::TestWithParam<std::size_t> {};

TEST_P(GeneratorDimensions, TridiagonalCovarianceRealised) {
  const std::size_t n = GetParam();
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.45, 0.2);
    k(i + 1, i) = cdouble(0.45, -0.2);
  }
  ASSERT_TRUE(core::is_positive_semidefinite(k));
  const core::SamplePipeline gen(core::ColoringPlan::create(k));
  const auto report = core::validate_generator(
      gen, {.samples = 60000, .seed = 0xD13 + n, .parallel = true,
            .chunk_size = 8192, .ks_samples_per_branch = 5000});
  EXPECT_LT(report.covariance_rel_error, 0.03) << "N=" << n;
  EXPECT_GT(report.worst_ks_p_value, 1e-4) << "N=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorDimensions,
                         testing::Values(std::size_t{2}, std::size_t{3},
                                         std::size_t{5}, std::size_t{8},
                                         std::size_t{12}, std::size_t{16},
                                         std::size_t{24}),
                         [](const auto& tinfo) {
                           return "n" + std::to_string(tinfo.param);
                         });

}  // namespace
