// Tests for the channel correlation models — the reproduction of the
// paper's Eq. (22) (spectral) and Eq. (23) (spatial) matrices, plus
// physical limit checks.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/channel/spatial.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/psd.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

// ---------------------------------------------------------------------------
// Spectral model (paper Sec. 2, Eqs. 3-4; experiment E1)
// ---------------------------------------------------------------------------

TEST(Spectral, ReproducesPaperEq22ToPrintedPrecision) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  // The paper prints 4 decimals; allow half a unit in the last place.
  EXPECT_LT(numeric::max_abs_diff(k, channel::paper_eq22_matrix()), 5e-5);
}

TEST(Spectral, Eq22IsPositiveDefinite) {
  // The paper states K in (22) is positive definite.
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  EXPECT_TRUE(core::is_positive_semidefinite(k));
}

TEST(Spectral, MatrixIsValidCovariance) {
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  EXPECT_TRUE(numeric::is_hermitian(k));
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(k(j, j).real(), 1.0, 1e-14);  // sigma^2 = 1
    EXPECT_EQ(k(j, j).imag(), 0.0);
  }
}

TEST(Spectral, CoincidentCarriersAndZeroDelayGiveFullCorrelation) {
  // Delta f = 0 and tau = 0 => mu = sigma^2 exactly (Rxx = sigma^2/2).
  channel::SpectralScenario s;
  s.carrier_hz = {900e6, 900e6};
  s.delay_s = numeric::RMatrix(2, 2, 0.0);
  s.max_doppler_hz = 50.0;
  s.rms_delay_spread_s = 1e-6;
  s.gaussian_power = 2.5;
  const auto c = channel::spectral_cross_covariance(s, 0, 1);
  EXPECT_NEAR(c.rxx, 1.25, 1e-12);
  EXPECT_NEAR(c.rxy, 0.0, 1e-15);
  const CMatrix k = channel::spectral_covariance_matrix(s);
  EXPECT_NEAR(std::abs(k(0, 1) - cdouble(2.5, 0.0)), 0.0, 1e-12);
}

TEST(Spectral, CorrelationDecaysWithFrequencySeparation) {
  // |mu| = sigma^2 J0 / sqrt(1 + (dw st)^2): decreasing in |f_k - f_j|.
  double previous = 1e9;
  for (const double sep_khz : {100.0, 200.0, 400.0, 800.0}) {
    channel::SpectralScenario s;
    s.carrier_hz = {900e6, 900e6 - sep_khz * 1e3};
    s.delay_s = numeric::RMatrix(2, 2, 0.0);
    s.max_doppler_hz = 50.0;
    s.rms_delay_spread_s = 1e-6;
    const CMatrix k = channel::spectral_covariance_matrix(s);
    const double magnitude = std::abs(k(0, 1));
    EXPECT_LT(magnitude, previous);
    previous = magnitude;
  }
}

TEST(Spectral, DopplerDelayProductModulatesViaJ0) {
  // With no frequency separation, mu = sigma^2 J0(2 pi Fm tau).
  channel::SpectralScenario s;
  s.carrier_hz = {900e6, 900e6};
  s.delay_s = numeric::RMatrix(2, 2, 0.0);
  s.delay_s(0, 1) = s.delay_s(1, 0) = 2e-3;
  s.max_doppler_hz = 80.0;
  s.rms_delay_spread_s = 0.0;
  const CMatrix k = channel::spectral_covariance_matrix(s);
  EXPECT_NEAR(k(0, 1).real(),
              special::bessel_j0(2.0 * M_PI * 80.0 * 2e-3), 1e-12);
  EXPECT_NEAR(k(0, 1).imag(), 0.0, 1e-15);
}

TEST(Spectral, HermitianPairSymmetry) {
  const auto s = channel::paper_spectral_scenario();
  const auto c01 = channel::spectral_cross_covariance(s, 0, 1);
  const auto c10 = channel::spectral_cross_covariance(s, 1, 0);
  EXPECT_DOUBLE_EQ(c01.rxx, c10.rxx);
  EXPECT_DOUBLE_EQ(c01.rxy, -c10.rxy);  // sign flips with delta omega
  const cdouble mu01 = core::covariance_entry(c01);
  const cdouble mu10 = core::covariance_entry(c10);
  EXPECT_NEAR(std::abs(mu01 - std::conj(mu10)), 0.0, 1e-15);
}

TEST(Spectral, ValidatesInput) {
  channel::SpectralScenario s;
  s.carrier_hz = {1.0, 2.0};
  s.delay_s = numeric::RMatrix(3, 3, 0.0);  // wrong shape
  EXPECT_THROW((void)channel::spectral_covariance_matrix(s), ContractViolation);

  s.delay_s = numeric::RMatrix(2, 2, 0.0);
  s.delay_s(0, 1) = 1.0;  // asymmetric (s.delay_s(1,0) stays 0)
  EXPECT_THROW((void)channel::spectral_covariance_matrix(s), ContractViolation);

  s.delay_s(1, 0) = 1.0;
  s.gaussian_power = -1.0;
  EXPECT_THROW((void)channel::spectral_covariance_matrix(s), ContractViolation);
}

// ---------------------------------------------------------------------------
// Spatial model (paper Sec. 3, Eqs. 5-7; experiment E2)
// ---------------------------------------------------------------------------

TEST(Spatial, ReproducesPaperEq23ToPrintedPrecision) {
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  EXPECT_LT(numeric::max_abs_diff(k, channel::paper_eq23_matrix()), 5e-5);
}

TEST(Spatial, Eq23IsRealBecausePhiIsZero) {
  // Phi = 0 kills every sin((2m+1)Phi) term (paper Sec. 6).
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_NEAR(k(i, j).imag(), 0.0, 1e-12);
    }
  }
  EXPECT_TRUE(core::is_positive_semidefinite(k));
}

TEST(Spatial, ZeroSeparationGivesUnitNormalisedCorrelation) {
  const auto s = channel::paper_spatial_scenario();
  EXPECT_NEAR(channel::spatial_rxx_normalized(s, 0), 1.0, 1e-12);
  EXPECT_NEAR(channel::spatial_rxy_normalized(s, 0), 0.0, 1e-12);
}

TEST(Spatial, IsotropicScatteringReducesToClarkeJ0) {
  // Delta = pi makes every sinc term vanish: Rxx~ -> J0(z d).
  channel::SpatialScenario s = channel::paper_spatial_scenario();
  s.angle_spread_rad = M_PI;
  for (const int d : {1, 2}) {
    EXPECT_NEAR(channel::spatial_rxx_normalized(s, d),
                special::bessel_j0(2.0 * M_PI * s.spacing_wavelengths * d),
                1e-10);
  }
}

TEST(Spatial, RxyAntisymmetricInSeparation) {
  channel::SpatialScenario s = channel::paper_spatial_scenario();
  s.mean_angle_rad = 0.7;  // nonzero Phi so Rxy is nontrivial
  const double forward = channel::spatial_rxy_normalized(s, 1);
  const double backward = channel::spatial_rxy_normalized(s, -1);
  EXPECT_NE(forward, 0.0);
  EXPECT_NEAR(forward, -backward, 1e-12);
  // Rxx is even in separation.
  EXPECT_NEAR(channel::spatial_rxx_normalized(s, 1),
              channel::spatial_rxx_normalized(s, -1), 1e-12);
}

TEST(Spatial, NonzeroPhiGivesComplexHermitianMatrix) {
  channel::SpatialScenario s = channel::paper_spatial_scenario();
  s.mean_angle_rad = 0.5;
  const CMatrix k = channel::spatial_covariance_matrix(s);
  EXPECT_TRUE(numeric::is_hermitian(k));
  EXPECT_GT(std::abs(k(0, 1).imag()), 1e-3);  // genuinely complex now
}

TEST(Spatial, CorrelationDecaysWithSpacing) {
  double previous = 1.0;
  for (const double spacing : {0.1, 0.5, 1.0, 2.0}) {
    channel::SpatialScenario s = channel::paper_spatial_scenario();
    s.antenna_count = 2;
    s.spacing_wavelengths = spacing;
    const CMatrix k = channel::spatial_covariance_matrix(s);
    const double magnitude = std::abs(k(0, 1));
    EXPECT_LE(magnitude, previous + 1e-9) << "spacing " << spacing;
    previous = magnitude;
  }
}

TEST(Spatial, PowerScalesLinearly) {
  channel::SpatialScenario s = channel::paper_spatial_scenario();
  s.gaussian_power = 4.0;
  const CMatrix k = channel::spatial_covariance_matrix(s);
  const CMatrix k_unit =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  EXPECT_LT(
      numeric::max_abs_diff(k, numeric::scale(k_unit, cdouble(4.0, 0.0))),
      1e-10);
}

TEST(Spatial, ValidatesInput) {
  channel::SpatialScenario s = channel::paper_spatial_scenario();
  s.antenna_count = 0;
  EXPECT_THROW((void)channel::spatial_covariance_matrix(s), ContractViolation);
  s = channel::paper_spatial_scenario();
  s.spacing_wavelengths = -1.0;
  EXPECT_THROW((void)channel::spatial_covariance_matrix(s), ContractViolation);
  s = channel::paper_spatial_scenario();
  s.mean_angle_rad = 4.0;  // > pi
  EXPECT_THROW((void)channel::spatial_covariance_matrix(s), ContractViolation);
}

TEST(CovarianceEntry, Eq13SignConventions) {
  // mu = (Rxx + Ryy) - i (Rxy - Ryx).
  core::CrossCovariance c;
  c.rxx = 0.3;
  c.ryy = 0.2;
  c.rxy = -0.1;
  c.ryx = 0.05;
  const cdouble mu = core::covariance_entry(c);
  EXPECT_DOUBLE_EQ(mu.real(), 0.5);
  EXPECT_DOUBLE_EQ(mu.imag(), 0.15);
}

TEST(CovarianceBuilder, BuildsAndValidates) {
  core::CovarianceBuilder builder(2);
  builder.set_gaussian_power(0, 1.0).set_gaussian_power(1, 2.0);
  builder.set_cross_entry(0, 1, cdouble(0.5, 0.25));
  const CMatrix k = builder.build();
  EXPECT_EQ(k(1, 0), cdouble(0.5, -0.25));
  EXPECT_EQ(k(1, 1), cdouble(2.0, 0.0));
}

TEST(CovarianceBuilder, EnvelopePowerConversion) {
  core::CovarianceBuilder builder(1);
  builder.set_envelope_power(0, 0.2146018366);  // ~ (1 - pi/4) * 1
  const CMatrix k = builder.build();
  EXPECT_NEAR(k(0, 0).real(), 1.0, 1e-8);  // Eq. (11) round trip
}

TEST(CovarianceBuilder, RejectsMisuse) {
  core::CovarianceBuilder builder(2);
  EXPECT_THROW((void)builder.set_gaussian_power(2, 1.0), ContractViolation);
  EXPECT_THROW((void)builder.set_gaussian_power(0, -1.0), ContractViolation);
  EXPECT_THROW((void)builder.set_cross_entry(1, 1, cdouble(0.1, 0)),
               ContractViolation);
  // Unset diagonal power must fail at build().
  builder.set_gaussian_power(0, 1.0);
  EXPECT_THROW((void)builder.build(), ContractViolation);
}

}  // namespace
