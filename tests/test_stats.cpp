// Tests for the statistics module: moments, covariance accumulation,
// autocorrelation, KS tests, fading metrics.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/random/rng.hpp"
#include "rfade/stats/autocorrelation.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/special/gamma.hpp"
#include "rfade/stats/moments.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CVector;
using numeric::RVector;

TEST(RunningStats, KnownValues) {
  stats::RunningStats acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    acc.add(x);
  }
  EXPECT_EQ(acc.count(), 8u);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 4.0);
  EXPECT_NEAR(acc.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.stddev(), 2.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  random::Rng rng(1);
  stats::RunningStats all;
  stats::RunningStats part1;
  stats::RunningStats part2;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gaussian(1.0, 3.0);
    all.add(x);
    (i < 400 ? part1 : part2).add(x);
  }
  part1.merge(part2);
  EXPECT_EQ(part1.count(), all.count());
  EXPECT_NEAR(part1.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(part1.variance(), all.variance(), 1e-10);
}

TEST(RunningStats, MergeWithEmpty) {
  stats::RunningStats a;
  stats::RunningStats b;
  a.add(5.0);
  a.merge(b);  // no-op
  EXPECT_EQ(a.count(), 1u);
  b.merge(a);  // copies
  EXPECT_EQ(b.count(), 1u);
  EXPECT_DOUBLE_EQ(b.mean(), 5.0);
}

TEST(Moments, SpanHelpers) {
  const RVector xs = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 1.25);
  const CVector zs = {cdouble(3, 4), cdouble(0, 0)};
  EXPECT_DOUBLE_EQ(stats::mean_power(zs), 12.5);
}

TEST(Moments, QuantileSorted) {
  const RVector xs = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(stats::quantile_sorted(xs, 0.25), 2.0);
  EXPECT_THROW((void)stats::quantile_sorted(xs, 1.5), ContractViolation);
}

TEST(Moments, PearsonCorrelation) {
  const RVector a = {1.0, 2.0, 3.0, 4.0};
  const RVector b = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(stats::pearson_correlation(a, b), 1.0, 1e-12);
  const RVector c = {8.0, 6.0, 4.0, 2.0};
  EXPECT_NEAR(stats::pearson_correlation(a, c), -1.0, 1e-12);
}

TEST(Covariance, KnownDeterministicVectors) {
  stats::CovarianceAccumulator acc(2);
  // Two deterministic draws: (1, i) and (1, -i).
  acc.add(CVector{cdouble(1, 0), cdouble(0, 1)});
  acc.add(CVector{cdouble(1, 0), cdouble(0, -1)});
  const auto k = acc.covariance();
  EXPECT_NEAR(k(0, 0).real(), 1.0, 1e-14);
  EXPECT_NEAR(k(1, 1).real(), 1.0, 1e-14);
  // E[z0 conj(z1)] = ((1)(-i) + (1)(i))/2 = 0.
  EXPECT_NEAR(std::abs(k(0, 1)), 0.0, 1e-14);
}

TEST(Covariance, MergeEqualsConcatenation) {
  random::Rng rng(3);
  stats::CovarianceAccumulator all(3);
  stats::CovarianceAccumulator a(3);
  stats::CovarianceAccumulator b(3);
  for (int i = 0; i < 500; ++i) {
    CVector z(3);
    for (auto& v : z) {
      v = rng.complex_gaussian(1.0);
    }
    all.add(z);
    (i % 2 == 0 ? a : b).add(z);
  }
  a.merge(b);
  EXPECT_LT(numeric::max_abs_diff(a.covariance(), all.covariance()), 1e-12);
}

TEST(Covariance, CenteredSubtractsMean) {
  stats::CovarianceAccumulator acc(1);
  for (int i = 0; i < 100; ++i) {
    acc.add(CVector{cdouble(5.0, 0.0)});  // constant
  }
  EXPECT_NEAR(acc.covariance()(0, 0).real(), 25.0, 1e-12);
  EXPECT_NEAR(acc.covariance_centered()(0, 0).real(), 0.0, 1e-12);
  EXPECT_NEAR(std::abs(acc.mean()[0] - cdouble(5, 0)), 0.0, 1e-12);
}

TEST(Covariance, RelativeFrobeniusError) {
  const auto id = numeric::CMatrix::identity(2);
  EXPECT_DOUBLE_EQ(stats::relative_frobenius_error(id, id), 0.0);
  auto scaled = numeric::scale(id, cdouble(1.1, 0));
  EXPECT_NEAR(stats::relative_frobenius_error(scaled, id), 0.1, 1e-12);
}

TEST(Autocorrelation, FftMatchesDirect) {
  random::Rng rng(4);
  CVector x(512);
  for (auto& v : x) {
    v = rng.complex_gaussian(2.0);
  }
  for (const auto mode :
       {stats::AutocorrMode::Biased, stats::AutocorrMode::Unbiased}) {
    const CVector fast = stats::autocorrelation(x, 60, mode);
    const CVector slow = stats::autocorrelation_direct(x, 60, mode);
    for (std::size_t d = 0; d <= 60; ++d) {
      EXPECT_NEAR(std::abs(fast[d] - slow[d]), 0.0, 1e-10) << "lag " << d;
    }
  }
}

TEST(Autocorrelation, PureToneGivesCosineLikePhase) {
  // x[l] = e^{i w l} has autocorrelation r[d] = e^{i w d} exactly.
  const double w = 0.3;
  CVector x(1024);
  for (std::size_t l = 0; l < x.size(); ++l) {
    x[l] = std::polar(1.0, w * static_cast<double>(l));
  }
  const CVector r =
      stats::autocorrelation(x, 20, stats::AutocorrMode::Unbiased);
  for (std::size_t d = 0; d <= 20; ++d) {
    EXPECT_NEAR(std::abs(r[d] - std::polar(1.0, w * double(d))), 0.0, 1e-9);
  }
}

TEST(Autocorrelation, NormalizedStartsAtOne) {
  random::Rng rng(5);
  CVector x(256);
  for (auto& v : x) {
    v = rng.complex_gaussian(1.0);
  }
  const RVector rho = stats::normalized_autocorrelation(x, 10);
  EXPECT_DOUBLE_EQ(rho[0], 1.0);
  EXPECT_THROW((void)stats::autocorrelation(x, 256), ContractViolation);
}

TEST(Distributions, RayleighMomentsAndQuantiles) {
  const stats::RayleighDistribution r(2.0);
  EXPECT_NEAR(r.mean(), 2.0 * std::sqrt(M_PI / 2.0), 1e-12);
  EXPECT_NEAR(r.variance(), (2.0 - M_PI / 2.0) * 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(r.cdf(0.0), 0.0);
  EXPECT_NEAR(r.cdf(r.quantile(0.3)), 0.3, 1e-12);
  EXPECT_NEAR(r.cdf(r.quantile(0.99)), 0.99, 1e-12);
  // Median = sigma sqrt(2 ln 2).
  EXPECT_NEAR(r.quantile(0.5), 2.0 * std::sqrt(2.0 * std::log(2.0)), 1e-12);
  // pdf integrates to cdf (spot check by finite difference).
  const double h = 1e-6;
  EXPECT_NEAR((r.cdf(1.0 + h) - r.cdf(1.0 - h)) / (2 * h), r.pdf(1.0), 1e-6);
}

TEST(Distributions, RayleighFromGaussianPowerMatchesPaperConstants) {
  // Paper Eqs. (14)-(15): E{r} = 0.8862 sigma_g, Var{r} = 0.2146 sigma_g^2.
  const double sigma_g2 = 3.0;
  const auto r = stats::RayleighDistribution::from_gaussian_power(sigma_g2);
  EXPECT_NEAR(r.mean(), 0.8862 * std::sqrt(sigma_g2), 1e-4);
  EXPECT_NEAR(r.variance(), 0.2146 * sigma_g2, 1e-4);
}

TEST(Distributions, RicianMomentsAndLimits) {
  // K = 0 is exactly Rayleigh.
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(2.0);
  const auto k0 = stats::RicianDistribution::from_k_factor(0.0, 2.0);
  EXPECT_DOUBLE_EQ(k0.nu(), 0.0);
  EXPECT_NEAR(k0.mean(), rayleigh.mean(), 1e-13);
  EXPECT_NEAR(k0.variance(), rayleigh.variance(), 1e-12);
  for (const double r : {0.2, 0.8, 1.5, 3.0}) {
    EXPECT_NEAR(k0.pdf(r), rayleigh.pdf(r), 1e-12);
    EXPECT_NEAR(k0.cdf(r), rayleigh.cdf(r), 1e-9);
  }

  // Moments: E[r^2] = 2 sigma^2 + nu^2 always; and for K >> 1 the
  // distribution concentrates near nu (mean -> nu, variance -> sigma^2).
  const auto rician = stats::RicianDistribution::from_k_factor(4.0, 2.0);
  EXPECT_NEAR(rician.second_moment(),
              2.0 * rician.sigma() * rician.sigma() +
                  rician.nu() * rician.nu(),
              1e-13);
  EXPECT_NEAR(rician.k_factor(), 4.0, 1e-13);
  const auto large_k = stats::RicianDistribution::from_k_factor(400.0, 2.0);
  EXPECT_NEAR(large_k.mean(), large_k.nu(), 0.01 * large_k.nu());
  EXPECT_NEAR(large_k.variance(), large_k.sigma() * large_k.sigma(),
              0.01 * large_k.sigma() * large_k.sigma());
}

TEST(Distributions, RicianCdfPdfConsistency) {
  const auto rician = stats::RicianDistribution::from_k_factor(3.0, 1.0);
  EXPECT_DOUBLE_EQ(rician.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(rician.cdf(-1.0), 0.0);
  EXPECT_NEAR(rician.cdf(rician.nu() + 50.0 * rician.sigma()), 1.0, 1e-12);
  // Far-tail band: every r past the bulk must give 1, never collapse back
  // towards 0 (regression: the adaptive stencil used to miss the bulk
  // when all its initial points landed in the deep tail).
  for (const double r : {10.0, 20.0, 28.0, 29.0, 35.0, 100.0}) {
    EXPECT_NEAR(rician.cdf(r), 1.0, 1e-9) << "r=" << r;
  }
  // Large K concentrates the density in a narrow peak around nu; the
  // integration window must still find it.
  const auto huge = stats::RicianDistribution::from_k_factor(10000.0, 2.0);
  EXPECT_NEAR(huge.cdf(huge.nu()), 0.5, 0.01);
  EXPECT_NEAR(huge.cdf(huge.nu() + 9.0 * huge.sigma()), 1.0, 1e-9);
  EXPECT_LT(huge.cdf(huge.nu() - 9.0 * huge.sigma()), 1e-9);
  // CDF is the integral of the pdf: finite-difference spot check, plus
  // monotonicity across the support.
  double previous = 0.0;
  for (double r = 0.1; r < 5.0; r += 0.1) {
    const double c = rician.cdf(r);
    EXPECT_GE(c, previous);
    previous = c;
    const double h = 1e-5;
    EXPECT_NEAR((rician.cdf(r + h) - rician.cdf(r - h)) / (2 * h),
                rician.pdf(r), 1e-5);
  }
  // Mean/variance agree with direct numeric integration of the pdf.
  double mean = 0.0;
  double m2 = 0.0;
  const double hi = rician.nu() + 10.0 * rician.sigma();
  const int steps = 200000;
  for (int i = 0; i < steps; ++i) {
    const double r = (i + 0.5) * hi / steps;
    const double w = rician.pdf(r) * hi / steps;
    mean += r * w;
    m2 += r * r * w;
  }
  EXPECT_NEAR(rician.mean(), mean, 1e-6);
  EXPECT_NEAR(rician.variance(), m2 - mean * mean, 1e-6);
  EXPECT_THROW((void)stats::RicianDistribution(-1.0, 1.0), ContractViolation);
  EXPECT_THROW((void)stats::RicianDistribution(1.0, 0.0), ContractViolation);
  EXPECT_THROW((void)stats::RicianDistribution::from_k_factor(-0.1, 1.0),
               ContractViolation);
}

TEST(Distributions, DoubleRayleighClosedForm) {
  const auto dr = stats::DoubleRayleighDistribution(0.8, 1.3);
  const double c = 0.8 * 1.3;
  EXPECT_DOUBLE_EQ(dr.scale(), c);
  EXPECT_NEAR(dr.mean(), 0.5 * M_PI * c, 1e-14);
  EXPECT_NEAR(dr.second_moment(), 4.0 * c * c, 1e-14);
  EXPECT_NEAR(dr.variance(), 4.0 * c * c - std::pow(0.5 * M_PI * c, 2),
              1e-12);
  // CDF limits and monotonicity; the pdf is its derivative.
  EXPECT_DOUBLE_EQ(dr.cdf(0.0), 0.0);
  EXPECT_DOUBLE_EQ(dr.cdf(-1.0), 0.0);
  EXPECT_NEAR(dr.cdf(100.0 * c), 1.0, 1e-12);
  double previous = 0.0;
  for (double r = 0.05; r < 8.0 * c; r += 0.1) {
    const double value = dr.cdf(r);
    EXPECT_GE(value, previous);
    previous = value;
    const double h = 1e-6;
    EXPECT_NEAR((dr.cdf(r + h) - dr.cdf(r - h)) / (2 * h), dr.pdf(r), 1e-6)
        << "r=" << r;
  }
  // Mean/second moment agree with direct numeric integration of the pdf
  // (the far tail is heavier than Rayleigh, so integrate generously).
  double mean = 0.0;
  double m2 = 0.0;
  const double hi = 40.0 * c;
  const int steps = 400000;
  for (int i = 0; i < steps; ++i) {
    const double r = (i + 0.5) * hi / steps;
    const double w = dr.pdf(r) * hi / steps;
    mean += r * w;
    m2 += r * r * w;
  }
  EXPECT_NEAR(dr.mean(), mean, 1e-5);
  EXPECT_NEAR(dr.second_moment(), m2, 1e-4);
  // from_gaussian_powers takes the complex stage powers 2 sigma^2.
  const auto from_powers =
      stats::DoubleRayleighDistribution::from_gaussian_powers(2.0 * 0.64,
                                                              2.0 * 1.69);
  EXPECT_NEAR(from_powers.scale(), c, 1e-14);
  EXPECT_THROW((void)stats::DoubleRayleighDistribution(0.0, 1.0),
               ContractViolation);
  EXPECT_THROW(
      (void)stats::DoubleRayleighDistribution::from_gaussian_powers(1.0,
                                                                    -1.0),
      ContractViolation);
}

TEST(Distributions, TwdpDegeneratesToRicianAndRayleigh) {
  // Delta = 0 is a single specular wave: the law must *be* the Rician
  // one, bit-for-bit (exact delegation, not quadrature).
  const double power = 1.4;
  const auto twdp = stats::TwdpDistribution::from_parameters(3.0, 0.0, power);
  const auto rician = stats::RicianDistribution::from_k_factor(3.0, power);
  EXPECT_DOUBLE_EQ(twdp.v2(), 0.0);
  for (double r = 0.0; r < 6.0; r += 0.37) {
    EXPECT_EQ(twdp.pdf(r), rician.pdf(r)) << "r=" << r;
    EXPECT_EQ(twdp.cdf(r), rician.cdf(r)) << "r=" << r;
  }
  EXPECT_EQ(twdp.mean(), rician.mean());
  // K = 0 is Rayleigh regardless of Delta.
  const auto zero_k = stats::TwdpDistribution::from_parameters(0.0, 0.7,
                                                              power);
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(
      power);
  EXPECT_NEAR(zero_k.mean(), rayleigh.mean(), 1e-14);
  EXPECT_NEAR(zero_k.cdf(1.0), rayleigh.cdf(1.0), 1e-12);
}

TEST(Distributions, TwdpMomentsAndCdfConsistency) {
  const auto twdp = stats::TwdpDistribution::from_parameters(3.0, 0.8, 1.0);
  // Parameter inversion and the exact second moment.
  EXPECT_NEAR(twdp.k_factor(), 3.0, 1e-12);
  EXPECT_NEAR(twdp.delta(), 0.8, 1e-12);
  EXPECT_NEAR(twdp.second_moment(), 1.0 + 3.0 * 1.0, 1e-12);
  // CDF limits, monotonicity, derivative = pdf.
  EXPECT_DOUBLE_EQ(twdp.cdf(0.0), 0.0);
  EXPECT_NEAR(twdp.cdf(twdp.v1() + twdp.v2() + 50.0 * twdp.sigma()), 1.0,
              1e-12);
  double previous = 0.0;
  for (double r = 0.1; r < 5.0; r += 0.2) {
    const double value = twdp.cdf(r);
    EXPECT_GE(value, previous);
    previous = value;
    const double h = 1e-5;
    EXPECT_NEAR((twdp.cdf(r + h) - twdp.cdf(r - h)) / (2 * h), twdp.pdf(r),
                1e-4)
        << "r=" << r;
  }
  // Mean and (exact) second moment against direct integration of the
  // mixture pdf.
  double mean = 0.0;
  double m2 = 0.0;
  const double hi = twdp.v1() + twdp.v2() + 10.0 * twdp.sigma();
  const int steps = 200000;
  for (int i = 0; i < steps; ++i) {
    const double r = (i + 0.5) * hi / steps;
    const double w = twdp.pdf(r) * hi / steps;
    mean += r * w;
    m2 += r * r * w;
  }
  EXPECT_NEAR(twdp.mean(), mean, 1e-6);
  EXPECT_NEAR(twdp.second_moment(), m2, 1e-5);
  // Contracts: Delta outside [0, 1], negative K, bad powers.
  EXPECT_THROW((void)stats::TwdpDistribution::from_parameters(1.0, -0.1, 1.0),
               ContractViolation);
  EXPECT_THROW((void)stats::TwdpDistribution::from_parameters(1.0, 1.1, 1.0),
               ContractViolation);
  EXPECT_THROW((void)stats::TwdpDistribution::from_parameters(-1.0, 0.5, 1.0),
               ContractViolation);
  EXPECT_THROW((void)stats::TwdpDistribution::from_parameters(1.0, 0.5, 0.0),
               ContractViolation);
  EXPECT_THROW((void)stats::TwdpDistribution(1.0, 2.0, 1.0),
               ContractViolation);
}

TEST(Distributions, LognormalMomentsAndQuantiles) {
  // 6 dB shadowing of an amplitude gain, 0 dB median.
  const auto ln = stats::LognormalDistribution::from_db(0.0, 6.0);
  const double s = 6.0 * std::log(10.0) / 20.0;
  EXPECT_NEAR(ln.mean(), std::exp(0.5 * s * s), 1e-12);
  EXPECT_NEAR(ln.second_moment(), std::exp(2.0 * s * s), 1e-12);
  EXPECT_NEAR(ln.quantile(0.5), 1.0, 1e-10);  // median = 10^{0/20}
  EXPECT_NEAR(ln.cdf(ln.quantile(0.1)), 0.1, 1e-10);
  EXPECT_NEAR(ln.cdf(ln.quantile(0.975)), 0.975, 1e-10);
  const double h = 1e-6;
  EXPECT_NEAR((ln.cdf(1.3 + h) - ln.cdf(1.3 - h)) / (2 * h), ln.pdf(1.3),
              1e-6);
  EXPECT_THROW((void)stats::LognormalDistribution(0.0, 0.0),
               ContractViolation);
}

TEST(Distributions, NakagamiMomentsQuantilesAndRayleighLimit) {
  // m = 1 is exactly Rayleigh with sigma_g^2 = Omega.
  const double omega = 2.5;
  const stats::NakagamiDistribution nak1(1.0, omega);
  const auto rayleigh =
      stats::RayleighDistribution::from_gaussian_power(omega);
  for (double r : {0.3, 0.9, 1.7, 3.0}) {
    EXPECT_NEAR(nak1.cdf(r), rayleigh.cdf(r), 1e-12);
    EXPECT_NEAR(nak1.pdf(r), rayleigh.pdf(r), 1e-12);
  }
  EXPECT_NEAR(nak1.mean(), rayleigh.mean(), 1e-12);
  for (double m : {0.5, 1.0, 2.5, 4.0}) {
    const stats::NakagamiDistribution nak(m, omega);
    EXPECT_NEAR(nak.second_moment(), omega, 1e-12);
    // Quantile inverts the exact incomplete-gamma CDF.
    for (double p : {0.01, 0.3, 0.5, 0.9, 0.999}) {
      EXPECT_NEAR(nak.cdf(nak.quantile(p)), p, 1e-10) << "m=" << m;
    }
    const double h = 1e-6;
    EXPECT_NEAR((nak.cdf(1.0 + h) - nak.cdf(1.0 - h)) / (2 * h), nak.pdf(1.0),
                1e-6);
    // Amount of fading E[(r^2 - Omega)^2]/Omega^2 = 1/m: deep fades for
    // small m, shallower than Rayleigh for m > 1.
    const double mean = nak.mean();
    EXPECT_LT(std::abs(mean * mean + nak.variance() - omega), 1e-12);
  }
  EXPECT_THROW((void)stats::NakagamiDistribution(0.49, 1.0),
               ContractViolation);
  EXPECT_THROW((void)stats::NakagamiDistribution(1.0, 0.0),
               ContractViolation);
}

TEST(Distributions, WeibullMomentsQuantilesAndRayleighLimit) {
  // shape 2 is exactly Rayleigh with sigma = scale / sqrt(2).
  const stats::WeibullDistribution wb2(2.0, 2.0);
  const stats::RayleighDistribution rayleigh(2.0 / std::sqrt(2.0));
  for (double r : {0.3, 1.1, 2.4}) {
    EXPECT_NEAR(wb2.cdf(r), rayleigh.cdf(r), 1e-12);
    EXPECT_NEAR(wb2.pdf(r), rayleigh.pdf(r), 1e-12);
  }
  const stats::WeibullDistribution wb(1.4, 0.8);
  EXPECT_NEAR(wb.mean(), 0.8 * std::tgamma(1.0 + 1.0 / 1.4), 1e-12);
  EXPECT_NEAR(wb.second_moment(), 0.64 * std::tgamma(1.0 + 2.0 / 1.4),
              1e-12);
  for (double p : {0.05, 0.5, 0.99}) {
    EXPECT_NEAR(wb.cdf(wb.quantile(p)), p, 1e-12);
  }
  EXPECT_THROW((void)stats::WeibullDistribution(0.0, 1.0), ContractViolation);
  EXPECT_THROW((void)stats::WeibullDistribution(1.0, -1.0),
               ContractViolation);
}

TEST(Distributions, SuzukiMomentsAndMixtureCdf) {
  const double sigma_g2 = 2.0;
  const auto suzuki =
      stats::SuzukiDistribution::from_gaussian_power(sigma_g2, 0.0, 6.0);
  // Independent product: moments factor exactly.
  const auto rayleigh =
      stats::RayleighDistribution::from_gaussian_power(sigma_g2);
  EXPECT_NEAR(suzuki.mean(), suzuki.shadowing().mean() * rayleigh.mean(),
              1e-12);
  EXPECT_NEAR(suzuki.second_moment(),
              suzuki.shadowing().second_moment() * sigma_g2, 1e-12);
  // CDF is a proper distribution function and matches the pdf.
  EXPECT_DOUBLE_EQ(suzuki.cdf(0.0), 0.0);
  EXPECT_NEAR(suzuki.cdf(1e3), 1.0, 1e-9);
  EXPECT_LT(suzuki.cdf(0.5), suzuki.cdf(1.5));
  const double h = 1e-6;
  EXPECT_NEAR((suzuki.cdf(1.2 + h) - suzuki.cdf(1.2 - h)) / (2 * h),
              suzuki.pdf(1.2), 1e-6);
  // sigma_dB -> 0 degenerates to the plain Rayleigh CDF.
  const auto narrow =
      stats::SuzukiDistribution::from_gaussian_power(sigma_g2, 0.0, 1e-6);
  EXPECT_NEAR(narrow.cdf(1.0), rayleigh.cdf(1.0), 1e-8);
  // Heavier low-end tail than Rayleigh at equal diffuse power (shadowing
  // spreads the local mean).
  const auto wide =
      stats::SuzukiDistribution::from_gaussian_power(sigma_g2, 0.0, 8.0);
  EXPECT_GT(wide.cdf(0.05), rayleigh.cdf(0.05));
}

TEST(Distributions, NormalQuantileInvertsCdf) {
  for (double p : {1e-9, 1e-4, 0.02, 0.3, 0.5, 0.77, 0.999, 1.0 - 1e-9}) {
    EXPECT_NEAR(stats::normal_cdf(stats::normal_quantile(p)), p,
                1e-14 + 1e-12 * p);
  }
  EXPECT_NEAR(stats::normal_quantile(0.975), 1.959963984540054, 1e-12);
  EXPECT_THROW((void)stats::normal_quantile(0.0), ContractViolation);
  EXPECT_THROW((void)stats::normal_quantile(1.0), ContractViolation);
}

TEST(Distributions, InverseRegularizedGammaP) {
  for (double a : {0.5, 1.0, 2.5, 4.0, 17.0}) {
    for (double p : {1e-6, 0.03, 0.5, 0.97, 0.9999}) {
      const double x = special::inverse_regularized_gamma_p(a, p);
      EXPECT_NEAR(special::regularized_gamma_p(a, x), p, 1e-10)
          << "a=" << a << " p=" << p;
    }
  }
  EXPECT_DOUBLE_EQ(special::inverse_regularized_gamma_p(2.0, 0.0), 0.0);
  EXPECT_THROW((void)special::inverse_regularized_gamma_p(2.0, 1.0),
               ContractViolation);
}

TEST(Distributions, NormalAndExponential) {
  EXPECT_NEAR(stats::normal_cdf(0.0), 0.5, 1e-15);
  EXPECT_NEAR(stats::normal_cdf(1.96), 0.975, 1e-3);
  EXPECT_NEAR(stats::normal_cdf(2.0, 2.0, 5.0), 0.5, 1e-15);
  EXPECT_NEAR(stats::exponential_cdf(1.0, 1.0), 1.0 - std::exp(-1.0), 1e-14);
  EXPECT_DOUBLE_EQ(stats::exponential_cdf(-1.0, 1.0), 0.0);
}

TEST(KsTest, AcceptsCorrectDistribution) {
  random::Rng rng(6);
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(1.0);
  RVector samples(20000);
  for (auto& s : samples) {
    s = std::abs(rng.complex_gaussian(1.0));
  }
  const auto result =
      stats::ks_test(samples, [&](double x) { return rayleigh.cdf(x); });
  EXPECT_GT(result.p_value, 1e-3);
  EXPECT_LT(result.statistic, 0.02);
}

TEST(KsTest, RejectsWrongDistribution) {
  random::Rng rng(7);
  RVector samples(20000);
  for (auto& s : samples) {
    s = std::abs(rng.complex_gaussian(1.0));  // Rayleigh(sigma_g^2 = 1)
  }
  // Test against a Rayleigh with twice the power: must reject hard.
  const auto wrong = stats::RayleighDistribution::from_gaussian_power(2.0);
  const auto result =
      stats::ks_test(samples, [&](double x) { return wrong.cdf(x); });
  EXPECT_LT(result.p_value, 1e-10);
}

TEST(KsTest, TwoSample) {
  random::Rng rng(8);
  RVector a(5000);
  RVector b(5000);
  RVector c(5000);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.gaussian();
    b[i] = rng.gaussian();
    c[i] = rng.gaussian() + 1.0;  // shifted
  }
  EXPECT_LT(stats::ks_two_sample_statistic(a, b), 0.05);
  EXPECT_GT(stats::ks_two_sample_statistic(a, c), 0.3);
}

TEST(FadingMetrics, TheoreticalFormulas) {
  // Peak of LCR at rho = 1/sqrt(2).
  const double fd = 50.0;
  const double lcr_peak = stats::theoretical_lcr(1.0 / std::sqrt(2.0), fd);
  EXPECT_GT(lcr_peak, stats::theoretical_lcr(0.1, fd));
  EXPECT_GT(lcr_peak, stats::theoretical_lcr(2.0, fd));
  // AFD at rho=1: (e - 1)/(fd sqrt(2 pi)).
  EXPECT_NEAR(stats::theoretical_afd(1.0, fd),
              (std::exp(1.0) - 1.0) / (fd * std::sqrt(2.0 * M_PI)), 1e-12);
}

TEST(FadingMetrics, MeasuredOnSyntheticTrace) {
  // Envelope = |sin|: crosses 0.5 upward twice per period of 100 samples.
  RVector envelope(10000);
  for (std::size_t i = 0; i < envelope.size(); ++i) {
    envelope[i] = std::abs(std::sin(2.0 * M_PI * double(i) / 100.0)) + 0.01;
  }
  const auto metrics = stats::measure_fading_metrics(envelope, 0.5, 1000.0);
  // 10000 samples at 1 kHz = 10 s; 100 periods => 200 up-crossings => 20/s.
  EXPECT_NEAR(metrics.level_crossing_rate, 20.0, 1.0);
  EXPECT_GT(metrics.average_fade_duration, 0.0);
  EXPECT_EQ(metrics.crossings, 200u);
}

TEST(FadingMetrics, Rms) {
  EXPECT_DOUBLE_EQ(stats::rms(RVector{3.0, 4.0, 3.0, 4.0}),
                   std::sqrt(12.5));
  EXPECT_THROW((void)stats::rms(RVector{}), ContractViolation);
}

}  // namespace
