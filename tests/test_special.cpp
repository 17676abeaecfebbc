// Tests for the incomplete gamma functions, the modified Bessel functions
// I_0/I_1 (Rician support) and K_0/K_1 (double-Rayleigh support), and the
// Kolmogorov distribution.

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/special/bessel_i.hpp"
#include "rfade/special/bessel_k.hpp"
#include "rfade/special/gamma.hpp"
#include "rfade/special/kolmogorov.hpp"
#include "rfade/support/error.hpp"

namespace {

using rfade::special::kolmogorov_p_value;
using rfade::special::kolmogorov_survival;
using rfade::special::regularized_gamma_p;
using rfade::special::regularized_gamma_q;

TEST(Gamma, BoundaryValues) {
  EXPECT_DOUBLE_EQ(regularized_gamma_p(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(regularized_gamma_q(1.0, 0.0), 1.0);
}

TEST(Gamma, PPlusQEqualsOne) {
  for (const double a : {0.5, 1.0, 2.5, 10.0, 50.0}) {
    for (const double x : {0.1, 0.9, 2.0, 5.0, 20.0, 80.0}) {
      EXPECT_NEAR(regularized_gamma_p(a, x) + regularized_gamma_q(a, x), 1.0,
                  1e-12)
          << "a=" << a << " x=" << x;
    }
  }
}

TEST(Gamma, ExponentialSpecialCase) {
  // P(1, x) = 1 - e^{-x}.
  for (const double x : {0.1, 1.0, 3.0, 10.0}) {
    EXPECT_NEAR(regularized_gamma_p(1.0, x), 1.0 - std::exp(-x), 1e-13);
  }
}

TEST(Gamma, ErfSpecialCase) {
  // P(1/2, x) = erf(sqrt(x)).
  for (const double x : {0.2, 0.5, 1.0, 4.0}) {
    EXPECT_NEAR(regularized_gamma_p(0.5, x), std::erf(std::sqrt(x)), 1e-12);
  }
}

TEST(Gamma, Monotone) {
  double previous = -1.0;
  for (double x = 0.0; x < 20.0; x += 0.25) {
    const double p = regularized_gamma_p(3.0, x);
    EXPECT_GE(p, previous);
    previous = p;
  }
}

TEST(Gamma, RejectsBadArguments) {
  EXPECT_THROW((void)regularized_gamma_p(0.0, 1.0), rfade::ContractViolation);
  EXPECT_THROW((void)regularized_gamma_p(-1.0, 1.0), rfade::ContractViolation);
  EXPECT_THROW((void)regularized_gamma_q(1.0, -1.0), rfade::ContractViolation);
}

TEST(Kolmogorov, LimitsAndKnownValue) {
  EXPECT_DOUBLE_EQ(kolmogorov_survival(0.0), 1.0);
  EXPECT_DOUBLE_EQ(kolmogorov_survival(-1.0), 1.0);
  EXPECT_LT(kolmogorov_survival(3.0), 1e-7);
  // Q_KS(1) = 2 (e^{-2} - e^{-8} + e^{-18} - ...) ~ 0.26999967.
  EXPECT_NEAR(kolmogorov_survival(1.0), 0.26999967, 1e-7);
}

TEST(Kolmogorov, Monotone) {
  double previous = 2.0;
  for (double lambda = 0.05; lambda < 3.0; lambda += 0.05) {
    const double q = kolmogorov_survival(lambda);
    // Monotone up to the ~1e-13 cancellation noise of the alternating
    // series near its lambda -> 0 plateau.
    EXPECT_LE(q, previous + 1e-12);
    EXPECT_GE(q, 0.0);
    EXPECT_LE(q, 1.0);
    previous = q;
  }
}

TEST(BesselI, MatchesStandardLibrary) {
  // Spans the series (<= 30) and asymptotic (> 30) regimes; libstdc++'s
  // std::cyl_bessel_i is the reference.
  for (const double x : {0.0, 0.05, 0.5, 1.0, 4.0, 12.0, 25.0, 29.9, 30.1,
                         45.0, 100.0, 400.0}) {
    const double ref0 = std::cyl_bessel_i(0.0, x);
    const double ref1 = std::cyl_bessel_i(1.0, x);
    EXPECT_NEAR(rfade::special::bessel_i0(x), ref0, 1e-12 * ref0 + 1e-14)
        << "x=" << x;
    EXPECT_NEAR(rfade::special::bessel_i1(x), ref1,
                1e-12 * std::abs(ref1) + 1e-14)
        << "x=" << x;
  }
}

TEST(BesselI, ScaledVariantsAndParity) {
  for (const double x : {0.2, 3.0, 17.0, 29.0, 60.0, 250.0}) {
    // Scaled agrees with e^{-x} I(x) where the unscaled value is finite.
    EXPECT_NEAR(rfade::special::bessel_i0e(x),
                std::exp(-x) * rfade::special::bessel_i0(x),
                1e-12 * rfade::special::bessel_i0e(x))
        << "x=" << x;
    EXPECT_NEAR(rfade::special::bessel_i1e(x),
                std::exp(-x) * rfade::special::bessel_i1(x),
                1e-12 * std::abs(rfade::special::bessel_i1e(x)))
        << "x=" << x;
    // I0 even, I1 odd.
    EXPECT_DOUBLE_EQ(rfade::special::bessel_i0(-x),
                     rfade::special::bessel_i0(x));
    EXPECT_DOUBLE_EQ(rfade::special::bessel_i1(-x),
                     -rfade::special::bessel_i1(x));
  }
  // The scaled forms stay finite far past the e^709 overflow of I itself.
  EXPECT_GT(rfade::special::bessel_i0e(5000.0), 0.0);
  EXPECT_TRUE(std::isfinite(rfade::special::bessel_i0e(5000.0)));
  EXPECT_DOUBLE_EQ(rfade::special::bessel_i0(0.0), 1.0);
  EXPECT_DOUBLE_EQ(rfade::special::bessel_i1(0.0), 0.0);
}

TEST(Kolmogorov, PValueScalesWithSampleSize) {
  // Same statistic, more samples => more significant (smaller p).
  const double d = 0.05;
  const double p_small = kolmogorov_p_value(d, 100.0);
  const double p_large = kolmogorov_p_value(d, 10000.0);
  EXPECT_GT(p_small, p_large);
  EXPECT_THROW((void)kolmogorov_p_value(-0.1, 10.0), rfade::ContractViolation);
  EXPECT_THROW((void)kolmogorov_p_value(0.1, 0.0), rfade::ContractViolation);
}

TEST(BesselK, MatchesStandardLibrary) {
  // Both regimes of the implementation: the DLMF log series (x <= 2) and
  // the trapezoidal integral representation beyond, including the
  // switchover neighbourhood.
  for (const double x : {1e-3, 0.01, 0.1, 0.5, 1.0, 1.9, 2.0, 2.1, 3.0, 5.0,
                         10.0, 30.0, 100.0, 500.0}) {
    const double k0_ref = std::cyl_bessel_k(0.0, x);
    const double k1_ref = std::cyl_bessel_k(1.0, x);
    EXPECT_NEAR(rfade::special::bessel_k0(x), k0_ref,
                1e-12 * std::abs(k0_ref))
        << "K0 at x=" << x;
    EXPECT_NEAR(rfade::special::bessel_k1(x), k1_ref,
                1e-12 * std::abs(k1_ref))
        << "K1 at x=" << x;
  }
}

TEST(BesselK, ScaledVariantsConsistent) {
  for (const double x : {0.2, 1.5, 3.0, 20.0, 200.0}) {
    EXPECT_NEAR(rfade::special::bessel_k0e(x),
                std::exp(x) * rfade::special::bessel_k0(x),
                1e-11 * rfade::special::bessel_k0e(x));
    EXPECT_NEAR(rfade::special::bessel_k1e(x),
                std::exp(x) * rfade::special::bessel_k1(x),
                1e-11 * rfade::special::bessel_k1e(x));
  }
  // Far beyond exp underflow the scaled forms must stay finite and match
  // the leading asymptotic sqrt(pi / 2x).
  const double x = 1e4;
  const double leading = std::sqrt(0.5 * M_PI / x);
  EXPECT_NEAR(rfade::special::bessel_k0e(x), leading, 1e-4 * leading);
  EXPECT_GT(rfade::special::bessel_k1e(x), rfade::special::bessel_k0e(x));
}

TEST(BesselK, LimitingBehaviour) {
  // x K1(x) -> 1 as x -> 0 (the double-Rayleigh CDF hinges on this), and
  // K0 diverges logarithmically: K0(x) + ln(x/2) -> -gamma.
  EXPECT_NEAR(1e-8 * rfade::special::bessel_k1(1e-8), 1.0, 1e-12);
  EXPECT_NEAR(rfade::special::bessel_k0(1e-8) + std::log(0.5e-8),
              -0.5772156649015329, 1e-10);
  EXPECT_THROW((void)rfade::special::bessel_k0(0.0),
               rfade::ContractViolation);
  EXPECT_THROW((void)rfade::special::bessel_k1(-1.0),
               rfade::ContractViolation);
  EXPECT_THROW((void)rfade::special::bessel_k0e(0.0),
               rfade::ContractViolation);
  EXPECT_THROW((void)rfade::special::bessel_k1e(-2.0),
               rfade::ContractViolation);
}

}  // namespace
