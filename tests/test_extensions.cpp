// Tests for the extension modules: Gauss 2F1 and the exact envelope
// correlation map (forward + inverse, validated against Monte-Carlo).

#include <gtest/gtest.h>

#include <cmath>

#include "rfade/core/covariance_spec.hpp"
#include "rfade/core/envelope_correlation.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/special/hypergeometric.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/moments.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

constexpr double kPi = 3.141592653589793238462643383279502884;

// ---------------------------------------------------------------------------
// Gauss 2F1
// ---------------------------------------------------------------------------

TEST(Hypergeometric, ElementaryIdentities) {
  // 2F1(1, 1; 2; x) = -ln(1-x)/x.
  for (const double x : {0.1, 0.5, 0.9}) {
    EXPECT_NEAR(special::hypergeometric_2f1(1.0, 1.0, 2.0, x),
                -std::log(1.0 - x) / x, 1e-12);
  }
  // 2F1(a, b; c; 0) = 1.
  EXPECT_DOUBLE_EQ(special::hypergeometric_2f1(-0.5, -0.5, 1.0, 0.0), 1.0);
  // Binomial case: 2F1(-n, b; b; -x) = (1+x)^n for integer n.
  EXPECT_NEAR(special::hypergeometric_2f1(-3.0, 2.0, 2.0, -0.5),
              std::pow(1.5, 3.0), 1e-12);
}

TEST(Hypergeometric, RayleighCaseEndpoint) {
  // 2F1(-1/2, -1/2; 1; 1) = 4/pi (Gauss's theorem).
  EXPECT_NEAR(special::hypergeometric_2f1(-0.5, -0.5, 1.0, 1.0), 4.0 / kPi,
              1e-10);
}

TEST(Hypergeometric, DomainChecks) {
  EXPECT_THROW((void)special::hypergeometric_2f1(1.0, 1.0, 1.0, 1.5),
               ContractViolation);
  EXPECT_THROW((void)special::hypergeometric_2f1(1.0, 1.0, -2.0, 0.5),
               ContractViolation);
  // At |x| = 1 the series needs c - a - b > 0.
  EXPECT_THROW((void)special::hypergeometric_2f1(1.0, 1.0, 1.5, 1.0),
               ContractViolation);
}

// ---------------------------------------------------------------------------
// Envelope correlation map
// ---------------------------------------------------------------------------

TEST(EnvelopeCorrelation, ForwardMapProperties) {
  EXPECT_NEAR(core::envelope_correlation_from_gaussian(cdouble(0, 0), 1, 1),
              0.0, 1e-14);
  EXPECT_NEAR(core::envelope_correlation_from_gaussian(cdouble(1, 0), 1, 1),
              1.0, 1e-10);
  // Depends only on |mu|.
  EXPECT_NEAR(core::envelope_correlation_from_gaussian(cdouble(0, 0.6), 1, 1),
              core::envelope_correlation_from_gaussian(cdouble(0.6, 0), 1, 1),
              1e-14);
  // Strictly increasing in |mu|.
  double previous = -1.0;
  for (double mag = 0.0; mag <= 1.0; mag += 0.05) {
    const double value = core::envelope_correlation_from_gaussian(
        cdouble(mag, 0.0), 1.0, 1.0);
    EXPECT_GT(value, previous);
    previous = value;
  }
  // Close to the popular |rho|^2 approximation but not equal.
  const double exact =
      core::envelope_correlation_from_gaussian(cdouble(0.7, 0), 1, 1);
  EXPECT_NEAR(exact, 0.49, 0.05);
}

TEST(EnvelopeCorrelation, InverseMapRoundTrip) {
  for (const double target : {0.05, 0.2, 0.5, 0.8, 0.95}) {
    const double rho =
        core::gaussian_correlation_for_envelope_correlation(target);
    const double back = core::envelope_correlation_from_gaussian(
        cdouble(rho, 0.0), 1.0, 1.0);
    EXPECT_NEAR(back, target, 1e-10) << "target " << target;
  }
  EXPECT_DOUBLE_EQ(core::gaussian_correlation_for_envelope_correlation(0.0),
                   0.0);
  EXPECT_DOUBLE_EQ(core::gaussian_correlation_for_envelope_correlation(1.0),
                   1.0);
  EXPECT_THROW((void)core::gaussian_correlation_for_envelope_correlation(1.5),
               ContractViolation);
}

TEST(EnvelopeCorrelation, MatchesMonteCarlo) {
  // The exact 2F1 formula against measured Pearson correlation of the
  // generated envelopes — a deep end-to-end consistency check between the
  // analytic layer and the generator.
  for (const double mag : {0.3, 0.6, 0.9}) {
    core::CovarianceBuilder builder(2);
    builder.set_gaussian_power(0, 1.0).set_gaussian_power(1, 2.0);
    const cdouble mu = mag * std::sqrt(2.0) * std::polar(1.0, 0.7);
    builder.set_cross_entry(0, 1, mu);
    const core::SamplePipeline gen(
        core::ColoringPlan::create(builder.build()));
    const double predicted =
        core::envelope_correlation_from_gaussian(mu, 1.0, 2.0);

    random::Rng rng(0xEC0 + static_cast<std::uint64_t>(mag * 100));
    const std::size_t n = 200000;
    numeric::RVector r0(n);
    numeric::RVector r1(n);
    for (std::size_t t = 0; t < n; ++t) {
      const auto r = gen.sample_envelopes(rng);
      r0[t] = r[0];
      r1[t] = r[1];
    }
    const double measured = stats::pearson_correlation(r0, r1);
    EXPECT_NEAR(measured, predicted, 0.01) << "|rho| = " << mag;
  }
}

TEST(EnvelopeCorrelation, MatrixForm) {
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 1.0)
      .set_gaussian_power(1, 1.0)
      .set_gaussian_power(2, 1.0);
  builder.set_cross_entry(0, 1, cdouble(0.8, 0.0));
  builder.set_cross_entry(1, 2, cdouble(0.0, 0.5));
  builder.set_cross_entry(0, 2, cdouble(0.0, 0.0));
  const auto rho = core::envelope_correlation_matrix(builder.build());
  EXPECT_DOUBLE_EQ(rho(0, 0), 1.0);
  EXPECT_NEAR(rho(0, 1), rho(1, 0), 1e-15);
  EXPECT_GT(rho(0, 1), rho(1, 2));  // 0.8 vs 0.5 magnitude
  EXPECT_NEAR(rho(0, 2), 0.0, 1e-14);
}

}  // namespace
