#pragma once

/// \file distributions.hpp
/// \brief Analytic distributions the test/bench harnesses compare against.
///
/// The Rayleigh distribution is parameterised the way the paper uses it:
/// the envelope r = |z| of a circularly-symmetric complex Gaussian
/// z ~ CN(0, sigma_g^2) is Rayleigh with scale sigma = sigma_g / sqrt(2),
/// mean 0.8862 sigma_g (Eq. 14) and variance 0.2146 sigma_g^2 (Eq. 15).
///
/// The scenario-layer marginals live here too: Rician (LOS),
/// double-Rayleigh (the closed-form Bessel-K law of cascaded channels
/// after Ibdah & Ding), TWDP (two specular waves plus diffuse, after
/// Maric & Njemcevic, arXiv:2502.03388), and the composite-fading family
/// — lognormal shadowing gain, Suzuki (lognormal-over-Rayleigh, after
/// Suzuki 1977), Nakagami-m and Weibull — each exposing the exact (or
/// quadrature-exact) mean/variance and a CDF usable by the KS
/// validators.

#include <vector>

namespace rfade::stats {

/// Rayleigh distribution with scale parameter sigma (the per-dimension
/// standard deviation of the underlying complex Gaussian).
class RayleighDistribution {
 public:
  /// \pre sigma > 0.
  explicit RayleighDistribution(double sigma);

  /// Construct from the power sigma_g^2 of the complex Gaussian whose
  /// envelope is Rayleigh (paper notation).
  static RayleighDistribution from_gaussian_power(double sigma_g_squared);

  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  /// Inverse CDF; \pre p in [0, 1).
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double mean() const;      ///< sigma sqrt(pi/2)
  [[nodiscard]] double variance() const;  ///< (2 - pi/2) sigma^2

 private:
  double sigma_;
};

/// Rician (Rice) distribution of the envelope r = |z| of a complex
/// Gaussian with a deterministic (LOS) mean: z = m + g, |m| = nu,
/// g ~ CN(0, 2 sigma^2).  The Rician K-factor is the LOS-to-diffuse power
/// ratio K = nu^2 / (2 sigma^2); K = 0 degenerates to Rayleigh(sigma).
/// This is the marginal law of the scenario layer's LOS branches
/// (scenario/scenario_spec.hpp).
class RicianDistribution {
 public:
  /// \pre nu >= 0, sigma > 0.
  RicianDistribution(double nu, double sigma);

  /// Construct from the K-factor and the *diffuse* complex-Gaussian power
  /// sigma_g^2 (the covariance diagonal of the scenario's diffuse part):
  /// sigma = sqrt(sigma_g^2 / 2), nu = sqrt(K sigma_g^2).
  static RicianDistribution from_k_factor(double k_factor,
                                          double diffuse_gaussian_power);

  [[nodiscard]] double nu() const noexcept { return nu_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  /// K = nu^2 / (2 sigma^2).
  [[nodiscard]] double k_factor() const;

  [[nodiscard]] double pdf(double r) const;
  /// CDF 1 - Q_1(nu/sigma, r/sigma), evaluated by adaptive integration of
  /// the pdf (exponentially-scaled I_0 keeps it stable for any K).
  [[nodiscard]] double cdf(double r) const;
  /// Exact mean sigma sqrt(pi/2) L_{1/2}(-K) via scaled Bessel I_0/I_1.
  [[nodiscard]] double mean() const;
  /// E[r^2] = 2 sigma^2 + nu^2.
  [[nodiscard]] double second_moment() const;
  [[nodiscard]] double variance() const;  ///< second_moment - mean^2

 private:
  double nu_;
  double sigma_;
};

/// Double-Rayleigh (cascaded Rayleigh) distribution of the envelope
/// r = r1 r2 of the product of two independent Rayleigh factors with
/// per-dimension scales sigma1, sigma2 — the marginal of each branch of
/// the instant and the real-time cascade
/// (scenario::cascaded_branch_marginal).  With c = sigma1 sigma2 the law is closed-form in
/// the modified Bessel functions of the second kind (special/bessel_k.hpp):
///
///   pdf(r) = (r / c^2) K_0(r / c),   cdf(r) = 1 - (r / c) K_1(r / c),
///   E[r] = (pi/2) c,  E[r^2] = 4 c^2   (amount of fading 3).
class DoubleRayleighDistribution {
 public:
  /// \pre sigma1 > 0, sigma2 > 0 (per-dimension scales of the factors).
  DoubleRayleighDistribution(double sigma1, double sigma2);

  /// Construct from the complex powers sigma_g^2 = 2 sigma^2 of the two
  /// Gaussian stages whose envelopes are multiplied (the effective
  /// covariance diagonals of a cascade's stages).
  static DoubleRayleighDistribution from_gaussian_powers(double first_power,
                                                         double second_power);

  [[nodiscard]] double sigma1() const noexcept { return sigma1_; }
  [[nodiscard]] double sigma2() const noexcept { return sigma2_; }
  /// c = sigma1 sigma2, the scale of the product law.
  [[nodiscard]] double scale() const noexcept { return sigma1_ * sigma2_; }

  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  [[nodiscard]] double mean() const;           ///< (pi/2) sigma1 sigma2
  [[nodiscard]] double second_moment() const;  ///< 4 sigma1^2 sigma2^2
  [[nodiscard]] double variance() const;       ///< second_moment - mean^2

 private:
  double sigma1_;
  double sigma2_;
};

/// TWDP (two-wave with diffuse power) distribution of the envelope
/// r = |v1 e^{i phi1} + v2 e^{i phi2} + g|, g ~ CN(0, 2 sigma^2), with
/// phi1, phi2 independent uniform — the marginal of the TWDP scenario
/// (Maric & Njemcevic).  Conditional on the relative phase
/// alpha = phi1 - phi2 the law is Rician with
/// nu(alpha) = sqrt(v1^2 + v2^2 + 2 v1 v2 cos alpha); the TWDP law is the
/// phase average over alpha, evaluated by spectrally-convergent
/// trapezoidal quadrature of the Rician mixture (exact single-Rician
/// delegation when v2 = 0, so Delta = 0 reproduces Rician bit-for-bit
/// and K = 0 Rayleigh).
class TwdpDistribution {
 public:
  /// \pre v1 >= v2 >= 0, sigma > 0.
  TwdpDistribution(double v1, double v2, double sigma);

  /// Construct from the TWDP shape parameters: K = (v1^2 + v2^2) /
  /// (2 sigma^2) (total specular-to-diffuse power ratio, >= 0) and
  /// Delta = 2 v1 v2 / (v1^2 + v2^2) in [0, 1], with the diffuse complex
  /// power sigma_g^2 = 2 sigma^2 taken from the scenario's effective
  /// covariance diagonal.
  static TwdpDistribution from_parameters(double k_factor, double delta,
                                          double diffuse_gaussian_power);

  [[nodiscard]] double v1() const noexcept { return v1_; }
  [[nodiscard]] double v2() const noexcept { return v2_; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }
  /// K = (v1^2 + v2^2) / (2 sigma^2).
  [[nodiscard]] double k_factor() const;
  /// Delta = 2 v1 v2 / (v1^2 + v2^2); 0 when K = 0.
  [[nodiscard]] double delta() const;

  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  /// Phase average of the exact conditional Rician means.
  [[nodiscard]] double mean() const;
  /// E[r^2] = 2 sigma^2 + v1^2 + v2^2 (exact).
  [[nodiscard]] double second_moment() const;
  [[nodiscard]] double variance() const;  ///< second_moment - mean^2

 private:
  double v1_;
  double v2_;
  double sigma_;
  /// Conditional Rician laws at the quadrature nodes alpha_i in [0, pi]
  /// with matching weights (normalised to sum 1).  A single entry with
  /// weight 1 when v2 = 0 — the exact Rician/Rayleigh degeneracy.
  std::vector<RicianDistribution> conditional_;
  std::vector<double> weights_;
  /// Precomputed cumulative integral of the mixture pdf on a uniform
  /// grid over the support [lo_, hi_] (composite Simpson per cell, built
  /// once at construction).  cdf(r) adds one local Simpson slice on top
  /// of the nearest grid value, so KS sweeps over thousands of sample
  /// points stay O(1) per query instead of re-integrating from lo_.
  double grid_lo_ = 0.0;
  double grid_hi_ = 0.0;
  double grid_step_ = 0.0;
  std::vector<double> cumulative_;
};

/// Lognormal distribution of a positive amplitude gain A = 10^{S/20}
/// with S ~ N(mu_dB, sigma_dB^2) — the large-scale shadowing law
/// (Suzuki 1977; the Gudmundson 1991 model correlates S over
/// time/space).  Internally the natural-log parameterisation
/// ln A ~ N(mu_ln, sigma_ln^2) with mu_ln = mu_dB ln(10)/20 and
/// sigma_ln = sigma_dB ln(10)/20; moments and the CDF/quantile are
/// closed-form in erf / the normal quantile.
class LognormalDistribution {
 public:
  /// ln(10)/20: dB-of-amplitude to natural log.  The single definition
  /// of the conversion every dB-parameterised consumer (from_db, the
  /// shadowing gain synthesis) must share, so "marginal of the
  /// generated gains" stays bit-exact.
  static constexpr double kDbToNaturalLog = 0.11512925464970229;

  /// Natural-log parameterisation.  \pre sigma_ln > 0, mu_ln finite.
  LognormalDistribution(double mu_ln, double sigma_ln);

  /// dB parameterisation of an amplitude gain (see class comment).
  [[nodiscard]] static LognormalDistribution from_db(double mean_db,
                                                     double sigma_db);

  [[nodiscard]] double mu_ln() const noexcept { return mu_; }
  [[nodiscard]] double sigma_ln() const noexcept { return sigma_; }

  [[nodiscard]] double pdf(double x) const;
  [[nodiscard]] double cdf(double x) const;
  /// Inverse CDF; \pre p in [0, 1).
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double mean() const;           ///< exp(mu + sigma^2/2)
  [[nodiscard]] double second_moment() const;  ///< exp(2 mu + 2 sigma^2)
  [[nodiscard]] double variance() const;

 private:
  double mu_;
  double sigma_;
};

/// Nakagami-m distribution of an envelope with shape m >= 1/2 and spread
/// Omega = E[r^2] > 0:
///
///   pdf(r) = 2 m^m r^{2m-1} e^{-m r^2 / Omega} / (Gamma(m) Omega^m),
///   cdf(r) = P(m, m r^2 / Omega)   (regularized incomplete gamma).
///
/// m = 1 is exactly Rayleigh with sigma_g^2 = Omega; m = 1/2 the
/// one-sided Gaussian; m > 1 shallower-than-Rayleigh fading.  This is
/// the target marginal of the copula transform
/// (scenario/composite/copula.hpp).
class NakagamiDistribution {
 public:
  /// \pre m >= 0.5, omega > 0.
  NakagamiDistribution(double m, double omega);

  [[nodiscard]] double m() const noexcept { return m_; }
  [[nodiscard]] double omega() const noexcept { return omega_; }

  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  /// Inverse CDF sqrt(Omega/m * invP(m, p)); \pre p in [0, 1).
  [[nodiscard]] double quantile(double p) const;
  /// Gamma(m + 1/2) / Gamma(m) sqrt(Omega / m).
  [[nodiscard]] double mean() const;
  [[nodiscard]] double second_moment() const;  ///< Omega
  [[nodiscard]] double variance() const;       ///< Omega - mean^2

 private:
  double m_;
  double omega_;
};

/// Weibull distribution with shape k > 0 and scale lambda > 0:
/// cdf(r) = 1 - e^{-(r/lambda)^k}.  k = 2 is exactly Rayleigh with
/// sigma = lambda / sqrt(2); the quantile lambda (-ln(1-p))^{1/k} is
/// closed-form, which makes Weibull the cheapest copula target marginal.
class WeibullDistribution {
 public:
  /// \pre shape > 0, scale > 0.
  WeibullDistribution(double shape, double scale);

  [[nodiscard]] double shape() const noexcept { return shape_; }
  [[nodiscard]] double scale() const noexcept { return scale_; }

  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  /// Inverse CDF; \pre p in [0, 1).
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double mean() const;           ///< lambda Gamma(1 + 1/k)
  [[nodiscard]] double second_moment() const;  ///< lambda^2 Gamma(1 + 2/k)
  [[nodiscard]] double variance() const;

 private:
  double shape_;
  double scale_;
};

/// Suzuki distribution of a composite envelope r = A R: a Rayleigh
/// envelope R (per-dimension scale sigma) whose local mean is modulated
/// by an independent lognormal amplitude gain A (Suzuki 1977).  Moments
/// factor exactly through the independent product; the CDF is the
/// lognormal mixture of Rayleigh CDFs
///
///   cdf(r) = E_A[ 1 - e^{-r^2 / (2 sigma^2 A^2)} ],
///
/// evaluated by spectrally-convergent Gauss-type quadrature over the
/// Gaussian dB variable — the exact marginal of SuzukiGenerator
/// (scenario/composite/suzuki.hpp) branches.
class SuzukiDistribution {
 public:
  /// \pre sigma > 0; shadowing's sigma_ln > 0.
  SuzukiDistribution(double sigma, LognormalDistribution shadowing);

  /// Construct from the diffuse complex-Gaussian power sigma_g^2 (the
  /// effective covariance diagonal) and the dB shadowing parameters.
  [[nodiscard]] static SuzukiDistribution from_gaussian_power(
      double sigma_g_squared, double mean_db, double sigma_db);

  [[nodiscard]] double sigma() const noexcept { return rayleigh_sigma_; }
  [[nodiscard]] const LognormalDistribution& shadowing() const noexcept {
    return shadowing_;
  }

  [[nodiscard]] double pdf(double r) const;
  [[nodiscard]] double cdf(double r) const;
  [[nodiscard]] double mean() const;           ///< E[A] sigma sqrt(pi/2)
  [[nodiscard]] double second_moment() const;  ///< E[A^2] 2 sigma^2
  [[nodiscard]] double variance() const;

 private:
  double rayleigh_sigma_;
  LognormalDistribution shadowing_;
  /// Quadrature nodes (values of A) and weights (normalised to sum 1)
  /// for the lognormal mixture, precomputed at construction.
  std::vector<double> mixture_gains_;
  std::vector<double> mixture_weights_;
};

/// Standard normal CDF.
[[nodiscard]] double normal_cdf(double x);

/// Standard normal quantile Phi^{-1}(p) (Acklam's rational approximation
/// refined by one Halley step on erfc); \pre p in (0, 1).
[[nodiscard]] double normal_quantile(double p);

/// Normal CDF with mean/stddev.
[[nodiscard]] double normal_cdf(double x, double mean, double stddev);

/// Exponential CDF with the given rate lambda (envelope power |z|^2 of a
/// CN(0, sigma_g^2) variable is exponential with rate 1/sigma_g^2).
[[nodiscard]] double exponential_cdf(double x, double rate);

}  // namespace rfade::stats
