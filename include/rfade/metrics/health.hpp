#pragma once

/// \file health.hpp
/// \brief Spec-derived analytic references and online drift gates.
///
/// The offline validators (PR 2-4 test suites) compare measured
/// second-order statistics against closed forms once, at test time.
/// This header turns the same closed forms into *production* references:
/// an AnalyticReference is derived from the compiled channel spec (fm,
/// per-branch powers, shadowing parameters, SNR), and evaluate_health()
/// scores each streaming accumulator's read-out against it, yielding
/// per-metric drift values a MetricsTap publishes as gauges.
///
/// Which references apply depends on the family:
///   * Rayleigh cores: Rice LCR/AFD, the J0 complex ACF, and the
///     Wang & Abdi mutual-information statistics all hold;
///   * Suzuki composites: the complex ACF follows the product law
///     J0(2 pi fm d) * exp(sigma_n^2 (e^{-d/D} - 1)) with
///     sigma_n = sigma_dB ln(10)/20 (lognormal gain ACF over the
///     Gudmundson dB-domain exponential); the Rayleigh-only LCR/MI
///     references do not apply and their gates are skipped;
///   * other families (Rician, TWDP, cascaded): measured values are
///     still published, but no analytic gate is evaluated.

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "rfade/metrics/accumulators.hpp"

namespace rfade::metrics {

/// Shadowing parameters relevant to the composite ACF product law.
struct ShadowingReference {
  double sigma_db = 0.0;              ///< dB-domain standard deviation
  double decorrelation_samples = 1.0; ///< Gudmundson D in samples
};

/// The spec-derived ground truth a MetricsTap gates against.
struct AnalyticReference {
  /// Normalised maximum Doppler fm = Fm/Fs of the core process.
  double normalized_doppler = 0.0;
  /// Per-branch mean power Omega_j (diagonal of the effective
  /// covariance); scales thresholds and normalises |h|^2.
  std::vector<double> branch_power;
  /// True when the complex field is (conditionally) Rayleigh, i.e. the
  /// Rice LCR/AFD and Wang & Abdi MI references hold.
  bool rayleigh = false;
  /// Set for Suzuki composites: switches the ACF reference to the
  /// product law and disables the Rayleigh-only gates.
  std::optional<ShadowingReference> shadowing;
  /// Linear SNR of the mutual-information observable.
  double snr_linear = 10.0;
};

/// Expected up-crossings per sample at normalised threshold \p rho
/// (Rice: sqrt(2 pi) fm rho e^{-rho^2}).
[[nodiscard]] double expected_lcr_per_sample(const AnalyticReference& ref,
                                             double rho);

/// Expected mean fade duration in samples at normalised threshold
/// \p rho (Rice: (e^{rho^2} - 1) / (rho fm sqrt(2 pi))).
[[nodiscard]] double expected_afd_samples(const AnalyticReference& ref,
                                          double rho);

/// Expected normalised complex-ACF real part at \p lag samples:
/// J0(2 pi fm lag), times the shadowing product-law factor
/// exp(sigma_n^2 (e^{-lag/D} - 1)) when \p ref carries shadowing.
[[nodiscard]] double expected_acf(const AnalyticReference& ref,
                                  std::size_t lag);

/// Expected E[I] in bits (Wang & Abdi; Rayleigh-only).
[[nodiscard]] double expected_mi_mean(const AnalyticReference& ref);

/// Expected Var[I] in bits^2 (Wang & Abdi; Rayleigh-only).
[[nodiscard]] double expected_mi_variance(const AnalyticReference& ref);

/// Expected MI autocovariance at \p lag samples, via the Laguerre series
/// at field correlation J0(2 pi fm lag) (Rayleigh-only).
[[nodiscard]] double expected_mi_autocovariance(const AnalyticReference& ref,
                                                std::size_t lag);

/// Per-metric drift tolerances, interpreted by evaluate_health() (see
/// DriftReport::drift for the normalisation each family uses).  Defaults
/// accommodate the Monte Carlo noise of a few hundred blocks; tighten
/// them for long-running sessions.
struct HealthTolerances {
  double lcr = 0.25;       ///< relative error of up-crossings/sample
  double afd = 0.25;       ///< relative error of mean fade duration
  double acf = 0.12;       ///< absolute error of the normalised ACF
  double mi_mean = 0.10;   ///< relative error of E[I]
  double mi_variance = 0.20;  ///< relative error of Var[I]
  /// Absolute error of C(lag), normalised by the analytic variance
  /// (autocovariance MC noise scales with C(0)).
  double mi_autocovariance = 0.25;
};

/// One gate evaluation: a measured statistic against its reference.
struct DriftReport {
  std::string metric;  ///< "lcr", "afd", "acf", "mi_mean", ...
  std::size_t branch = 0;
  /// Threshold rho for lcr/afd, lag for acf/mi_autocovariance, else 0.
  double parameter = 0.0;
  double measured = 0.0;
  double expected = 0.0;
  /// The normalised deviation compared against the tolerance: relative
  /// for lcr/afd/mi_mean/mi_variance, absolute for acf, variance-scaled
  /// absolute for mi_autocovariance.
  double drift = 0.0;
  double tolerance = 0.0;
  bool ok = true;
};

/// The analytic values the gates compare one set of accumulators against.
/// They depend on the reference and the thresholds and lags alone — not
/// on the branch or the samples — so a MetricsTap evaluates them once,
/// on its first health(), rather than per branch on every publish (the
/// Wang & Abdi autocovariance series alone is ≈15 ms per lag).  A family
/// whose gate does not apply to the reference keeps it empty.
struct ExpectedValues {
  std::vector<double> lcr;  ///< expected_lcr_per_sample per threshold
  std::vector<double> afd;  ///< expected_afd_samples per threshold
  std::vector<double> acf;  ///< expected_acf per AcfAccumulator lag
  double mi_mean = 0.0;
  double mi_variance = 0.0;
  std::vector<double> mi_autocovariance;  ///< per MI accumulator lag
};

/// Evaluates the references of every accumulator given (nullptr for an
/// absent one), with the functions above: the very doubles the
/// three-argument evaluate_health() overloads compare against.
[[nodiscard]] ExpectedValues expected_values(
    const AnalyticReference& ref, const LevelCrossingAccumulator* lcr,
    const AcfAccumulator* acf, const MutualInformationAccumulator* mi);

/// Gates \p lcr's read-outs against the Rice references.  Empty when the
/// reference is not Rayleigh (no analytic LCR applies).
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const LevelCrossingAccumulator& lcr, const AnalyticReference& ref,
    const HealthTolerances& tolerances);

/// Gates \p acf's normalised ACF (real part) against J0 or the Suzuki
/// product law.  Lags with no pairs yet are skipped.
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const AcfAccumulator& acf, const AnalyticReference& ref,
    const HealthTolerances& tolerances);

/// Gates \p mi's mean/variance/autocovariance against the Wang & Abdi
/// closed forms.  Empty when the reference is not Rayleigh.
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const MutualInformationAccumulator& mi, const AnalyticReference& ref,
    const HealthTolerances& tolerances);

/// The same gates against references already evaluated by
/// expected_values() for this accumulator's configuration.
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const LevelCrossingAccumulator& lcr, const AnalyticReference& ref,
    const HealthTolerances& tolerances, const ExpectedValues& expected);
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const AcfAccumulator& acf, const AnalyticReference& ref,
    const HealthTolerances& tolerances, const ExpectedValues& expected);
[[nodiscard]] std::vector<DriftReport> evaluate_health(
    const MutualInformationAccumulator& mi, const AnalyticReference& ref,
    const HealthTolerances& tolerances, const ExpectedValues& expected);

}  // namespace rfade::metrics
