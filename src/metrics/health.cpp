#include "rfade/metrics/health.hpp"

#include <cmath>

#include "rfade/special/bessel.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/mutual_information.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::metrics {

namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;
constexpr double kLn10Over20 = 0.11512925464970228420089957273422;

double field_correlation(const AnalyticReference& ref, std::size_t lag) {
  return special::bessel_j0(2.0 * kPi * ref.normalized_doppler *
                            static_cast<double>(lag));
}

double relative_drift(double measured, double expected) {
  return std::abs(measured - expected) / std::abs(expected);
}

/// The Rice LCR/AFD and Wang & Abdi MI references hold for a Rayleigh
/// field that no shadowing modulates.
bool rice_applies(const AnalyticReference& ref) {
  return ref.rayleigh && !ref.shadowing;
}

}  // namespace

double expected_lcr_per_sample(const AnalyticReference& ref, double rho) {
  return stats::theoretical_lcr(rho, ref.normalized_doppler);
}

double expected_afd_samples(const AnalyticReference& ref, double rho) {
  return stats::theoretical_afd(rho, ref.normalized_doppler);
}

double expected_acf(const AnalyticReference& ref, std::size_t lag) {
  double acf = field_correlation(ref, lag);
  if (ref.shadowing) {
    // Lognormal gain ACF over the Gudmundson dB-domain exponential:
    // E[g g_d]/E[g^2] = exp(sigma_n^2 (e^{-d/D} - 1)) with
    // sigma_n = sigma_dB ln(10)/20 — the "J0 x exponential" product law.
    const double sigma_n = ref.shadowing->sigma_db * kLn10Over20;
    const double gudmundson = std::exp(
        -static_cast<double>(lag) / ref.shadowing->decorrelation_samples);
    acf *= std::exp(sigma_n * sigma_n * (gudmundson - 1.0));
  }
  return acf;
}

double expected_mi_mean(const AnalyticReference& ref) {
  return stats::mi_mean(ref.snr_linear);
}

double expected_mi_variance(const AnalyticReference& ref) {
  return stats::mi_variance(ref.snr_linear);
}

double expected_mi_autocovariance(const AnalyticReference& ref,
                                  std::size_t lag) {
  return stats::mi_autocovariance(ref.snr_linear,
                                  field_correlation(ref, lag));
}

ExpectedValues expected_values(const AnalyticReference& ref,
                               const LevelCrossingAccumulator* lcr,
                               const AcfAccumulator* acf,
                               const MutualInformationAccumulator* mi) {
  ExpectedValues expected;
  if (lcr && rice_applies(ref)) {
    for (const double rho : lcr->thresholds()) {
      expected.lcr.push_back(expected_lcr_per_sample(ref, rho));
      expected.afd.push_back(expected_afd_samples(ref, rho));
    }
  }
  // The complex-ACF reference holds for the Rayleigh core and, via the
  // product law, the Suzuki composite over it.
  if (acf && ref.rayleigh) {
    for (const std::size_t lag : acf->lags()) {
      expected.acf.push_back(expected_acf(ref, lag));
    }
  }
  if (mi && rice_applies(ref)) {
    expected.mi_mean = expected_mi_mean(ref);
    expected.mi_variance = expected_mi_variance(ref);
    for (const std::size_t lag : mi->lags()) {
      expected.mi_autocovariance.push_back(
          expected_mi_autocovariance(ref, lag));
    }
  }
  return expected;
}

std::vector<DriftReport> evaluate_health(const LevelCrossingAccumulator& lcr,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances) {
  if (!rice_applies(ref) || lcr.count() == 0) return {};
  return evaluate_health(lcr, ref, tolerances,
                         expected_values(ref, &lcr, nullptr, nullptr));
}

std::vector<DriftReport> evaluate_health(const AcfAccumulator& acf,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances) {
  if (!ref.rayleigh) return {};
  return evaluate_health(acf, ref, tolerances,
                         expected_values(ref, nullptr, &acf, nullptr));
}

std::vector<DriftReport> evaluate_health(const MutualInformationAccumulator& mi,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances) {
  if (!rice_applies(ref) || mi.count() == 0) return {};
  return evaluate_health(mi, ref, tolerances,
                         expected_values(ref, nullptr, nullptr, &mi));
}

std::vector<DriftReport> evaluate_health(const LevelCrossingAccumulator& lcr,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances,
                                         const ExpectedValues& expected) {
  std::vector<DriftReport> reports;
  if (!rice_applies(ref) || lcr.count() == 0) return reports;
  RFADE_EXPECTS(expected.lcr.size() == lcr.thresholds().size(),
                "evaluate_health: expected values of another configuration");
  for (std::size_t j = 0; j < lcr.dimension(); ++j) {
    for (std::size_t t = 0; t < lcr.thresholds().size(); ++t) {
      const double rho = lcr.thresholds()[t];
      const LevelCrossingStats stats = lcr.finalize(j, t);
      DriftReport report;
      report.metric = "lcr";
      report.branch = j;
      report.parameter = rho;
      report.measured = stats.lcr_per_sample;
      report.expected = expected.lcr[t];
      report.drift = relative_drift(report.measured, report.expected);
      report.tolerance = tolerances.lcr;
      report.ok = report.drift <= report.tolerance;
      reports.push_back(report);
      if (stats.up_crossings > 0) {
        DriftReport afd;
        afd.metric = "afd";
        afd.branch = j;
        afd.parameter = rho;
        afd.measured = stats.afd_samples;
        afd.expected = expected.afd[t];
        afd.drift = relative_drift(afd.measured, afd.expected);
        afd.tolerance = tolerances.afd;
        afd.ok = afd.drift <= afd.tolerance;
        reports.push_back(afd);
      }
    }
  }
  return reports;
}

std::vector<DriftReport> evaluate_health(const AcfAccumulator& acf,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances,
                                         const ExpectedValues& expected) {
  std::vector<DriftReport> reports;
  if (!ref.rayleigh) return reports;
  RFADE_EXPECTS(expected.acf.size() == acf.lags().size(),
                "evaluate_health: expected values of another configuration");
  for (std::size_t j = 0; j < acf.dimension(); ++j) {
    for (std::size_t k = 0; k < acf.lags().size(); ++k) {
      const std::size_t lag = acf.lags()[k];
      if (lag == 0 || acf.count() <= lag) continue;
      DriftReport report;
      report.metric = "acf";
      report.branch = j;
      report.parameter = static_cast<double>(lag);
      report.measured = acf.autocorrelation(j, lag).real();
      report.expected = expected.acf[k];
      report.drift = std::abs(report.measured - report.expected);
      report.tolerance = tolerances.acf;
      report.ok = report.drift <= report.tolerance;
      reports.push_back(report);
    }
  }
  return reports;
}

std::vector<DriftReport> evaluate_health(const MutualInformationAccumulator& mi,
                                         const AnalyticReference& ref,
                                         const HealthTolerances& tolerances,
                                         const ExpectedValues& expected) {
  std::vector<DriftReport> reports;
  if (!rice_applies(ref) || mi.count() == 0) return reports;
  RFADE_EXPECTS(expected.mi_autocovariance.size() == mi.lags().size(),
                "evaluate_health: expected values of another configuration");
  const double variance_ref = expected.mi_variance;
  for (std::size_t j = 0; j < mi.dimension(); ++j) {
    DriftReport mean;
    mean.metric = "mi_mean";
    mean.branch = j;
    mean.measured = mi.mean(j);
    mean.expected = expected.mi_mean;
    mean.drift = relative_drift(mean.measured, mean.expected);
    mean.tolerance = tolerances.mi_mean;
    mean.ok = mean.drift <= mean.tolerance;
    reports.push_back(mean);

    DriftReport variance;
    variance.metric = "mi_variance";
    variance.branch = j;
    variance.measured = mi.variance(j);
    variance.expected = variance_ref;
    variance.drift = relative_drift(variance.measured, variance.expected);
    variance.tolerance = tolerances.mi_variance;
    variance.ok = variance.drift <= variance.tolerance;
    reports.push_back(variance);

    for (std::size_t k = 0; k < mi.lags().size(); ++k) {
      const std::size_t lag = mi.lags()[k];
      if (mi.count() <= lag) continue;
      DriftReport cov;
      cov.metric = "mi_autocov";
      cov.branch = j;
      cov.parameter = static_cast<double>(lag);
      cov.measured = mi.autocovariance(j, lag);
      cov.expected = expected.mi_autocovariance[k];
      cov.drift = std::abs(cov.measured - cov.expected) / variance_ref;
      cov.tolerance = tolerances.mi_autocovariance;
      cov.ok = cov.drift <= cov.tolerance;
      reports.push_back(cov);
    }
  }
  return reports;
}

}  // namespace rfade::metrics
