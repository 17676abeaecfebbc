#include "rfade/metrics/tap.hpp"

#include <cmath>
#include <cstdio>
#include <utility>

#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"
#include "rfade/telemetry/instruments.hpp"
#include "rfade/telemetry/registry.hpp"

namespace rfade::metrics {

namespace {

/// Deterministic short decimal for label values ("0.5", "8", "1e-05").
std::string format_number(double value) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%g", value);
  return buffer;
}

std::string join_labels(std::string base, const std::string& extra) {
  if (extra.empty()) return base;
  if (base.empty()) return extra;
  base += ',';
  base += extra;
  return base;
}

}  // namespace

MetricsTap::MetricsTap(AnalyticReference reference, MetricsTapConfig config)
    : reference_(std::move(reference)),
      config_(std::move(config)),
      dimension_(reference_.branch_power.size()),
      enabled_(config_.enabled) {
  RFADE_EXPECTS(dimension_ >= 1,
                "MetricsTap: reference must carry per-branch powers");
  for (const double power : reference_.branch_power) {
    RFADE_EXPECTS(power > 0.0 && std::isfinite(power),
                  "MetricsTap: branch powers must be finite > 0");
  }
  if (!config_.thresholds.empty()) {
    std::vector<double> rms(dimension_);
    for (std::size_t j = 0; j < dimension_; ++j) {
      rms[j] = std::sqrt(reference_.branch_power[j]);
    }
    lcr_ = std::make_unique<LevelCrossingAccumulator>(
        dimension_, config_.thresholds, std::move(rms));
  }
  if (!config_.lags.empty()) {
    acf_ = std::make_unique<AcfAccumulator>(dimension_, config_.lags);
  }
  if (config_.snr_linear > 0.0) {
    mi_ = std::make_unique<MutualInformationAccumulator>(
        dimension_, config_.snr_linear, reference_.branch_power,
        config_.lags);
  }
  if (!lcr_ && !acf_ && !mi_) {
    throw ValueError("MetricsTap: configuration enables no accumulator");
  }
}

MetricsTap::~MetricsTap() = default;

std::uint64_t MetricsTap::samples_observed() const noexcept {
  if (lcr_) return lcr_->count();
  if (acf_) return acf_->count();
  return mi_ ? mi_->count() : 0;
}

template <typename Block>
void MetricsTap::observe_impl(const Block& block) {
  if (lcr_) lcr_->accumulate(block);
  if (acf_) acf_->accumulate(block);
  if (mi_) mi_->accumulate(block);
  ++blocks_observed_;
  if (config_.publish_every_blocks != 0 &&
      blocks_observed_ % config_.publish_every_blocks == 0) {
    publish();
  }
}

void MetricsTap::observe(const numeric::CMatrix& block) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  observe_impl(block);
}

void MetricsTap::observe(const numeric::CMatrixF& block) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  observe_impl(block);
}

std::shared_ptr<telemetry::Gauge> MetricsTap::gauge(const std::string& name,
                                                    const std::string& labels) {
  telemetry::Registry& registry =
      config_.registry != nullptr ? *config_.registry
                                  : telemetry::Registry::global();
  return registry.gauge(name, labels);
}

void MetricsTap::publish() {
  if constexpr (!telemetry::kCompiledIn) return;
  if (samples_observed() == 0) return;
  const std::string session_label =
      config_.session.empty() ? std::string()
                              : telemetry::label("session", config_.session);
  gauge("rfade_metrics_observed_samples", session_label)
      ->set(static_cast<double>(samples_observed()));
  for (std::size_t j = 0; j < dimension_; ++j) {
    const std::string branch = telemetry::label("branch", format_number(
                                                    static_cast<double>(j)));
    if (lcr_) {
      for (std::size_t t = 0; t < lcr_->thresholds().size(); ++t) {
        const LevelCrossingStats stats = lcr_->finalize(j, t);
        const std::string labels = join_labels(
            join_labels(branch, telemetry::label(
                                    "rho", format_number(
                                               lcr_->thresholds()[t]))),
            session_label);
        gauge("rfade_metrics_lcr_per_sample", labels)->set(
            stats.lcr_per_sample);
        gauge("rfade_metrics_afd_samples", labels)->set(stats.afd_samples);
      }
    }
    if (acf_) {
      for (const std::size_t lag : acf_->lags()) {
        if (lag == 0 || acf_->count() <= lag) continue;
        const numeric::cdouble rho = acf_->autocorrelation(j, lag);
        const std::string labels = join_labels(
            join_labels(branch, telemetry::label(
                                    "lag", format_number(
                                               static_cast<double>(lag)))),
            session_label);
        gauge("rfade_metrics_acf_re", labels)->set(rho.real());
        gauge("rfade_metrics_acf_im", labels)->set(rho.imag());
      }
    }
    if (mi_ && mi_->count() > 0) {
      const std::string labels = join_labels(branch, session_label);
      gauge("rfade_metrics_mi_mean", labels)->set(mi_->mean(j));
      gauge("rfade_metrics_mi_variance", labels)->set(mi_->variance(j));
      for (const std::size_t lag : mi_->lags()) {
        if (mi_->count() <= lag) continue;
        gauge("rfade_metrics_mi_autocov",
              join_labels(
                  join_labels(branch,
                              telemetry::label(
                                  "lag",
                                  format_number(static_cast<double>(lag)))),
                  session_label))
            ->set(mi_->autocovariance(j, lag));
      }
    }
  }
  bool all_ok = true;
  for (const DriftReport& report : health()) {
    const std::string labels = join_labels(
        join_labels(
            join_labels(telemetry::label("metric", report.metric),
                        telemetry::label(
                            "branch",
                            format_number(
                                static_cast<double>(report.branch)))),
            telemetry::label("parameter", format_number(report.parameter))),
        session_label);
    gauge("rfade_metrics_drift", labels)->set(report.drift);
    all_ok = all_ok && report.ok;
  }
  gauge("rfade_metrics_healthy", session_label)->set(all_ok ? 1.0 : 0.0);
}

std::vector<DriftReport> MetricsTap::health() const {
  // The references are evaluated once per tap, on the first call: never
  // in the constructor or observe, which sit on a session's first block.
  std::call_once(expected_once_, [this] {
    expected_ = expected_values(reference_, lcr_.get(), acf_.get(), mi_.get());
  });
  std::vector<DriftReport> reports;
  if (lcr_ && lcr_->count() > 0) {
    auto r = evaluate_health(*lcr_, reference_, config_.tolerances, expected_);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  if (acf_ && acf_->count() > 0) {
    auto r = evaluate_health(*acf_, reference_, config_.tolerances, expected_);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  if (mi_ && mi_->count() > 0) {
    auto r = evaluate_health(*mi_, reference_, config_.tolerances, expected_);
    reports.insert(reports.end(), r.begin(), r.end());
  }
  return reports;
}

bool MetricsTap::healthy() const {
  for (const DriftReport& report : health()) {
    if (!report.ok) return false;
  }
  return true;
}

void MetricsTap::merge(const MetricsTap& other) {
  if (static_cast<bool>(lcr_) != static_cast<bool>(other.lcr_) ||
      static_cast<bool>(acf_) != static_cast<bool>(other.acf_) ||
      static_cast<bool>(mi_) != static_cast<bool>(other.mi_)) {
    throw DimensionError("MetricsTap::merge: mismatched configuration");
  }
  if (lcr_) lcr_->merge(*other.lcr_);
  if (acf_) acf_->merge(*other.acf_);
  if (mi_) mi_->merge(*other.mi_);
  blocks_observed_ += other.blocks_observed_;
}

}  // namespace rfade::metrics
