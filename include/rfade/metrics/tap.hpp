#pragma once

/// \file tap.hpp
/// \brief MetricsTap: opt-in link-level metrics over an emitted stream.
///
/// A tap owns one set of streaming accumulators (accumulators.hpp), an
/// AnalyticReference derived from the emitting spec (health.hpp), and
/// the telemetry gauges it publishes into.  It attaches to
/// core::FadingStream (set_metrics_tap) or service::Session
/// (enable_metrics); the host calls observe() on every emitted block.
///
/// Cost model mirrors telemetry::set_enabled: a *disabled* tap's
/// observe() is one relaxed atomic load and a never-taken branch — the
/// hot path pays nothing until someone turns the tap on.  An enabled
/// tap runs the metrics-path accumulators: with the default config one
/// log2 and a |z|^2 level test per complex sample, and each block's
/// lag products and MI terms folded column by column through ExactSum's
/// block add — ≈45-65 ns/sample (1024 x 8 f64/f32 iid blocks, warm
/// tap, median of 31, 4-vCPU AVX-512 VM).  A tap evaluates the analytic
/// references once, on its first health() — the Wang & Abdi MI
/// autocovariance series, ≈15 ms per lag — and reuses them afterwards
/// (they depend only on the reference, thresholds and lags), so later
/// publishes cost only the read-outs and gauge updates, ≈0.15-0.2 ms at
/// N = 4.  bench_metrics_overhead gates the disabled and the enabled
/// costs as ratios to a tap-free stream.
///
/// Publishing: every publish_every_blocks observed blocks (and on any
/// explicit publish() call) the tap pushes measured values and drift
/// gauges to its telemetry registry:
///
///   rfade_metrics_lcr_per_sample{branch,rho}     measured LCR
///   rfade_metrics_afd_samples{branch,rho}        measured AFD
///   rfade_metrics_acf_re/_im{branch,lag}         normalised complex ACF
///   rfade_metrics_mi_mean/_variance{branch}      MI statistics (bits)
///   rfade_metrics_mi_autocov{branch,lag}
///   rfade_metrics_drift{metric,branch,parameter} drift vs analytic ref
///   rfade_metrics_healthy{}                      1 while every gate ok
///   rfade_metrics_observed_samples{}             instants folded in
///
/// Shard taps over adjacent block ranges merge() exactly (delegating to
/// the accumulators' bit-exact seam stitching).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "rfade/metrics/accumulators.hpp"
#include "rfade/metrics/health.hpp"
#include "rfade/numeric/matrix.hpp"

namespace rfade::telemetry {
class Registry;
class Gauge;
}  // namespace rfade::telemetry

namespace rfade::metrics {

/// What a MetricsTap tracks and where it publishes.
struct MetricsTapConfig {
  /// Normalised LCR/AFD thresholds rho = R / R_rms; empty disables the
  /// level-crossing accumulator.
  std::vector<double> thresholds = {0.5, 1.0};
  /// Autocorrelation / MI-autocovariance lags in samples; empty disables
  /// the ACF accumulator and MI lag tracking.
  std::vector<std::size_t> lags = {1, 2, 4, 8};
  /// Linear SNR of the mutual-information observable I = log2(1+snr|h|^2);
  /// <= 0 disables the MI accumulator.
  double snr_linear = 10.0;
  /// Blocks between automatic gauge publishes; 0 = only explicit
  /// publish() calls.
  std::size_t publish_every_blocks = 16;
  /// Drift tolerances of the health gates.
  HealthTolerances tolerances;
  /// Extra label attached to every published gauge (e.g. a session id);
  /// empty publishes unlabelled-by-session gauges.
  std::string session;
  /// Registry the gauges intern into; nullptr = telemetry::Registry::global().
  telemetry::Registry* registry = nullptr;
  /// Construct enabled?  (set_enabled flips it at runtime either way.)
  bool enabled = true;
};

/// Opt-in streaming metrics over one block stream (see file comment).
/// observe() is not thread-safe (one tap per stream/session cursor, like
/// the cursor itself); set_enabled may race with observe harmlessly.
class MetricsTap {
 public:
  /// \throws ValueError when the config enables nothing, or dimensions
  ///         disagree with \p reference.branch_power.
  MetricsTap(AnalyticReference reference, MetricsTapConfig config);
  ~MetricsTap();

  MetricsTap(const MetricsTap&) = delete;
  MetricsTap& operator=(const MetricsTap&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] const AnalyticReference& reference() const noexcept {
    return reference_;
  }
  [[nodiscard]] const MetricsTapConfig& config() const noexcept {
    return config_;
  }
  /// Blocks folded in so far (enabled observes only).
  [[nodiscard]] std::uint64_t blocks_observed() const noexcept {
    return blocks_observed_;
  }
  /// Instants folded in so far.
  [[nodiscard]] std::uint64_t samples_observed() const noexcept;

  /// Folds one emitted block (rows = instants, cols = branches) into
  /// every enabled accumulator; no-op (one relaxed load) when disabled.
  void observe(const numeric::CMatrix& block);
  /// Float32 overload: exact widening, same accumulator path.
  void observe(const numeric::CMatrixF& block);

  /// Pushes measured + drift gauges to the registry now (automatic every
  /// publish_every_blocks).  No-op when telemetry is compiled out or no
  /// samples were observed.
  void publish();

  /// Evaluates every applicable analytic gate against the current state.
  [[nodiscard]] std::vector<DriftReport> health() const;
  /// True while every evaluated gate is within tolerance (vacuously true
  /// for families with no analytic reference).
  [[nodiscard]] bool healthy() const;

  /// Folds \p other, which observed the blocks immediately following
  /// this tap's, onto the end — bit-exact via the accumulators' seam
  /// stitching.  \throws DimensionError on mismatched configuration.
  void merge(const MetricsTap& other);

  /// The underlying accumulators (null when disabled by config) — the
  /// read surface for tests and offline analysis.
  [[nodiscard]] const LevelCrossingAccumulator* level_crossings()
      const noexcept {
    return lcr_ ? &*lcr_ : nullptr;
  }
  [[nodiscard]] const AcfAccumulator* autocorrelation() const noexcept {
    return acf_ ? &*acf_ : nullptr;
  }
  [[nodiscard]] const MutualInformationAccumulator* mutual_information()
      const noexcept {
    return mi_ ? &*mi_ : nullptr;
  }

 private:
  template <typename Block>
  void observe_impl(const Block& block);

  [[nodiscard]] std::shared_ptr<telemetry::Gauge> gauge(
      const std::string& name, const std::string& labels);

  AnalyticReference reference_;
  MetricsTapConfig config_;
  std::size_t dimension_;
  std::atomic<bool> enabled_;
  std::uint64_t blocks_observed_ = 0;
  std::unique_ptr<LevelCrossingAccumulator> lcr_;
  std::unique_ptr<AcfAccumulator> acf_;
  std::unique_ptr<MutualInformationAccumulator> mi_;
  /// The analytic references health() gates against, evaluated on its
  /// first call (they depend on the reference, thresholds and lags only).
  mutable std::once_flag expected_once_;
  mutable ExpectedValues expected_;
};

}  // namespace rfade::metrics
