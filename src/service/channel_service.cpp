#include "rfade/service/channel_service.hpp"

#include <algorithm>
#include <functional>
#include <utility>

#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"
#include "rfade/support/parallel.hpp"
#include "rfade/telemetry/telemetry.hpp"

namespace rfade::service {

namespace {

// Serving-layer instruments, interned once on first use; null when
// telemetry is compiled out so every record site degrades to a
// never-taken branch.
telemetry::LatencyHistogram* session_block_histogram() {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::LatencyHistogram> histogram =
      telemetry::Registry::global().histogram("rfade_session_next_block_ns");
  return histogram.get();
}

telemetry::LatencyHistogram* batcher_width_histogram() {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::LatencyHistogram> histogram =
      telemetry::Registry::global().histogram("rfade_batcher_sweep_width");
  return histogram.get();
}

telemetry::Counter* session_seek_counter() {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::Counter> counter =
      telemetry::Registry::global().counter("rfade_session_seeks_total");
  return counter.get();
}

telemetry::Counter* sessions_opened_counter() {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::Counter> counter =
      telemetry::Registry::global().counter("rfade_sessions_opened_total");
  return counter.get();
}

}  // namespace

Session::Session(std::shared_ptr<const CompiledChannel> channel,
                 std::uint64_t seed)
    : channel_(std::move(channel)), seed_(seed) {
  RFADE_EXPECTS(channel_ != nullptr, "Session needs a compiled channel");
  if (telemetry::Counter* opened = sessions_opened_counter();
      opened != nullptr && telemetry::enabled()) {
    opened->add();
  }
  if (channel_->mode() == EmissionMode::Stream) {
    // Per-seed engine instance: its cursor serves next_block, its const
    // keyed generate_block serves random access.
    stream_.emplace(channel_->make_stream(seed));
  }
}

numeric::CMatrix Session::pull_block() {
  if (stream_.has_value()) {
    if (stream_->next_block_index() != cursor_) stream_->seek(cursor_);
    return stream_->next_block();
  }
  return generate_block(cursor_);
}

numeric::CMatrix Session::next_block() {
  const telemetry::Span span("Session::next_block");
  const telemetry::ScopedTimer timer(session_block_histogram());
  numeric::CMatrix block = pull_block();
  ++cursor_;
  if (metrics_tap_) metrics_tap_->observe(block);
  return block;
}

numeric::RMatrix Session::next_envelope_block() {
  const telemetry::Span span("Session::next_envelope_block");
  const telemetry::ScopedTimer timer(session_block_histogram());
  numeric::RMatrix block = channel_->envelope_only()
                               ? generate_envelope_block(cursor_)
                               : numeric::elementwise_abs(pull_block());
  ++cursor_;
  return block;
}

void Session::seek(std::uint64_t block_index) noexcept {
  if (telemetry::Counter* seeks = session_seek_counter();
      seeks != nullptr && telemetry::enabled()) {
    seeks->add();
  }
  cursor_ = block_index;
}

numeric::CMatrix Session::generate_block(std::uint64_t block_index) const {
  if (stream_.has_value()) {
    return stream_->generate_block(seed_, block_index);
  }
  const std::size_t count = channel_->block_size();
  switch (channel_->family()) {
    case FadingFamily::Rayleigh:
    case FadingFamily::Rician:
      return channel_->pipeline().sample_block(count, seed_, block_index);
    case FadingFamily::Twdp:
      return channel_->twdp_generator().sample_block(count, seed_,
                                                     block_index);
    case FadingFamily::CascadedRayleigh:
      return channel_->cascaded_generator().sample_block(count, seed_,
                                                         block_index);
    case FadingFamily::Suzuki:
      return channel_->suzuki_generator().sample_block(count, seed_,
                                                       block_index);
    case FadingFamily::CopulaMarginals:
      break;
  }
  throw UnsupportedOperationError(
      "generate_block: copula channels are envelope-only — use "
      "generate_envelope_block / next_envelope_block");
}

numeric::RMatrix Session::generate_envelope_block(
    std::uint64_t block_index) const {
  if (channel_->envelope_only()) {
    return channel_->copula_transform().sample_envelope_block(
        channel_->block_size(), seed_, block_index);
  }
  return numeric::elementwise_abs(generate_block(block_index));
}

std::shared_ptr<metrics::MetricsTap> Session::enable_metrics(
    const metrics::MetricsTapConfig& config) {
  if (channel_->mode() != EmissionMode::Stream || channel_->envelope_only()) {
    throw UnsupportedOperationError(
        "enable_metrics: link-level metrics need a stream-mode complex "
        "timeline (instant and envelope-only channels have none)");
  }
  // The spec-derived ground truth: fm and per-branch powers from the
  // stream's effective covariance (K1 (.) K2 for a cascade); the
  // Rice/J0/Wang-Abdi gates apply to the Rayleigh family, the ACF product
  // law to Suzuki composites over it, and every other family publishes
  // measured values without analytic gates.
  metrics::AnalyticReference reference;
  reference.normalized_doppler = channel_->spec().normalized_doppler();
  const numeric::CMatrix& covariance = stream_->effective_covariance();
  reference.branch_power.resize(channel_->dimension());
  for (std::size_t j = 0; j < channel_->dimension(); ++j) {
    reference.branch_power[j] = covariance(j, j).real();
  }
  const FadingFamily family = channel_->family();
  reference.rayleigh =
      family == FadingFamily::Rayleigh || family == FadingFamily::Suzuki;
  if (family == FadingFamily::Suzuki) {
    const auto& shadowing = channel_->spec().shadowing();
    reference.shadowing = metrics::ShadowingReference{
        shadowing.sigma_db,
        shadowing.decorrelation_samples};
  }
  metrics_tap_ = std::make_shared<metrics::MetricsTap>(std::move(reference),
                                                       config);
  return metrics_tap_;
}

ChannelService::ChannelService(std::size_t plan_cache_capacity)
    : cache_(plan_cache_capacity) {}

std::vector<numeric::CMatrix> ChannelService::generate_blocks(
    const std::vector<BlockRequest>& requests) {
  const telemetry::Span span("ChannelService::generate_blocks");
  telemetry::record_if_enabled(batcher_width_histogram(), requests.size());
  std::vector<numeric::CMatrix> blocks(requests.size());
  support::parallel_for_chunked(
      requests.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i < end; ++i) {
          RFADE_EXPECTS(requests[i].session != nullptr,
                        "BlockRequest needs a session");
          blocks[i] =
              requests[i].session->generate_block(requests[i].block_index);
        }
      },
      {.chunk_size = 1});
  return blocks;
}

std::vector<numeric::CMatrix> ChannelService::pull_blocks(
    const std::vector<Session*>& sessions) {
  const telemetry::Span span("ChannelService::pull_blocks");
  // Every pull mutates its session's engine, so a repeated session would
  // be a data race: reject it before anything is dispatched.
  RFADE_EXPECTS(std::find(sessions.begin(), sessions.end(), nullptr) ==
                    sessions.end(),
                "pull_blocks needs live sessions");
  std::vector<const Session*> sorted(sessions.begin(), sessions.end());
  std::sort(sorted.begin(), sorted.end(), std::less<const Session*>());
  RFADE_EXPECTS(std::adjacent_find(sorted.begin(), sorted.end()) ==
                    sorted.end(),
                "pull_blocks: each session may appear at most once per call");
  telemetry::record_if_enabled(batcher_width_histogram(), sessions.size());
  std::vector<numeric::CMatrix> blocks(sessions.size());
  support::parallel_for_chunked(
      sessions.size(),
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i < end; ++i) {
          blocks[i] = sessions[i]->next_block();
        }
      },
      {.chunk_size = 1});
  return blocks;
}

}  // namespace rfade::service
