#pragma once

/// \file channel_service.hpp
/// \brief Multi-tenant serving layer: sessions (tenant = spec + seed +
///        cursor) over PlanCache-shared compiled channels, plus a batcher
///        that coalesces many small concurrent pulls into one
///        thread-pool-amortised sweep.
///
/// The serving model rests on two reproducibility contracts the lower
/// layers already pin:
///
///   1. every block is a pure function of (spec, seed, block index) —
///      the keyed generate_block paths are const and thread-safe; and
///   2. the stateful stream walk equals the keyed walk bit-for-bit.
///
/// A Session is tenant state (compiled-channel handle, seed, cursor)
/// riding an immutable CompiledChannel that any number of tenants share,
/// plus — in stream mode — the tenant's own FadingStream engine.
/// Sequential pulls (next_block / next_envelope_block / pull_blocks) ride
/// that engine's cursor: the batched overlap-save sweep, shifted input
/// tapes and persistent workspaces, so a session costs what the bare
/// stream cursor costs.  seek() only moves the session cursor; the engine
/// re-seeks lazily on the next pull, replaying at most history_blocks().
/// The keyed generate_block() is the random-access and fan-out API:
/// generate_blocks fans it out over the global thread pool, so a thousand
/// tenants' requests cost one parallel sweep, not a thousand sequential
/// engine hops.  Contract 2 makes the two paths interchangeable.
///
/// Observability (recorded only when telemetry::enabled()):
/// rfade_session_next_block_ns latency histogram over every cursor pull
/// (stream-mode pulls also land in the engine's per-backend
/// rfade_stream_block_fill_ns), rfade_session_seeks_total /
/// rfade_sessions_opened_total counters, and the rfade_batcher_sweep_width
/// histogram of sessions or requests per pull_blocks / generate_blocks
/// sweep; next_block and the batcher also open trace spans when the
/// Tracer is enabled.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/service/plan_cache.hpp"

namespace rfade::metrics {
class MetricsTap;
struct MetricsTapConfig;
}  // namespace rfade::metrics

namespace rfade::service {

/// One tenant's deterministic timeline over a shared compiled channel.
///
/// Sequential use (next_block / seek) is single-tenant stateful and, in
/// stream mode, runs on the session's own stream cursor; the keyed
/// generate_block / generate_envelope_block are const and thread-safe
/// (callable from any thread, even while the owner pulls), and both walks
/// are bit-identical: block b of seed s is the same matrix no matter
/// which tenant, thread, or walk order produced it.  Instant-mode and
/// copula sessions have no carried state and serve every pull keyed.
class Session {
 public:
  Session(std::shared_ptr<const CompiledChannel> channel, std::uint64_t seed);

  Session(Session&&) = default;
  Session& operator=(Session&&) = default;

  [[nodiscard]] const CompiledChannel& channel() const noexcept {
    return *channel_;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return channel_->dimension();
  }
  [[nodiscard]] std::size_t block_size() const noexcept {
    return channel_->block_size();
  }
  /// Index the next next_block() call will produce.
  [[nodiscard]] std::uint64_t next_block_index() const noexcept {
    return cursor_;
  }

  /// The next complex block of this tenant's timeline; advances the
  /// cursor.  \throws UnsupportedOperationError for envelope-only
  /// (copula) channels.
  [[nodiscard]] numeric::CMatrix next_block();

  /// The next envelope block (|z| elementwise; native for copula
  /// channels); advances the cursor.
  [[nodiscard]] numeric::RMatrix next_envelope_block();

  /// Reposition the timeline: the next next_block() returns block
  /// \p block_index.  O(1) and lazy — only the session cursor moves, so
  /// repeated seeks cost nothing; the next pull re-seeks the stream
  /// engine, replaying at most history_blocks() blocks.  An index past
  /// the stream's 64-bit instant range is rejected by that pull
  /// (ContractViolation), not here.  Counted on the telemetry registry
  /// (rfade_session_seeks_total).
  void seek(std::uint64_t block_index) noexcept;

  /// Block \p block_index of this tenant's timeline, cursor untouched.
  /// Const and thread-safe — safe to call while another thread pulls
  /// from this session: the random-access API and the batcher's fan-out
  /// hook.
  [[nodiscard]] numeric::CMatrix generate_block(
      std::uint64_t block_index) const;

  /// Envelope form of generate_block (native for copula channels).
  [[nodiscard]] numeric::RMatrix generate_envelope_block(
      std::uint64_t block_index) const;

  /// Attach a link-level MetricsTap to this tenant's timeline: every
  /// complex block next_block() emits is folded into streaming LCR /
  /// ACF / mutual-information accumulators whose analytic reference
  /// (fm, per-branch powers, family, shadowing law) is derived from the
  /// compiled spec — see metrics/tap.hpp for the gauges published.
  /// Returns the tap (shared with the session) for health()/publish()/
  /// merge() access.  Off by default; a session without a tap pays one
  /// pointer test per block, one with a disabled tap adds one relaxed
  /// load.  The keyed generate_block paths are never observed.
  /// \throws UnsupportedOperationError for instant-mode or envelope-only
  /// channels (no continuous timeline to measure).
  std::shared_ptr<metrics::MetricsTap> enable_metrics(
      const metrics::MetricsTapConfig& config);

  /// The attached tap, null until enable_metrics().
  [[nodiscard]] const std::shared_ptr<metrics::MetricsTap>& metrics_tap()
      const noexcept {
    return metrics_tap_;
  }

 private:
  /// Block cursor_ of the timeline: from the stream engine's cursor
  /// (re-seeked first if it disagrees with cursor_), or keyed for
  /// instant-mode and copula channels.  Leaves cursor_ to the caller.
  [[nodiscard]] numeric::CMatrix pull_block();

  std::shared_ptr<const CompiledChannel> channel_;
  std::uint64_t seed_ = 0;
  std::uint64_t cursor_ = 0;
  /// Per-seed stream engine (stream mode only): its cursor serves the
  /// sequential pulls, its const keyed generate_block random access.
  std::optional<core::FadingStream> stream_;
  /// Opt-in link-level metrics over next_block() (see enable_metrics).
  std::shared_ptr<metrics::MetricsTap> metrics_tap_;
};

/// One coalesced block request: \p session's block \p block_index.
struct BlockRequest {
  const Session* session = nullptr;
  std::uint64_t block_index = 0;
};

/// The serving facade: compiles specs through a shared PlanCache, opens
/// tenant sessions, and batches concurrent pulls.
class ChannelService {
 public:
  /// \pre plan_cache_capacity >= 1.
  explicit ChannelService(std::size_t plan_cache_capacity = 64);

  ChannelService(const ChannelService&) = delete;
  ChannelService& operator=(const ChannelService&) = delete;

  /// Compile \p spec through the plan cache (shared on repeat specs).
  [[nodiscard]] std::shared_ptr<const CompiledChannel> compile(
      const ChannelSpec& spec) {
    return cache_.get_or_compile(spec);
  }

  /// A new tenant session on \p spec (cache-shared plan) with its own
  /// \p seed timeline starting at block 0.
  [[nodiscard]] Session open_session(const ChannelSpec& spec,
                                     std::uint64_t seed) {
    return Session(compile(spec), seed);
  }

  /// A new tenant session on an already-compiled channel.
  [[nodiscard]] static Session open_session(
      std::shared_ptr<const CompiledChannel> channel, std::uint64_t seed) {
    return Session(std::move(channel), seed);
  }

  /// Batcher over the keyed path: fulfil many small random-access block
  /// requests as one thread-pool sweep.  Results are positionally aligned
  /// with \p requests and bit-identical to calling
  /// request.session->generate_block(request.block_index) sequentially.
  /// Requests may mix sessions, repeat sessions, and repeat indices
  /// freely; no cursor moves.
  [[nodiscard]] static std::vector<numeric::CMatrix> generate_blocks(
      const std::vector<BlockRequest>& requests);

  /// Batcher over the tenants' own cursors: runs every session's
  /// next_block() concurrently, one session per pool task, so each pull
  /// rides that session's stream cursor (including any lazy re-seek
  /// after seek()) — bit-identical to calling next_block() on each
  /// session in order.  If a pull throws, the first exception is
  /// rethrown after the others finish (their cursors have advanced).
  /// \pre every pointer is non-null and each session appears at most once
  /// (its engine is mutated by the pull); \throws ContractViolation
  /// otherwise, before any session is touched.
  [[nodiscard]] static std::vector<numeric::CMatrix> pull_blocks(
      const std::vector<Session*>& sessions);

  [[nodiscard]] PlanCacheStats cache_stats() const { return cache_.stats(); }
  [[nodiscard]] PlanCache& cache() noexcept { return cache_; }

 private:
  PlanCache cache_;
};

}  // namespace rfade::service
