#pragma once

/// \file fading_stream.hpp
/// \brief The unified temporal-synthesis engine: N BranchSource streams
///        advanced in lockstep and colored per time instant.
///
/// Every temporally-correlated generator in rfade is the same picture
/// (paper Sec. 5, Fig. 3): N per-branch correlated complex-Gaussian
/// streams u_j[l], normalised by the assumed per-branch variance and
/// colored per instant with the shared plan's L, plus an optional
/// deterministic mean trajectory:
///
///   Z_l = L W_l / sigma_g + m(l),   W_l = (u_1[l] ... u_N[l])^T.
///
/// FadingStream is that picture, with the per-branch synthesis swappable
/// via doppler::BranchSource (independent IDFT blocks / windowed
/// overlap-add / exact overlap-save FIR — see doppler/branch_source.hpp)
/// and three equivalent ways to pull blocks:
///
///   * the stateful cursor: next_block() emits consecutive blocks of one
///     unbounded realisation keyed by options.seed; seek() jumps to any
///     block index (replaying at most history_blocks() of carried state);
///   * the keyed const path: generate_block(seed, b) is a pure function
///     of the key — blocks regenerate independently, in any order, on any
///     thread or node;
///   * the rng-driven path: generate_block_from(rng) draws one block of
///     the paper's Sec. 5 algorithm verbatim from a caller-owned rng
///     (independent-block backend only).
///
/// Randomness layout: block b of the stream draws from the per-block
/// Philox substream (seed, b + 1) (random::block_substream), every
/// branch's spectrum in a fixed serial order — so an independent-block
/// cursor block is generate_block_from on that substream.  The
/// overlap-save backend instead keys a persistent bulk input substream per
/// branch (BranchSourceDesign::input_seed) indexed by absolute sample
/// position — seekable to any instant.  Either way the output is bit-reproducible
/// for any thread count, and the mean trajectory is threaded by absolute
/// first_instant through SamplePipeline::color_block, so time-varying
/// LOS/TWDP phasors stay continuous across blocks.
///
/// A product stream (FadingStream::product, the cascaded family) owns a
/// second stage stream advanced in lockstep: every entry point multiplies
/// the two stages' blocks elementwise, Z = Z1 (.) Z2, with stage s keyed
/// by stage_seed(seed, s).

#include <complex>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "rfade/core/plan.hpp"
#include "rfade/doppler/branch_source.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/telemetry/instruments.hpp"

namespace rfade::metrics {
class MetricsTap;
}  // namespace rfade::metrics

namespace rfade::core {

/// Which variance the coloring normalisation divides by: the Eq. (19)
/// post-filter value (the paper's Sec. 5 step 6) or the raw input
/// variance (the Sorooshyari-Daut ref. [6] flaw, kept for experiment E7).
enum class VarianceHandling {
  AnalyticCorrection,   ///< Eq. (19) — the proposed algorithm
  AssumeInputVariance   ///< the Sorooshyari-Daut assumption (flawed)
};

/// Arithmetic precision of the *emission* pipeline (per-block Philox
/// fills, FFT convolutions, crossfades, normalisation, coloring GEMM).
/// Design and plan construction — eigen/Cholesky, PSD forcing,
/// Bessel/Doppler filter design — always run in double regardless; the
/// float pipeline down-converts the resulting operators once (the plan's
/// cached float32 L^T clone, the design's narrowed kernel spectrum and
/// fade weights) and then runs every hot kernel at twice the SIMD width
/// with half the memory traffic.  Each precision is its own
/// bit-reference: the float path satisfies the same keyed ≡ cursor ≡
/// seek identities within itself, but is not required to match the
/// double path bitwise.
enum class Precision {
  Float64,  ///< double end-to-end (the historical bit-reference)
  Float32   ///< float32 emission over double-designed operators
};

/// Short label for telemetry/bench reporting: "f64" / "f32".
[[nodiscard]] const char* precision_name(Precision precision) noexcept;

/// Options for FadingStream: the Sec. 5 Doppler design (M, fm,
/// sigma_orig^2, variance handling), backend/overlap select the branch
/// synthesis, seed keys the stateful cursor.
struct FadingStreamOptions {
  /// Branch synthesis backend (see doppler/branch_source.hpp for the
  /// exactness/cost/paper-fidelity trade-offs).
  doppler::StreamBackend backend = doppler::StreamBackend::IndependentBlock;
  /// IDFT size M.  Output blocks carry M rows (M - overlap for WOLA).
  std::size_t idft_size = 4096;
  /// Normalised maximum Doppler fm = Fm / Fs in (0, 0.5).
  double normalized_doppler = 0.05;
  /// sigma_orig^2 per dimension at the Doppler-filter inputs.
  double input_variance_per_dim = 0.5;
  /// WOLA crossfade length; 0 picks idft_size / 8.  \pre < idft_size / 2.
  std::size_t overlap = 0;
  VarianceHandling variance_handling = VarianceHandling::AnalyticCorrection;
  /// Optional specular mean m(l) added to every colored instant, indexed
  /// by the absolute stream instant (continuous across blocks).
  MeanSource los_mean;
  /// Optional multiplicative per-branch amplitude gain g(l) applied after
  /// coloring and mean addition, indexed by the absolute stream instant —
  /// the composite-fading (shadowing) hook.  The default unit gain takes
  /// the exact gain-free code paths (bit-identical output); the dynamic
  /// form keys its own randomness (e.g. ShadowingProcess's seekable
  /// bulk-Philox substreams), so next_block/seek/generate_block stay
  /// equivalent for every backend.
  GainSource gain;
  ColoringOptions coloring;
  /// Synthesize the N branch fills concurrently on the global thread
  /// pool.  Output is bit-identical either way.
  bool parallel_branches = true;
  /// Emission-pipeline precision (see core::Precision).  A stream is
  /// constructed in one precision for its whole life; Float32 streams
  /// emit via next_block_f32()/generate_block_f32(), and their
  /// next_block()/generate_block() widen that float block so existing
  /// double-API callers (the service layer) work unchanged.
  Precision precision = Precision::Float64;
  /// Key of the stateful next_block()/seek() realisation.
  std::uint64_t seed = 0;
};

/// Generator of one unbounded realisation of N jointly-correlated,
/// temporally Doppler-faded complex Gaussians (see file comment).  On a
/// product stream the design, branch, variance, plan and coloring
/// accessors describe stage 1; effective_covariance() is the product's.
class FadingStream {
 public:
  /// \param desired_covariance K of Eqs. (12)-(13).
  FadingStream(numeric::CMatrix desired_covariance,
               FadingStreamOptions options = {});

  /// Share an existing plan; options.coloring is ignored.  A non-null
  /// \p design is shared too (a compiled channel builds its design once
  /// for every stream it opens); it must be the one options' backend /
  /// idft_size / normalized_doppler / input_variance_per_dim / overlap
  /// describe (doppler::BranchSourceDesign::matches).  Null builds it.
  FadingStream(std::shared_ptr<const ColoringPlan> plan,
               FadingStreamOptions options = {},
               std::shared_ptr<const doppler::BranchSourceDesign> design =
                   nullptr);

  /// The product stream Z = Z1 (.) Z2 of two stage streams keyed by
  /// \p seed: next_block, seek, generate_block and the f32 forms run both
  /// stages and multiply their blocks elementwise (std::complex a * b),
  /// and generate_block(s, b) keys stage k by stage_seed(s, k).  \pre
  /// first.seed() == stage_seed(seed, 0), second.seed() ==
  /// stage_seed(seed, 1); the stages agree in dimension, block size,
  /// precision and cursor position, and neither is a product.
  [[nodiscard]] static FadingStream product(FadingStream first,
                                            FadingStream second,
                                            std::uint64_t seed);

  /// Key of product stage \p stage (0 or 1) under \p seed: splitmix64
  /// over stage substreams of the seed, so the stages get well-separated
  /// Philox keys and neither collides with the raw seed (splitmix64
  /// advances its state by the golden-ratio increment once before
  /// finalizing, so this hashes seed + (stage + 1) * golden).  The
  /// instant cascade keys its stages the same way.
  [[nodiscard]] static std::uint64_t stage_seed(std::uint64_t seed,
                                                std::uint64_t stage) noexcept;

  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return pipeline_.dimension();
  }

  /// Rows per block (M, or M - overlap for WOLA).
  [[nodiscard]] std::size_t block_size() const noexcept {
    return design_->block_size();
  }

  [[nodiscard]] doppler::StreamBackend backend() const noexcept {
    return design_->backend();
  }

  /// The shared backend design (filter, window/kernel precomputation).
  [[nodiscard]] const doppler::BranchSourceDesign& design() const noexcept {
    return *design_;
  }

  /// The shared Fig. 2 branch (all N branches use the same filter).
  [[nodiscard]] const doppler::IdftRayleighBranch& branch() const noexcept {
    return design_->branch();
  }

  /// Analytic per-branch output variance sigma_g^2 (Eq. 19).
  [[nodiscard]] double branch_output_variance() const noexcept {
    return design_->output_variance();
  }

  /// The variance the normalisation actually divides by (differs from
  /// branch_output_variance() only in AssumeInputVariance mode).
  [[nodiscard]] double assumed_variance() const noexcept {
    return assumed_variance_;
  }

  /// K_bar = L L^H; on a product stream the Hadamard product K1 (.) K2
  /// of the stage covariances.
  [[nodiscard]] const numeric::CMatrix& effective_covariance() const noexcept {
    return second_ ? product_covariance_
                   : pipeline_.plan().effective_covariance();
  }

  /// Stage 2 of a product stream; null otherwise.
  [[nodiscard]] const FadingStream* second_stage() const noexcept {
    return second_.get();
  }

  /// Coloring diagnostics.
  [[nodiscard]] const ColoringResult& coloring() const noexcept {
    return pipeline_.plan().coloring();
  }

  /// The shared build-phase plan.
  [[nodiscard]] const std::shared_ptr<const ColoringPlan>& plan()
      const noexcept {
    return pipeline_.plan_handle();
  }

  /// The stateful cursor's seed (a product stream's stage keys derive
  /// from it).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Emission-pipeline precision this stream was built in.
  [[nodiscard]] Precision precision() const noexcept { return precision_; }

  /// Attach (or detach with nullptr) a link-level metrics tap: every
  /// block the stateful cursor emits (next_block / next_block_f32 /
  /// next_envelope_block) is folded into the tap's streaming
  /// accumulators.  A disabled or absent tap costs the cursor one
  /// pointer test (plus one relaxed load) per block; the keyed const
  /// generate_block paths are never observed (shard runs attach one tap
  /// per shard and merge them instead).
  void set_metrics_tap(std::shared_ptr<metrics::MetricsTap> tap) noexcept {
    metrics_tap_ = std::move(tap);
  }
  [[nodiscard]] const std::shared_ptr<metrics::MetricsTap>& metrics_tap()
      const noexcept {
    return metrics_tap_;
  }

  // --- stateful cursor (one continuous realisation keyed by seed) ----------

  /// The next block of the stream: block_size() x N, row l at absolute
  /// instant next_instant() + l.  Equals generate_block(seed(), b) for
  /// the b this call consumes.  On a Float32 stream this is the float
  /// block of next_block_f32() widened to double.  \throws
  /// ContractViolation, without advancing, once the cursor is past the
  /// last addressable block (see seek).
  [[nodiscard]] numeric::CMatrix next_block();

  /// Float32 cursor (\pre precision() == Precision::Float32): the next
  /// block of the float realisation, block_size() x N.  Equals
  /// generate_block_f32(seed(), b) bit-for-bit for the b this call
  /// consumes.
  [[nodiscard]] numeric::CMatrixF next_block_f32();

  /// Envelopes |Z| of next_block().
  [[nodiscard]] numeric::RMatrix next_envelope_block();

  /// Jump the cursor to \p block_index (any direction).  Replays at most
  /// design().history_blocks() blocks to rebuild carried state, so a
  /// seek costs O(one block) for every backend.  \throws
  /// ContractViolation when the block's instants do not fit in 64 bits
  /// (the last valid index is UINT64_MAX / block_size() for a
  /// power-of-two block size); the cursor is then left untouched.
  void seek(std::uint64_t block_index);

  /// Index of the block the next next_block() call will emit.
  [[nodiscard]] std::uint64_t next_block_index() const noexcept {
    return next_block_;
  }

  /// Absolute time instant of that block's first row.  \throws
  /// ContractViolation once the cursor has passed the last addressable
  /// block.
  [[nodiscard]] std::uint64_t next_instant() const {
    return first_instant(next_block_);
  }

  // --- keyed const path (pure function of (seed, block index)) -------------

  /// Block \p block_index of the realisation keyed by \p seed — exactly
  /// what the stateful cursor emits for that key, regenerated
  /// independently (transient sources + history replay).  Safe to call
  /// concurrently; the backbone of multi-node fan-out.  Same index range
  /// as seek(): \throws ContractViolation past the last addressable block.
  [[nodiscard]] numeric::CMatrix generate_block(
      std::uint64_t seed, std::uint64_t block_index) const;

  /// Float32 keyed path (\pre precision() == Precision::Float32): a pure
  /// function of (seed, block index), bit-identical to what the float
  /// cursor emits for that key — the float stream's reference sequence.
  [[nodiscard]] numeric::CMatrixF generate_block_f32(
      std::uint64_t seed, std::uint64_t block_index) const;

  /// Envelopes |Z| of generate_block().
  [[nodiscard]] numeric::RMatrix generate_envelope_block(
      std::uint64_t seed, std::uint64_t block_index) const;

  // --- rng-driven path (historical Sec. 5 block algorithm) ------------------

  /// One block drawn from a caller-owned rng, rows at instants
  /// \p first_instant + l: the paper's Sec. 5 block algorithm verbatim.
  /// Independent-block, single-stage streams only (the other backends and
  /// product streams key their own randomness).
  [[nodiscard]] numeric::CMatrix generate_block_from(
      random::Rng& rng, std::uint64_t first_instant = 0) const;

 private:
  using SourceList = std::vector<std::unique_ptr<doppler::BranchSource>>;

  /// Cursor-path scratch in one emission precision, sized on first use
  /// and reused every block so the steady-state next_block() loop
  /// allocates nothing but its returned matrix: the per-branch fill
  /// buffers and the W matrix of the transpose/normalise pass.  The keyed
  /// const paths stay transient (they are the any-thread fan-out API) and
  /// bit-identical — buffer reuse never changes arithmetic.
  template <typename T>
  struct Workspace {
    std::vector<std::vector<std::complex<T>>> outputs;
    numeric::Matrix<std::complex<T>> w;
  };

  [[nodiscard]] SourceList make_sources(std::uint64_t seed) const;

  /// Absolute time instant of block \p block_index's first row, checked:
  /// every row of the block, up to block_index * block_size() +
  /// block_size() - 1, must be addressable in 64 bits.  The last valid
  /// index is (2^64 - block_size()) / block_size(), i.e. UINT64_MAX /
  /// block_size() for a power-of-two block size.  Every cursor and keyed
  /// entry point goes through this check.  \throws ContractViolation on
  /// overflow.
  [[nodiscard]] std::uint64_t first_instant(std::uint64_t block_index) const;

  /// Advance + fill + normalise + color one block in precision \p T, the
  /// one copy of the Sec. 5 loop every stream family runs.  When
  /// \p batch is non-null (the cursor's batched overlap-save sweep) the
  /// per-branch sources are bypassed and all N convolutions run as one
  /// planar batch — bit-identical to the per-branch path.  The rng is
  /// consumed in the same serial order in either precision, so the block
  /// keying is precision-independent.  \p workspace reuses the cursor's
  /// scratch; null means transient buffers (keyed path).
  template <typename T>
  [[nodiscard]] numeric::Matrix<std::complex<T>> emit(
      SourceList& sources, random::Rng& rng, std::uint64_t block_index,
      std::uint64_t first_instant, doppler::OverlapSaveBatch* batch,
      Workspace<T>* workspace) const;

  /// The cursor step of next_block / next_block_f32 in precision \p T.
  template <typename T>
  [[nodiscard]] numeric::Matrix<std::complex<T>> next_block_as();

  /// The keyed path of generate_block / generate_block_f32 in precision
  /// \p T: stage_block_as, times the stage-2 block on a product stream.
  template <typename T>
  [[nodiscard]] numeric::Matrix<std::complex<T>> generate_block_as(
      std::uint64_t seed, std::uint64_t block_index) const;

  /// This stream's own (stage-1) keyed block under Philox key \p key:
  /// transient sources, history replay, then the per-branch emit — the
  /// bit-reference the batched cursor is pinned against.
  template <typename T>
  [[nodiscard]] numeric::Matrix<std::complex<T>> stage_block_as(
      std::uint64_t key, std::uint64_t block_index) const;

  /// Advance + fill, discarding the output (history replay for seeks and
  /// keyed access to stateful backends).  Replays in precision \p T so
  /// the carried state (e.g. WOLA's previous float block) is rebuilt in
  /// the stream's own precision.
  template <typename T>
  void replay(SourceList& sources, std::uint64_t seed,
              std::uint64_t block_index) const;

  SamplePipeline pipeline_;
  std::shared_ptr<const doppler::BranchSourceDesign> design_;
  double assumed_variance_;
  bool parallel_branches_;
  Precision precision_;
  std::uint64_t seed_;
  /// Key of this stream's own (stage-1) factor: seed_, or
  /// stage_seed(seed_, 0) on a product stream.
  std::uint64_t key_;
  SourceList sources_;
  std::tuple<Workspace<double>, Workspace<float>> workspace_;
  /// The cursor's batched overlap-save sweep (null when the backend or
  /// the non-power-of-two fallback opt out).
  std::unique_ptr<doppler::OverlapSaveBatch> batch_;
  std::uint64_t next_block_ = 0;
  /// Per-backend latency instruments on the telemetry registry
  /// (rfade_stream_block_fill_ns / rfade_stream_seek_ns, labelled
  /// backend="...").  Null when telemetry is compiled out; recording is
  /// further gated on telemetry::enabled(), so the idle cost per block
  /// is one relaxed load and a never-taken branch — no clock reads on
  /// the real-time hot loop.
  std::shared_ptr<telemetry::LatencyHistogram> block_histogram_;
  std::shared_ptr<telemetry::LatencyHistogram> seek_histogram_;
  /// Opt-in link-level metrics tap over the cursor's emitted blocks
  /// (see set_metrics_tap); null by default.
  std::shared_ptr<metrics::MetricsTap> metrics_tap_;
  /// Product stage (see product()): the stage-2 stream and K1 (.) K2.
  /// Null / empty on a single-stage stream.
  std::unique_ptr<FadingStream> second_;
  numeric::CMatrix product_covariance_;
};

}  // namespace rfade::core
