#pragma once

/// \file channel_spec.hpp
/// \brief The canonical, hashable channel description every serving-layer
///        request is keyed on, and its compiled immutable plan bundle.
///
/// Before this layer, each scenario family had its own hand-assembled
/// construction path (ColoringPlan + FadingStreamOptions + ScenarioSpec /
/// TwdpSpec / ShadowingSpec / CopulaMarginalTransform + Gain/MeanSource).
/// ChannelSpec collapses all of them into one declarative value type with
/// a fluent Builder:
///
///   auto spec = ChannelSpec::Builder()
///                   .rician(covariance, /*k=*/4.0)
///                   .backend(doppler::StreamBackend::OverlapSaveFir)
///                   .doppler(0.05)
///                   .build();
///
/// build() validates, *canonicalizes* (degenerate parameterisations — an
/// all-K-zero Rician, an all-zero mean — collapse to the same canonical
/// spec, and mode-irrelevant knobs reset to defaults), and stamps a
/// stable 64-bit content hash: equal specs hash equal no matter which
/// builder-call ordering or degenerate parameterisation produced them.
/// That hash is the PlanCache key (plan_cache.hpp), which is what turns
/// thousands of tenants reusing one scenario into a single plan build.
///
/// compile() runs the expensive build phase once — PSD forcing +
/// eigendecomposition coloring (the paper's steps 1-5), shadowing FIR
/// design, copula Laguerre tables, the instant families' keyed draw
/// stages — and returns the immutable CompiledChannel bundle.  Everything
/// inside is const and internally synchronisation-free, so one compiled
/// channel is shared by any number of concurrent tenant Sessions
/// (channel_service.hpp); each session only adds a seed and a cursor.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/scenario/composite/copula.hpp"
#include "rfade/scenario/composite/shadowing.hpp"
#include "rfade/scenario/composite/suzuki.hpp"
#include "rfade/scenario/scenario_spec.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"

namespace rfade::service {

class CompiledChannel;

/// The scenario family a spec describes.
enum class FadingFamily {
  Rayleigh,          ///< the paper's correlated Rayleigh core
  Rician,            ///< LOS mean per branch (scenario::ScenarioSpec)
  Twdp,              ///< two specular waves (scenario::TwdpSpec)
  CascadedRayleigh,  ///< product of two independent stages
  Suzuki,            ///< lognormal shadowing over the Rayleigh core
  CopulaMarginals    ///< Nakagami/Weibull marginals via Gaussian copula
};

/// Stable lowercase identifier of \p family (logs, tables, wire formats).
[[nodiscard]] const char* fading_family_name(FadingFamily family) noexcept;

/// How session blocks are produced.
enum class EmissionMode {
  /// Temporally Doppler-correlated blocks of one continuous realisation
  /// (core::FadingStream / the real-time cascade).  The default.
  Stream,
  /// Temporally-white keyed draws (the paper's Sec. 4 draw per family,
  /// CompiledChannel::instant_block).
  Instant
};

/// Hashable plain-value stand-in for composite::CopulaMarginal (which
/// holds type-erased callables and cannot be content-hashed).
struct MarginalSpec {
  enum class Family { Rayleigh, Nakagami, Weibull };
  Family family = Family::Rayleigh;
  /// Rayleigh: Gaussian power sigma_g^2.  Nakagami: shape m.
  /// Weibull: shape k.
  double param1 = 1.0;
  /// Rayleigh: unused.  Nakagami: spread omega.  Weibull: scale.
  double param2 = 1.0;

  [[nodiscard]] static MarginalSpec rayleigh(double sigma_g_squared);
  [[nodiscard]] static MarginalSpec nakagami(double m, double omega);
  [[nodiscard]] static MarginalSpec weibull(double shape, double scale);

  /// The runtime marginal (quantile/CDF closures) this spec describes.
  [[nodiscard]] scenario::composite::CopulaMarginal realize() const;

  friend bool operator==(const MarginalSpec&, const MarginalSpec&) = default;
};

/// One declarative, immutable, hashable description of a generation
/// scenario (see file comment).  Construct through ChannelSpec::Builder;
/// compile with compile() or through a PlanCache.
class ChannelSpec {
 public:
  class Builder;

  [[nodiscard]] FadingFamily family() const noexcept { return family_; }
  [[nodiscard]] EmissionMode mode() const noexcept { return mode_; }
  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept;

  [[nodiscard]] const numeric::CMatrix& covariance() const noexcept {
    return covariance_;
  }
  [[nodiscard]] const numeric::CMatrix& second_covariance() const noexcept {
    return second_covariance_;
  }
  [[nodiscard]] const std::vector<scenario::RicianBranch>& rician_branches()
      const noexcept {
    return rician_;
  }
  [[nodiscard]] const std::vector<scenario::TwdpBranch>& twdp_branches()
      const noexcept {
    return twdp_;
  }
  [[nodiscard]] const numeric::CVector& constant_mean() const noexcept {
    return constant_mean_;
  }
  [[nodiscard]] const scenario::composite::ShadowingSpec& shadowing()
      const noexcept {
    return shadowing_;
  }
  [[nodiscard]] const numeric::RMatrix& envelope_correlation_target()
      const noexcept {
    return envelope_target_;
  }
  [[nodiscard]] const std::vector<MarginalSpec>& marginal_specs()
      const noexcept {
    return marginals_;
  }

  [[nodiscard]] doppler::StreamBackend backend() const noexcept {
    return backend_;
  }
  [[nodiscard]] std::size_t idft_size() const noexcept { return idft_size_; }
  [[nodiscard]] double normalized_doppler() const noexcept { return doppler_; }
  [[nodiscard]] double second_doppler() const noexcept {
    return second_doppler_;
  }
  [[nodiscard]] double input_variance_per_dim() const noexcept {
    return input_variance_;
  }
  [[nodiscard]] std::size_t overlap() const noexcept { return overlap_; }
  [[nodiscard]] double los_doppler() const noexcept { return los_doppler_; }
  [[nodiscard]] double first_wave_doppler() const noexcept { return wave1_; }
  [[nodiscard]] double second_wave_doppler() const noexcept { return wave2_; }
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }
  [[nodiscard]] bool parallel() const noexcept { return parallel_; }
  [[nodiscard]] const core::ColoringOptions& coloring() const noexcept {
    return coloring_;
  }
  [[nodiscard]] std::size_t laguerre_terms() const noexcept {
    return laguerre_terms_;
  }
  [[nodiscard]] std::size_t quadrature_panels() const noexcept {
    return quadrature_panels_;
  }
  /// Emission-pipeline precision (stream mode; see core::Precision).
  /// Canonicalized to Float64 for instant emission, which has no float
  /// pipeline, so a Float32 request there hashes — and caches —
  /// identically to the Float64 one.
  [[nodiscard]] core::Precision precision() const noexcept {
    return precision_;
  }

  /// The stable 64-bit content hash stamped by Builder::build() — a pure
  /// function of the canonical field values (never of builder-call
  /// order), so equal specs always hash equal.  The PlanCache key.
  [[nodiscard]] std::uint64_t content_hash() const noexcept { return hash_; }

  /// Run the expensive build phase (steps 1-5 + family-specific design)
  /// and bundle the results immutably.  Callers serving many tenants
  /// should go through PlanCache instead of compiling directly.
  /// \throws rfade::Error subclasses with machine-readable codes —
  ///         InvalidSpecError for spec-level rejections, the layer-native
  ///         ContractViolation / NotPositiveDefiniteError / ... otherwise.
  [[nodiscard]] std::shared_ptr<const CompiledChannel> compile() const;

  /// Deep structural equality of canonical field values (the PlanCache
  /// uses it to reject hash collisions).
  friend bool operator==(const ChannelSpec& a, const ChannelSpec& b);

 private:
  friend class Builder;
  ChannelSpec() = default;

  [[nodiscard]] std::uint64_t compute_hash() const;

  FadingFamily family_ = FadingFamily::Rayleigh;
  EmissionMode mode_ = EmissionMode::Stream;
  numeric::CMatrix covariance_;
  numeric::CMatrix second_covariance_;
  std::vector<scenario::RicianBranch> rician_;
  std::vector<scenario::TwdpBranch> twdp_;
  numeric::CVector constant_mean_;
  scenario::composite::ShadowingSpec shadowing_;
  numeric::RMatrix envelope_target_;
  std::vector<MarginalSpec> marginals_;
  doppler::StreamBackend backend_ = doppler::StreamBackend::IndependentBlock;
  std::size_t idft_size_ = 4096;
  double doppler_ = 0.05;
  double second_doppler_ = 0.05;
  double input_variance_ = 0.5;
  std::size_t overlap_ = 0;
  double los_doppler_ = 0.0;
  double wave1_ = 0.0;
  double wave2_ = 0.0;
  std::size_t block_size_ = 4096;
  bool parallel_ = true;
  core::ColoringOptions coloring_;
  std::size_t laguerre_terms_ = 96;
  std::size_t quadrature_panels_ = 4096;
  core::Precision precision_ = core::Precision::Float64;
  std::uint64_t hash_ = 0;
};

/// Fluent assembler of a ChannelSpec.  Family methods pick the scenario;
/// the remaining setters tune emission; build() validates, canonicalizes
/// and stamps the content hash.  Setter order never matters.
class ChannelSpec::Builder {
 public:
  Builder() = default;

  // --- scenario family -----------------------------------------------------

  /// The paper's correlated Rayleigh core on \p covariance.
  Builder& rayleigh(numeric::CMatrix covariance);

  /// Uniform-K Rician: every branch shares \p k_factor / \p los_phase.
  Builder& rician(numeric::CMatrix covariance, double k_factor,
                  double los_phase = 0.0);

  /// Per-branch Rician.
  Builder& rician(numeric::CMatrix covariance,
                  std::vector<scenario::RicianBranch> branches);

  /// Uniform TWDP: every branch shares (K, Delta), zero phase offsets.
  Builder& twdp(numeric::CMatrix covariance, double k_factor, double delta);

  /// Per-branch TWDP.
  Builder& twdp(numeric::CMatrix covariance,
                std::vector<scenario::TwdpBranch> branches);

  /// Cascaded (double) Rayleigh: the product of two independent stages.
  Builder& cascaded(numeric::CMatrix first_covariance,
                    numeric::CMatrix second_covariance);

  /// Suzuki composite: \p shadowing over the Rayleigh core.
  Builder& suzuki(numeric::CMatrix covariance,
                  scenario::composite::ShadowingSpec shadowing);

  /// Copula marginal set: \p marginals with envelope-domain correlation
  /// \p envelope_correlation (instant emission only; envelope blocks).
  Builder& copula(numeric::RMatrix envelope_correlation,
                  std::vector<MarginalSpec> marginals);

  // --- scenario extras -----------------------------------------------------

  /// Raw constant LOS mean added after coloring (Rayleigh family only —
  /// the Rician family derives its mean from the K-factors).
  Builder& constant_mean(numeric::CVector mean);

  // --- emission ------------------------------------------------------------

  Builder& streaming();  ///< EmissionMode::Stream (the default)
  Builder& instant();    ///< EmissionMode::Instant

  Builder& backend(doppler::StreamBackend backend);
  Builder& idft_size(std::size_t idft_size);
  /// Normalised maximum Doppler of the (first) stage, in (0, 0.5).
  Builder& doppler(double normalized_doppler);
  /// Cascaded stage-2 Doppler.
  Builder& second_doppler(double normalized_doppler);
  Builder& input_variance_per_dim(double variance);
  /// WOLA crossfade length (0 picks idft_size / 8).
  Builder& overlap(std::size_t overlap);
  /// Rician stream mode: LOS Doppler shift of a moving terminal.
  Builder& los_doppler(double normalized_frequency);
  /// TWDP stream mode: the two wave Doppler trajectories.
  Builder& wave_dopplers(double first, double second);
  /// Instant mode: rows per block (Philox substream granularity).
  Builder& block_size(std::size_t block_size);
  /// Stream mode: fill the branches across the thread pool.  Under
  /// instant emission no output bit depends on it (an instant block never
  /// fans out, and sample_stream's bits are the same for any thread
  /// count), so build() collapses it to the default, true: the
  /// sample_stream accessors of a compiled instant channel (pipeline(),
  /// suzuki_generator(), copula_transform()) always fan out over the pool.
  Builder& parallel(bool parallel);
  Builder& coloring(core::ColoringOptions options);
  Builder& laguerre_terms(std::size_t terms);
  Builder& quadrature_panels(std::size_t panels);
  /// Emission-pipeline precision (Float64 default).  Float32 halves the
  /// memory traffic and doubles the SIMD width of every stream hot
  /// kernel; plan construction stays double either way.
  Builder& precision(core::Precision precision);

  /// Validate, canonicalize, stamp the content hash, and return the
  /// immutable spec.  \throws InvalidSpecError (ErrorCode::InvalidSpec)
  /// for inconsistent specs; deep numeric validation (covariance
  /// Hermitian-ness, PD-ness for Cholesky, ...) stays with the compile
  /// layers and their native error codes.
  [[nodiscard]] ChannelSpec build() const;

 private:
  ChannelSpec spec_;
  bool family_set_ = false;
  bool mode_set_ = false;
};

/// The immutable product of ChannelSpec::compile(): every build-once
/// artifact (plans, shadowing design, copula tables, instant draw stages,
/// mean sources) bundled behind const accessors.  Shared by any number
/// of concurrent sessions; engine factories mint the cheap per-seed
/// stateful parts.
class CompiledChannel {
 public:
  [[nodiscard]] static std::shared_ptr<const CompiledChannel> create(
      ChannelSpec spec);

  [[nodiscard]] const ChannelSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint64_t content_hash() const noexcept {
    return spec_.content_hash();
  }
  [[nodiscard]] FadingFamily family() const noexcept {
    return spec_.family();
  }
  [[nodiscard]] EmissionMode mode() const noexcept { return spec_.mode(); }
  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }

  /// Rows per session block (idft-derived for streams, spec block_size
  /// for instant emission).
  [[nodiscard]] std::size_t block_size() const noexcept {
    return block_size_;
  }

  /// True when the channel only emits envelope blocks (copula family).
  [[nodiscard]] bool envelope_only() const noexcept {
    return spec_.family() == FadingFamily::CopulaMarginals;
  }

  /// The primary (diffuse / stage-1 / copula-core) coloring plan.
  [[nodiscard]] const std::shared_ptr<const core::ColoringPlan>& plan()
      const noexcept {
    return plan_;
  }
  /// Stage-2 plan (cascaded family; null otherwise).
  [[nodiscard]] const std::shared_ptr<const core::ColoringPlan>& second_plan()
      const noexcept {
    return second_plan_;
  }

  /// The deterministic mean trajectory stream sessions thread through
  /// FadingStreamOptions::los_mean (zero unless Rician / constant-mean).
  [[nodiscard]] const core::MeanSource& stream_mean() const noexcept {
    return stream_mean_;
  }

  // --- engine factories (cheap; one call per session) ----------------------

  /// The exact FadingStreamOptions a stream session runs with (seed
  /// keyed in) — tests reproduce session output by hand-assembling a
  /// FadingStream from these (for a cascade: stage 1's options, before
  /// the stage keys are derived from the seed).
  [[nodiscard]] core::FadingStreamOptions stream_options(
      std::uint64_t seed) const;

  /// A per-seed continuous stream, for every stream-mode spec (a cascade
  /// is a product stream, scenario::cascaded_fading_stream).  \throws
  /// UnsupportedOperationError for instant specs.
  [[nodiscard]] core::FadingStream make_stream(std::uint64_t seed) const;

  // --- instant draws (const, keyed per call, thread-safe) -----------------

  /// The first \p count rows of keyed instant block \p block_index for
  /// generation seed \p seed — the paper's Sec. 4 draw (steps 6-7,
  /// Z = L W / sigma_w, as SamplePipeline::sample_block) plus the
  /// family's stage:
  ///   * Rayleigh / Rician: pipeline().sample_block(count, seed, b);
  ///   * TWDP: the diffuse block, then scenario::add_twdp_waves;
  ///   * cascaded: the Hadamard product of the two stage pipelines' blocks
  ///     keyed by core::FadingStream::stage_seed(seed, 0 / 1);
  ///   * Suzuki: suzuki_generator().sample_block(count, seed, b).
  /// Session::generate_block draws block_size() rows.  \throws
  /// UnsupportedOperationError for stream specs and copula channels
  /// (envelope-only: copula_transform()).
  [[nodiscard]] numeric::CMatrix instant_block(std::size_t count,
                                               std::uint64_t seed,
                                               std::uint64_t block_index)
      const;

  /// Instant Rayleigh/Rician draw pipeline.
  [[nodiscard]] const core::SamplePipeline& pipeline() const;

  /// Suzuki engine (serves both modes: keyed sample_block and
  /// make_stream).
  [[nodiscard]] const scenario::composite::SuzukiGenerator&
  suzuki_generator() const;

  /// Copula transform (envelope blocks).
  [[nodiscard]] const scenario::composite::CopulaMarginalTransform&
  copula_transform() const;

 private:
  explicit CompiledChannel(ChannelSpec spec);

  ChannelSpec spec_;
  std::size_t dimension_ = 0;
  std::size_t block_size_ = 0;
  std::shared_ptr<const core::ColoringPlan> plan_;
  std::shared_ptr<const core::ColoringPlan> second_plan_;
  core::MeanSource stream_mean_;
  std::optional<scenario::TwdpSpec> twdp_spec_;
  /// Instant mode: the keyed draw stages — the Rayleigh/Rician pipeline,
  /// the TWDP diffuse pipeline, or the cascade's two stage pipelines
  /// (empty otherwise).
  std::vector<core::SamplePipeline> stages_;
  /// Instant TWDP: the two specular waves under plan_.
  scenario::TwdpSpec::SpecularWaves twdp_waves_;
  std::optional<scenario::composite::SuzukiGenerator> suzuki_generator_;
  std::shared_ptr<const scenario::composite::CopulaMarginalTransform> copula_;
  /// The Doppler backend designs every make_stream() session shares
  /// (stream mode; the second is the cascade's stage-2 design at its own
  /// Doppler, null otherwise).
  std::shared_ptr<const doppler::BranchSourceDesign> stream_design_;
  std::shared_ptr<const doppler::BranchSourceDesign> second_stream_design_;
};

}  // namespace rfade::service
