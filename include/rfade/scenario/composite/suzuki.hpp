#pragma once

/// \file suzuki.hpp
/// \brief Suzuki (lognormal-over-Rayleigh) composite fading on the
///        shared plan/stream layers.
///
/// The Suzuki process (Suzuki, "A Statistical Model for Urban Radio
/// Propagation", IEEE Trans. Commun. 25(7), 1977) models the received
/// envelope as a Rayleigh small-scale process whose local mean is
/// modulated by slow lognormal shadowing:
///
///   Z_l = g(l) (.) (L W_l / sigma_w),   r_j = |z_j| = g_j R_j,
///
/// with g the correlated-lognormal amplitude gain of
/// scenario/composite/shadowing.hpp (Gudmundson-correlated in time,
/// optionally correlated across branches through its own coloring plan)
/// and L W / sigma_w the paper's correlated diffuse core — the diffuse
/// cross-covariance stays exactly whatever covariance spec the scenario
/// was built on, because the gain multiplies *after* coloring.  Branch
/// j's envelope marginal is the exact stats::SuzukiDistribution
/// (lognormal mixture of Rayleigh laws), which feeds the PR-2
/// envelope-domain KS validators.
///
/// Two generation modes on the shared machinery:
///   * instant/batched — SamplePipeline blocks with the shadowing gain
///     threaded through PipelineOptions::gain: sample_block(count, seed,
///     b) stays a pure function of the key (the gain keys its own
///     seekable white tape off the same seed);
///   * continuous stream — make_stream() injects the gain into a
///     core::FadingStream, so every BranchSource backend (independent /
///     WOLA / overlap-save) gains Suzuki shadowing with
///     next_block()/seek() still equivalent to the keyed
///     generate_block(seed, b) path.

#include <cstdint>
#include <memory>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/scenario/composite/shadowing.hpp"
#include "rfade/stats/distributions.hpp"

namespace rfade::scenario::composite {

/// Options for SuzukiGenerator's batched paths.
struct SuzukiOptions {
  /// Rows per block in sample_stream (also the Philox substream
  /// granularity, so changing it changes the stream's bit pattern).
  std::size_t block_size = 4096;
  /// Fan stream blocks over the global thread pool (bit-identical either
  /// way).
  bool parallel = true;
};

/// Generator of N jointly-correlated Suzuki envelopes: correlated
/// lognormal shadowing over the paper's correlated Rayleigh core.
class SuzukiGenerator {
 public:
  /// Shadow the diffuse plan \p plan (ChannelSpec::Builder::suzuki
  /// compiles one, CompiledChannel::suzuki_generator).
  SuzukiGenerator(std::shared_ptr<const core::ColoringPlan> plan,
                  ShadowingSpec shadowing, SuzukiOptions options = {});

  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return plan_->dimension();
  }

  /// The diffuse plan (paper steps 1-5).
  [[nodiscard]] const std::shared_ptr<const core::ColoringPlan>& plan()
      const noexcept {
    return plan_;
  }

  /// Diffuse K_bar = L L^H.
  [[nodiscard]] const numeric::CMatrix& effective_covariance() const noexcept {
    return plan_->effective_covariance();
  }

  /// The shared shadowing design (validated spec, FIR taps, branch
  /// coloring).
  [[nodiscard]] const std::shared_ptr<const ShadowingDesign>&
  shadowing_design() const noexcept {
    return shadowing_;
  }

  /// The shadowing gain source realised for generation seed \p seed
  /// (GainSource::dynamic over a keyed ShadowingProcess) — what every
  /// draw path threads through PipelineOptions::gain.
  [[nodiscard]] core::GainSource shadowing_gain(std::uint64_t seed) const;

  /// A draw pipeline with the seed-keyed shadowing gain installed.
  [[nodiscard]] core::SamplePipeline make_pipeline(std::uint64_t seed) const;

  // --- instant/batched draws (block-keyed like SamplePipeline) --------------

  /// One block of \p count composite draws keyed by (\p seed,
  /// \p block_index) — a pure function of the key; rows carry the
  /// absolute instants block_index * block_size + t, which index the
  /// shadowing trajectory.
  [[nodiscard]] numeric::CMatrix sample_block(std::size_t count,
                                              std::uint64_t seed,
                                              std::uint64_t block_index) const;

  /// \p count draws as a count x N matrix, block-parallel over the
  /// thread pool; bit-identical for any thread count.
  [[nodiscard]] numeric::CMatrix sample_stream(std::size_t count,
                                               std::uint64_t seed) const;

  /// Envelope moduli of sample_stream: count x N real matrix.
  [[nodiscard]] numeric::RMatrix sample_envelope_stream(
      std::size_t count, std::uint64_t seed) const;

  // --- continuous stream mode ----------------------------------------------

  /// A FadingStream with this scenario's shadowing gain injected
  /// (keyed off \p options.seed); every backend works, and
  /// next_block()/seek() remain equivalent to generate_block(seed(), b).
  /// \p options.gain and \p options.coloring are overwritten.  A
  /// non-null \p design is shared instead of built (see
  /// core::FadingStream).
  [[nodiscard]] core::FadingStream make_stream(
      core::FadingStreamOptions options = {},
      std::shared_ptr<const doppler::BranchSourceDesign> design =
          nullptr) const;

  // --- theory / validation ---------------------------------------------------

  /// Exact Suzuki marginal of branch \p j from the diffuse effective
  /// diagonal and the branch's effective shadowing sigma_dB.
  [[nodiscard]] stats::SuzukiDistribution branch_marginal(
      std::size_t j) const;

  /// All N marginals for core::validate_envelope_source.
  [[nodiscard]] std::vector<core::EnvelopeMarginal> marginals() const;

 private:
  std::shared_ptr<const core::ColoringPlan> plan_;
  std::shared_ptr<const ShadowingDesign> shadowing_;
  SuzukiOptions options_;
};

/// One-call envelope-domain validation of a Suzuki generator against its
/// exact lognormal-mixture marginals (KS + moment checks through the
/// shared deterministic chunked Monte-Carlo).
///
/// \p instant_stride thins the trace: each retained sample is
/// \p instant_stride instants after the previous one (stride 1 keeps
/// every sample).  The KS machinery assumes (nearly) independent
/// samples, while shadowing correlates envelopes over the decorrelation
/// distance — pick stride >> decorrelation_samples for calibrated KS
/// p-values; the moment columns are consistent either way.
[[nodiscard]] core::EnvelopeValidationReport validate_suzuki(
    const SuzukiGenerator& generator,
    const core::ValidationOptions& options = {},
    std::size_t instant_stride = 1);

}  // namespace rfade::scenario::composite
