#pragma once

/// \file twdp.hpp
/// \brief TWDP (two-wave with diffuse power) fading scenarios on the
///        shared plan layer, after Maric & Njemcevic, "On the Simulation
///        and Correlation Properties of TWDP Fading Process"
///        (arXiv:2502.03388).
///
/// TWDP generalises Rician fading to *two* specular waves riding on the
/// correlated diffuse field the paper's algorithm generates:
///
///   Z_j = v1_j e^{i(theta1_j + phi1)} + v2_j e^{i(theta2_j + phi2)}
///         + (L W / sigma_w)_j
///
/// Per branch the wave amplitudes come from the (K, Delta)
/// parameterisation — K = (v1^2 + v2^2) / K_bar_jj the total
/// specular-to-diffuse power ratio, Delta = 2 v1 v2 / (v1^2 + v2^2) in
/// [0, 1] the relative amplitude — with v_{1,2}^2 =
/// (K K_bar_jj / 2)(1 +- sqrt(1 - Delta^2)).  Delta = 0 collapses to the
/// Rician scenario (one wave), K = 0 to pure Rayleigh.
///
/// Two generation modes, matching the source model:
///
///   * *instant mode* (TwdpGenerator): each draw is an independent
///     channel realisation — the wave phases phi1, phi2 are uniformly
///     random per draw, drawn from a dedicated per-block Philox
///     substream so blocks stay pure functions of (seed, block index)
///     like every other batched path.  The envelope marginal is the
///     exact stats::TwdpDistribution.
///   * *real-time mode* (TwdpSpec::realtime_mean): deterministic phase
///     trajectories phi_i(l) = 2 pi f_i l — each wave Doppler-shifted by
///     its own normalised frequency — expressed as a two-term
///     core::MeanSource phasor sum and threaded through
///     FadingStreamOptions::los_mean (one independent block at a time)
///     or, for an unbounded stationary trace, through twdp_fading_stream: a
///     core::FadingStream whose wave trajectories are indexed by the
///     absolute stream instant and whose diffuse field can use the
///     continuous overlap-add / overlap-save backends, so neither the
///     specular phases nor the diffuse autocorrelation break at block
///     seams — the process Maric & Njemcevic's simulator is defined as.
///
/// The diffuse cross-branch correlation is whatever covariance spec the
/// scenario was built on: the specular add happens after coloring and
/// never touches normalisation, exactly like the Rician LOS mean.

#include <cstdint>
#include <memory>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/mean_source.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/stats/distributions.hpp"

namespace rfade::scenario {

/// Per-branch TWDP description: total specular-to-diffuse power ratio K,
/// relative wave amplitude Delta in [0, 1], and the deterministic phase
/// offsets of the two waves.
struct TwdpBranch {
  double k_factor = 0.0;
  double delta = 0.0;
  double phase1 = 0.0;
  double phase2 = 0.0;
};

/// Immutable description of a TWDP scenario: a diffuse covariance (any
/// spec) plus the per-branch two-wave parameters.
class TwdpSpec {
 public:
  /// Uniform scenario: every branch gets the same (K, Delta) and zero
  /// phase offsets.  \pre K >= 0 finite, Delta in [0, 1].
  static TwdpSpec uniform(numeric::CMatrix diffuse_covariance,
                          double k_factor, double delta);

  /// Per-branch scenario.  \pre branches.size() == N; every K >= 0
  /// finite, every Delta in [0, 1], phases finite.
  static TwdpSpec per_branch(numeric::CMatrix diffuse_covariance,
                             std::vector<TwdpBranch> branches);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return diffuse_.rows();
  }
  [[nodiscard]] const numeric::CMatrix& diffuse_covariance() const noexcept {
    return diffuse_;
  }
  [[nodiscard]] const std::vector<TwdpBranch>& branches() const noexcept {
    return branches_;
  }
  /// True when any branch has K > 0.
  [[nodiscard]] bool has_specular() const noexcept { return has_specular_; }

  /// Build the shared coloring plan of the diffuse part (steps 1-5).
  [[nodiscard]] std::shared_ptr<const core::ColoringPlan> build_plan(
      core::ColoringOptions options = {}) const;

  /// The two complex wave-amplitude vectors under \p plan's effective
  /// (realised) diffuse powers: first_j = v1_j e^{i theta1_j},
  /// second_j = v2_j e^{i theta2_j}.
  struct SpecularWaves {
    numeric::CVector first;
    numeric::CVector second;
  };
  [[nodiscard]] SpecularWaves specular_waves(
      const core::ColoringPlan& plan) const;

  /// Real-time deterministic-phase mean: the two-term phasor sum
  /// m(l) = first e^{i 2 pi f1 l} + second e^{i 2 pi f2 l}, for
  /// FadingStreamOptions::los_mean.  Zero (skipping the add pass) when the
  /// scenario has no specular component.  \pre |f| <= 0.5, finite.
  [[nodiscard]] core::MeanSource realtime_mean(const core::ColoringPlan& plan,
                                               double first_wave_doppler,
                                               double second_wave_doppler)
      const;

  /// Exact TWDP marginal of branch \p j (Rician when Delta = 0, Rayleigh
  /// when K = 0) under the plan's effective covariance.
  [[nodiscard]] stats::TwdpDistribution branch_marginal(
      const core::ColoringPlan& plan, std::size_t j) const;

  /// All N analytic envelope marginals for core::validate_envelope_source.
  [[nodiscard]] std::vector<core::EnvelopeMarginal> marginals(
      const core::ColoringPlan& plan) const;

 private:
  TwdpSpec(numeric::CMatrix diffuse, std::vector<TwdpBranch> branches);

  numeric::CMatrix diffuse_;
  std::vector<TwdpBranch> branches_;
  bool has_specular_ = false;
};

/// Options for TwdpGenerator.
struct TwdpOptions {
  /// Rows per block in sample_stream (also the Philox substream
  /// granularity of both the diffuse draws and the wave phases).
  std::size_t block_size = 4096;
  /// Fan stream blocks over the global thread pool (bit-identical
  /// either way).
  bool parallel = true;
  /// Coloring options applied when the plan is built from the spec.
  core::ColoringOptions coloring;
};

/// Instant-mode TWDP generator: correlated diffuse draws through the
/// batched SamplePipeline paths plus the two specular waves with
/// per-draw uniformly-random phases.  A K = 0 scenario skips the
/// specular pass (and its phase stream) entirely — bit-identical to the
/// plain Rayleigh pipeline.
class TwdpGenerator {
 public:
  /// Share an existing plan; TwdpOptions::coloring is ignored.
  TwdpGenerator(std::shared_ptr<const core::ColoringPlan> plan, TwdpSpec spec,
                TwdpOptions options = {});

  /// Build the plan from the spec's diffuse covariance.
  explicit TwdpGenerator(TwdpSpec spec, TwdpOptions options = {});

  [[nodiscard]] std::size_t dimension() const noexcept {
    return pipeline_.dimension();
  }
  [[nodiscard]] const TwdpSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const core::SamplePipeline& pipeline() const noexcept {
    return pipeline_;
  }

  /// One deterministic block keyed by (\p seed, \p block_index): diffuse
  /// rows from the bulk batched path plus, per row, the two waves at
  /// phases drawn from the block's phase substream.
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

  /// The analytic marginals under the generator's plan.
  [[nodiscard]] std::vector<core::EnvelopeMarginal> marginals() const {
    return spec_.marginals(pipeline_.plan());
  }

  /// The derived Philox seed of the wave-phase stream — disjoint from
  /// the diffuse draw stream, exposed so tests can reproduce phases.
  [[nodiscard]] static std::uint64_t phase_seed(std::uint64_t seed);

 private:
  /// Add the specular waves (random phases from the block's phase
  /// substream) to the `count` x N diffuse rows in `out`; no-op when the
  /// spec has no specular component.
  void add_waves(std::size_t count, std::uint64_t seed,
                 std::uint64_t block_index, numeric::cdouble* out) const;

  core::SamplePipeline pipeline_;
  TwdpSpec spec_;
  /// Complex wave amplitudes (phase offsets folded in) under the plan.
  numeric::CVector first_wave_;
  numeric::CVector second_wave_;
  /// False when every branch has Delta = 0 (second wave identically
  /// zero) — the second rotation and add pass are skipped entirely.
  bool second_wave_active_ = false;
  TwdpOptions options_;
};

/// One-call envelope-domain validation of an instant-mode TWDP scenario
/// against its exact marginals.
[[nodiscard]] core::EnvelopeValidationReport validate_twdp(
    const TwdpGenerator& generator,
    const core::ValidationOptions& options = {});

/// Continuous real-time TWDP stream: \p options' diffuse Doppler backend
/// plus the spec's two deterministic wave trajectories (realtime_mean at
/// \p first_wave_doppler / \p second_wave_doppler), threaded by absolute
/// stream instant so the wave phases — and, with a continuous backend,
/// the diffuse autocorrelation — are seamless across blocks.  Any
/// los_mean already set in \p options is replaced.  A non-null \p design
/// is shared instead of built (see core::FadingStream).  \pre the plan's
/// dimension matches the spec's.
[[nodiscard]] core::FadingStream twdp_fading_stream(
    std::shared_ptr<const core::ColoringPlan> plan, const TwdpSpec& spec,
    double first_wave_doppler, double second_wave_doppler,
    core::FadingStreamOptions options = {},
    std::shared_ptr<const doppler::BranchSourceDesign> design = nullptr);

}  // namespace rfade::scenario
