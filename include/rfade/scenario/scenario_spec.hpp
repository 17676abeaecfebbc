#pragma once

/// \file scenario_spec.hpp
/// \brief Scenario layer: Rician/LOS extensions of the paper's correlated
///        Rayleigh generator on the shared plan layer (plan.hpp).
///
/// The paper's algorithm colors i.i.d. complex Gaussians to hit an
/// arbitrary covariance K of the *diffuse* components (steps 1-7).  A
/// line-of-sight scenario adds a deterministic specular component per
/// branch on top of the same colored diffuse field:
///
///   Z = L W / sigma_w + m,     m_j = sqrt(K_j K_bar_jj) e^{i phi_j}
///
/// where K_j is branch j's Rician K-factor (LOS-to-diffuse power ratio)
/// and phi_j its LOS phase.  The envelope |z_j| is then Rician with the
/// exact marginal stats::RicianDistribution — and the cross-branch diffuse
/// correlation is still whatever covariance spec the scenario was built
/// on, because the mean is added *after* coloring and never interacts
/// with normalization.  K_j = 0 for every branch degenerates to the
/// paper's pure-Rayleigh generator bit-for-bit (the pipeline drops the
/// all-zero mean pass entirely).
///
/// ScenarioSpec is the build-once description: diffuse covariance +
/// per-branch K-factors/phases.  It produces the shared ColoringPlan,
/// derives the LOS mean vector from the plan's *effective* covariance
/// (post PSD-forcing — the diffuse power the generator actually
/// realises), threads the mean into SamplePipeline / EnvelopeGenerator /
/// FadingStream options, and exposes the analytic per-branch
/// envelope marginals the envelope-domain validators compare against.
///
/// Cascaded (double) Rayleigh scenarios — the other extension axis, after
/// Ibdah & Ding, "Statistical Simulation Models for Cascaded Rayleigh
/// Fading Channels" — live in scenario/cascaded.hpp.

#include <memory>
#include <vector>

#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/stats/distributions.hpp"

namespace rfade::scenario {

/// Per-branch LOS description: Rician K-factor (>= 0, LOS power over
/// diffuse power) and the LOS phase in radians.
struct RicianBranch {
  double k_factor = 0.0;
  double los_phase = 0.0;
};

/// Immutable description of one generation scenario: a diffuse covariance
/// (any covariance spec — spectral, spatial, hand-built) plus optional
/// per-branch LOS components.
class ScenarioSpec {
 public:
  /// Pure-Rayleigh scenario (every K-factor zero) — the paper's baseline.
  static ScenarioSpec rayleigh(numeric::CMatrix diffuse_covariance);

  /// Uniform-K Rician scenario: every branch gets the same K-factor and
  /// LOS phase.  \pre k_factor >= 0 and finite.
  static ScenarioSpec rician(numeric::CMatrix diffuse_covariance,
                             double k_factor, double los_phase = 0.0);

  /// Per-branch Rician scenario.  \pre branches.size() == N, every
  /// K-factor >= 0 and finite.
  static ScenarioSpec rician(numeric::CMatrix diffuse_covariance,
                             std::vector<RicianBranch> branches);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return diffuse_.rows();
  }
  [[nodiscard]] const numeric::CMatrix& diffuse_covariance() const noexcept {
    return diffuse_;
  }
  [[nodiscard]] const std::vector<RicianBranch>& branches() const noexcept {
    return branches_;
  }
  /// True when any branch has K > 0.
  [[nodiscard]] bool has_los() const noexcept { return has_los_; }

  /// Build the shared coloring plan of the diffuse part (steps 1-5).
  [[nodiscard]] std::shared_ptr<const core::ColoringPlan> build_plan(
      core::ColoringOptions options = {}) const;

  /// LOS mean vector m_j = sqrt(K_j K_bar_jj) e^{i phi_j}, derived from
  /// the plan's effective (realised) covariance diagonal.  Empty when the
  /// scenario has no LOS component — so a K = 0 pipeline is bit-identical
  /// to the plain Rayleigh one.
  [[nodiscard]] numeric::CVector los_mean(const core::ColoringPlan& plan) const;

  /// Moving-terminal LOS: the same mean with the line-of-sight Doppler
  /// shift applied per time instant, m_j(l) = m_j e^{i 2 pi f_LOS l}
  /// (core::MeanSource::doppler_phasor), for FadingStreamOptions::los_mean
  /// or any pipeline mean hook.  Zero when the scenario has no LOS
  /// component.  \pre |normalized_los_doppler| <= 0.5, finite.
  [[nodiscard]] core::MeanSource doppler_los_mean(
      const core::ColoringPlan& plan, double normalized_los_doppler) const;

  /// Draw-phase executor with the LOS mean threaded into the batched /
  /// streamed / per-draw hot paths.  \p options.mean_offset is overwritten.
  [[nodiscard]] core::SamplePipeline make_pipeline(
      std::shared_ptr<const core::ColoringPlan> plan,
      core::PipelineOptions options = {}) const;

  /// Analytic marginal of branch \p j (Rician; exact Rayleigh when K = 0)
  /// under the plan's effective covariance.
  [[nodiscard]] stats::RicianDistribution branch_marginal(
      const core::ColoringPlan& plan, std::size_t j) const;

  /// All N analytic envelope marginals, ready for the envelope-domain
  /// validators (core::validate_envelopes).
  [[nodiscard]] std::vector<core::EnvelopeMarginal> marginals(
      const core::ColoringPlan& plan) const;

 private:
  ScenarioSpec(numeric::CMatrix diffuse, std::vector<RicianBranch> branches);

  numeric::CMatrix diffuse_;
  std::vector<RicianBranch> branches_;
  bool has_los_ = false;
};

/// One-call envelope-domain validation of a scenario: builds the pipeline
/// on \p plan and runs core::validate_envelopes against the scenario's
/// analytic marginals.
[[nodiscard]] core::EnvelopeValidationReport validate_scenario(
    const ScenarioSpec& spec, std::shared_ptr<const core::ColoringPlan> plan,
    const core::ValidationOptions& options = {});

}  // namespace rfade::scenario
