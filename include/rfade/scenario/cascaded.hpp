#pragma once

/// \file cascaded.hpp
/// \brief Cascaded (double) Rayleigh envelopes from two correlated
///        complex-Gaussian stages on shared coloring plans.
///
/// Mobile-to-mobile and keyhole channels are modelled as the *product* of
/// two independent Rayleigh stages (Ibdah & Ding, "Statistical Simulation
/// Models for Cascaded Rayleigh Fading Channels"): each time instant
///
///   Z = Z1 (.) Z2,   Z_s = L_s W_s / sigma_w   (s = 1, 2; (.) Hadamard)
///
/// where each stage is the paper's generator on its own ColoringPlan —
/// stage 1 carrying, e.g., the TX-side spatial correlation and stage 2 the
/// RX-side.  The stages draw from disjoint Philox key spaces derived from
/// one user seed, so the cascaded stream inherits the plan layer's
/// bit-reproducibility (any thread count, blocks regenerable in any
/// order).
///
/// Correlation accounting: with independent stages,
///   E[z_k conj(z_j)] = K1_kj K2_kj
/// — the *Hadamard product* of the stage covariances is the effective
/// covariance of the cascaded process (Schur's product theorem keeps it
/// PSD).  Envelope moments follow from the product of independent
/// Rayleigh moments:
///   E[r]   = (pi/4) sigma_1 sigma_2
///   E[r^2] = sigma_1^2 sigma_2^2
///   E[r^4] = 4 sigma_1^4 sigma_2^4  =>  amount of fading = 3 (vs 1 for
///   Rayleigh — the deeper-fade signature of the cascade).
///
/// envelope_moment_diagnostics() measures all of the above against theory
/// with the same deterministic chunked Monte-Carlo the validators use.
///
/// Mobile-to-mobile channels are the *real-time* version of the same
/// product: both ends move, so each stage is a full Sec. 5 Doppler-faded
/// stream with its own maximum Doppler, multiplied per time instant —
/// cascaded_fading_stream, a core::FadingStream product stage on the
/// same stage keys.  Its branch autocorrelation is K1_jj K2_jj rho1(d)
/// rho2(d), the product of the stage filters' Eq. (17) laws (for
/// Dopplers fm1, fm2 the Akki-Haber J0(2 pi fm1 d) J0(2 pi fm2 d) shape),
/// and its per-instant marginal is the same double-Rayleigh law.

#include <cstdint>
#include <memory>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/stats/distributions.hpp"

namespace rfade::scenario {

/// Options for CascadedRayleighGenerator.
struct CascadedOptions {
  /// Rows per block in sample_stream (also the Philox substream
  /// granularity, so changing it changes the stream's bit pattern).
  std::size_t block_size = 4096;
  /// Fan stream blocks over the global thread pool (bit-identical either
  /// way).
  bool parallel = true;
  /// Coloring options applied when plans are built from raw covariances.
  core::ColoringOptions coloring;
};

/// Measured-vs-theory report of envelope_moment_diagnostics().
struct CascadedMomentReport {
  std::size_t samples = 0;
  numeric::RVector measured_mean;
  numeric::RVector expected_mean;
  numeric::RVector mean_rel_error;
  numeric::RVector measured_second_moment;
  numeric::RVector expected_second_moment;
  numeric::RVector second_moment_rel_error;
  /// Measured E[r^4]/E[r^2]^2 - 1 per branch (theory: 3).
  numeric::RVector measured_amount_of_fading;
  /// Sample complex covariance of Z vs the Hadamard product K1 (.) K2,
  /// relative Frobenius.
  double covariance_rel_error = 0.0;
  double max_mean_rel_error = 0.0;
  double max_second_moment_rel_error = 0.0;
};

/// Generator of N cascaded Rayleigh envelopes with per-stage correlation.
class CascadedRayleighGenerator {
 public:
  /// Share two stage plans (equal dimension).  CascadedOptions::coloring
  /// is ignored — the plans already encode it.
  CascadedRayleighGenerator(std::shared_ptr<const core::ColoringPlan> first,
                            std::shared_ptr<const core::ColoringPlan> second,
                            CascadedOptions options = {});

  /// Build both plans from raw stage covariances.
  CascadedRayleighGenerator(numeric::CMatrix first_covariance,
                            numeric::CMatrix second_covariance,
                            CascadedOptions options = {});

  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return first_.dimension();
  }
  [[nodiscard]] const core::SamplePipeline& first_stage() const noexcept {
    return first_;
  }
  [[nodiscard]] const core::SamplePipeline& second_stage() const noexcept {
    return second_;
  }

  /// The Hadamard product K1 (.) K2 of the stage effective covariances —
  /// the covariance the cascaded process realises.
  [[nodiscard]] const numeric::CMatrix& effective_covariance() const noexcept {
    return effective_;
  }

  // --- theory (per branch, from the stage effective diagonals) -------------

  /// Closed-form double-Rayleigh marginal of branch \p j (envelope CDF
  /// 1 - x K_1(x) via Bessel K), from the stage effective diagonals —
  /// what upgrades the cascaded validator from moment checks to KS tests.
  [[nodiscard]] stats::DoubleRayleighDistribution branch_marginal(
      std::size_t j) const;

  /// All N marginals for core::validate_envelope_source.
  [[nodiscard]] std::vector<core::EnvelopeMarginal> marginals() const;

  /// E[r_j] = (pi/4) sigma_1j sigma_2j.
  [[nodiscard]] double envelope_mean(std::size_t j) const;
  /// E[r_j^2] = sigma_1j^2 sigma_2j^2.
  [[nodiscard]] double envelope_second_moment(std::size_t j) const;
  /// Var[r_j] = sigma_1j^2 sigma_2j^2 (1 - pi^2/16).
  [[nodiscard]] double envelope_variance(std::size_t j) const;
  /// E[r_j^4] = 4 sigma_1j^4 sigma_2j^4.
  [[nodiscard]] double envelope_fourth_moment(std::size_t j) const;

  // --- draws (deterministic, block-keyed like SamplePipeline) --------------

  /// One block of \p count cascaded draws keyed by (\p seed,
  /// \p block_index): the Hadamard product of the two stages' batched
  /// blocks.  Stage s draws from Philox keys derived as stage_seed(seed,
  /// s), so the stages are mutually independent and both are pure
  /// functions of the arguments.
  [[nodiscard]] numeric::CMatrix sample_block(std::size_t count,
                                              std::uint64_t seed,
                                              std::uint64_t block_index) const;

  /// \p count cascaded draws as a count x N matrix, block-parallel over
  /// the thread pool; bit-identical for any thread count.
  [[nodiscard]] numeric::CMatrix sample_stream(std::size_t count,
                                               std::uint64_t seed) const;

  /// Envelope moduli of sample_stream: count x N real matrix.
  [[nodiscard]] numeric::RMatrix sample_envelope_stream(
      std::size_t count, std::uint64_t seed) const;

  /// Deterministic chunked Monte-Carlo of the envelope moments and the
  /// Hadamard covariance claim.
  [[nodiscard]] CascadedMomentReport envelope_moment_diagnostics(
      std::size_t samples, std::uint64_t seed) const;

  /// The derived Philox seed of stage \p stage (0 or 1),
  /// core::FadingStream::stage_seed — the keys of the real-time cascade
  /// too; exposed so tests can reproduce stage draws independently.
  [[nodiscard]] static std::uint64_t stage_seed(std::uint64_t seed,
                                                std::uint64_t stage);

 private:
  core::SamplePipeline first_;
  core::SamplePipeline second_;
  CascadedOptions options_;
  numeric::CMatrix effective_;
};

/// One-call envelope-domain validation of a cascaded generator against
/// its closed-form double-Rayleigh marginals — KS tests on the exact
/// Bessel-K CDF, not just moment checks.
[[nodiscard]] core::EnvelopeValidationReport validate_cascaded(
    const CascadedRayleighGenerator& generator,
    const core::ValidationOptions& options = {});

// --- real-time (Doppler-faded) cascade --------------------------------------

/// The cascaded stream Z[l] = Z1[l] (.) Z2[l]: stage 1 is a FadingStream
/// on \p first with \p options, stage 2 one on \p second with the same
/// options at \p second_doppler and neither mean nor gain, and stage s
/// is keyed by stage_seed(options.seed, s), the instant cascade's stage
/// keys (core::FadingStream::product).  Non-null designs are shared and
/// must match their stage's options.  \throws ContractViolation when the
/// plan dimensions differ.
[[nodiscard]] core::FadingStream cascaded_fading_stream(
    std::shared_ptr<const core::ColoringPlan> first,
    std::shared_ptr<const core::ColoringPlan> second, double second_doppler,
    core::FadingStreamOptions options = {},
    std::shared_ptr<const doppler::BranchSourceDesign> first_design = nullptr,
    std::shared_ptr<const doppler::BranchSourceDesign> second_design =
        nullptr);

/// rho1(d) rho2(d) for d = 0..max_lag: the normalised complex
/// autocorrelation of every branch of the cascaded product \p stream —
/// the product of its stage filters' Eq. (17) laws.
[[nodiscard]] numeric::RVector cascaded_normalized_autocorrelation(
    const core::FadingStream& stream, std::size_t max_lag);

/// Closed-form double-Rayleigh marginal of branch \p j of the cascaded
/// product \p stream, from the stage effective diagonals.
[[nodiscard]] stats::DoubleRayleighDistribution cascaded_branch_marginal(
    const core::FadingStream& stream, std::size_t j);

}  // namespace rfade::scenario
