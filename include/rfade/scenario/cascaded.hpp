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
/// stats::DoubleRayleighDistribution carries the closed forms; an
/// instant cascade (ChannelSpec::Builder::cascaded(...).instant()) draws
/// each keyed block as the Hadamard product of two stage pipelines keyed
/// by core::FadingStream::stage_seed.
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

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/stats/distributions.hpp"

namespace rfade::scenario {

/// Closed-form double-Rayleigh marginal of branch \p j of the cascade
/// whose stages color with \p first and \p second (envelope CDF
/// 1 - x K_1(x) via Bessel K, from the stage effective diagonals) — the
/// marginal of the instant cascade and of every instant of the
/// real-time one.  \throws ContractViolation when the plan dimensions
/// differ or \p j is out of range.
[[nodiscard]] stats::DoubleRayleighDistribution cascaded_branch_marginal(
    const core::ColoringPlan& first, const core::ColoringPlan& second,
    std::size_t j);

// --- real-time (Doppler-faded) cascade --------------------------------------

/// The cascaded stream Z[l] = Z1[l] (.) Z2[l]: stage 1 is a FadingStream
/// on \p first with \p options, stage 2 one on \p second with the same
/// options at \p second_doppler and neither mean nor gain, and stage s
/// is keyed by core::FadingStream::stage_seed(options.seed, s), the
/// instant cascade's stage keys (core::FadingStream::product).  Non-null designs are shared and
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

}  // namespace rfade::scenario
