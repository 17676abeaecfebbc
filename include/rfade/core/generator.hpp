#pragma once

/// \file generator.hpp
/// \brief The proposed correlated-Rayleigh-envelope generator, single
///        time-instant mode (paper Sec. 4.4, steps 1-7).
///
/// A thin façade over the shared plan layer (plan.hpp): construction builds
/// (or accepts) an immutable ColoringPlan — PSD forcing (Sec. 4.2) and the
/// coloring matrix L = V sqrt(Lambda_hat) (Sec. 4.3) — and every draw is
/// executed by a SamplePipeline: W of N i.i.d. CN(0, sigma_w^2) variables
/// with *arbitrary* common variance sigma_w^2 (step 6), emitted as
/// Z = L W / sigma_w (step 7).  The moduli |z_j| are the correlated
/// Rayleigh envelopes; E[Z Z^H] = K_bar (Sec. 4.5).  Repeated draws are
/// temporally white — use core::FadingStream (fading_stream.hpp) for
/// Doppler-correlated time series.
///
/// For high-throughput workloads prefer the batched entry points
/// (sample_block / sample_stream), which color whole blocks with one
/// blocked GEMM and fan blocks over the thread pool deterministically.

#include <memory>
#include <span>

#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/random/rng.hpp"

namespace rfade::core {

/// Options for EnvelopeGenerator.
struct GeneratorOptions {
  ColoringOptions coloring;
  /// Variance sigma_w^2 of the i.i.d. complex Gaussians in step 6.  The
  /// algorithm divides it back out, so any positive value yields identical
  /// statistics; it is kept configurable to mirror the paper exactly (and
  /// to let the real-time generator pass the Eq. (19) value through).
  double sample_variance = 1.0;
  /// Optional LOS mean vector added after coloring (see
  /// PipelineOptions::mean_offset); empty = zero-mean Rayleigh.  The
  /// scenario layer (scenario/scenario_spec.hpp) derives this from
  /// per-branch Rician K-factors.
  numeric::CVector mean_offset;
};

/// Generator of N correlated complex Gaussians / Rayleigh envelopes at
/// independent time instants.
class EnvelopeGenerator {
 public:
  /// \param desired_covariance the matrix K of Eqs. (12)-(13).
  /// \throws ContractViolation when K is not a valid covariance matrix;
  ///         NotPositiveDefiniteError when Cholesky coloring is requested
  ///         on a non-PD K.
  explicit EnvelopeGenerator(numeric::CMatrix desired_covariance,
                             GeneratorOptions options = {});

  /// Share an existing plan (built once, reused across generators) instead
  /// of recomputing the coloring.  options.coloring is ignored — the plan
  /// already encodes it.
  explicit EnvelopeGenerator(std::shared_ptr<const ColoringPlan> plan,
                             GeneratorOptions options = {});

  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept {
    return pipeline_.dimension();
  }

  /// The K the caller asked for.
  [[nodiscard]] const numeric::CMatrix& desired_covariance() const noexcept {
    return pipeline_.plan().desired_covariance();
  }

  /// K_bar = L L^H, what the generator actually realises (== desired K
  /// when that was PSD).
  [[nodiscard]] const numeric::CMatrix& effective_covariance() const noexcept {
    return pipeline_.plan().effective_covariance();
  }

  /// The coloring matrix L.
  [[nodiscard]] const numeric::CMatrix& coloring_matrix() const noexcept {
    return pipeline_.plan().coloring_matrix();
  }

  /// Full coloring diagnostics (PSD forcing report etc.).
  [[nodiscard]] const ColoringResult& coloring() const noexcept {
    return pipeline_.plan().coloring();
  }

  /// The shared build-phase plan (steps 1-5).
  [[nodiscard]] const std::shared_ptr<const ColoringPlan>& plan()
      const noexcept {
    return pipeline_.plan_handle();
  }

  /// The draw-phase executor (steps 6-7).
  [[nodiscard]] const SamplePipeline& pipeline() const noexcept {
    return pipeline_;
  }

  /// One draw: Z = L W / sigma_w, N correlated complex Gaussians.
  [[nodiscard]] numeric::CVector sample(random::Rng& rng) const {
    return pipeline_.sample(rng);
  }

  /// Write one draw into \p out (size N); allocation-free hot path.
  void sample_into(random::Rng& rng, std::span<numeric::cdouble> out) const {
    pipeline_.sample_into(rng, out);
  }

  /// One draw of the envelopes r_j = |z_j|.
  [[nodiscard]] numeric::RVector sample_envelopes(random::Rng& rng) const {
    return pipeline_.sample_envelopes(rng);
  }

  /// \p count draws stacked row-wise into a count x N matrix (batched,
  /// bit-identical to count per-draw calls on the same rng).
  [[nodiscard]] numeric::CMatrix sample_block(std::size_t count,
                                              random::Rng& rng) const {
    return pipeline_.sample_block(count, rng);
  }

  /// \p count draws generated block-parallel over the thread pool with
  /// per-block Philox substreams of \p seed; deterministic for any thread
  /// count.
  [[nodiscard]] numeric::CMatrix sample_stream(std::size_t count,
                                               std::uint64_t seed) const {
    return pipeline_.sample_stream(count, seed);
  }

 private:
  SamplePipeline pipeline_;
};

}  // namespace rfade::core
