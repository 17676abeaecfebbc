#pragma once

/// \file plan.hpp
/// \brief The shared coloring plan + sampling pipeline every generator is
///        built on (paper Sec. 4.2-4.5, steps 1-7).
///
/// The paper's algorithm factors into two halves with very different cost
/// profiles:
///
///   *build once*  — steps 1-5: assemble the desired covariance K
///                   (covariance_spec.hpp / channel models), force it PSD
///                   (step 3, Sec. 4.2) and compute the coloring matrix
///                   L = V sqrt(Lambda_hat) (steps 4-5, Sec. 4.3).
///                   `ColoringPlan` captures all of this immutably.
///
///   *draw many*   — steps 6-7: sample i.i.d. CN(0, sigma_w^2) vectors W
///                   and emit Z = L W / sigma_w.  `SamplePipeline` executes
///                   draws against a plan: per-draw for callbacks and
///                   real-time coloring, or batched — a whole block of W
///                   colored with one blocked GEMM (numeric::multiply_block)
///                   and fanned over the thread pool with counter-based
///                   per-block Philox substreams (random::block_substream),
///                   so results are bit-identical for any thread count.
///
/// One plan can feed any number of pipelines and streams (the instant
/// stages of service::CompiledChannel, FadingStream, the baselines' block
/// coloring), which is what makes plan construction — the only expensive
/// part — a one-time cost per scenario.

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>

#include "rfade/core/coloring.hpp"
#include "rfade/core/gain_source.hpp"
#include "rfade/core/mean_source.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/random/rng.hpp"

namespace rfade::core {

/// Immutable product of the algorithm's build phase (steps 1-5): the PSD
/// forcing, the coloring factor and all diagnostics, computed once from a
/// desired covariance matrix and shared (by shared_ptr) between every
/// pipeline and generator that draws against it.
class ColoringPlan {
 public:
  /// Build a plan from the desired covariance K of Eqs. (12)-(13).
  /// \throws ContractViolation when K is not a valid covariance matrix;
  ///         NotPositiveDefiniteError when Cholesky coloring is requested
  ///         on a non-PD K.
  [[nodiscard]] static std::shared_ptr<const ColoringPlan> create(
      numeric::CMatrix desired_covariance, ColoringOptions options = {});

  /// Number of envelopes N.
  [[nodiscard]] std::size_t dimension() const noexcept { return dim_; }

  /// The K the caller asked for.
  [[nodiscard]] const numeric::CMatrix& desired_covariance() const noexcept {
    return desired_;
  }

  /// K_bar = L L^H, the covariance actually realised (== desired K when
  /// that was PSD).
  [[nodiscard]] const numeric::CMatrix& effective_covariance() const noexcept {
    return coloring_.effective_covariance;
  }

  /// The coloring matrix L.
  [[nodiscard]] const numeric::CMatrix& coloring_matrix() const noexcept {
    return coloring_.matrix;
  }

  /// L^T (not conjugated), precomputed for the blocked right-multiply
  /// Z_block = W_block * L^T used by the batched draw paths.
  [[nodiscard]] const numeric::CMatrix& coloring_matrix_transposed()
      const noexcept {
    return coloring_transposed_;
  }

  /// Split re/im planes of L^T (each N x N row-major) feeding the
  /// vectorized planar GEMM (numeric::multiply_block_planar).
  [[nodiscard]] const numeric::RVector& coloring_transposed_re()
      const noexcept {
    return coloring_transposed_re_;
  }
  [[nodiscard]] const numeric::RVector& coloring_transposed_im()
      const noexcept {
    return coloring_transposed_im_;
  }

  /// Full coloring diagnostics (PSD forcing report etc.).
  [[nodiscard]] const ColoringResult& coloring() const noexcept {
    return coloring_;
  }

  /// Float32 clone of the coloring operator for the mixed-precision
  /// emission pipeline: L^T narrowed element-by-element from the double
  /// factor.  The design itself (eigen/Cholesky, PSD forcing) always runs
  /// in double — this is a one-time down-conversion, built lazily on the
  /// first float32 draw and cached for the plan's lifetime (thread-safe;
  /// plans are shared across streams and the PlanCache).
  struct ColoringF32 {
    numeric::CMatrixF transposed;  ///< L^T, N x N interleaved
  };
  [[nodiscard]] const ColoringF32& coloring_f32() const;

 private:
  ColoringPlan(numeric::CMatrix desired, const ColoringOptions& options);

  std::size_t dim_;
  numeric::CMatrix desired_;
  ColoringResult coloring_;
  numeric::CMatrix coloring_transposed_;
  numeric::RVector coloring_transposed_re_;
  numeric::RVector coloring_transposed_im_;
  mutable std::once_flag coloring_f32_once_;
  mutable ColoringF32 coloring_f32_;
};

/// Absolute time instant of the first row of block \p block_index when
/// blocks start every \p period instants and span \p rows instants:
/// block_index * period, checked so that every row instant of the block,
/// up to block_index * period + rows - 1, is addressable in 64 bits.
/// Every keyed entry point of the stream and instant paths goes through
/// it.  \throws ContractViolation on overflow.
[[nodiscard]] std::uint64_t checked_first_instant(std::uint64_t block_index,
                                                  std::uint64_t period,
                                                  std::uint64_t rows);

/// Options for SamplePipeline.
struct PipelineOptions {
  /// Variance sigma_w^2 of the i.i.d. complex Gaussians in step 6.  The
  /// algorithm divides it back out, so any positive value yields identical
  /// statistics; it is kept configurable to mirror the paper exactly.
  double sample_variance = 1.0;
  /// Optional deterministic specular mean m(l) added after coloring:
  /// Z_l = L W_l / sigma_w + m(l).  The default (zero) MeanSource is the
  /// paper's pure-Rayleigh algorithm; assigning a CVector (implicitly
  /// converted) gives PR 2's constant LOS mean — branch j's envelope
  /// |z_j| is then Rician with K-factor |m_j|^2 / K_bar_jj (see
  /// scenario/scenario_spec.hpp) — and the time-varying forms
  /// (Doppler-shifted LOS phasor, TWDP phasor pair, precomputed block)
  /// index the mean by the absolute time instant of each row (see
  /// core/mean_source.hpp for how each draw path assigns instants).  A
  /// non-zero mean must have dimension() entries; an all-zero mean is
  /// treated exactly like the default, so a K = 0 scenario reproduces
  /// the zero-mean output bit-for-bit.
  MeanSource mean_offset;
  /// Optional multiplicative per-branch amplitude gain g(l) applied after
  /// coloring and mean addition: Z_l = g(l) (.) (L W_l / sigma_w + m(l)).
  /// The default (unit) GainSource is the paper's pipeline with no
  /// multiply pass at all — output is bit-identical to the gain-free
  /// paths; a constant vector models fixed per-link attenuation, and the
  /// dynamic form (e.g. scenario/composite's correlated-lognormal
  /// ShadowingProcess) is indexed by the absolute time instant of each
  /// row exactly like the mean.  A non-unit gain must have dimension()
  /// entries; an all-ones constant is treated exactly like the default.
  GainSource gain;
  /// Rows per block in the batched paths; also the work-unit handed to the
  /// thread pool by sample_stream (and the granularity of the per-block
  /// Philox substreams, so changing it changes the stream's bit pattern).
  std::size_t block_size = 4096;
  /// Fan sample_stream blocks over support::ThreadPool::global().  The
  /// result is bit-identical either way — substreams are keyed by block
  /// index, never by thread.
  bool parallel = true;
};

/// Executor of the algorithm's draw phase (steps 6-7) against a shared
/// ColoringPlan.  Cheap to construct; holds only the plan handle and
/// normalisation constants.
class SamplePipeline {
 public:
  explicit SamplePipeline(std::shared_ptr<const ColoringPlan> plan,
                          PipelineOptions options = {});

  [[nodiscard]] const ColoringPlan& plan() const noexcept { return *plan_; }
  [[nodiscard]] const std::shared_ptr<const ColoringPlan>& plan_handle()
      const noexcept {
    return plan_;
  }
  [[nodiscard]] std::size_t dimension() const noexcept {
    return plan_->dimension();
  }
  [[nodiscard]] const PipelineOptions& options() const noexcept {
    return options_;
  }

  /// True when a non-trivial mean offset is applied to every draw.
  [[nodiscard]] bool has_mean_offset() const noexcept { return has_mean_; }

  /// True when the mean offset depends on the time instant (so draw paths
  /// must be given a meaningful first_instant).
  [[nodiscard]] bool has_time_varying_mean() const noexcept {
    return has_mean_ && options_.mean_offset.is_time_varying();
  }

  /// True when a non-unit multiplicative gain is applied to every draw.
  [[nodiscard]] bool has_gain() const noexcept { return has_gain_; }

  /// True when the gain depends on the time instant (so draw paths must
  /// be given a meaningful first_instant).
  [[nodiscard]] bool has_time_varying_gain() const noexcept {
    return has_gain_ && options_.gain.is_time_varying();
  }

  // --- per-draw path (steps 6-7, one time instant) -------------------------

  /// Write one draw Z = g(\p instant) (.) (L W / sigma_w + m(\p instant))
  /// into \p out (size N).  \p instant only matters for time-varying
  /// means/gains.
  void sample_into(random::Rng& rng, std::span<numeric::cdouble> out,
                   std::uint64_t instant = 0) const;

  /// One draw of N correlated complex Gaussians.
  [[nodiscard]] numeric::CVector sample(random::Rng& rng,
                                        std::uint64_t instant = 0) const;

  /// One draw of the envelopes r_j = |z_j|.
  [[nodiscard]] numeric::RVector sample_envelopes(
      random::Rng& rng, std::uint64_t instant = 0) const;

  // --- batched paths --------------------------------------------------------

  /// \p count draws stacked row-wise into a count x N matrix.  Consumes
  /// \p rng in exactly the per-draw order (row-major W), and the blocked
  /// GEMM accumulates in matvec order — the result is bit-identical to
  /// calling sample_into count times (row t at instant
  /// \p first_instant + t).
  [[nodiscard]] numeric::CMatrix sample_block(
      std::size_t count, random::Rng& rng,
      std::uint64_t first_instant = 0) const;

  /// One deterministic block keyed by (\p seed, \p block_index): the i.i.d.
  /// draws are the Philox bulk substream (seed, block_index + 1) of
  /// random::fill_complex_gaussians_planar — a pure function of the key,
  /// so any block of a logical stream can be (re)generated independently,
  /// in any order, on any thread.  This is the throughput path: planar
  /// vectorized RNG + planar GEMM; statistically identical to the per-draw
  /// path but its own bit-stream.  Invariant to options().sample_variance
  /// (the sigma_w of step 6 cancels exactly, so the batched path draws at
  /// unit variance directly).  Row t carries the mean at instant
  /// \p first_instant + t; the three-argument form assigns
  /// first_instant = block_index * options().block_size, matching the
  /// instants sample_stream gives the same rows, and \throws
  /// ContractViolation when the block's row instants leave the 64-bit
  /// range (see checked_first_instant).
  [[nodiscard]] numeric::CMatrix sample_block(std::size_t count,
                                              std::uint64_t seed,
                                              std::uint64_t block_index) const;

  /// Same deterministic block with an explicit first time instant for
  /// the mean trajectory.
  [[nodiscard]] numeric::CMatrix sample_block(std::size_t count,
                                              std::uint64_t seed,
                                              std::uint64_t block_index,
                                              std::uint64_t first_instant)
      const;

  /// The same deterministic bulk block written into caller memory
  /// (\p out, row-major count x N) — the zero-copy form composite
  /// generators build their streams on, so block assembly needs no
  /// per-chunk temporary.  Bit-identical to the matrix-returning
  /// overloads.
  void sample_block_into(std::size_t count, std::uint64_t seed,
                         std::uint64_t block_index,
                         std::uint64_t first_instant,
                         std::span<numeric::cdouble> out) const;

  /// \p count draws as a count x N matrix, generated block-by-block
  /// (options().block_size rows per block, per-block substreams of \p seed)
  /// and fanned over the global thread pool when options().parallel.
  /// Bit-identical for any thread count, including serial.  Row t carries
  /// the mean at instant t (each block starts at its absolute offset, so
  /// the trajectory is continuous across blocks).
  [[nodiscard]] numeric::CMatrix sample_stream(std::size_t count,
                                               std::uint64_t seed) const;

  /// Envelope moduli of sample_stream: count x N real matrix.
  [[nodiscard]] numeric::RMatrix sample_envelope_stream(
      std::size_t count, std::uint64_t seed) const;

  // --- shared coloring of externally-drawn W --------------------------------

  /// Color a block of externally-generated white vectors (rows of \p w,
  /// count x N): out = (w / sqrt(variance)) * L^T (+ the mean, then the
  /// multiplicative gain, at instant \p first_instant + t on row t when
  /// configured).  This is the Sec. 5
  /// step 6-8 normalisation + coloring used by the real-time generators;
  /// \p variance is the (assumed) per-branch complex variance divided
  /// out.  variance == 1.0 (input already normalised) skips the scaling
  /// pass and colors straight from \p w.
  [[nodiscard]] numeric::CMatrix color_block(
      const numeric::CMatrix& w, double variance,
      std::uint64_t first_instant = 0) const;

  /// Color an already-normalised W block (count x N) in either emission
  /// precision: one GEMM against L^T — the plan's cached float32 clone
  /// for T = float — then the mean/gain tail at instant
  /// \p first_instant + t on row t.  For T = double this is exactly
  /// color_block(w, 1.0, first_instant); callers fold their 1/sigma
  /// scaling into W assembly.
  template <typename T>
  [[nodiscard]] numeric::Matrix<std::complex<T>> color_normalized(
      const numeric::Matrix<std::complex<T>>& w,
      std::uint64_t first_instant) const;

  /// Float32 coloring of an already-normalised W block:
  /// color_normalized<float>.
  [[nodiscard]] numeric::CMatrixF color_block_f32(
      const numeric::CMatrixF& w, std::uint64_t first_instant = 0) const {
    return color_normalized(w, first_instant);
  }

 private:
  /// Draw `rows` white vectors scaled by 1/sigma_w from \p rng and color
  /// them into `out` (row-major, `rows` x N, caller-owned).  Per-draw
  /// bit-compatible path.
  void fill_colored_rows(random::Rng& rng, std::size_t rows,
                         std::uint64_t first_instant,
                         numeric::cdouble* out) const;

  /// Bulk throughput path: rows x N colored draws of logical block
  /// \p block_index of the stream keyed by \p seed, written to `out`;
  /// mean rows start at \p first_instant.
  void fill_colored_rows_bulk(std::uint64_t seed, std::uint64_t block_index,
                              std::uint64_t first_instant, std::size_t rows,
                              numeric::cdouble* out) const;

  /// Apply the mean-then-gain tail of every draw path to the `rows`
  /// colored N-vectors in `out`: row t gains m(first_instant + t) and is
  /// then scaled by g(first_instant + t).  No-op for the default
  /// zero-mean/unit-gain pipeline.  The trajectories are double by
  /// design, so the float overload evaluates each row's m / g in double
  /// and applies them narrowed, while the double one applies them in
  /// place.
  void finish_rows(std::uint64_t first_instant, std::size_t rows,
                   numeric::cdouble* out) const;
  void finish_rows(std::uint64_t first_instant, std::size_t rows,
                   numeric::cfloat* out) const;

  std::shared_ptr<const ColoringPlan> plan_;
  PipelineOptions options_;
  double inv_sigma_w_;
  bool has_mean_ = false;
  bool has_gain_ = false;
};

}  // namespace rfade::core
