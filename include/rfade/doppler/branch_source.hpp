#pragma once

/// \file branch_source.hpp
/// \brief Per-branch temporal-synthesis backends behind one pull interface.
///
/// The paper's Sec. 5 algorithm emits one M-sample IDFT block per branch
/// (Fig. 2) and restarts for the next block, so consecutive blocks are
/// independent realisations — fine for the paper's experiments, but an
/// autocorrelation discontinuity at every block seam of a long trace.  The
/// unbounded stationary processes of the time-varying scenarios (Maric &
/// Njemcevic's TWDP simulator, Ibdah & Ding's cascaded channels) need a
/// genuinely continuous stream.  BranchSource abstracts "one branch's
/// correlated complex Gaussian stream, one block at a time" so the
/// stream engine (core::FadingStream) can swap the synthesis backend:
///
///   * StreamBackend::IndependentBlock — the paper's Fig. 2 generator
///     verbatim: every block is a fresh IDFT realisation; the
///     autocorrelation across a seam is zero (continuity_horizon() == 0).
///   * StreamBackend::WindowedOverlapAdd — windowed overlap-add (WOLA):
///     consecutive independent block realisations are crossfaded over
///     `overlap` samples with the equal-power window
///     y = sqrt(1-w) * current + sqrt(w) * next, which preserves variance
///     and Gaussianity exactly and keeps the J0 autocorrelation intact
///     for lags up to ~overlap across every seam
///     (continuity_horizon() == overlap).  Each advance consumes one
///     block spectrum and emits M - overlap samples.
///   * StreamBackend::OverlapSaveFir — state-carrying overlap-save FIR:
///     the Eq. (21) filter's impulse response h = IDFT(F) (centered, so
///     its linear autocorrelation matches the circular Eq. (17) law) is
///     convolved against a persistent white complex Gaussian input
///     stream drawn from a seekable bulk-Philox substream
///     (random::fill_complex_gaussians_planar with a sample offset).
///     The output is one exactly stationary process: the J0(2 pi fm d)
///     autocorrelation holds across any number of block boundaries
///     (continuity_horizon() == unbounded), the per-sample variance is
///     the same Eq. (19) sigma_g^2 as the block backends, and each
///     M-sample output block costs two 2M FFTs — O(log M) amortised per
///     sample.  Because the input stream is indexed by absolute sample
///     position, every output block is a pure function of
///     (branch seed, block index): seekable, order-free, thread-free.
///
/// Protocol: one `advance` (the stochastic half — consumes the caller's
/// rng in a fixed serial order, or nothing for the self-keyed
/// overlap-save backend) followed by exactly one `fill` (the heavy
/// deterministic half — IDFT / windowing / convolution; safe to run
/// concurrently across *distinct* sources).  `reset` drops carried state
/// so a seek can replay `history_blocks()` blocks to rebuild it.

#include <cstdint>
#include <memory>
#include <span>
#include <tuple>
#include <vector>

#include "rfade/doppler/idft_generator.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/random/rng.hpp"

namespace rfade::fft {
class BluesteinPlan;
template <typename T>
class BasicRealConvolver;
}  // namespace rfade::fft

namespace rfade::doppler {

/// Which temporal-synthesis backend drives each branch (see file comment).
enum class StreamBackend {
  IndependentBlock,   ///< paper Sec. 5: independent IDFT block realisations
  WindowedOverlapAdd, ///< equal-power crossfade of independent blocks (WOLA)
  OverlapSaveFir      ///< exact continuous FIR convolution (overlap-save)
};

/// Human-readable backend name, for reports and bench labels.
[[nodiscard]] const char* stream_backend_name(StreamBackend backend) noexcept;

/// One branch's correlated complex-Gaussian stream, pulled one block at a
/// time.  Stateful; sources for different branches are independent objects,
/// so `fill` may run concurrently across branches after the serial
/// `advance` pass.
class BranchSource {
 public:
  virtual ~BranchSource() = default;

  /// Output samples per advance/fill pair.
  [[nodiscard]] virtual std::size_t block_size() const noexcept = 0;

  /// The stochastic half of one block: draw this block's randomness from
  /// \p rng (backends with self-keyed randomness ignore it and key off
  /// \p block_index instead).  Called once per block, for every branch in
  /// a fixed serial order — rng consumption never depends on threads.
  virtual void advance(random::Rng& rng, std::uint64_t block_index) = 0;

  /// The deterministic half: write the block's block_size() samples into
  /// \p out.  Exactly one fill per advance (fill may rotate carried
  /// state).  No shared mutable state across sources — parallel-safe
  /// across branches.
  ///
  /// The float overload is the float32 emission pipeline's fill: same
  /// advance/fill protocol, block emitted in float.  A given source
  /// instance is driven in ONE precision for its whole life (the
  /// stream's precision knob is fixed at construction); the float stream
  /// is its own bit-reference — deterministic and keyed exactly like the
  /// double path, but not required to match it bitwise.
  virtual void fill(std::span<numeric::cdouble> out) = 0;
  virtual void fill(std::span<numeric::cfloat> out) = 0;

  /// Float fill under its historical name.
  void fill_f32(std::span<numeric::cfloat> out) { fill(out); }

  /// Drop all carried state, as if freshly constructed (used by seeks,
  /// which then replay history_blocks() blocks to rebuild it).
  virtual void reset() = 0;
};

/// Immutable, shareable description of a branch backend: the Young-Beaulieu
/// filter/IDFT design plus backend-specific precomputation (crossfade
/// window, centered FIR kernel spectrum).  One design serves any number of
/// BranchSource instances (the N branches of a stream, transient keyed
/// replays, ...).
class BranchSourceDesign {
 public:
  /// \param backend   synthesis backend.
  /// \param m         IDFT size M; \pre m >= 8 (young_beaulieu_filter).
  /// \param fm        normalised maximum Doppler in (0, 0.5), fm*m >= 1.
  /// \param input_variance_per_dim sigma_orig^2 > 0 of the A/B sequences.
  /// \param overlap   WOLA crossfade length; 0 picks m / 8.
  ///                  \pre 1 <= overlap < m / 2 (WOLA only).
  BranchSourceDesign(StreamBackend backend, std::size_t m, double fm,
                     double input_variance_per_dim, std::size_t overlap = 0);

  [[nodiscard]] StreamBackend backend() const noexcept { return backend_; }

  /// Output samples per block: M, except M - overlap for WOLA.
  [[nodiscard]] std::size_t block_size() const noexcept { return block_size_; }

  /// Blocks of carried state a seek must replay (0 for the keyed
  /// backends, 1 for WOLA's previous-block crossfade state).
  [[nodiscard]] std::size_t history_blocks() const noexcept {
    return backend_ == StreamBackend::WindowedOverlapAdd ? 1 : 0;
  }

  /// Largest lag d for which the autocorrelation J0(2 pi fm d) survives a
  /// block seam: 0 (independent), overlap (WOLA), or SIZE_MAX
  /// (overlap-save — exactly stationary at every lag).
  [[nodiscard]] std::size_t continuity_horizon() const noexcept;

  /// Analytic per-sample output variance sigma_g^2 (Eq. 19) — identical
  /// for all three backends (the crossfade is equal-power; Parseval makes
  /// the FIR energy equal the IDFT one).
  [[nodiscard]] double output_variance() const noexcept {
    return branch_.output_variance();
  }

  /// The shared Fig. 2 branch (filter design, IDFT synthesis).
  [[nodiscard]] const IdftRayleighBranch& branch() const noexcept {
    return branch_;
  }

  /// WOLA crossfade length (0 unless the WOLA backend).
  [[nodiscard]] std::size_t overlap() const noexcept { return overlap_; }

  /// True when this design is the one the constructor builds from these
  /// arguments (overlap 0 meaning the WOLA default, as there).
  [[nodiscard]] bool matches(StreamBackend backend, std::size_t m, double fm,
                             double input_variance_per_dim,
                             std::size_t overlap) const noexcept;

  /// A fresh source.  \p branch_seed keys the overlap-save backend's
  /// persistent bulk-Philox input substream (ignored by the rng-driven
  /// backends); derive it per branch with input_seed.
  [[nodiscard]] std::unique_ptr<BranchSource> make_source(
      std::uint64_t branch_seed) const;

  /// Deterministic per-branch input seed for the overlap-save input
  /// streams: splitmix64 over (seed, branch), salted so it collides with
  /// neither the cascade stage seeds nor the TWDP phase seed.
  [[nodiscard]] static std::uint64_t input_seed(std::uint64_t seed,
                                                std::size_t branch);

 private:
  /// The per-block operators in one emission precision: the WOLA fade
  /// weights and the power-of-two overlap-save convolver (which carries
  /// the shared 2M-point plan and the kernel spectrum).  Designed in
  /// double; the float set is the double one narrowed once, so no design
  /// step ever reruns in float.
  template <typename T>
  struct Operators {
    std::vector<T> fade_in;   ///< sqrt(w),   w = (i+1) / (overlap+1)
    std::vector<T> fade_out;  ///< sqrt(1-w)
    /// Null for non-power-of-two 2M and the other backends.
    std::shared_ptr<const fft::BasicRealConvolver<T>> convolver;
  };

  template <typename T>
  [[nodiscard]] const Operators<T>& operators() const noexcept {
    return std::get<Operators<T>>(operators_);
  }

  StreamBackend backend_;
  IdftRayleighBranch branch_;
  std::size_t overlap_ = 0;
  std::size_t block_size_;
  /// WOLA: the equal-power fade weights sqrt(w), sqrt(1 - w).
  /// Overlap-save: the convolver holds
  /// DFT_{2M} of the centered REAL impulse response (h = IDFT(F) is real
  /// because F is a real, even Doppler spectrum; the ~1e-16 imaginary FP
  /// residue of the complex IDFT is dropped).  The I and Q Philox tapes
  /// pack into one complex FFT (the real-FFT pairing trick — see
  /// fft::RealConvolver), so each block costs one forward + one inverse
  /// transform for BOTH quadratures.
  std::tuple<Operators<double>, Operators<float>> operators_;
  /// Per-sample complex variance 2 sigma_orig^2 / M of the overlap-save
  /// white input stream that reproduces the Fig. 2 output statistics
  /// exactly.
  double input_stream_variance_ = 0.0;
  /// Overlap-save, non-power-of-two 2M: the kernel spectrum and the
  /// Bluestein plan built once, so the fallback stops rebuilding
  /// chirp/kernel tables and allocating fresh fft::dft/idft vectors every
  /// block.  The fallback has no float transform: its float fill runs in
  /// double and narrows.
  numeric::CVector kernel_spectrum_;
  std::shared_ptr<const fft::BluesteinPlan> fallback_plan_;

  friend class IndependentBlockBranchSource;
  friend class WolaBranchSource;
  friend class OverlapSaveBranchSource;
  friend class OverlapSaveBatch;
};

/// Batched overlap-save sweep over ALL branches of a stream: the N
/// branches' forward/inverse passes run as one planar-layout,
/// lane-lockstep batch over the design's shared plan
/// (fft::Pow2Plan::transform_batched), in groups of up to 8 lanes — one
/// zmm register of doubles — so the butterflies SIMD across transforms
/// instead of across the (strided) points of a single transform.  Every
/// lane's arithmetic is the scalar path's, so the sweep is bit-identical
/// to running the per-branch OverlapSaveBranchSource fills one by one:
/// core::FadingStream keeps the per-branch path as the keyed reference
/// and the test suite pins batched ≡ per-branch.
///
/// Owns all workspaces (inputs, transform buffers, Philox tapes),
/// preallocated at construction — the steady-state fill_block is
/// allocation-free.  Like the per-branch source, the input tape is keyed
/// by absolute sample position: fill_block(b) is a pure function of b
/// with a shift fast path when blocks are consumed in order, and reset()
/// only drops the cached inputs.
class OverlapSaveBatch {
 public:
  /// \pre supports(*design); branch_seeds.size() >= 1 (one per branch,
  /// in column order).  \p float32 selects the single-precision sweep:
  /// float Philox tapes, float transforms over the design's narrowed
  /// kernel spectrum, and 16 lanes per group (one zmm of floats) instead
  /// of 8.  A batch is built in ONE precision for its whole life; the
  /// float sweep is bit-identical to the per-branch float fill, which is
  /// its own reference (not the double path narrowed).
  OverlapSaveBatch(std::shared_ptr<const BranchSourceDesign> design,
                   std::vector<std::uint64_t> branch_seeds,
                   bool float32 = false);
  ~OverlapSaveBatch();

  /// True when \p design can drive the batched sweep: the overlap-save
  /// backend with a power-of-two 2M transform (the Bluestein fallback
  /// stays per-branch).
  [[nodiscard]] static bool supports(const BranchSourceDesign& design);

  [[nodiscard]] std::size_t branches() const noexcept;

  /// Compute output block \p block_index for every branch and write
  /// w(l, j) = u_j[l] * post_scale into the block_size() x branches()
  /// matrix \p w — the exact transpose-and-normalise pass of the
  /// per-branch path (post_scale is the caller's 1/sigma_g).  Lane
  /// groups run concurrently on the global pool when \p parallel.  \p T
  /// must be the precision the batch was built in.
  template <typename T>
  void fill_block(std::uint64_t block_index, T post_scale,
                  numeric::Matrix<std::complex<T>>& w, bool parallel);

  /// Drop the cached input windows (seek support; the next fill_block
  /// regenerates them from the bulk-Philox tapes).
  void reset();

 private:
  template <typename T>
  struct LaneGroup;

  std::shared_ptr<const BranchSourceDesign> design_;
  std::vector<std::uint64_t> branch_seeds_;
  /// The lane groups of the batch's precision (the other vector stays
  /// empty).
  std::tuple<std::vector<LaneGroup<double>>, std::vector<LaneGroup<float>>>
      groups_;
};

}  // namespace rfade::doppler
