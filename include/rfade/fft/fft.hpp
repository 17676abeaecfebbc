#pragma once

/// \file fft.hpp
/// \brief Complex FFT: iterative radix-2 Cooley-Tukey plus Bluestein's
///        algorithm for arbitrary lengths, real-input transforms via the
///        classic pairing/split identities, and batched planar transforms
///        for the streaming hot path.
///
/// Conventions (matching the paper's Fig. 2 / Eq. (17) usage):
///   forward : X[k] = sum_l x[l] e^{-i 2 pi k l / N}     (unnormalised)
///   inverse : x[l] = sum_k X[k] e^{+i 2 pi k l / N}     (unnormalised)
///   idft    : inverse scaled by 1/N — the exact operator in the paper's
///             u_j[l] = (1/M) sum_k U_j[k] e^{i 2 pi k l / M}.
///
/// The Young-Beaulieu generator uses M = 4096 (a power of two) but the
/// library supports any M >= 1 via Bluestein, so callers can match an
/// arbitrary autocorrelation-design length.
///
/// Real-input transforms: the Eq. (21) impulse response h = IDFT(F) is
/// real (F is a real, even Doppler spectrum), so the streaming
/// convolutions only ever mix real kernels with pairs of real Philox
/// tapes.  Two standard identities make that cost half of the naive
/// complex treatment and are exposed here:
///   * pairing — the DFTs of two real length-N sequences come out of ONE
///     N-point complex transform of x + i y (transform_real_pair), and
///     because the product of conjugate-symmetric spectra is conjugate
///     symmetric, a real kernel convolves both tapes through a single
///     forward/inverse pass (RealConvolver::convolve_pair);
///   * split — the DFT of one real length-2N sequence via an N-point
///     complex transform plus an O(N) twiddle recombination
///     (transform_real / inverse_real).

#include <complex>
#include <concepts>
#include <cstdint>
#include <memory>
#include <vector>

#include "rfade/numeric/matrix.hpp"

namespace rfade::fft {

using numeric::cdouble;
using numeric::cfloat;
using numeric::CVector;
using numeric::CVectorF;
using numeric::RVector;
using numeric::RVectorF;

/// Transform direction (see file comment for sign conventions).
enum class Direction { Forward, Inverse };

/// True when \p n is a power of two (n == 0 returns false).
[[nodiscard]] bool is_power_of_two(std::size_t n);

/// In-place radix-2 FFT; \p data.size() must be a power of two.
void fft_pow2_inplace(CVector& data, Direction direction);

/// FFT of any length: radix-2 when possible, Bluestein otherwise.
/// Unnormalised in both directions.
[[nodiscard]] CVector transform(const CVector& data, Direction direction);

/// Unnormalised forward DFT.
[[nodiscard]] CVector dft(const CVector& data);

/// Inverse DFT including the 1/N factor — the paper's IDFT operator.
[[nodiscard]] CVector idft(const CVector& data);

/// O(N^2) reference DFT used by the test suite to validate the FFT.
[[nodiscard]] CVector naive_dft(const CVector& data, Direction direction);

/// Precomputed power-of-two FFT plan: the bit-reversal permutation and
/// the per-stage twiddle tables of fft_pow2_inplace, built once and reused
/// for every transform of the same length.  The tables are generated by
/// the *exact* incremental-with-resync recurrence the ad-hoc path runs,
/// so transform() is bit-identical to fft_pow2_inplace — just without
/// recomputing ~N complex twiddle multiplies and the index permutation
/// per call.  This is the streaming hot-path cache: the overlap-save
/// Doppler backend issues two 2M-point transforms per M output samples,
/// block after block, against one immutable plan shared by all N
/// branches (transform() only mutates the caller's buffer, so concurrent
/// use across branches is safe).
///
/// Schedule.  Both forms (interleaved transform() and planar
/// transform_batched()) run one butterfly kernel: stages (s, s+1) fused
/// in pairs on 4 points held in registers, plus one leading radix-2 stage
/// when log2(n) is odd.  Passes whose butterflies stay within a
/// cache-sized block of points run block by block; the rest sweep all
/// n points.  The kernel has one version per ISA at its register width
/// (support/simd.hpp): the planar form vectorises across lanes (a group
/// narrower than a register runs the widest vector its lane count
/// fills, then halving widths for the rest), the interleaved form across
/// consecutive points using (re, im) / (-im, re) twiddle pairs derived in
/// registers.
///
/// Bit contract.  Only the schedule differs from fft_pow2_inplace: every
/// butterfly keeps its operands, its twiddle from the tables and its
/// per-lane operation order, odd = (xr*wr - xi*wi, xr*wi + xi*wr), then
/// even + odd / even - odd (the pairing form adds xi*(-wi), which is
/// exact: a sign flip and x + (-y) == x - y in IEEE 754).  The transform
/// TU is compiled with -ffp-contract=off, so no version fuses a
/// multiply-add; every ISA version, every vector width and both forms
/// give the same bits per lane for finite input (the std::complex
/// reference recovers infinities from inf*0 NaNs, the kernel does not).
///
/// One class template serves both emission precisions: Pow2Plan (double)
/// and Pow2PlanF (float).  The float plan's twiddles come from the same
/// double recurrence, narrowed once, so every plan of a given length
/// carries identical tables; its scalar and batched transforms share the
/// per-lane operation order, so float is its own bit-reference,
/// independent of the double plan's values.  The real-input helpers
/// (dft, idft, the pairing/split identities) exist for double only.
template <typename T>
class BasicPow2Plan {
 public:
  using Complex = std::complex<T>;
  using ComplexVector = std::vector<Complex>;

  /// \pre n is a power of two.
  explicit BasicPow2Plan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// In-place transform of \p data (size() elements), bit-identical to
  /// fft_pow2_inplace(data, direction) in double.  Const and
  /// allocation-free: safe to call concurrently from multiple threads on
  /// distinct buffers.
  void transform(ComplexVector& data, Direction direction) const;

  /// transform() of \p in into \p out (size() elements each; \p in may
  /// equal \p out).  Out of place, the bit-reversal permutation is the
  /// gather that copies \p in.  A non-null \p multiply_by (size()
  /// points) multiplies the result pointwise, out[k] *= multiply_by[k]
  /// with std::complex operator*='s operands, inside the last butterfly
  /// pass — the same values as a separate multiply loop.
  void transform(const Complex* in, Complex* out, Direction direction,
                 const Complex* multiply_by = nullptr) const;

  /// \p batch independent size()-point transforms on planar data: lane b
  /// of point p lives at re[p * batch + b] / im[p * batch + b] (the
  /// multiply_block_planar layout convention, contiguous across lanes so
  /// the butterflies SIMD across transforms).  Unnormalised in both
  /// directions; every lane's value sequence is the scalar transform()'s,
  /// so each lane is bit-identical to transforming it alone.  Const and
  /// allocation-free.
  void transform_batched(T* re, T* im, std::size_t batch,
                         Direction direction) const;

  /// transform_batched() of the planar input (\p in_re, \p in_im) into
  /// (\p re, \p im) — the input may be the output — with the same
  /// gather and optional pointwise \p multiply_by (one point shared by
  /// every lane) as the out-of-place transform().
  void transform_batched(const T* in_re, const T* in_im, T* re, T* im,
                         std::size_t batch, Direction direction,
                         const Complex* multiply_by = nullptr) const;

  /// Forward DFT into a fresh vector (unnormalised).
  [[nodiscard]] CVector dft(const CVector& data) const
    requires std::same_as<T, double>;

  /// Inverse DFT including the 1/N factor (the paper's IDFT operator).
  [[nodiscard]] CVector idft(const CVector& data) const
    requires std::same_as<T, double>;

  /// DFTs of TWO real length-size() sequences from ONE complex transform
  /// (the pairing identity: Z = DFT(x + i y), then
  /// X[k] = (Z[k] + conj(Z[N-k]))/2, Y[k] = -i (Z[k] - conj(Z[N-k]))/2).
  /// Full conjugate-symmetric spectra are written to \p fx / \p fy.
  void transform_real_pair(const RVector& x, const RVector& y, CVector& fx,
                           CVector& fy) const
    requires std::same_as<T, double>;

  /// Forward DFT of one real sequence of length 2*size() via this
  /// size()-point plan (the split identity: even/odd samples packed into
  /// one complex sequence, recombined with e^{-i pi k / N} twiddles).
  /// Returns the full conjugate-symmetric 2N-point spectrum.
  [[nodiscard]] CVector transform_real(const RVector& x) const
    requires std::same_as<T, double>;

  /// Inverse of transform_real: recover the real 2*size()-point signal
  /// from its conjugate-symmetric spectrum, including the 1/(2N) factor
  /// (the idft convention).
  [[nodiscard]] RVector inverse_real(const CVector& spectrum) const
    requires std::same_as<T, double>;

 private:
  std::size_t n_;
  /// Bit-reversal permutation: point p of the butterfly input is input
  /// point bit_reversed_[p].
  std::vector<std::uint32_t> bit_reversed_;
  /// Per-stage twiddles, stages concatenated: stage len contributes
  /// len/2 entries (total n - 1), in the exact value sequence of the
  /// resynchronised incremental recurrence.
  ComplexVector forward_twiddles_;
  ComplexVector inverse_twiddles_;
};

using Pow2Plan = BasicPow2Plan<double>;
using Pow2PlanF = BasicPow2Plan<float>;
extern template class BasicPow2Plan<double>;
extern template class BasicPow2Plan<float>;

/// Precomputed Bluestein (chirp-z) plan for arbitrary-length transforms:
/// the per-direction chirp sequences and the forward spectra of the
/// chirp-conjugate convolution kernels, plus the inner power-of-two plan,
/// built once.  transform() is bit-identical to the ad-hoc Bluestein path
/// of fft::transform — it replays the exact same value sequence from
/// cached tables — but allocation-free given a caller workspace, so the
/// overlap-save backend's non-power-of-two fallback stops paying two
/// table rebuilds and several allocations per block.
class BluesteinPlan {
 public:
  /// \pre n >= 1.
  explicit BluesteinPlan(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Unnormalised transform of \p in (size() elements) into \p out
  /// (resized), using \p scratch as the inner convolution workspace
  /// (resized to the inner plan length on first use).  Const: safe
  /// concurrently on distinct out/scratch buffers.
  void transform(const CVector& in, CVector& out, Direction direction,
                 CVector& scratch) const;

 private:
  std::size_t n_;
  std::size_t m_;  ///< inner power-of-two convolution length
  Pow2Plan inner_;
  CVector forward_chirp_;     ///< w[j] = exp(-i pi j^2 / n)
  CVector inverse_chirp_;     ///< w[j] = exp(+i pi j^2 / n)
  CVector forward_kernel_;    ///< DFT_m of the conj-chirp kernel (forward)
  CVector inverse_kernel_;    ///< DFT_m of the conj-chirp kernel (inverse)
};

/// Circular convolution with a fixed REAL kernel, at half the transform
/// bill of the naive complex treatment: because the kernel spectrum is
/// conjugate symmetric, the spectra of two real input streams packed as
/// x + i y stay separable through the pointwise product, so one forward
/// and one inverse complex FFT convolve BOTH streams (the pairing trick).
/// This is exactly the per-branch operation of the overlap-save Doppler
/// backend: the I and Q Philox tapes are the real pair, h = IDFT(F) the
/// real kernel.  Immutable and shareable; the per-call state lives in a
/// caller-owned workspace, so one instance serves any number of
/// concurrent branch sources allocation-free.
///
/// RealConvolver (double) designs its spectrum from the real kernel;
/// RealConvolverF (float) takes a caller-supplied spectrum — the
/// overlap-save design narrows its double kernel spectrum once, so the
/// per-branch float convolution uses exactly the values of the batched
/// planar float sweep.
template <typename T>
class BasicRealConvolver {
 public:
  using Plan = BasicPow2Plan<T>;
  using ComplexVector = typename Plan::ComplexVector;

  /// \param plan     shared 2^k plan; \pre plan != nullptr.
  /// \param spectrum kernel spectrum, spectrum.size() == plan->size().
  BasicRealConvolver(std::shared_ptr<const Plan> plan,
                     ComplexVector spectrum);

  /// \param plan   shared 2^k plan; \pre plan != nullptr.
  /// \param kernel real kernel, kernel.size() == plan->size().  The
  /// spectrum is computed through the full complex transform of the
  /// zero-imaginary kernel, so it is bit-identical to fft::dft of the
  /// complexified kernel.
  BasicRealConvolver(std::shared_ptr<const Plan> plan, const RVector& kernel)
    requires std::same_as<T, double>;

  [[nodiscard]] std::size_t size() const noexcept { return plan_->size(); }

  /// DFT of the (zero-padded) kernel — conjugate symmetric.
  [[nodiscard]] const ComplexVector& kernel_spectrum() const noexcept {
    return spectrum_;
  }

  [[nodiscard]] const std::shared_ptr<const Plan>& plan() const noexcept {
    return plan_;
  }

  /// Circularly convolve the packed pair in = x + i y with the kernel;
  /// on return \p work holds the UNNORMALISED result (scale by 1/size()
  /// for the true circular convolution — the overlap-save backend folds
  /// that factor into its extraction pass).  Re(work) is then h (*) x and
  /// Im(work) is h (*) y.  Const and allocation-free after the first call
  /// per workspace.
  void convolve_packed(const ComplexVector& in, ComplexVector& work) const;

  /// Circularly convolve BOTH real inputs (length size()) with the kernel
  /// in one forward + one inverse transform, including the 1/N factor.
  void convolve_pair(const double* x, const double* y, double* out_x,
                     double* out_y, CVector& work) const
    requires std::same_as<T, double>;

 private:
  std::shared_ptr<const Plan> plan_;
  ComplexVector spectrum_;
};

using RealConvolver = BasicRealConvolver<double>;
using RealConvolverF = BasicRealConvolver<float>;
extern template class BasicRealConvolver<double>;
extern template class BasicRealConvolver<float>;

}  // namespace rfade::fft
