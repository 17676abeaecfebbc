#pragma once

/// \file idft_generator.hpp
/// \brief Young-Beaulieu IDFT Rayleigh branch generator (paper Fig. 2).
///
/// One branch produces a block of M complex Gaussian samples whose
/// normalised autocorrelation follows J0(2 pi fm d):
///
///   U[k] = F[k] A[k] - i F[k] B[k],  A,B iid N(0, sigma_orig^2)
///   u[l] = (1/M) sum_k U[k] e^{i 2 pi k l / M}
///
/// The output variance is *not* sigma_orig^2 — it is the Eq. (19) value
/// exposed by output_variance().  The proposed real-time algorithm divides
/// by exactly this value (paper Sec. 5, step 6); baselines that skip the
/// correction inherit a large power bias (experiment E7).

#include <memory>

#include "rfade/doppler/filter.hpp"
#include "rfade/fft/fft.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/random/rng.hpp"

namespace rfade::doppler {

/// A single correlated-in-time Rayleigh branch (Fig. 2 of the paper).
class IdftRayleighBranch {
 public:
  /// \param m  IDFT size M (block length); \pre m >= 8.
  /// \param fm normalised maximum Doppler Fm/Fs in (0, 0.5) with fm*m >= 1.
  /// \param input_variance_per_dim sigma_orig^2 of the A/B sequences.
  IdftRayleighBranch(std::size_t m, double fm, double input_variance_per_dim);

  /// Generate one block of M complex Gaussian samples u[0..M-1].
  [[nodiscard]] numeric::CVector generate_block(random::Rng& rng) const;

  /// The stochastic half of generate_block: draw the weighted spectrum
  /// U[k] = F[k](A[k] - i B[k]).  This is the only part that consumes
  /// \p rng, so callers generating many branches can draw all spectra in a
  /// fixed serial order and synthesize them concurrently.
  [[nodiscard]] numeric::CVector draw_spectrum(random::Rng& rng) const;

  /// The deterministic half: u = IDFT(spectrum).  Pure (no rng, no mutable
  /// state) — safe to run on any thread.  A power-of-two M runs on the
  /// branch's cached Pow2Plan, built once at construction.
  [[nodiscard]] numeric::CVector synthesize(
      const numeric::CVector& spectrum) const;

  /// Allocation-free form of synthesize for steady-state streaming: writes
  /// u into \p out, reusing its capacity (power-of-two M never allocates
  /// once \p out is warm; the Bluestein fallback still does).
  /// Bit-identical to synthesize.
  void synthesize_into(const numeric::CVector& spectrum,
                       numeric::CVector& out) const;

  /// Envelope |u| of one generated block.
  [[nodiscard]] numeric::RVector generate_envelope_block(
      random::Rng& rng) const;

  /// Analytic output variance sigma_g^2 (Eq. 19).
  [[nodiscard]] double output_variance() const noexcept {
    return output_variance_;
  }

  /// The designed Doppler filter.
  [[nodiscard]] const DopplerFilterDesign& filter() const noexcept {
    return design_;
  }

  /// Block length M.
  [[nodiscard]] std::size_t block_size() const noexcept {
    return design_.size();
  }

  /// sigma_orig^2.
  [[nodiscard]] double input_variance_per_dim() const noexcept {
    return input_variance_per_dim_;
  }

 private:
  DopplerFilterDesign design_;
  double input_variance_per_dim_;
  double output_variance_;
  /// M-point transform plan (bit-identical to fft_pow2_inplace); null
  /// when M is not a power of two (Bluestein through fft::idft).  Shared
  /// and immutable, so copies of the branch reuse it.
  std::shared_ptr<const fft::Pow2Plan> plan_;
};

}  // namespace rfade::doppler
