#pragma once

/// \file mean_source.hpp
/// \brief Time-indexed specular (mean) component of a sampling pipeline.
///
/// The paper's algorithm generates zero-mean correlated Gaussians; every
/// specular scenario adds a deterministic mean m on top of the colored
/// diffuse field: Z_l = L W_l / sigma_w + m(l).  PR 2's constant-phasor
/// LOS is the special case m(l) = m; the time-varying scenarios — a
/// moving-terminal LOS m_j e^{i 2 pi f_LOS l}, the deterministic-phase
/// real-time mode of TWDP fading (Maric & Njemcevic, "On the Simulation
/// and Correlation Properties of TWDP Fading Process",
/// arXiv:2502.03388) — need the mean to be a function of the time
/// instant l.  MeanSource is that function, in one of three closed
/// forms:
///
///   * zero            — the paper's pure-Rayleigh pipeline (no add pass);
///   * a phasor sum    — m(l) = sum_t a_t e^{i 2 pi f_t l} with complex
///                       per-branch amplitude vectors a_t and normalised
///                       frequencies f_t.  One term with f = 0 is the
///                       constant LOS mean; one term with f != 0 the
///                       Doppler-shifted LOS; two terms the TWDP specular
///                       pair;
///   * a mean block    — a precomputed M x N matrix, extended
///                       periodically in l (row l mod M), for means with
///                       no closed form.
///
/// The zero and constant cases take exactly the code paths the constant
/// CVector mean took before this class existed, so pure-Rayleigh and
/// constant-LOS pipeline output is bit-identical to the earlier
/// `PipelineOptions::mean_offset` vector.  Time-varying means evaluate
/// e^{i 2 pi f l} directly from the absolute instant l (never
/// incrementally), so any block of a stream can still be (re)generated
/// independently, in any order, on any thread.

#include <cstdint>
#include <span>
#include <vector>

#include "rfade/numeric/matrix.hpp"

namespace rfade::core {

/// One term a e^{i 2 pi f l} of a phasor-sum mean: a complex amplitude
/// per branch and a normalised frequency f = F / Fs in [-0.5, 0.5].
struct MeanPhasorTerm {
  numeric::CVector amplitudes;
  double normalized_frequency = 0.0;
};

/// Deterministic mean trajectory m(l) added after coloring (see file
/// comment).  Immutable once built; cheap to copy for the zero/phasor
/// forms.
class MeanSource {
 public:
  /// Zero mean — the paper's pure-Rayleigh pipeline.
  MeanSource() = default;

  /// Constant mean m(l) = m (PR 2's LOS vector).  Implicit so existing
  /// call sites assigning a CVector to a mean option keep compiling; an
  /// empty or all-zero vector is the zero mean.
  MeanSource(numeric::CVector constant_mean);  // NOLINT(google-explicit-*)

  /// Constant mean, named form.
  [[nodiscard]] static MeanSource constant(numeric::CVector mean);

  /// Doppler-shifted LOS of a terminal moving at normalised LOS Doppler
  /// \p normalized_frequency: m(l) = a e^{i 2 pi f l}.
  /// \pre f finite, |f| <= 0.5.
  [[nodiscard]] static MeanSource doppler_phasor(numeric::CVector amplitudes,
                                                 double normalized_frequency);

  /// General phasor sum m(l) = sum_t a_t e^{i 2 pi f_t l} (e.g. the two
  /// specular waves of real-time TWDP).  Each stored term costs, per
  /// generated row, one libm sincos (the floor of the mean pass) plus N
  /// complex multiply-adds; all-zero terms are dropped here.
  /// \pre all terms share one dimension; every frequency finite with
  /// |f| <= 0.5.
  [[nodiscard]] static MeanSource phasor_sum(std::vector<MeanPhasorTerm> terms);

  /// Precomputed M x N mean block, extended periodically: m(l) = row
  /// (l mod M) of \p mean_block.  \pre non-empty.
  [[nodiscard]] static MeanSource block(numeric::CMatrix mean_block);

  /// True when m(l) == 0 for all l — the pipeline skips the add pass
  /// entirely (pure-Rayleigh bit-compatibility).
  [[nodiscard]] bool is_zero() const noexcept { return kind_ == Kind::Zero; }

  /// True when m(l) does not depend on l (zero or constant).
  [[nodiscard]] bool is_constant() const noexcept {
    return kind_ == Kind::Zero || kind_ == Kind::Constant;
  }

  /// True when the mean genuinely varies with the time instant.
  [[nodiscard]] bool is_time_varying() const noexcept {
    return !is_constant();
  }

  /// Number of branches N, or 0 for the zero mean (which fits any N).
  [[nodiscard]] std::size_t dimension() const noexcept;

  /// m(\p instant) written into \p out (size N; zero mean requires the
  /// caller's N and writes zeros).
  void mean_at(std::uint64_t instant, std::span<numeric::cdouble> out) const;

  /// m(\p instant) as a vector of \p dimension entries (needed for the
  /// zero mean, whose own dimension is 0).
  [[nodiscard]] numeric::CVector mean_at_instant(std::uint64_t instant,
                                                 std::size_t dimension) const;

  /// Hot-path add pass: row t of \p out (row-major, \p rows x \p n) gains
  /// m(\p first_instant + t).  No-op for the zero mean; the constant case
  /// is the exact per-row add loop the constant-vector mean used.
  void add_to_rows(std::uint64_t first_instant, std::size_t rows,
                   std::size_t n, numeric::cdouble* out) const;

  /// Float add pass: row t of \p out gains m(\p first_instant + t)
  /// evaluated in double (exactly mean_at's value) and narrowed to float
  /// at the add.
  void add_to_rows(std::uint64_t first_instant, std::size_t rows,
                   std::size_t n, numeric::cfloat* out) const;

  /// Phasor terms (empty unless a phasor-sum/constant/doppler form).
  [[nodiscard]] const std::vector<MeanPhasorTerm>& terms() const noexcept {
    return terms_;
  }

  /// Periodic mean block (empty unless the block form).
  [[nodiscard]] const numeric::CMatrix& mean_block() const noexcept {
    return block_;
  }

 private:
  enum class Kind { Zero, Constant, Phasor, Block };

  Kind kind_ = Kind::Zero;
  /// Constant/phasor forms.  For Kind::Constant exactly one term with
  /// frequency 0 whose amplitudes are the mean vector.
  std::vector<MeanPhasorTerm> terms_;
  /// Block form: M x N, row l mod M is m(l).
  numeric::CMatrix block_;
};

}  // namespace rfade::core
