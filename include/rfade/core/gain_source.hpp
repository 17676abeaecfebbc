#pragma once

/// \file gain_source.hpp
/// \brief Time-indexed multiplicative (gain) component of a sampling
///        pipeline — the dual of the additive MeanSource.
///
/// The paper's algorithm produces the *diffuse* small-scale field
/// Z_l = L W_l / sigma_w (+ m(l) for specular scenarios).  Composite
/// channels modulate that field by a slowly-varying positive amplitude
/// gain per branch — most importantly lognormal shadowing (Suzuki,
/// "A Statistical Model for Urban Radio Propagation", IEEE Trans.
/// Commun., 1977), whose spatial correlation follows Gudmundson's
/// exponential law ("Correlation Model for Shadow Fading in Mobile Radio
/// Systems", Electron. Lett., 1991).  GainSource is that modulation:
///
///   Z_l = g(l) (.) (L W_l / sigma_w + m(l)),
///
/// with (.) the per-branch (Hadamard) product — the gain scales the whole
/// local-mean field, specular component included, which is the physical
/// reading of shadowing as a common large-scale attenuation.  Three
/// closed forms:
///
///   * unit       — g(l) == 1: the paper's pipeline.  No multiply pass is
///                  emitted at all, so output stays bit-identical to the
///                  gain-free code path;
///   * constant   — a fixed positive per-branch gain vector (deterministic
///                  per-link attenuation / power imbalance);
///   * dynamic    — any time-indexed gain process behind the
///                  TimeVaryingGain interface, indexed by the *absolute*
///                  instant l so any block of a stream can be (re)generated
///                  independently, in any order, on any thread.  The
///                  correlated-lognormal form lives in
///                  scenario/composite/shadowing.hpp (ShadowingProcess).
///
/// Like MeanSource, the unit form (explicit, default, or an all-ones
/// constant) takes exactly the code paths the pipeline took before this
/// class existed — pure-Rayleigh/Rician output is bit-identical.

#include <complex>
#include <cstdint>
#include <memory>
#include <span>

#include "rfade/numeric/matrix.hpp"

namespace rfade::core {

/// Abstract time-indexed amplitude gain process g_j(l) > 0.  Must be a
/// pure function of the absolute instant (no mutable state observable
/// through gains_for_rows) — the pipeline calls it concurrently from the
/// thread pool with arbitrary, possibly overlapping instant ranges.
class TimeVaryingGain {
 public:
  virtual ~TimeVaryingGain() = default;

  /// Number of branches N.
  [[nodiscard]] virtual std::size_t dimension() const noexcept = 0;

  /// Write the amplitude gains of rows [\p first_instant,
  /// \p first_instant + \p rows) into \p out (row-major rows x N): entry
  /// t * N + j is g_j(first_instant + t).
  virtual void gains_for_rows(std::uint64_t first_instant, std::size_t rows,
                              std::span<double> out) const = 0;
};

/// Deterministic-or-stochastic multiplicative gain trajectory g(l)
/// applied after coloring and mean addition (see file comment).
/// Immutable once built; cheap to copy (the dynamic form shares its
/// process by shared_ptr).
class GainSource {
 public:
  /// Unit gain — the paper's pipeline, no multiply pass.
  GainSource() = default;

  /// Unit gain, named form.
  [[nodiscard]] static GainSource unit();

  /// Constant per-branch gain g(l) = g.  An empty or all-ones vector is
  /// the unit gain (and keeps its bit-compatibility fast path).
  /// \pre every entry finite and > 0.
  [[nodiscard]] static GainSource constant(numeric::RVector gains);

  /// Time-indexed gain process (e.g. correlated lognormal shadowing).
  /// \pre process non-null with dimension() > 0.
  [[nodiscard]] static GainSource dynamic(
      std::shared_ptr<const TimeVaryingGain> process);

  /// True when g(l) == 1 for all l — the pipeline skips the multiply
  /// pass entirely (bit-compatibility with the gain-free paths).
  [[nodiscard]] bool is_unit() const noexcept { return kind_ == Kind::Unit; }

  /// True when g(l) does not depend on l (unit or constant).
  [[nodiscard]] bool is_constant() const noexcept {
    return kind_ != Kind::Dynamic;
  }

  /// True when the gain genuinely varies with the time instant.
  [[nodiscard]] bool is_time_varying() const noexcept {
    return kind_ == Kind::Dynamic;
  }

  /// Number of branches N, or 0 for the unit gain (which fits any N).
  [[nodiscard]] std::size_t dimension() const noexcept;

  /// g(\p instant) written into \p out (size N; the unit gain requires
  /// the caller's N and writes ones).
  void gains_at(std::uint64_t instant, std::span<double> out) const;

  /// Block form of gains_at: row t of \p out (row-major, \p rows x \p n)
  /// is g(\p first_instant + t), equal bit for bit to gains_at of that
  /// instant.  The dynamic form evaluates its process once for the whole
  /// range.  \pre n == dimension() unless the unit gain.
  void gains_for_rows(std::uint64_t first_instant, std::size_t rows,
                      std::size_t n, double* out) const;

  /// Hot-path multiply pass: row t of \p out (row-major, \p rows x \p n)
  /// is scaled entrywise by g(\p first_instant + t).  No-op for the unit
  /// gain.  For T = float each double gain is narrowed at the multiply.
  template <typename T>
  void multiply_rows(std::uint64_t first_instant, std::size_t rows,
                     std::size_t n, std::complex<T>* out) const;

  /// Constant gain vector (empty unless the constant form).
  [[nodiscard]] const numeric::RVector& constant_gains() const noexcept {
    return constant_;
  }

  /// Dynamic gain process (null unless the dynamic form).
  [[nodiscard]] const std::shared_ptr<const TimeVaryingGain>& process()
      const noexcept {
    return process_;
  }

 private:
  enum class Kind { Unit, Constant, Dynamic };

  Kind kind_ = Kind::Unit;
  numeric::RVector constant_;
  std::shared_ptr<const TimeVaryingGain> process_;
};

}  // namespace rfade::core
