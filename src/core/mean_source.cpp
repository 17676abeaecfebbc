#include "rfade/core/mean_source.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "rfade/support/contracts.hpp"

namespace rfade::core {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

bool all_zero(const numeric::CVector& v) {
  for (const numeric::cdouble& x : v) {
    if (x != numeric::cdouble{}) {
      return false;
    }
  }
  return true;
}

bool all_zero(const numeric::CMatrix& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (m.data()[i] != numeric::cdouble{}) {
      return false;
    }
  }
  return true;
}

void validate_frequency(double f) {
  RFADE_EXPECTS(std::isfinite(f) && std::abs(f) <= 0.5,
                "MeanSource: normalized frequency must be finite with "
                "|f| <= 0.5");
}

void validate_amplitudes(const numeric::CVector& amplitudes) {
  for (const numeric::cdouble& a : amplitudes) {
    RFADE_EXPECTS(std::isfinite(a.real()) && std::isfinite(a.imag()),
                  "MeanSource: amplitudes must be finite");
  }
}

/// x mod 1 with the sign of x, exactly: x - trunc(x) is representable
/// for every finite x, so it equals std::fmod(x, 1.0) bit for bit, and
/// copysign restores the sign fmod gives an integral x (-3 - -3 is +0,
/// fmod(-3, 1) is -0).  An inline trunc instead of glibc's fmod call.
double mod_one(double x) { return std::copysign(x - std::trunc(x), x); }

/// Rows [0, rows) of e^{i 2 pi f l}, l = first_instant + t, as cosine
/// (\p re) and sine (\p im) planes, each evaluated from its absolute
/// instant.  Reducing f * l mod 1 only after the full product rounds
/// would cost ~ulp(f*l) cycles of phase (noticeable past l ~ 2^40), so
/// the instant is split into 32-bit halves and each partial product
/// reduced separately — phase error stays ~2^-20 cycles at any l, and
/// for l < 2^32 the result is bit-identical to fmod(f * l, 1).  One
/// libm sincos of the same angle per row: the bits std::polar(1, angle)
/// gives.
void unit_phasors(double frequency, std::uint64_t first_instant,
                  std::size_t rows, double* re, double* im) {
  for (std::size_t t = 0; t < rows; ++t) {
    const std::uint64_t instant = first_instant + t;
    const double hi = static_cast<double>(instant >> 32);
    const double lo = static_cast<double>(instant & 0xFFFFFFFFULL);
    const double cycles =
        mod_one(mod_one(frequency * hi) * 4294967296.0 + frequency * lo);
    const double angle = kTwoPi * cycles;
    re[t] = std::cos(angle);
    im[t] = std::sin(angle);
  }
}

}  // namespace

MeanSource::MeanSource(numeric::CVector constant_mean) {
  if (constant_mean.empty() || all_zero(constant_mean)) {
    return;  // zero mean: a K = 0 scenario stays on the Rayleigh path.
  }
  validate_amplitudes(constant_mean);
  kind_ = Kind::Constant;
  terms_.push_back(MeanPhasorTerm{std::move(constant_mean), 0.0});
}

MeanSource MeanSource::constant(numeric::CVector mean) {
  return MeanSource(std::move(mean));
}

MeanSource MeanSource::doppler_phasor(numeric::CVector amplitudes,
                                      double normalized_frequency) {
  return phasor_sum(
      {MeanPhasorTerm{std::move(amplitudes), normalized_frequency}});
}

MeanSource MeanSource::phasor_sum(std::vector<MeanPhasorTerm> terms) {
  MeanSource source;
  std::size_t dim = 0;
  bool any_nonzero = false;
  bool time_varying = false;
  for (const MeanPhasorTerm& term : terms) {
    validate_frequency(term.normalized_frequency);
    validate_amplitudes(term.amplitudes);
    RFADE_EXPECTS(!term.amplitudes.empty(),
                  "MeanSource: phasor term amplitudes must be non-empty");
    if (dim == 0) {
      dim = term.amplitudes.size();
    }
    RFADE_EXPECTS(term.amplitudes.size() == dim,
                  "MeanSource: all phasor terms must share one dimension");
    if (!all_zero(term.amplitudes)) {
      any_nonzero = true;
      if (term.normalized_frequency != 0.0) {
        time_varying = true;
      }
    }
  }
  if (!any_nonzero) {
    return source;  // zero mean
  }
  source.kind_ = time_varying ? Kind::Phasor : Kind::Constant;
  if (!time_varying && terms.size() > 1) {
    // Collapse static terms to one constant vector so the hot path stays
    // the single add loop of the constant-vector mean.
    numeric::CVector sum(dim);
    for (const MeanPhasorTerm& term : terms) {
      for (std::size_t j = 0; j < dim; ++j) {
        sum[j] += term.amplitudes[j];
      }
    }
    if (all_zero(sum)) {
      // Individually non-zero static terms can cancel exactly; the
      // result is the zero mean and must keep its fast path (and the
      // -0.0 bit-compatibility promise).
      source.kind_ = Kind::Zero;
      return source;
    }
    source.terms_.push_back(MeanPhasorTerm{std::move(sum), 0.0});
  } else {
    // Drop all-zero terms (e.g. the second TWDP wave at Delta = 0): each
    // stored term costs one sin/cos + N complex FMAs per generated row.
    for (MeanPhasorTerm& term : terms) {
      if (!all_zero(term.amplitudes)) {
        source.terms_.push_back(std::move(term));
      }
    }
  }
  return source;
}

MeanSource MeanSource::block(numeric::CMatrix mean_block) {
  RFADE_EXPECTS(mean_block.rows() > 0 && mean_block.cols() > 0,
                "MeanSource: mean block must be non-empty");
  for (std::size_t i = 0; i < mean_block.size(); ++i) {
    const numeric::cdouble& x = mean_block.data()[i];
    RFADE_EXPECTS(std::isfinite(x.real()) && std::isfinite(x.imag()),
                  "MeanSource: mean block entries must be finite");
  }
  MeanSource source;
  if (all_zero(mean_block)) {
    return source;
  }
  source.kind_ = Kind::Block;
  source.block_ = std::move(mean_block);
  return source;
}

std::size_t MeanSource::dimension() const noexcept {
  switch (kind_) {
    case Kind::Zero:
      return 0;
    case Kind::Block:
      return block_.cols();
    case Kind::Constant:
    case Kind::Phasor:
      return terms_.front().amplitudes.size();
  }
  return 0;
}

void MeanSource::mean_at(std::uint64_t instant,
                         std::span<numeric::cdouble> out) const {
  RFADE_EXPECTS(dimension() == 0 || out.size() == dimension(),
                "MeanSource: output size must equal dimension");
  for (numeric::cdouble& x : out) {
    x = numeric::cdouble{};
  }
  add_to_rows(instant, 1, out.size(), out.data());
}

numeric::CVector MeanSource::mean_at_instant(std::uint64_t instant,
                                             std::size_t dimension) const {
  numeric::CVector out(dimension);
  mean_at(instant, out);
  return out;
}

void MeanSource::add_to_rows(std::uint64_t first_instant, std::size_t rows,
                             std::size_t n, numeric::cdouble* out) const {
  RFADE_EXPECTS(kind_ == Kind::Zero || n == dimension(),
                "MeanSource: row width must equal the mean dimension");
  switch (kind_) {
    case Kind::Zero:
      return;
    case Kind::Constant: {
      // Exactly the constant-vector add pass: one complex add per entry,
      // in the same order — bit-identical to the pre-MeanSource pipeline.
      const numeric::cdouble* m = terms_.front().amplitudes.data();
      for (std::size_t t = 0; t < rows; ++t) {
        numeric::cdouble* row = out + t * n;
        for (std::size_t j = 0; j < n; ++j) {
          row[j] += m[j];
        }
      }
      return;
    }
    case Kind::Phasor: {
      // Per term: the rotors of every row first (one sincos each), then
      // row += a * rot in explicit real arithmetic — for finite operands
      // exactly the bits of the std::complex product, in a j loop that
      // vectorises.  Terms are applied in their stored order.
      thread_local std::vector<double> rot_re;
      thread_local std::vector<double> rot_im;
      if (rot_re.size() < rows) {
        rot_re.resize(rows);
        rot_im.resize(rows);
      }
      for (const MeanPhasorTerm& term : terms_) {
        unit_phasors(term.normalized_frequency, first_instant, rows,
                     rot_re.data(), rot_im.data());
        const numeric::cdouble* a = term.amplitudes.data();
        for (std::size_t t = 0; t < rows; ++t) {
          const double c = rot_re[t];
          const double s = rot_im[t];
          numeric::cdouble* row = out + t * n;
          for (std::size_t j = 0; j < n; ++j) {
            const double ar = a[j].real();
            const double ai = a[j].imag();
            row[j] = numeric::cdouble(row[j].real() + (ar * c - ai * s),
                                      row[j].imag() + (ar * s + ai * c));
          }
        }
      }
      return;
    }
    case Kind::Block: {
      const std::size_t period = block_.rows();
      for (std::size_t t = 0; t < rows; ++t) {
        const std::size_t l =
            static_cast<std::size_t>((first_instant + t) % period);
        const numeric::cdouble* m = block_.data() + l * block_.cols();
        numeric::cdouble* row = out + t * n;
        for (std::size_t j = 0; j < n; ++j) {
          row[j] += m[j];
        }
      }
      return;
    }
  }
}

void MeanSource::add_to_rows(std::uint64_t first_instant, std::size_t rows,
                             std::size_t n, numeric::cfloat* out) const {
  if (kind_ == Kind::Zero) {
    return;
  }
  // The trajectory is double by design: each tile of rows is evaluated
  // by the double pass into zeroed scratch (so a row holds exactly
  // m(l) = mean_at(l)) and added narrowed.  The tile bounds the scratch
  // to a few cache-resident rows whatever the block length.
  constexpr std::size_t kTileRows = 128;
  thread_local std::vector<numeric::cdouble> tile;
  for (std::size_t t0 = 0; t0 < rows; t0 += kTileRows) {
    const std::size_t count = std::min(kTileRows, rows - t0);
    tile.assign(count * n, numeric::cdouble{});
    add_to_rows(first_instant + t0, count, n, tile.data());
    numeric::cfloat* dst = out + t0 * n;
    for (std::size_t i = 0; i < count * n; ++i) {
      dst[i] += numeric::cfloat(static_cast<float>(tile[i].real()),
                                static_cast<float>(tile[i].imag()));
    }
  }
}

}  // namespace rfade::core
