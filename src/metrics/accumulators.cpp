#include "rfade/metrics/accumulators.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <string>

#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"

namespace rfade::metrics {

using numeric::cdouble;

namespace {

/// The one place a lag product is formed: accumulate and merge both call
/// this, so seam-spanning products are computed from the identical
/// doubles with the identical expression — the bit-exactness hinge.
inline cdouble lag_product(cdouble later, cdouble earlier) {
  return later * std::conj(earlier);
}

/// Slot of the sample \p d (<= \p size) steps before the one that goes
/// to \p slot in a ring of \p size: a compare, not a division.
inline std::size_t slot_behind(std::size_t slot, std::size_t d,
                               std::size_t size) {
  return slot >= d ? slot - d : slot + size - d;
}

/// The \p carried ring samples before the one that goes to \p slot,
/// oldest first, copied to \p out: the samples a block's lags reach back
/// to (carried <= ring size).
template <typename V>
void unroll_ring(const std::vector<V>& ring, std::size_t slot,
                 std::size_t carried, V* out) {
  std::size_t q = slot_behind(slot, carried, ring.size());
  for (std::size_t i = 0; i < carried; ++i) {
    out[i] = ring[q];
    if (++q == ring.size()) q = 0;
  }
}

/// Updates the boundary state after a block: \p column holds the block's
/// \p rows samples, which follow the \p count samples seen before; the
/// head takes the first of them while it is short, and the ring, whose
/// next slot is \p slot, takes the last min(rows, size) of them.
template <typename V>
void carry_boundary(std::vector<V>& head, std::vector<V>& ring,
                    std::size_t slot, std::uint64_t count, const V* column,
                    std::size_t rows) {
  const std::size_t size = ring.size();
  while (head.size() < size && head.size() < count + rows) {
    head.push_back(column[head.size() - static_cast<std::size_t>(count)]);
  }
  const std::size_t first = rows > size ? rows - size : 0;
  std::size_t q = (slot + first) % size;
  for (std::size_t r = first; r < rows; ++r) {
    ring[q] = column[r];
    if (++q == size) q = 0;
  }
}

/// Rows [0, skip) of a block whose first sample has stream index \p count
/// have no partner \p lag samples earlier.
inline std::size_t rows_without_partner(std::uint64_t count, std::size_t lag) {
  return count >= lag ? 0 : static_cast<std::size_t>(lag - count);
}

/// \p buffer grown (never shrunk) to at least \p size elements.
template <typename V>
V* scratch(std::vector<V>& buffer, std::size_t size) {
  if (buffer.size() < size) buffer.resize(size);
  return buffer.data();
}

std::vector<std::size_t> canonical_lags(std::vector<std::size_t> lags,
                                        bool require_positive,
                                        bool include_zero) {
  std::sort(lags.begin(), lags.end());
  lags.erase(std::unique(lags.begin(), lags.end()), lags.end());
  if (!lags.empty() && lags.front() == 0) {
    lags.erase(lags.begin());
  }
  if (require_positive) {
    RFADE_EXPECTS(!lags.empty(), "metrics: need at least one positive lag");
  }
  if (include_zero) {
    lags.insert(lags.begin(), 0);
  }
  return lags;
}

}  // namespace

// --- LevelCrossingAccumulator ------------------------------------------------

LevelCrossingAccumulator::LevelCrossingAccumulator(
    std::size_t dimension, std::vector<double> thresholds,
    std::vector<double> branch_rms)
    : dimension_(dimension), thresholds_(std::move(thresholds)) {
  RFADE_EXPECTS(dimension_ >= 1, "LevelCrossingAccumulator: dimension >= 1");
  RFADE_EXPECTS(!thresholds_.empty(),
                "LevelCrossingAccumulator: need at least one threshold");
  if (branch_rms.size() != dimension_) {
    throw DimensionError(
        "LevelCrossingAccumulator: branch_rms size must equal dimension");
  }
  for (const double rho : thresholds_) {
    RFADE_EXPECTS(rho > 0.0 && std::isfinite(rho),
                  "LevelCrossingAccumulator: thresholds must be finite > 0");
  }
  for (const double rms : branch_rms) {
    RFADE_EXPECTS(rms > 0.0 && std::isfinite(rms),
                  "LevelCrossingAccumulator: branch rms must be finite > 0");
  }
  levels_.resize(dimension_ * thresholds_.size());
  for (std::size_t j = 0; j < dimension_; ++j) {
    for (std::size_t t = 0; t < thresholds_.size(); ++t) {
      levels_[j * thresholds_.size() + t] = thresholds_[t] * branch_rms[j];
    }
  }
  // The |z|^2 band of each level (the argument is at accumulate).
  constexpr double kBand = 0x1p-40;
  band_low_.resize(levels_.size());
  band_high_.resize(levels_.size());
  for (std::size_t i = 0; i < levels_.size(); ++i) {
    const double square = levels_[i] * levels_[i];
    const bool banded = square >= 0x1p-900 && square <= 0x1p900;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    band_low_[i] = banded ? square * (1.0 - kBand) : nan;
    band_high_[i] = banded ? square * (1.0 + kBand) : nan;
  }
  cells_.resize(dimension_ * thresholds_.size());
}

void LevelCrossingAccumulator::step(Cell& cell, bool below) noexcept {
  if (below) {
    ++cell.below;
    ++cell.run;
  } else {
    if (cell.run > 0) {
      ++cell.crossings;  // previous sample was below: an up-crossing
      if (cell.seen_above) {
        cell.longest = std::max(cell.longest, cell.run);
      } else {
        cell.leading = cell.run;  // edge run: censored, not a fade
      }
    }
    cell.seen_above = true;
    cell.run = 0;
  }
}

void LevelCrossingAccumulator::fold(std::size_t branch, double envelope) {
  const std::size_t base = branch * thresholds_.size();
  for (std::size_t t = 0; t < thresholds_.size(); ++t) {
    step(cells_[base + t], envelope < levels_[base + t]);
  }
}

template <typename T>
void LevelCrossingAccumulator::accumulate(
    const numeric::Matrix<std::complex<T>>& block) {
  if (block.cols() != dimension_) {
    throw DimensionError("LevelCrossingAccumulator: block has " +
                         std::to_string(block.cols()) + " branches, expected " +
                         std::to_string(dimension_));
  }
  // Each decision equals std::abs(z) < level, but is read off
  // s = re^2 + im^2 wherever s tells it apart.  This TU is built with
  // -ffp-contract=off, so s is three roundings: s = |z|^2 (1 + e) with
  // |e| <= 2u + u^2 (u = 2^-53, i.e. <= 2 ulp) when no square underflows;
  // an underflowing square adds an absolute error below 2^-1074, nothing
  // against a band edge >= 2^-900, and an overflowing one makes s = +inf
  // only when |z| > 2^511 > level.  std::abs (hypot) is within 1 ulp:
  // h = |z| (1 + n), |n| < 2^-52.  The band edges are level^2 (1 -/+ 2^-40)
  // to within 2 ulp of their own, so
  //   s <  low   =>  |z| < level (1 - 2^-41 + 4u)  =>  h <  level, and
  //   s >= high  =>  |z| > level (1 + 2^-41 - 4u)  =>  h >= level,
  // the same below/above decision as std::abs.  Infinite samples give
  // s = +inf >= high and h = +inf >= level alike.  Only a sample within
  // about 2^-40 of a level, a NaN s (both compares false), or a level
  // whose square lies outside [2^-900, 2^900] (NaN edges) calls std::abs.
  //
  // The sweep runs one (branch, level) cell down the whole column with
  // the cell in a local; every decision and step is the row-wise one.
  const std::size_t rows = block.rows();
  const std::size_t levels = thresholds_.size();
  for (std::size_t j = 0; j < dimension_; ++j) {
    for (std::size_t i = j * levels; i < (j + 1) * levels; ++i) {
      const double low = band_low_[i];
      const double high = band_high_[i];
      const double level = levels_[i];
      Cell cell = cells_[i];
      for (std::size_t r = 0; r < rows; ++r) {
        const cdouble z = block(r, j);
        const double s = z.real() * z.real() + z.imag() * z.imag();
        bool below;
        if (s < low) {
          below = true;
        } else if (s >= high) {
          below = false;
        } else {
          below = std::abs(z) < level;
        }
        step(cell, below);
      }
      cells_[i] = cell;
    }
  }
  count_ += rows;
}

template void LevelCrossingAccumulator::accumulate(const numeric::CMatrix&);
template void LevelCrossingAccumulator::accumulate(const numeric::CMatrixF&);

void LevelCrossingAccumulator::accumulate_envelopes(
    const numeric::RMatrix& envelopes) {
  if (envelopes.cols() != dimension_) {
    throw DimensionError("LevelCrossingAccumulator: envelope block has " +
                         std::to_string(envelopes.cols()) +
                         " branches, expected " + std::to_string(dimension_));
  }
  for (std::size_t r = 0; r < envelopes.rows(); ++r) {
    for (std::size_t j = 0; j < dimension_; ++j) {
      fold(j, envelopes(r, j));
    }
    ++count_;
  }
}

void LevelCrossingAccumulator::merge(const LevelCrossingAccumulator& other) {
  if (other.dimension_ != dimension_ || other.thresholds_ != thresholds_ ||
      other.levels_ != levels_) {
    throw DimensionError(
        "LevelCrossingAccumulator::merge: mismatched configuration");
  }
  if (other.count_ == 0) return;
  if (count_ == 0) {
    cells_ = other.cells_;
    count_ = other.count_;
    return;
  }
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    Cell& l = cells_[i];
    const Cell& r = other.cells_[i];
    Cell m;
    m.below = l.below + r.below;
    // Seam up-crossing: this segment ends below and the next starts
    // at-or-above — the transition a single pass would have counted at
    // other's first sample.
    const bool seam_crossing = l.run > 0 && r.seen_above && r.leading == 0;
    m.crossings = l.crossings + r.crossings + (seam_crossing ? 1 : 0);
    if (!l.seen_above && !r.seen_above) {
      // Entire combined segment below: one open run, nothing closed.
      m.seen_above = false;
      m.run = l.run + r.run;
    } else if (!l.seen_above) {
      // This side all below: it extends other's leading (censored) run.
      m.seen_above = true;
      m.leading = l.run + r.leading;
      m.run = r.run;
      m.longest = r.longest;
    } else if (!r.seen_above) {
      // Other side all below: it extends this side's open trailing run.
      m.seen_above = true;
      m.leading = l.leading;
      m.run = l.run + r.run;
      m.longest = l.longest;
    } else {
      // The seam joins this side's trailing run with other's leading run
      // into a fade closed on both sides (above samples exist on each
      // side), exactly as the single pass would have measured it.
      m.seen_above = true;
      m.leading = l.leading;
      m.run = r.run;
      m.longest = std::max({l.longest, r.longest, l.run + r.leading});
    }
    l = m;
  }
  count_ += other.count_;
}

LevelCrossingStats LevelCrossingAccumulator::finalize(
    std::size_t branch, std::size_t threshold_index) const {
  RFADE_EXPECTS(branch < dimension_, "LevelCrossingAccumulator: branch oob");
  RFADE_EXPECTS(threshold_index < thresholds_.size(),
                "LevelCrossingAccumulator: threshold index oob");
  if (count_ == 0) {
    throw ValueError("LevelCrossingAccumulator: no samples accumulated");
  }
  const Cell& cell = cells_[branch * thresholds_.size() + threshold_index];
  LevelCrossingStats stats;
  stats.samples = count_;
  stats.samples_below = cell.below;
  stats.up_crossings = cell.crossings;
  stats.longest_fade = cell.longest;
  stats.lcr_per_sample =
      static_cast<double>(cell.crossings) / static_cast<double>(count_);
  stats.afd_samples = cell.crossings == 0
                          ? 0.0
                          : static_cast<double>(cell.below) /
                                static_cast<double>(cell.crossings);
  return stats;
}

// --- AcfAccumulator ----------------------------------------------------------

AcfAccumulator::AcfAccumulator(std::size_t dimension,
                               std::vector<std::size_t> lags)
    : dimension_(dimension),
      lags_(canonical_lags(std::move(lags), /*require_positive=*/true,
                           /*include_zero=*/true)),
      max_lag_(lags_.back()) {
  RFADE_EXPECTS(dimension_ >= 1, "AcfAccumulator: dimension >= 1");
  re_.resize(dimension_ * lags_.size());
  im_.resize(dimension_ * lags_.size());
  head_.resize(dimension_);
  ring_.assign(dimension_, std::vector<cdouble>(max_lag_));
  for (auto& head : head_) head.reserve(max_lag_);
}

std::size_t AcfAccumulator::lag_index(std::size_t lag) const {
  const auto it = std::lower_bound(lags_.begin(), lags_.end(), lag);
  if (it == lags_.end() || *it != lag) {
    throw ValueError("AcfAccumulator: lag " + std::to_string(lag) +
                     " is not tracked");
  }
  return static_cast<std::size_t>(it - lags_.begin());
}

template <typename T>
void AcfAccumulator::accumulate(const numeric::Matrix<std::complex<T>>& block) {
  if (block.cols() != dimension_) {
    throw DimensionError("AcfAccumulator: block has " +
                         std::to_string(block.cols()) + " branches, expected " +
                         std::to_string(dimension_));
  }
  // Column sweep: per branch, the carried samples then the block's
  // column in one buffer, every lag's products of the block formed with
  // lag_product from the same doubles as a row-wise pass, each lag's
  // real and imaginary parts folded by one ExactSum block add.
  const std::size_t rows = block.rows();
  if (rows == 0) return;
  const auto carried =
      static_cast<std::size_t>(std::min<std::uint64_t>(count_, max_lag_));
  // Sized for max_lag_ carried samples from the first block on, so the
  // blocks after it reuse the buffer.
  cdouble* const column = scratch(column_, max_lag_ + rows);
  double* const re = scratch(scratch_re_, rows);
  double* const im = scratch(scratch_im_, rows);
  cdouble* const now = column + carried;  // now[r]: sample count_ + r
  for (std::size_t j = 0; j < dimension_; ++j) {
    unroll_ring(ring_[j], slot_, carried, column);
    for (std::size_t r = 0; r < rows; ++r) now[r] = block(r, j);
    const std::size_t base = j * lags_.size();
    for (std::size_t k = 0; k < lags_.size(); ++k) {
      const std::size_t d = lags_[k];
      const std::size_t skip = rows_without_partner(count_, d);
      if (skip >= rows) break;  // lags sorted: later ones unreachable too
      const cdouble* later = now + skip;
      const cdouble* earlier = later - d;  // within the carried samples
      const std::size_t pairs = rows - skip;
      for (std::size_t i = 0; i < pairs; ++i) {
        const cdouble p = lag_product(later[i], earlier[i]);
        re[i] = p.real();
        im[i] = p.imag();
      }
      re_[base + k].add(std::span<const double>(re, pairs));
      im_[base + k].add(std::span<const double>(im, pairs));
    }
    carry_boundary(head_[j], ring_[j], slot_, count_, now, rows);
  }
  count_ += rows;
  slot_ = (slot_ + rows) % max_lag_;
}

template void AcfAccumulator::accumulate(const numeric::CMatrix&);
template void AcfAccumulator::accumulate(const numeric::CMatrixF&);

void AcfAccumulator::merge(const AcfAccumulator& other) {
  if (other.dimension_ != dimension_ || other.lags_ != lags_) {
    throw DimensionError("AcfAccumulator::merge: mismatched configuration");
  }
  if (other.count_ == 0) return;
  const std::uint64_t n_left = count_;
  const std::uint64_t n_right = other.count_;
  for (std::size_t j = 0; j < dimension_; ++j) {
    const std::size_t base = j * lags_.size();
    // Within-shard sums: ExactSum merge is exactly order-invariant.
    for (std::size_t k = 0; k < lags_.size(); ++k) {
      re_[base + k].merge(other.re_[base + k]);
      im_[base + k].merge(other.im_[base + k]);
    }
    // Seam-spanning pairs: later sample at other's local index p (in its
    // head), earlier at this side's global index n_left + p - d (in the
    // tail ring).  Identical doubles, identical product expression —
    // the multiset of accumulated terms equals the single pass's.
    for (std::size_t k = 1; k < lags_.size(); ++k) {
      const std::uint64_t d = lags_[k];
      const std::uint64_t p_begin = d > n_left ? d - n_left : 0;
      const std::uint64_t p_end = std::min<std::uint64_t>(d, n_right);
      for (std::uint64_t p = p_begin; p < p_end; ++p) {
        const cdouble later = other.head_[j][static_cast<std::size_t>(p)];
        const std::uint64_t q = n_left + p - d;
        const cdouble earlier = ring_[j][q % max_lag_];
        const cdouble prod = lag_product(later, earlier);
        re_[base + k].add(prod.real());
        im_[base + k].add(prod.imag());
      }
    }
    // Boundary state of the combined segment: head extends with other's
    // first samples while short; the ring re-keys other's tail samples
    // to their combined-stream indices.
    while (head_[j].size() < max_lag_ &&
           head_[j].size() < n_left + other.head_[j].size()) {
      head_[j].push_back(
          other.head_[j][head_[j].size() - static_cast<std::size_t>(n_left)]);
    }
    std::vector<cdouble> ring(max_lag_);
    const std::uint64_t total = n_left + n_right;
    const std::uint64_t q_begin = total > max_lag_ ? total - max_lag_ : 0;
    for (std::uint64_t q = q_begin; q < total; ++q) {
      const cdouble value = q >= n_left
                                ? other.ring_[j][(q - n_left) % max_lag_]
                                : ring_[j][q % max_lag_];
      ring[q % max_lag_] = value;
    }
    ring_[j] = std::move(ring);
  }
  count_ = n_left + n_right;
  slot_ = static_cast<std::size_t>(count_ % max_lag_);
}

cdouble AcfAccumulator::correlation_sum(std::size_t branch,
                                        std::size_t lag) const {
  RFADE_EXPECTS(branch < dimension_, "AcfAccumulator: branch oob");
  const std::size_t k = lag_index(lag);
  return {re_[branch * lags_.size() + k].value(),
          im_[branch * lags_.size() + k].value()};
}

cdouble AcfAccumulator::autocorrelation(std::size_t branch,
                                        std::size_t lag) const {
  RFADE_EXPECTS(branch < dimension_, "AcfAccumulator: branch oob");
  const std::size_t k = lag_index(lag);
  if (count_ <= lag) {
    throw ValueError("AcfAccumulator: no pairs at lag " + std::to_string(lag));
  }
  const std::size_t base = branch * lags_.size();
  const double power = re_[base].value() / static_cast<double>(count_);
  if (!(power > 0.0)) {
    throw ValueError("AcfAccumulator: zero-power trace");
  }
  const double pairs = static_cast<double>(count_ - lag);
  return {re_[base + k].value() / pairs / power,
          im_[base + k].value() / pairs / power};
}

// --- MutualInformationAccumulator --------------------------------------------

MutualInformationAccumulator::MutualInformationAccumulator(
    std::size_t dimension, double snr_linear, std::vector<double> branch_power,
    std::vector<std::size_t> lags)
    : dimension_(dimension),
      snr_(snr_linear),
      lags_(canonical_lags(std::move(lags), /*require_positive=*/false,
                           /*include_zero=*/false)),
      max_lag_(lags_.empty() ? 0 : lags_.back()) {
  RFADE_EXPECTS(dimension_ >= 1, "MutualInformationAccumulator: dimension >= 1");
  RFADE_EXPECTS(snr_ > 0.0 && std::isfinite(snr_),
                "MutualInformationAccumulator: snr must be finite > 0");
  if (branch_power.size() != dimension_) {
    throw DimensionError(
        "MutualInformationAccumulator: branch_power size must equal dimension");
  }
  inv_power_.resize(dimension_);
  for (std::size_t j = 0; j < dimension_; ++j) {
    RFADE_EXPECTS(branch_power[j] > 0.0 && std::isfinite(branch_power[j]),
                  "MutualInformationAccumulator: branch power must be > 0");
    inv_power_[j] = snr_ / branch_power[j];
  }
  sum_.resize(dimension_);
  sum_sq_.resize(dimension_);
  lag_sum_.resize(dimension_ * lags_.size());
  head_.resize(dimension_);
  ring_.assign(dimension_, std::vector<double>(max_lag_));
  for (auto& head : head_) head.reserve(max_lag_);
}

std::size_t MutualInformationAccumulator::lag_index(std::size_t lag) const {
  const auto it = std::lower_bound(lags_.begin(), lags_.end(), lag);
  if (it == lags_.end() || *it != lag) {
    throw ValueError("MutualInformationAccumulator: lag " +
                     std::to_string(lag) + " is not tracked");
  }
  return static_cast<std::size_t>(it - lags_.begin());
}

template <typename T>
void MutualInformationAccumulator::accumulate(
    const numeric::Matrix<std::complex<T>>& block) {
  if (block.cols() != dimension_) {
    throw DimensionError("MutualInformationAccumulator: block has " +
                         std::to_string(block.cols()) + " branches, expected " +
                         std::to_string(dimension_));
  }
  // Column sweep as in AcfAccumulator over the real I trace: I_t, I_t^2
  // and every lag's I_t I_{t-d} of the block, each folded by one block add.
  const std::size_t rows = block.rows();
  if (rows == 0) return;
  const auto carried =
      static_cast<std::size_t>(std::min<std::uint64_t>(count_, max_lag_));
  double* const column = scratch(column_, max_lag_ + rows);
  double* const terms = scratch(scratch_, rows);
  double* const now = column + carried;  // now[r]: I of sample count_ + r
  for (std::size_t j = 0; j < dimension_; ++j) {
    unroll_ring(ring_[j], slot_, carried, column);
    for (std::size_t r = 0; r < rows; ++r) {
      const double power = std::norm(cdouble(block(r, j)));
      now[r] = std::log2(1.0 + inv_power_[j] * power);
    }
    sum_[j].add(std::span<const double>(now, rows));
    for (std::size_t r = 0; r < rows; ++r) terms[r] = now[r] * now[r];
    sum_sq_[j].add(std::span<const double>(terms, rows));
    const std::size_t base = j * lags_.size();
    for (std::size_t k = 0; k < lags_.size(); ++k) {
      const std::size_t d = lags_[k];
      const std::size_t skip = rows_without_partner(count_, d);
      if (skip >= rows) break;
      const double* later = now + skip;
      const double* earlier = later - d;
      const std::size_t pairs = rows - skip;
      for (std::size_t i = 0; i < pairs; ++i) terms[i] = later[i] * earlier[i];
      lag_sum_[base + k].add(std::span<const double>(terms, pairs));
    }
    if (max_lag_ > 0) {
      carry_boundary(head_[j], ring_[j], slot_, count_, now, rows);
    }
  }
  count_ += rows;
  if (max_lag_ > 0) slot_ = (slot_ + rows) % max_lag_;
}

template void MutualInformationAccumulator::accumulate(
    const numeric::CMatrix&);
template void MutualInformationAccumulator::accumulate(
    const numeric::CMatrixF&);

void MutualInformationAccumulator::merge(
    const MutualInformationAccumulator& other) {
  if (other.dimension_ != dimension_ || other.lags_ != lags_ ||
      other.snr_ != snr_ || other.inv_power_ != inv_power_) {
    throw DimensionError(
        "MutualInformationAccumulator::merge: mismatched configuration");
  }
  if (other.count_ == 0) return;
  const std::uint64_t n_left = count_;
  const std::uint64_t n_right = other.count_;
  for (std::size_t j = 0; j < dimension_; ++j) {
    sum_[j].merge(other.sum_[j]);
    sum_sq_[j].merge(other.sum_sq_[j]);
    const std::size_t base = j * lags_.size();
    for (std::size_t k = 0; k < lags_.size(); ++k) {
      lag_sum_[base + k].merge(other.lag_sum_[base + k]);
      // Seam-spanning lag products, same index algebra as AcfAccumulator.
      const std::uint64_t d = lags_[k];
      const std::uint64_t p_begin = d > n_left ? d - n_left : 0;
      const std::uint64_t p_end = std::min<std::uint64_t>(d, n_right);
      for (std::uint64_t p = p_begin; p < p_end; ++p) {
        const double later = other.head_[j][static_cast<std::size_t>(p)];
        const double earlier = ring_[j][(n_left + p - d) % max_lag_];
        lag_sum_[base + k].add(later * earlier);
      }
    }
    if (max_lag_ > 0) {
      while (head_[j].size() < max_lag_ &&
             head_[j].size() < n_left + other.head_[j].size()) {
        head_[j].push_back(
            other.head_[j][head_[j].size() -
                           static_cast<std::size_t>(n_left)]);
      }
      std::vector<double> ring(max_lag_);
      const std::uint64_t total = n_left + n_right;
      const std::uint64_t q_begin = total > max_lag_ ? total - max_lag_ : 0;
      for (std::uint64_t q = q_begin; q < total; ++q) {
        ring[q % max_lag_] = q >= n_left
                                 ? other.ring_[j][(q - n_left) % max_lag_]
                                 : ring_[j][q % max_lag_];
      }
      ring_[j] = std::move(ring);
    }
  }
  count_ = n_left + n_right;
  slot_ = max_lag_ == 0 ? 0 : static_cast<std::size_t>(count_ % max_lag_);
}

double MutualInformationAccumulator::sum(std::size_t branch) const {
  RFADE_EXPECTS(branch < dimension_, "MutualInformationAccumulator: branch oob");
  return sum_[branch].value();
}

double MutualInformationAccumulator::sum_squares(std::size_t branch) const {
  RFADE_EXPECTS(branch < dimension_, "MutualInformationAccumulator: branch oob");
  return sum_sq_[branch].value();
}

double MutualInformationAccumulator::lag_product_sum(std::size_t branch,
                                                     std::size_t lag) const {
  RFADE_EXPECTS(branch < dimension_, "MutualInformationAccumulator: branch oob");
  return lag_sum_[branch * lags_.size() + lag_index(lag)].value();
}

double MutualInformationAccumulator::mean(std::size_t branch) const {
  RFADE_EXPECTS(branch < dimension_, "MutualInformationAccumulator: branch oob");
  if (count_ == 0) {
    throw ValueError("MutualInformationAccumulator: no samples accumulated");
  }
  return sum_[branch].value() / static_cast<double>(count_);
}

double MutualInformationAccumulator::variance(std::size_t branch) const {
  const double m = mean(branch);
  return sum_sq_[branch].value() / static_cast<double>(count_) - m * m;
}

double MutualInformationAccumulator::autocovariance(std::size_t branch,
                                                    std::size_t lag) const {
  const std::size_t k = lag_index(lag);
  if (count_ <= lag) {
    throw ValueError("MutualInformationAccumulator: no pairs at lag " +
                     std::to_string(lag));
  }
  const double m = mean(branch);
  const double pairs = static_cast<double>(count_ - lag);
  return lag_sum_[branch * lags_.size() + k].value() / pairs - m * m;
}

}  // namespace rfade::metrics
