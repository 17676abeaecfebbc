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
  const std::size_t levels = thresholds_.size();
  for (std::size_t r = 0; r < block.rows(); ++r) {
    for (std::size_t j = 0; j < dimension_; ++j) {
      const cdouble z = block(r, j);
      const double s = z.real() * z.real() + z.imag() * z.imag();
      double envelope = 0.0;
      bool have_envelope = false;
      for (std::size_t i = j * levels; i < (j + 1) * levels; ++i) {
        bool below;
        if (s < band_low_[i]) {
          below = true;
        } else if (s >= band_high_[i]) {
          below = false;
        } else {
          if (!have_envelope) {
            envelope = std::abs(z);
            have_envelope = true;
          }
          below = envelope < levels_[i];
        }
        step(cells_[i], below);
      }
    }
    ++count_;
  }
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
  for (std::size_t r = 0; r < block.rows(); ++r) {
    const std::uint64_t pos = count_;
    for (std::size_t j = 0; j < dimension_; ++j) {
      const cdouble z = block(r, j);
      const std::size_t base = j * lags_.size();
      std::vector<cdouble>& ring = ring_[j];
      for (std::size_t k = 0; k < lags_.size(); ++k) {
        const std::size_t d = lags_[k];
        if (pos < d) break;  // lags sorted: later ones unreachable too
        const cdouble earlier =
            d == 0 ? z : ring[slot_behind(slot_, d, max_lag_)];
        const cdouble p = lag_product(z, earlier);
        re_[base + k].add(p.real());
        im_[base + k].add(p.imag());
      }
      ring[slot_] = z;
      if (head_[j].size() < max_lag_) head_[j].push_back(z);
    }
    ++count_;
    if (++slot_ == max_lag_) slot_ = 0;
  }
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

void MutualInformationAccumulator::fold(std::size_t branch,
                                        double information) {
  sum_[branch].add(information);
  sum_sq_[branch].add(information * information);
  const std::uint64_t pos = count_;  // caller increments after the row
  const std::size_t base = branch * lags_.size();
  std::vector<double>& ring = ring_[branch];
  for (std::size_t k = 0; k < lags_.size(); ++k) {
    const std::size_t d = lags_[k];
    if (pos < d) break;
    const double earlier = ring[slot_behind(slot_, d, max_lag_)];
    lag_sum_[base + k].add(information * earlier);
  }
  if (max_lag_ > 0) {
    ring[slot_] = information;
    if (head_[branch].size() < max_lag_) head_[branch].push_back(information);
  }
}

template <typename T>
void MutualInformationAccumulator::accumulate(
    const numeric::Matrix<std::complex<T>>& block) {
  if (block.cols() != dimension_) {
    throw DimensionError("MutualInformationAccumulator: block has " +
                         std::to_string(block.cols()) + " branches, expected " +
                         std::to_string(dimension_));
  }
  for (std::size_t r = 0; r < block.rows(); ++r) {
    for (std::size_t j = 0; j < dimension_; ++j) {
      const double power = std::norm(cdouble(block(r, j)));
      fold(j, std::log2(1.0 + inv_power_[j] * power));
    }
    ++count_;
    if (max_lag_ > 0 && ++slot_ == max_lag_) slot_ = 0;
  }
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
