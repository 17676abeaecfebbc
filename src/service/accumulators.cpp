#include "rfade/service/accumulators.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"

namespace rfade::service {

namespace {

/// Rows per column fold: the block is folded branch by branch through
/// ExactSum's block add, kColumnChunk terms per call from stack buffers.
constexpr std::size_t kColumnChunk = 256;

}  // namespace

EnvelopeMomentAccumulator::EnvelopeMomentAccumulator(std::size_t dimension)
    : dimension_(dimension),
      sum_r_(dimension),
      sum_r2_(dimension),
      sum_r4_(dimension) {
  RFADE_EXPECTS(dimension > 0, "accumulator needs at least one branch");
}

template <typename T>
void EnvelopeMomentAccumulator::accumulate(
    const numeric::Matrix<std::complex<T>>& block) {
  RFADE_EXPECTS(block.cols() == dimension_,
                "block branch count must match accumulator dimension");
  const std::size_t rows = block.rows();
  double r[kColumnChunk];
  double r2[kColumnChunk];
  double r4[kColumnChunk];
  for (std::size_t begin = 0; begin < rows; begin += kColumnChunk) {
    const std::size_t n = std::min(kColumnChunk, rows - begin);
    for (std::size_t j = 0; j < dimension_; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        const numeric::cdouble z = block(begin + i, j);
        // r^2 from the exact components; r via one sqrt rounding — the
        // same arithmetic on every shard, so shard-invariance is kept.
        r2[i] = z.real() * z.real() + z.imag() * z.imag();
        r[i] = std::sqrt(r2[i]);
        r4[i] = r2[i] * r2[i];
      }
      sum_r_[j].add(std::span<const double>(r, n));
      sum_r2_[j].add(std::span<const double>(r2, n));
      sum_r4_[j].add(std::span<const double>(r4, n));
    }
  }
  count_ += rows;
}

template void EnvelopeMomentAccumulator::accumulate(const numeric::CMatrix&);
template void EnvelopeMomentAccumulator::accumulate(const numeric::CMatrixF&);

void EnvelopeMomentAccumulator::accumulate_envelopes(
    const numeric::RMatrix& envelopes) {
  RFADE_EXPECTS(envelopes.cols() == dimension_,
                "block branch count must match accumulator dimension");
  const std::size_t rows = envelopes.rows();
  double r[kColumnChunk];
  double r2[kColumnChunk];
  double r4[kColumnChunk];
  for (std::size_t begin = 0; begin < rows; begin += kColumnChunk) {
    const std::size_t n = std::min(kColumnChunk, rows - begin);
    for (std::size_t j = 0; j < dimension_; ++j) {
      for (std::size_t i = 0; i < n; ++i) {
        r[i] = envelopes(begin + i, j);
        r2[i] = r[i] * r[i];
        r4[i] = r2[i] * r2[i];
      }
      sum_r_[j].add(std::span<const double>(r, n));
      sum_r2_[j].add(std::span<const double>(r2, n));
      sum_r4_[j].add(std::span<const double>(r4, n));
    }
  }
  count_ += rows;
}

void EnvelopeMomentAccumulator::merge(
    const EnvelopeMomentAccumulator& other) {
  if (other.dimension_ != dimension_) {
    throw DimensionError(
        "EnvelopeMomentAccumulator::merge: dimension mismatch");
  }
  for (std::size_t j = 0; j < dimension_; ++j) {
    sum_r_[j].merge(other.sum_r_[j]);
    sum_r2_[j].merge(other.sum_r2_[j]);
    sum_r4_[j].merge(other.sum_r4_[j]);
  }
  count_ += other.count_;
}

EnvelopeMoments EnvelopeMomentAccumulator::finalize(
    std::size_t branch) const {
  RFADE_EXPECTS(branch < dimension_, "branch index out of range");
  if (count_ == 0) {
    throw ValueError(
        "EnvelopeMomentAccumulator::finalize: no samples accumulated");
  }
  const auto n = static_cast<double>(count_);
  EnvelopeMoments m;
  m.mean = sum_r_[branch].value() / n;
  m.second_moment = sum_r2_[branch].value() / n;
  m.fourth_moment = sum_r4_[branch].value() / n;
  m.variance = m.second_moment - m.mean * m.mean;
  const double power_var = m.fourth_moment - m.second_moment * m.second_moment;
  m.amount_of_fading =
      m.second_moment > 0.0
          ? power_var / (m.second_moment * m.second_moment)
          : 0.0;
  return m;
}

ComplexCovarianceAccumulator::ComplexCovarianceAccumulator(
    std::size_t dimension)
    : dimension_(dimension),
      real_(dimension * dimension),
      imag_(dimension * dimension) {
  RFADE_EXPECTS(dimension > 0, "accumulator needs at least one branch");
}

template <typename T>
void ComplexCovarianceAccumulator::accumulate(
    const numeric::Matrix<std::complex<T>>& block) {
  RFADE_EXPECTS(block.cols() == dimension_,
                "block branch count must match accumulator dimension");
  const std::size_t rows = block.rows();
  double re[kColumnChunk];
  double im[kColumnChunk];
  for (std::size_t begin = 0; begin < rows; begin += kColumnChunk) {
    const std::size_t n = std::min(kColumnChunk, rows - begin);
    for (std::size_t k = 0; k < dimension_; ++k) {
      for (std::size_t j = 0; j < dimension_; ++j) {
        for (std::size_t i = 0; i < n; ++i) {
          const numeric::cdouble zk = block(begin + i, k);
          const numeric::cdouble zj = block(begin + i, j);
          const numeric::cdouble p = zk * std::conj(zj);
          re[i] = p.real();
          im[i] = p.imag();
        }
        real_[k * dimension_ + j].add(std::span<const double>(re, n));
        imag_[k * dimension_ + j].add(std::span<const double>(im, n));
      }
    }
  }
  count_ += rows;
}

template void ComplexCovarianceAccumulator::accumulate(const numeric::CMatrix&);
template void ComplexCovarianceAccumulator::accumulate(
    const numeric::CMatrixF&);

void ComplexCovarianceAccumulator::merge(
    const ComplexCovarianceAccumulator& other) {
  if (other.dimension_ != dimension_) {
    throw DimensionError(
        "ComplexCovarianceAccumulator::merge: dimension mismatch");
  }
  for (std::size_t i = 0; i < dimension_ * dimension_; ++i) {
    real_[i].merge(other.real_[i]);
    imag_[i].merge(other.imag_[i]);
  }
  count_ += other.count_;
}

numeric::CMatrix ComplexCovarianceAccumulator::finalize() const {
  if (count_ == 0) {
    throw ValueError(
        "ComplexCovarianceAccumulator::finalize: no samples accumulated");
  }
  const auto n = static_cast<double>(count_);
  numeric::CMatrix covariance(dimension_, dimension_);
  for (std::size_t k = 0; k < dimension_; ++k) {
    for (std::size_t j = 0; j < dimension_; ++j) {
      const std::size_t idx = k * dimension_ + j;
      covariance(k, j) = numeric::cdouble(real_[idx].value() / n,
                                          imag_[idx].value() / n);
    }
  }
  return covariance;
}

}  // namespace rfade::service
