#include "rfade/core/plan.hpp"

#include <cmath>
#include <complex>
#include <limits>
#include <type_traits>
#include <vector>

#include "rfade/core/covariance_spec.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/parallel.hpp"

namespace rfade::core {

std::uint64_t checked_first_instant(std::uint64_t block_index,
                                    std::uint64_t period,
                                    std::uint64_t rows) {
  std::uint64_t first = 0;
  const bool overflows =
      __builtin_mul_overflow(block_index, period, &first) ||
      first > std::numeric_limits<std::uint64_t>::max() -
                  (rows > 0 ? rows - 1 : 0);
  RFADE_EXPECTS(!overflows,
                "block index overflows the 64-bit instant range: "
                "block_index * period + rows - 1 must fit");
  return first;
}

// --- ColoringPlan -----------------------------------------------------------

ColoringPlan::ColoringPlan(numeric::CMatrix desired,
                           const ColoringOptions& options)
    : dim_(desired.rows()), desired_(std::move(desired)) {
  validate_covariance_matrix(desired_);
  coloring_ = compute_coloring(desired_, options);
  const numeric::CMatrix& l = coloring_.matrix;
  coloring_transposed_ = numeric::CMatrix(dim_, dim_);
  coloring_transposed_re_.resize(dim_ * dim_);
  coloring_transposed_im_.resize(dim_ * dim_);
  for (std::size_t i = 0; i < dim_; ++i) {
    for (std::size_t j = 0; j < dim_; ++j) {
      coloring_transposed_(j, i) = l(i, j);
      coloring_transposed_re_[j * dim_ + i] = l(i, j).real();
      coloring_transposed_im_[j * dim_ + i] = l(i, j).imag();
    }
  }
}

std::shared_ptr<const ColoringPlan> ColoringPlan::create(
    numeric::CMatrix desired_covariance, ColoringOptions options) {
  return std::shared_ptr<const ColoringPlan>(
      new ColoringPlan(std::move(desired_covariance), options));
}

const ColoringPlan::ColoringF32& ColoringPlan::coloring_f32() const {
  std::call_once(coloring_f32_once_, [this] {
    // One-time element-by-element down-conversion of the double factor.
    coloring_f32_.transposed = numeric::CMatrixF(dim_, dim_);
    for (std::size_t i = 0; i < dim_ * dim_; ++i) {
      coloring_f32_.transposed.data()[i] =
          numeric::cfloat(coloring_transposed_.data()[i]);
    }
  });
  return coloring_f32_;
}

// --- SamplePipeline ---------------------------------------------------------

SamplePipeline::SamplePipeline(std::shared_ptr<const ColoringPlan> plan,
                               PipelineOptions options)
    : plan_(std::move(plan)), options_(options) {
  RFADE_EXPECTS(plan_ != nullptr, "SamplePipeline: plan must not be null");
  RFADE_EXPECTS(options_.sample_variance > 0.0,
                "SamplePipeline: sample variance must be positive");
  RFADE_EXPECTS(options_.block_size > 0,
                "SamplePipeline: block size must be positive");
  RFADE_EXPECTS(options_.mean_offset.dimension() == 0 ||
                    options_.mean_offset.dimension() == plan_->dimension(),
                "SamplePipeline: mean offset dimension must equal the plan "
                "dimension N");
  RFADE_EXPECTS(options_.gain.dimension() == 0 ||
                    options_.gain.dimension() == plan_->dimension(),
                "SamplePipeline: gain dimension must equal the plan "
                "dimension N");
  inv_sigma_w_ = 1.0 / std::sqrt(options_.sample_variance);
  // A zero MeanSource (empty or all-zero constant) is the zero-mean
  // (Rayleigh) pipeline: skip the add pass entirely so a K = 0 scenario
  // stays bit-identical to the plain path (z + 0.0 could still flip the
  // sign bit of a -0.0 output).
  has_mean_ = !options_.mean_offset.is_zero();
  // Likewise a unit GainSource (default, explicit, or all-ones constant)
  // emits no multiply pass — z * 1.0 would preserve bits, but skipping
  // the pass keeps the gain-free hot loops untouched.
  has_gain_ = !options_.gain.is_unit();
}

template <typename T>
void SamplePipeline::finish_rows(std::uint64_t first_instant, std::size_t rows,
                                 std::complex<T>* out) const {
  // Whole-block passes, mean first: each element still sees its mean add
  // and then its gain multiply, so the order per element is the per-row
  // order.
  if (has_mean_) {
    options_.mean_offset.add_to_rows(first_instant, rows, plan_->dimension(),
                                     out);
  }
  if (has_gain_) {
    options_.gain.multiply_rows(first_instant, rows, plan_->dimension(), out);
  }
}

void SamplePipeline::sample_into(random::Rng& rng,
                                 std::span<numeric::cdouble> out,
                                 std::uint64_t instant) const {
  const std::size_t n = plan_->dimension();
  RFADE_EXPECTS(out.size() == n, "sample_into: output size mismatch");
  // Step 6: W = (u_1 ... u_N)^T, i.i.d. CN(0, sigma_w^2).
  // Step 7: Z = L W / sigma_w, computed as a streaming matvec, column by
  // column of L in the blocked GEMM's fused order.
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = numeric::cdouble{};
  }
  const numeric::CMatrix& lt = plan_->coloring_matrix_transposed();
  for (std::size_t j = 0; j < n; ++j) {
    const numeric::cdouble w = rng.complex_gaussian(options_.sample_variance);
    numeric::fused_mac_column(w * inv_sigma_w_, lt.data() + j * n, n,
                              out.data());
  }
  finish_rows(instant, 1, out.data());
}

numeric::CVector SamplePipeline::sample(random::Rng& rng,
                                        std::uint64_t instant) const {
  numeric::CVector z(plan_->dimension());
  sample_into(rng, z, instant);
  return z;
}

numeric::RVector SamplePipeline::sample_envelopes(
    random::Rng& rng, std::uint64_t instant) const {
  const numeric::CVector z = sample(rng, instant);
  numeric::RVector r(z.size());
  for (std::size_t j = 0; j < z.size(); ++j) {
    r[j] = std::abs(z[j]);
  }
  return r;
}

void SamplePipeline::fill_colored_rows(random::Rng& rng, std::size_t rows,
                                       std::uint64_t first_instant,
                                       numeric::cdouble* out) const {
  const std::size_t n = plan_->dimension();
  // Step 6, batched: the W block is drawn row-major — the same rng
  // consumption order as `rows` successive per-draw calls.
  std::vector<numeric::cdouble> w(rows * n);
  for (std::size_t t = 0; t < rows * n; ++t) {
    w[t] = rng.complex_gaussian(options_.sample_variance) * inv_sigma_w_;
  }
  // Step 7, batched: Z_block = W_block * L^T via the blocked GEMM, whose
  // ascending-j fused_mac accumulation reproduces the per-draw matvec
  // bit-for-bit.
  numeric::multiply_block_raw(w.data(), rows, n,
                              plan_->coloring_matrix_transposed().data(), n,
                              out);
  finish_rows(first_instant, rows, out);
}

numeric::CMatrix SamplePipeline::sample_block(
    std::size_t count, random::Rng& rng, std::uint64_t first_instant) const {
  RFADE_EXPECTS(count > 0, "sample_block: count must be positive");
  numeric::CMatrix block(count, plan_->dimension());
  fill_colored_rows(rng, count, first_instant, block.data());
  return block;
}

void SamplePipeline::fill_colored_rows_bulk(std::uint64_t seed,
                                            std::uint64_t block_index,
                                            std::uint64_t first_instant,
                                            std::size_t rows,
                                            numeric::cdouble* out) const {
  const std::size_t n = plan_->dimension();
  // Step 6, bulk: draw the W block at unit variance straight into planar
  // re/im planes (the sigma_w of step 6 cancels against the step-7
  // division, so nothing else is needed).  Sample (t, j) is counter block
  // t*N + j of the Philox substream (seed, block_index + 1).  The planes
  // are thread-local scratch: large enough to be mmap-threshold
  // allocations, so reusing them across blocks avoids a page-fault storm
  // in the hot loop (each pool worker keeps its own copy).
  thread_local std::vector<double> w_re;
  thread_local std::vector<double> w_im;
  if (w_re.size() < rows * n) {
    w_re.resize(rows * n);
    w_im.resize(rows * n);
  }
  random::fill_complex_gaussians_planar(seed, block_index + 1, 1.0, rows * n,
                                        w_re.data(), w_im.data());
  // Step 7, bulk: Z_block = W_block * L^T, the GEMM reading W planar.
  numeric::multiply_block_planar(w_re.data(), w_im.data(), rows, n,
                                 plan_->coloring_transposed_re().data(),
                                 plan_->coloring_transposed_im().data(), n,
                                 out);
  finish_rows(first_instant, rows, out);
}

numeric::CMatrix SamplePipeline::sample_block(std::size_t count,
                                              std::uint64_t seed,
                                              std::uint64_t block_index) const {
  // Default instant assignment: block b of a stream starts at row
  // b * block_size, so standalone blocks see the same mean rows as
  // sample_stream hands the same block index.
  return sample_block(
      count, seed, block_index,
      checked_first_instant(block_index, options_.block_size, count));
}

numeric::CMatrix SamplePipeline::sample_block(
    std::size_t count, std::uint64_t seed, std::uint64_t block_index,
    std::uint64_t first_instant) const {
  RFADE_EXPECTS(count > 0, "sample_block: count must be positive");
  numeric::CMatrix block(count, plan_->dimension());
  fill_colored_rows_bulk(seed, block_index, first_instant, count,
                         block.data());
  return block;
}

void SamplePipeline::sample_block_into(std::size_t count, std::uint64_t seed,
                                       std::uint64_t block_index,
                                       std::uint64_t first_instant,
                                       std::span<numeric::cdouble> out) const {
  RFADE_EXPECTS(count > 0, "sample_block_into: count must be positive");
  RFADE_EXPECTS(out.size() == count * plan_->dimension(),
                "sample_block_into: output size must be count * dimension");
  fill_colored_rows_bulk(seed, block_index, first_instant, count, out.data());
}

numeric::CMatrix SamplePipeline::sample_stream(std::size_t count,
                                               std::uint64_t seed) const {
  const std::size_t n = plan_->dimension();
  numeric::CMatrix out(count, n);
  const support::ChunkingOptions chunking{options_.block_size,
                                          !options_.parallel};
  support::parallel_for_chunked(
      count,
      [&](std::size_t begin, std::size_t end, std::size_t block) {
        fill_colored_rows_bulk(seed, block, begin, end - begin,
                               out.data() + begin * n);
      },
      chunking);
  return out;
}

numeric::RMatrix SamplePipeline::sample_envelope_stream(
    std::size_t count, std::uint64_t seed) const {
  return numeric::elementwise_abs(sample_stream(count, seed));
}

numeric::CMatrix SamplePipeline::color_block(const numeric::CMatrix& w,
                                             double variance,
                                             std::uint64_t first_instant)
    const {
  RFADE_EXPECTS(variance > 0.0, "color_block: variance must be positive");
  if (variance == 1.0) {
    // Already normalised (callers on a hot path fold the 1/sigma scaling
    // into the pass that assembles W) — color straight from the input.
    return color_normalized(w, first_instant);
  }
  // Sec. 5 steps 6-8: divide by the assumed per-branch complex variance,
  // then color every time instant with L — as one blocked GEMM.
  const double inv_sigma = 1.0 / std::sqrt(variance);
  numeric::CMatrix scaled(w.rows(), w.cols());
  for (std::size_t t = 0; t < w.rows(); ++t) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      scaled(t, j) = w(t, j) * inv_sigma;
    }
  }
  return color_normalized(scaled, first_instant);
}

template <typename T>
numeric::Matrix<std::complex<T>> SamplePipeline::color_normalized(
    const numeric::Matrix<std::complex<T>>& w,
    std::uint64_t first_instant) const {
  const std::size_t n = plan_->dimension();
  RFADE_EXPECTS(w.cols() == n, "color_block: column count != dimension");
  const numeric::Matrix<std::complex<T>>* lt = nullptr;
  if constexpr (std::is_same_v<T, double>) {
    lt = &plan_->coloring_matrix_transposed();
  } else {
    lt = &plan_->coloring_f32().transposed;
  }
  numeric::Matrix<std::complex<T>> out(w.rows(), n);
  numeric::multiply_block_raw(w.data(), w.rows(), n, lt->data(), n,
                              out.data());
  finish_rows(first_instant, w.rows(), out.data());
  return out;
}

template numeric::CMatrix SamplePipeline::color_normalized(
    const numeric::CMatrix&, std::uint64_t) const;
template numeric::CMatrixF SamplePipeline::color_normalized(
    const numeric::CMatrixF&, std::uint64_t) const;

}  // namespace rfade::core
