#include "rfade/fft/fft.hpp"

#include <algorithm>
#include <cmath>

#include "rfade/support/contracts.hpp"
#include "rfade/support/simd.hpp"

// NOTE: this translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt).  The batched planar kernels below promise bit-identical
// results per lane against the std::complex scalar paths, and the avx512f
// clone tier would otherwise be free to contract mul+add into 512-bit FMAs
// and break that promise.

namespace rfade::fft {

namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

/// Bit-reversal permutation for a power-of-two length.
void bit_reverse(CVector& data) {
  const std::size_t n = data.size();
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) {
      std::swap(data[i], data[j]);
    }
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
}

/// Smallest power of two >= n.
std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) {
    p <<= 1;
  }
  return p;
}

/// Bluestein's chirp-z FFT for arbitrary length.
CVector bluestein(const CVector& data, Direction direction) {
  const std::size_t n = data.size();
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;

  // Chirp w[j] = exp(sign * i * pi * j^2 / n); j^2 is reduced mod 2n to
  // keep the phase argument small and accurate.
  CVector chirp(n);
  for (std::size_t j = 0; j < n; ++j) {
    const unsigned long long j2 =
        (static_cast<unsigned long long>(j) * j) % (2ull * n);
    const double phase = sign * kPi * static_cast<double>(j2) / static_cast<double>(n);
    chirp[j] = std::polar(1.0, phase);
  }

  const std::size_t m = next_pow2(2 * n - 1);
  CVector a(m, cdouble{});
  CVector b(m, cdouble{});
  for (std::size_t j = 0; j < n; ++j) {
    a[j] = data[j] * chirp[j];
    const cdouble inv = std::conj(chirp[j]);
    b[j] = inv;
    if (j != 0) {
      b[m - j] = inv;  // symmetric tail for the circular convolution
    }
  }

  fft_pow2_inplace(a, Direction::Forward);
  fft_pow2_inplace(b, Direction::Forward);
  for (std::size_t j = 0; j < m; ++j) {
    a[j] *= b[j];
  }
  fft_pow2_inplace(a, Direction::Inverse);

  CVector result(n);
  const double scale = 1.0 / static_cast<double>(m);  // undo unnormalised IFFT
  for (std::size_t j = 0; j < n; ++j) {
    result[j] = a[j] * scale * chirp[j];
  }
  return result;
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft_pow2_inplace(CVector& data, Direction direction) {
  const std::size_t n = data.size();
  RFADE_EXPECTS(is_power_of_two(n), "fft_pow2_inplace: size must be 2^k");
  if (n == 1) {
    return;
  }
  bit_reverse(data);
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * kPi / static_cast<double>(len);
    const cdouble w_len = std::polar(1.0, angle);
    for (std::size_t start = 0; start < n; start += len) {
      cdouble w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        // Periodically resynchronise the twiddle to bound error growth.
        if ((k & 63u) == 0u && k != 0u) {
          w = std::polar(1.0, angle * static_cast<double>(k));
        }
        const cdouble even = data[start + k];
        const cdouble odd = data[start + k + len / 2] * w;
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
        w *= w_len;
      }
    }
  }
}

CVector transform(const CVector& data, Direction direction) {
  if (data.empty()) {
    return {};
  }
  if (is_power_of_two(data.size())) {
    CVector copy = data;
    fft_pow2_inplace(copy, direction);
    return copy;
  }
  return bluestein(data, direction);
}

CVector dft(const CVector& data) { return transform(data, Direction::Forward); }

CVector idft(const CVector& data) {
  CVector result = transform(data, Direction::Inverse);
  const double scale = result.empty() ? 1.0 : 1.0 / static_cast<double>(result.size());
  for (cdouble& value : result) {
    value *= scale;
  }
  return result;
}

// --- Batched planar kernels --------------------------------------------------

namespace {

/// All butterfly stages of \p batch lockstep transforms on planar data
/// (lane b of point p at [p * batch + b]).  The per-lane arithmetic is
/// written to mirror the std::complex operations of the scalar transform
/// exactly — odd = x * w as (xr*wr - xi*wi, xr*wi + xi*wr), then sum and
/// difference — so each lane's value sequence is bit-identical to the
/// scalar path.  The inner lane loops run over contiguous memory, which
/// is what the clone tier vectorises (zmm on avx512f).
template <typename T>
RFADE_CLONE_BODY void butterfly_stages_body(T* __restrict re,
                                            T* __restrict im, std::size_t n,
                                            std::size_t batch,
                                            const std::complex<T>* twiddles) {
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::complex<T>* w = twiddles + offset;
    const std::size_t half = len / 2;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const T wr = w[k].real();
        const T wi = w[k].imag();
        T* __restrict er = re + (start + k) * batch;
        T* __restrict ei = im + (start + k) * batch;
        T* __restrict xr = re + (start + k + half) * batch;
        T* __restrict xi = im + (start + k + half) * batch;
        for (std::size_t b = 0; b < batch; ++b) {
          const T odd_r = xr[b] * wr - xi[b] * wi;
          const T odd_i = xr[b] * wi + xi[b] * wr;
          const T even_r = er[b];
          const T even_i = ei[b];
          er[b] = even_r + odd_r;
          ei[b] = even_i + odd_i;
          xr[b] = even_r - odd_r;
          xi[b] = even_i - odd_i;
        }
      }
    }
    offset += half;
  }
}

/// Pointwise planar multiply by a shared spectrum, mirroring the operand
/// order of std::complex operator*= (work[k] *= h[k]) per lane.
template <typename T>
RFADE_CLONE_BODY void pointwise_body(T* __restrict re, T* __restrict im,
                                     std::size_t n, std::size_t batch,
                                     const std::complex<T>* h) {
  for (std::size_t k = 0; k < n; ++k) {
    const T hr = h[k].real();
    const T hi = h[k].imag();
    T* __restrict r = re + k * batch;
    T* __restrict i = im + k * batch;
    for (std::size_t b = 0; b < batch; ++b) {
      const T xr = r[b];
      const T xi = i[b];
      r[b] = xr * hr - xi * hi;
      i[b] = xr * hi + xi * hr;
    }
  }
}

RFADE_TARGET_CLONES_WIDE
void batched_butterfly_stages(double* re, double* im, std::size_t n,
                              std::size_t batch, const cdouble* twiddles) {
  butterfly_stages_body(re, im, n, batch, twiddles);
}

RFADE_TARGET_CLONES_WIDE
void batched_butterfly_stages(float* re, float* im, std::size_t n,
                              std::size_t batch, const cfloat* twiddles) {
  butterfly_stages_body(re, im, n, batch, twiddles);
}

RFADE_TARGET_CLONES_WIDE
void batched_pointwise_kernel(double* re, double* im, std::size_t n,
                              std::size_t batch, const cdouble* h) {
  pointwise_body(re, im, n, batch, h);
}

RFADE_TARGET_CLONES_WIDE
void batched_pointwise_kernel(float* re, float* im, std::size_t n,
                              std::size_t batch, const cfloat* h) {
  pointwise_body(re, im, n, batch, h);
}

}  // namespace

void multiply_batched_pointwise(double* re, double* im, std::size_t n,
                                std::size_t batch, const cdouble* h) {
  batched_pointwise_kernel(re, im, n, batch, h);
}

void multiply_batched_pointwise(float* re, float* im, std::size_t n,
                                std::size_t batch, const cfloat* h) {
  batched_pointwise_kernel(re, im, n, batch, h);
}

// --- BasicPow2Plan -----------------------------------------------------------

namespace {

/// The per-stage twiddle value sequence of fft_pow2_inplace, verbatim:
/// incremental w *= w_len with a std::polar resynchronisation every 64
/// steps — precomputing *these* values (not directly-evaluated polars)
/// is what keeps the planned transform bit-identical to the ad-hoc one.
void fill_stage_twiddles(std::size_t len, double sign, cdouble* out) {
  const double angle = sign * 2.0 * kPi / static_cast<double>(len);
  const cdouble w_len = std::polar(1.0, angle);
  cdouble w(1.0, 0.0);
  for (std::size_t k = 0; k < len / 2; ++k) {
    if ((k & 63u) == 0u && k != 0u) {
      w = std::polar(1.0, angle * static_cast<double>(k));
    }
    out[k] = w;
    w *= w_len;
  }
}

}  // namespace

template <typename T>
BasicPow2Plan<T>::BasicPow2Plan(std::size_t n) : n_(n) {
  RFADE_EXPECTS(is_power_of_two(n), "Pow2Plan: size must be 2^k");
  RFADE_EXPECTS(n <= (std::size_t{1} << 32), "Pow2Plan: size exceeds 2^32");
  // Bit-reversal permutation as an explicit swap list (i < j only).
  std::size_t j = 0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    if (i < j) {
      swaps_.push_back(static_cast<std::uint32_t>(i));
      swaps_.push_back(static_cast<std::uint32_t>(j));
    }
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
  if (n > 1) {
    // Twiddles from the double resync recurrence, narrowed once for a
    // float plan (the identity for double).
    std::vector<cdouble> stage(n / 2);
    forward_twiddles_.resize(n - 1);
    inverse_twiddles_.resize(n - 1);
    std::size_t offset = 0;
    for (std::size_t len = 2; len <= n; len <<= 1) {
      for (const double sign : {-1.0, 1.0}) {
        fill_stage_twiddles(len, sign, stage.data());
        Complex* out = (sign < 0.0 ? forward_twiddles_ : inverse_twiddles_)
                           .data() + offset;
        for (std::size_t k = 0; k < len / 2; ++k) {
          out[k] = Complex(stage[k]);
        }
      }
      offset += len / 2;
    }
  }
}

template <typename T>
void BasicPow2Plan<T>::transform(ComplexVector& data,
                                 Direction direction) const {
  RFADE_EXPECTS(data.size() == n_, "Pow2Plan: data size mismatch");
  if (n_ == 1) {
    return;
  }
  for (std::size_t s = 0; s + 1 < swaps_.size(); s += 2) {
    std::swap(data[swaps_[s]], data[swaps_[s + 1]]);
  }
  const ComplexVector& twiddles =
      direction == Direction::Forward ? forward_twiddles_ : inverse_twiddles_;
  std::size_t offset = 0;
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const Complex* w = twiddles.data() + offset;
    for (std::size_t start = 0; start < n_; start += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const Complex even = data[start + k];
        const Complex odd = data[start + k + len / 2] * w[k];
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
      }
    }
    offset += len / 2;
  }
}

template <typename T>
void BasicPow2Plan<T>::transform_batched(T* re, T* im, std::size_t batch,
                                         Direction direction) const {
  RFADE_EXPECTS(re != nullptr && im != nullptr,
                "Pow2Plan::transform_batched: null data");
  if (n_ == 1 || batch == 0) {
    return;
  }
  // Bit-reversal permutation: each swap exchanges one planar row (batch
  // contiguous lanes) — pure data movement, no rounding involved.
  for (std::size_t s = 0; s + 1 < swaps_.size(); s += 2) {
    const std::size_t i = std::size_t{swaps_[s]} * batch;
    const std::size_t j = std::size_t{swaps_[s + 1]} * batch;
    std::swap_ranges(re + i, re + i + batch, re + j);
    std::swap_ranges(im + i, im + i + batch, im + j);
  }
  const ComplexVector& twiddles =
      direction == Direction::Forward ? forward_twiddles_ : inverse_twiddles_;
  batched_butterfly_stages(re, im, n_, batch, twiddles.data());
}

template <typename T>
CVector BasicPow2Plan<T>::dft(const CVector& data) const
  requires std::same_as<T, double>
{
  CVector copy = data;
  transform(copy, Direction::Forward);
  return copy;
}

template <typename T>
CVector BasicPow2Plan<T>::idft(const CVector& data) const
  requires std::same_as<T, double>
{
  CVector copy = data;
  transform(copy, Direction::Inverse);
  const double scale = 1.0 / static_cast<double>(n_);
  for (cdouble& value : copy) {
    value *= scale;
  }
  return copy;
}

template <typename T>
void BasicPow2Plan<T>::transform_real_pair(const RVector& x, const RVector& y,
                                           CVector& fx, CVector& fy) const
  requires std::same_as<T, double>
{
  RFADE_EXPECTS(x.size() == n_ && y.size() == n_,
                "Pow2Plan::transform_real_pair: input size mismatch");
  CVector z(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    z[j] = cdouble(x[j], y[j]);
  }
  transform(z, Direction::Forward);
  fx.resize(n_);
  fy.resize(n_);
  // X[k] = (Z[k] + conj(Z[N-k]))/2, Y[k] = -i (Z[k] - conj(Z[N-k]))/2:
  // the even/odd (conjugate-symmetric / conjugate-antisymmetric) parts of
  // Z carry the two real sequences' spectra.
  for (std::size_t k = 0; k < n_; ++k) {
    const cdouble zk = z[k];
    const cdouble zr = std::conj(z[(n_ - k) % n_]);
    fx[k] = (zk + zr) * 0.5;
    fy[k] = (zk - zr) * cdouble(0.0, -0.5);
  }
}

template <typename T>
CVector BasicPow2Plan<T>::transform_real(const RVector& x) const
  requires std::same_as<T, double>
{
  RFADE_EXPECTS(x.size() == 2 * n_,
                "Pow2Plan::transform_real: input must have 2 * size() samples");
  // Split identity: pack even/odd samples into one complex sequence, take
  // the N-point transform, and recombine with half-resolution twiddles.
  CVector z(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    z[j] = cdouble(x[2 * j], x[2 * j + 1]);
  }
  transform(z, Direction::Forward);
  CVector spectrum(2 * n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const cdouble zk = z[k];
    const cdouble zr = std::conj(z[(n_ - k) % n_]);
    const cdouble even = (zk + zr) * 0.5;
    const cdouble odd = (zk - zr) * cdouble(0.0, -0.5);
    const cdouble w =
        std::polar(1.0, -kPi * static_cast<double>(k) / static_cast<double>(n_));
    const cdouble twisted = w * odd;
    spectrum[k] = even + twisted;
    spectrum[k + n_] = even - twisted;
  }
  return spectrum;
}

template <typename T>
RVector BasicPow2Plan<T>::inverse_real(const CVector& spectrum) const
  requires std::same_as<T, double>
{
  RFADE_EXPECTS(spectrum.size() == 2 * n_,
                "Pow2Plan::inverse_real: spectrum must have 2 * size() bins");
  // Undo the split recombination, inverse-transform the packed sequence,
  // and unpack even/odd samples.  The 1/N inner scaling makes the overall
  // operator the true inverse of transform_real (1/(2N) convention).
  CVector z(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    const cdouble even = (spectrum[k] + spectrum[k + n_]) * 0.5;
    const cdouble w =
        std::polar(1.0, kPi * static_cast<double>(k) / static_cast<double>(n_));
    const cdouble odd = (spectrum[k] - spectrum[k + n_]) * 0.5 * w;
    z[k] = even + cdouble(0.0, 1.0) * odd;
  }
  transform(z, Direction::Inverse);
  const double scale = 1.0 / static_cast<double>(n_);
  RVector x(2 * n_);
  for (std::size_t j = 0; j < n_; ++j) {
    x[2 * j] = z[j].real() * scale;
    x[2 * j + 1] = z[j].imag() * scale;
  }
  return x;
}

template class BasicPow2Plan<double>;
template class BasicPow2Plan<float>;

// --- BluesteinPlan -----------------------------------------------------------

BluesteinPlan::BluesteinPlan(std::size_t n)
    : n_(n), m_(next_pow2(n >= 1 ? 2 * n - 1 : 1)), inner_(m_) {
  RFADE_EXPECTS(n >= 1, "BluesteinPlan: size must be >= 1");
  forward_chirp_.resize(n);
  inverse_chirp_.resize(n);
  CVector forward_b(m_, cdouble{});
  CVector inverse_b(m_, cdouble{});
  // The chirp values and the conj-chirp convolution kernel replicate the
  // ad-hoc bluestein() arithmetic verbatim (j^2 reduced mod 2n, the same
  // std::polar calls), so the planned transform is bit-identical to it.
  for (std::size_t j = 0; j < n; ++j) {
    const unsigned long long j2 =
        (static_cast<unsigned long long>(j) * j) % (2ull * n);
    const double phase = kPi * static_cast<double>(j2) / static_cast<double>(n);
    forward_chirp_[j] = std::polar(1.0, -phase);
    inverse_chirp_[j] = std::polar(1.0, phase);
    const cdouble forward_inv = std::conj(forward_chirp_[j]);
    const cdouble inverse_inv = std::conj(inverse_chirp_[j]);
    forward_b[j] = forward_inv;
    inverse_b[j] = inverse_inv;
    if (j != 0) {
      forward_b[m_ - j] = forward_inv;
      inverse_b[m_ - j] = inverse_inv;
    }
  }
  inner_.transform(forward_b, Direction::Forward);
  inner_.transform(inverse_b, Direction::Forward);
  forward_kernel_ = std::move(forward_b);
  inverse_kernel_ = std::move(inverse_b);
}

void BluesteinPlan::transform(const CVector& in, CVector& out,
                              Direction direction, CVector& scratch) const {
  RFADE_EXPECTS(in.size() == n_, "BluesteinPlan: input size mismatch");
  const CVector& chirp =
      direction == Direction::Forward ? forward_chirp_ : inverse_chirp_;
  const CVector& kernel =
      direction == Direction::Forward ? forward_kernel_ : inverse_kernel_;
  scratch.assign(m_, cdouble{});
  for (std::size_t j = 0; j < n_; ++j) {
    scratch[j] = in[j] * chirp[j];
  }
  inner_.transform(scratch, Direction::Forward);
  for (std::size_t j = 0; j < m_; ++j) {
    scratch[j] *= kernel[j];
  }
  inner_.transform(scratch, Direction::Inverse);
  out.resize(n_);
  const double scale = 1.0 / static_cast<double>(m_);  // undo unnormalised IFFT
  for (std::size_t j = 0; j < n_; ++j) {
    out[j] = scratch[j] * scale * chirp[j];
  }
}

// --- BasicRealConvolver -----------------------------------------------------

template <typename T>
BasicRealConvolver<T>::BasicRealConvolver(std::shared_ptr<const Plan> plan,
                                          ComplexVector spectrum)
    : plan_(std::move(plan)), spectrum_(std::move(spectrum)) {
  RFADE_EXPECTS(plan_ != nullptr, "RealConvolver: null plan");
  RFADE_EXPECTS(spectrum_.size() == plan_->size(),
                "RealConvolver: spectrum size must match plan size");
}

template <typename T>
BasicRealConvolver<T>::BasicRealConvolver(std::shared_ptr<const Plan> plan,
                                          const RVector& kernel)
  requires std::same_as<T, double>
    : plan_(std::move(plan)) {
  RFADE_EXPECTS(plan_ != nullptr, "RealConvolver: null plan");
  RFADE_EXPECTS(kernel.size() == plan_->size(),
                "RealConvolver: kernel size must match plan size");
  // Spectrum via the full complex transform of the zero-imaginary kernel:
  // bit-identical to fft::dft of the complexified kernel, so swapping the
  // convolver into a path that used to call fft::dft changes nothing.
  CVector complexified(kernel.size());
  for (std::size_t j = 0; j < kernel.size(); ++j) {
    complexified[j] = cdouble(kernel[j], 0.0);
  }
  plan_->transform(complexified, Direction::Forward);
  spectrum_ = std::move(complexified);
}

template <typename T>
void BasicRealConvolver<T>::convolve_packed(const ComplexVector& in,
                                            ComplexVector& work) const {
  RFADE_EXPECTS(in.size() == plan_->size(),
                "RealConvolver: input size must match plan size");
  work = in;
  plan_->transform(work, Direction::Forward);
  for (std::size_t k = 0; k < work.size(); ++k) {
    work[k] *= spectrum_[k];
  }
  plan_->transform(work, Direction::Inverse);
}

template <typename T>
void BasicRealConvolver<T>::convolve_pair(const double* x, const double* y,
                                          double* out_x, double* out_y,
                                          CVector& work) const
  requires std::same_as<T, double>
{
  const std::size_t n = plan_->size();
  work.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    work[j] = cdouble(x[j], y[j]);
  }
  plan_->transform(work, Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    work[k] *= spectrum_[k];
  }
  plan_->transform(work, Direction::Inverse);
  const double scale = 1.0 / static_cast<double>(n);
  for (std::size_t j = 0; j < n; ++j) {
    out_x[j] = work[j].real() * scale;
    out_y[j] = work[j].imag() * scale;
  }
}

template class BasicRealConvolver<double>;
template class BasicRealConvolver<float>;

CVector naive_dft(const CVector& data, Direction direction) {
  const std::size_t n = data.size();
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  CVector result(n, cdouble{});
  for (std::size_t k = 0; k < n; ++k) {
    cdouble acc{};
    for (std::size_t l = 0; l < n; ++l) {
      const double phase = sign * 2.0 * kPi * static_cast<double>(k) *
                           static_cast<double>(l) / static_cast<double>(n);
      acc += data[l] * std::polar(1.0, phase);
    }
    result[k] = acc;
  }
  return result;
}

}  // namespace rfade::fft
