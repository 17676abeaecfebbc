#include "rfade/numeric/matrix_ops.hpp"

#include <algorithm>
#include <cmath>

#include "rfade/support/simd.hpp"

namespace rfade::numeric {

namespace {

/// One row tile of the planar GEMM (m <= tile rows), multiversioned for
/// wider vectors; no clone enables FMA via its target set, and this TU is
/// compiled with -ffp-contract=off (see CMakeLists.txt) so the avx512f
/// clone — whose base feature set includes 512-bit FMA — cannot contract
/// either: every clone produces the bit pattern of the scalar mul/add
/// sequence, at twice the lanes per vector in float.
template <typename T>
RFADE_CLONE_BODY void planar_gemm_body(const T* __restrict a_re,
                                       const T* __restrict a_im,
                                       std::size_t m, std::size_t k,
                                       const T* __restrict b_re,
                                       const T* __restrict b_im,
                                       std::size_t n, T* __restrict c_re,
                                       T* __restrict c_im) {
  for (std::size_t kk = 0; kk < k; ++kk) {
    const T* brr = b_re + kk * n;
    const T* bri = b_im + kk * n;
    for (std::size_t t = 0; t < m; ++t) {
      const T ar = a_re[t * k + kk];
      const T ai = a_im[t * k + kk];
      T* crr = c_re + t * n;
      T* cri = c_im + t * n;
      for (std::size_t j = 0; j < n; ++j) {
        crr[j] += ar * brr[j] - ai * bri[j];
        cri[j] += ar * bri[j] + ai * brr[j];
      }
    }
  }
}

RFADE_TARGET_CLONES_WIDE
void planar_gemm_tile(const double* a_re, const double* a_im, std::size_t m,
                      std::size_t k, const double* b_re, const double* b_im,
                      std::size_t n, double* c_re, double* c_im) {
  planar_gemm_body(a_re, a_im, m, k, b_re, b_im, n, c_re, c_im);
}

RFADE_TARGET_CLONES_WIDE
void planar_gemm_tile(const float* a_re, const float* a_im, std::size_t m,
                      std::size_t k, const float* b_re, const float* b_im,
                      std::size_t n, float* c_re, float* c_im) {
  planar_gemm_body(a_re, a_im, m, k, b_re, b_im, n, c_re, c_im);
}

/// Row-tile size of the blocked GEMMs: one tile of c (kRowTile x n) plus
/// one row of b fit in L1 for every dimension rfade uses (n is the
/// envelope count, <= a few hundred).
constexpr std::size_t kRowTile = 64;

/// c = a * b on interleaved complex operands.  Within a tile the kk loop
/// is outermost, so each output element accumulates its k-terms in
/// ascending order — the bit pattern of the naive dot product.
template <typename T>
void block_raw(const std::complex<T>* a, std::size_t m, std::size_t k,
               const std::complex<T>* b, std::size_t n, std::complex<T>* c) {
  for (std::size_t t0 = 0; t0 < m; t0 += kRowTile) {
    const std::size_t t1 = std::min(m, t0 + kRowTile);
    std::fill(c + t0 * n, c + t1 * n, std::complex<T>{});
    for (std::size_t kk = 0; kk < k; ++kk) {
      const std::complex<T>* brow = b + kk * n;
      for (std::size_t t = t0; t < t1; ++t) {
        const std::complex<T> atk = a[t * k + kk];
        std::complex<T>* crow = c + t * n;
        for (std::size_t j = 0; j < n; ++j) {
          crow[j] += atk * brow[j];
        }
      }
    }
  }
}

/// c = a * b on split-plane operands, interleaved complex output: the
/// planar tile kernel into per-tile re/im accumulators, then one
/// interleave pass per tile.
template <typename T>
void block_planar(const T* a_re, const T* a_im, std::size_t m, std::size_t k,
                  const T* b_re, const T* b_im, std::size_t n,
                  std::complex<T>* c) {
  std::vector<T> c_re(kRowTile * n);
  std::vector<T> c_im(kRowTile * n);
  for (std::size_t t0 = 0; t0 < m; t0 += kRowTile) {
    const std::size_t t1 = std::min(m, t0 + kRowTile);
    std::fill(c_re.begin(), c_re.begin() + (t1 - t0) * n, T{});
    std::fill(c_im.begin(), c_im.begin() + (t1 - t0) * n, T{});
    planar_gemm_tile(a_re + t0 * k, a_im + t0 * k, t1 - t0, k, b_re, b_im, n,
                     c_re.data(), c_im.data());
    for (std::size_t t = t0; t < t1; ++t) {
      const T* crr = c_re.data() + (t - t0) * n;
      const T* cri = c_im.data() + (t - t0) * n;
      std::complex<T>* crow = c + t * n;
      for (std::size_t j = 0; j < n; ++j) {
        crow[j] = std::complex<T>(crr[j], cri[j]);
      }
    }
  }
}

template <typename T>
Matrix<T> multiply_impl(const Matrix<T>& a, const Matrix<T>& b) {
  RFADE_EXPECTS(a.cols() == b.rows(), "multiply: inner dimensions differ");
  Matrix<T> c(a.rows(), b.cols(), T{});
  // i-k-j loop order: streams through b row-wise, friendly to row-major data.
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const T aik = a(i, k);
      if (aik == T{}) {
        continue;
      }
      for (std::size_t j = 0; j < b.cols(); ++j) {
        c(i, j) += aik * b(k, j);
      }
    }
  }
  return c;
}

template <typename T>
std::vector<T> matvec_impl(const Matrix<T>& a, const std::vector<T>& x) {
  RFADE_EXPECTS(a.cols() == x.size(), "multiply: vector length mismatch");
  std::vector<T> y(a.rows(), T{});
  for (std::size_t i = 0; i < a.rows(); ++i) {
    T acc{};
    for (std::size_t j = 0; j < a.cols(); ++j) {
      acc += a(i, j) * x[j];
    }
    y[i] = acc;
  }
  return y;
}

template <typename T>
double frobenius_impl(const Matrix<T>& a) {
  double sum = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      sum += std::norm(cdouble(a(i, j)));
    }
  }
  return std::sqrt(sum);
}

}  // namespace

CMatrix to_complex(const RMatrix& a) {
  CMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(i, j) = cdouble(a(i, j), 0.0);
    }
  }
  return c;
}

RMatrix real_part(const CMatrix& a) {
  RMatrix r(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      r(i, j) = a(i, j).real();
    }
  }
  return r;
}

RMatrix imag_part(const CMatrix& a) {
  RMatrix r(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      r(i, j) = a(i, j).imag();
    }
  }
  return r;
}

RMatrix elementwise_abs(const CMatrix& a) {
  RMatrix r(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.size(); ++i) {
    r.data()[i] = std::abs(a.data()[i]);
  }
  return r;
}

CMatrix diag(const CVector& d) {
  CMatrix m(d.size(), d.size(), cdouble{});
  for (std::size_t i = 0; i < d.size(); ++i) {
    m(i, i) = d[i];
  }
  return m;
}

CMatrix diag(const RVector& d) {
  CMatrix m(d.size(), d.size(), cdouble{});
  for (std::size_t i = 0; i < d.size(); ++i) {
    m(i, i) = cdouble(d[i], 0.0);
  }
  return m;
}

CVector diagonal(const CMatrix& a) {
  RFADE_EXPECTS(a.is_square(), "diagonal: matrix must be square");
  CVector d(a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    d[i] = a(i, i);
  }
  return d;
}

CMatrix multiply(const CMatrix& a, const CMatrix& b) {
  return multiply_impl(a, b);
}
RMatrix multiply(const RMatrix& a, const RMatrix& b) {
  return multiply_impl(a, b);
}
CVector multiply(const CMatrix& a, const CVector& x) {
  return matvec_impl(a, x);
}
RVector multiply(const RMatrix& a, const RVector& x) {
  return matvec_impl(a, x);
}

void multiply_block_raw(const cdouble* a, std::size_t m, std::size_t k,
                        const cdouble* b, std::size_t n, cdouble* c) {
  block_raw(a, m, k, b, n, c);
}

void multiply_block_raw(const cfloat* a, std::size_t m, std::size_t k,
                        const cfloat* b, std::size_t n, cfloat* c) {
  block_raw(a, m, k, b, n, c);
}

void multiply_block_into(const CMatrix& a, const CMatrix& b, CMatrix& out) {
  RFADE_EXPECTS(a.cols() == b.rows(),
                "multiply_block: inner dimensions differ");
  if (out.rows() != a.rows() || out.cols() != b.cols()) {
    out = CMatrix(a.rows(), b.cols());
  }
  multiply_block_raw(a.data(), a.rows(), a.cols(), b.data(), b.cols(),
                     out.data());
}

CMatrix multiply_block(const CMatrix& a, const CMatrix& b) {
  CMatrix out;
  multiply_block_into(a, b, out);
  return out;
}

void multiply_block_planar(const double* a_re, const double* a_im,
                           std::size_t m, std::size_t k, const double* b_re,
                           const double* b_im, std::size_t n, cdouble* c) {
  block_planar(a_re, a_im, m, k, b_re, b_im, n, c);
}

void multiply_block_planar(const float* a_re, const float* a_im,
                           std::size_t m, std::size_t k, const float* b_re,
                           const float* b_im, std::size_t n, cfloat* c) {
  block_planar(a_re, a_im, m, k, b_re, b_im, n, c);
}

namespace {

/// Crossfade on the raw interleaved re/im values (std::complex is
/// array-layout-compatible), multiversioned like the planar GEMM; no FMA
/// in any clone (contract off for this TU), so every clone keeps the
/// scalar bit pattern w0*p + w1*c.
template <typename T>
RFADE_CLONE_BODY void crossfade_body(const T* __restrict w0,
                                     const T* __restrict w1,
                                     const T* __restrict prev,
                                     const T* __restrict cur,
                                     std::size_t count, T* __restrict out) {
  for (std::size_t i = 0; i < count; ++i) {
    const T a = w0[i];
    const T b = w1[i];
    out[2 * i] = a * prev[2 * i] + b * cur[2 * i];
    out[2 * i + 1] = a * prev[2 * i + 1] + b * cur[2 * i + 1];
  }
}

template <typename T>
RFADE_CLONE_BODY void scale_strided_body(const T* __restrict u,
                                         std::size_t count, T scale,
                                         T* __restrict out,
                                         std::size_t stride) {
  for (std::size_t l = 0; l < count; ++l) {
    out[l * stride] = u[2 * l] * scale;
    out[l * stride + 1] = u[2 * l + 1] * scale;
  }
}

RFADE_TARGET_CLONES_WIDE
void crossfade_kernel(const double* w0, const double* w1, const double* prev,
                      const double* cur, std::size_t count, double* out) {
  crossfade_body(w0, w1, prev, cur, count, out);
}

RFADE_TARGET_CLONES_WIDE
void crossfade_kernel(const float* w0, const float* w1, const float* prev,
                      const float* cur, std::size_t count, float* out) {
  crossfade_body(w0, w1, prev, cur, count, out);
}

RFADE_TARGET_CLONES_WIDE
void scale_strided_kernel(const double* u, std::size_t count, double scale,
                          double* out, std::size_t stride) {
  scale_strided_body(u, count, scale, out, stride);
}

RFADE_TARGET_CLONES_WIDE
void scale_strided_kernel(const float* u, std::size_t count, float scale,
                          float* out, std::size_t stride) {
  scale_strided_body(u, count, scale, out, stride);
}

}  // namespace

void crossfade_block(const double* fade_out, const double* fade_in,
                     const cdouble* previous, const cdouble* current,
                     std::size_t count, cdouble* out) {
  crossfade_kernel(fade_out, fade_in,
                   reinterpret_cast<const double*>(previous),
                   reinterpret_cast<const double*>(current), count,
                   reinterpret_cast<double*>(out));
}

void crossfade_block(const float* fade_out, const float* fade_in,
                     const cfloat* previous, const cfloat* current,
                     std::size_t count, cfloat* out) {
  crossfade_kernel(fade_out, fade_in, reinterpret_cast<const float*>(previous),
                   reinterpret_cast<const float*>(current), count,
                   reinterpret_cast<float*>(out));
}

void scale_into_strided(const cdouble* u, std::size_t count, double scale,
                        cdouble* out, std::size_t stride) {
  scale_strided_kernel(reinterpret_cast<const double*>(u), count, scale,
                       reinterpret_cast<double*>(out), 2 * stride);
}

void scale_into_strided(const cfloat* u, std::size_t count, float scale,
                        cfloat* out, std::size_t stride) {
  scale_strided_kernel(reinterpret_cast<const float*>(u), count, scale,
                       reinterpret_cast<float*>(out), 2 * stride);
}

CMatrix add(const CMatrix& a, const CMatrix& b) {
  RFADE_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
                "add: shape mismatch");
  CMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(i, j) = a(i, j) + b(i, j);
    }
  }
  return c;
}

CMatrix subtract(const CMatrix& a, const CMatrix& b) {
  RFADE_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
                "subtract: shape mismatch");
  CMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(i, j) = a(i, j) - b(i, j);
    }
  }
  return c;
}

CMatrix scale(const CMatrix& a, cdouble alpha) {
  CMatrix c(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(i, j) = alpha * a(i, j);
    }
  }
  return c;
}

CMatrix conjugate_transpose(const CMatrix& a) {
  CMatrix c(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(j, i) = std::conj(a(i, j));
    }
  }
  return c;
}

RMatrix transpose(const RMatrix& a) {
  RMatrix c(a.cols(), a.rows());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      c(j, i) = a(i, j);
    }
  }
  return c;
}

CMatrix gram(const CMatrix& l) {
  CMatrix g(l.rows(), l.rows(), cdouble{});
  for (std::size_t i = 0; i < l.rows(); ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      cdouble acc{};
      for (std::size_t k = 0; k < l.cols(); ++k) {
        acc += l(i, k) * std::conj(l(j, k));
      }
      g(i, j) = acc;
      g(j, i) = std::conj(acc);
    }
  }
  return g;
}

cdouble trace(const CMatrix& a) {
  RFADE_EXPECTS(a.is_square(), "trace: matrix must be square");
  cdouble t{};
  for (std::size_t i = 0; i < a.rows(); ++i) {
    t += a(i, i);
  }
  return t;
}

double frobenius_norm(const CMatrix& a) { return frobenius_impl(a); }
double frobenius_norm(const RMatrix& a) { return frobenius_impl(a); }

double max_abs(const CMatrix& a) {
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j)));
    }
  }
  return m;
}

double max_abs_diff(const CMatrix& a, const CMatrix& b) {
  RFADE_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
                "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

double max_abs_diff(const RMatrix& a, const RMatrix& b) {
  RFADE_EXPECTS(a.rows() == b.rows() && a.cols() == b.cols(),
                "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

bool is_hermitian(const CMatrix& a, double tol) {
  if (!a.is_square()) {
    return false;
  }
  const double scale_ref = std::max(1.0, max_abs(a));
  for (std::size_t i = 0; i < a.rows(); ++i) {
    if (std::abs(a(i, i).imag()) > tol * scale_ref) {
      return false;
    }
    for (std::size_t j = i + 1; j < a.cols(); ++j) {
      if (std::abs(a(i, j) - std::conj(a(j, i))) > tol * scale_ref) {
        return false;
      }
    }
  }
  return true;
}

CMatrix hermitian_part(const CMatrix& a) {
  RFADE_EXPECTS(a.is_square(), "hermitian_part: matrix must be square");
  CMatrix h(a.rows(), a.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      h(i, j) = 0.5 * (a(i, j) + std::conj(a(j, i)));
    }
  }
  return h;
}

}  // namespace rfade::numeric
