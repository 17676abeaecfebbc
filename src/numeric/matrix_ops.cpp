#include "rfade/numeric/matrix_ops.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "rfade/support/simd.hpp"

namespace rfade::numeric {

namespace {

/// GCC/Clang generic vector of Bytes / sizeof(T) lanes.  The coloring
/// GEMM is written in these explicit vectors rather than in scalar arrays
/// the vectorizer may pattern-match (see support/simd.hpp).
template <typename T, std::size_t Bytes>
struct VectorOf {
  typedef T type __attribute__((vector_size(Bytes)));
};
template <typename T, std::size_t Bytes>
using Vector = typename VectorOf<T, Bytes>::type;

/// One R-row x (Cols vectors of Bytes) register tile of the coloring GEMM
/// c = a * b, for the interleaved scalar columns [j, j + Cols * lanes) of
/// rows 0..R-1.  Every accumulator stays in a register across the whole
/// kk loop and is stored once, interleaved, straight into c.
///
/// b1 holds b's (re, im) pairs and b2 the pairs (-im, re), both row-major
/// with n2 = 2n scalars per row.  Per kk, lane 2p (a real part) computes
///   acc + (ar*br + ai*(-bi))  ==  acc + (ar*br - ai*bi)
/// and lane 2p+1 (its imaginary part)
///   acc + (ar*bi + ai*br),
/// because x + (-y) is x - y in IEEE 754 and a sign flip is exact.  With
/// kk ascending from zero and acc starting at +0, that is the value
/// sequence of the scalar std::complex loop c += a*b for every output
/// element, at every vector width.
template <std::size_t R, std::size_t Cols, std::size_t Bytes, typename T>
RFADE_CLONE_BODY void gemm_tile(const T* __restrict a_re,
                                const T* __restrict a_im,
                                std::size_t a_stride, std::size_t k,
                                const T* __restrict b1,
                                const T* __restrict b2, std::size_t n2,
                                std::size_t j, T* __restrict c) {
  using V = Vector<T, Bytes>;
  constexpr std::size_t kLanes = Bytes / sizeof(T);
  V acc[R][Cols] = {};
  for (std::size_t kk = 0; kk < k; ++kk) {
    V x[Cols];
    V y[Cols];
    for (std::size_t q = 0; q < Cols; ++q) {
      std::memcpy(&x[q], b1 + kk * n2 + j + q * kLanes, sizeof(V));
      std::memcpy(&y[q], b2 + kk * n2 + j + q * kLanes, sizeof(V));
    }
    for (std::size_t r = 0; r < R; ++r) {
      const T ar = a_re[(r * k + kk) * a_stride];
      const T ai = a_im[(r * k + kk) * a_stride];
      for (std::size_t q = 0; q < Cols; ++q) {
        acc[r][q] = acc[r][q] + (ar * x[q] + ai * y[q]);
      }
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t q = 0; q < Cols; ++q) {
      std::memcpy(c + r * n2 + j + q * kLanes, &acc[r][q], sizeof(V));
    }
  }
}

/// The columns a whole-width tile leaves (fewer than 2 * Bytes / sizeof(T)
/// scalars): one tile at each halving width down to one complex element,
/// so every tile covers whole output elements with no padding or masking.
template <std::size_t R, std::size_t Bytes, typename T>
RFADE_CLONE_BODY void gemm_tail(const T* a_re, const T* a_im,
                                std::size_t a_stride, std::size_t k,
                                const T* b1, const T* b2, std::size_t n2,
                                std::size_t j, T* c) {
  constexpr std::size_t kLanes = Bytes / sizeof(T);
  if (j + kLanes <= n2) {
    gemm_tile<R, 1, Bytes>(a_re, a_im, a_stride, k, b1, b2, n2, j, c);
    j += kLanes;
  }
  if constexpr (kLanes > 2) {
    gemm_tail<R, Bytes / 2>(a_re, a_im, a_stride, k, b1, b2, n2, j, c);
  }
}

/// R rows of c, two Bytes-wide vectors of columns per tile.
template <std::size_t R, std::size_t Bytes, typename T>
RFADE_CLONE_BODY void gemm_rows(const T* a_re, const T* a_im,
                                std::size_t a_stride, std::size_t k,
                                const T* b1, const T* b2, std::size_t n2,
                                T* c) {
  constexpr std::size_t kLanes = Bytes / sizeof(T);
  std::size_t j = 0;
  for (; j + 2 * kLanes <= n2; j += 2 * kLanes) {
    gemm_tile<R, 2, Bytes>(a_re, a_im, a_stride, k, b1, b2, n2, j, c);
  }
  gemm_tail<R, Bytes>(a_re, a_im, a_stride, k, b1, b2, n2, j, c);
}

/// Rows of the register tile: 4 rows x 2 vectors is 8 accumulators, which
/// with the 4 b vectors and 2 broadcasts fits in 16 registers.
constexpr std::size_t kTileRows = 4;

/// c (m x n, interleaved) = a (m x k) * b in Bytes-wide vectors, with a
/// read through (a_re, a_im, a_stride): element (t, kk) is
/// a_re[(t*k + kk) * a_stride] — stride 2 for interleaved std::complex
/// rows, 1 for split planes.
template <std::size_t Bytes, typename T>
RFADE_CLONE_BODY void coloring_gemm_body(const T* a_re, const T* a_im,
                                         std::size_t a_stride, std::size_t m,
                                         std::size_t k, const T* b1,
                                         const T* b2, std::size_t n, T* c) {
  const std::size_t n2 = 2 * n;
  std::size_t t = 0;
  for (; t + kTileRows <= m; t += kTileRows) {
    gemm_rows<kTileRows, Bytes>(a_re + t * k * a_stride,
                                a_im + t * k * a_stride, a_stride, k, b1, b2,
                                n2, c + t * n2);
  }
  for (; t < m; ++t) {
    gemm_rows<1, Bytes>(a_re + t * k * a_stride, a_im + t * k * a_stride,
                        a_stride, k, b1, b2, n2, c + t * n2);
  }
}

// One version per ISA, each at its register width: 16-byte vectors in the
// baseline (SSE2 / NEON), 32 in avx2, 64 in avx512f.
RFADE_TARGET_VERSION("default")
void coloring_gemm_kernel(const double* a_re, const double* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const double* b1, const double* b2, std::size_t n,
                          double* c) {
  coloring_gemm_body<16>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}

RFADE_TARGET_VERSION("default")
void coloring_gemm_kernel(const float* a_re, const float* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const float* b1, const float* b2, std::size_t n,
                          float* c) {
  coloring_gemm_body<16>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}

#if RFADE_HAS_TARGET_VERSIONS
RFADE_TARGET_VERSION("avx2")
void coloring_gemm_kernel(const double* a_re, const double* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const double* b1, const double* b2, std::size_t n,
                          double* c) {
  coloring_gemm_body<32>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}

RFADE_TARGET_VERSION("avx2")
void coloring_gemm_kernel(const float* a_re, const float* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const float* b1, const float* b2, std::size_t n,
                          float* c) {
  coloring_gemm_body<32>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}

RFADE_TARGET_VERSION("avx512f")
void coloring_gemm_kernel(const double* a_re, const double* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const double* b1, const double* b2, std::size_t n,
                          double* c) {
  coloring_gemm_body<64>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}

RFADE_TARGET_VERSION("avx512f")
void coloring_gemm_kernel(const float* a_re, const float* a_im,
                          std::size_t a_stride, std::size_t m, std::size_t k,
                          const float* b1, const float* b2, std::size_t n,
                          float* c) {
  coloring_gemm_body<64>(a_re, a_im, a_stride, m, k, b1, b2, n, c);
}
#endif

/// Both public GEMMs: pack b (read like a, through b_re/b_im/b_stride)
/// into the kernel's (re, im) / (-im, re) rows — O(k n) against the
/// O(m k n) product — in a per-thread buffer that only ever grows, so
/// steady-state calls allocate nothing.
template <typename T>
void coloring_gemm(const T* a_re, const T* a_im, std::size_t a_stride,
                   std::size_t m, std::size_t k, const T* b_re,
                   const T* b_im, std::size_t b_stride, std::size_t n,
                   std::complex<T>* c) {
  thread_local std::vector<T> packed;
  if (packed.size() < 4 * k * n) {
    packed.resize(4 * k * n);
  }
  T* b1 = packed.data();
  T* b2 = b1 + 2 * k * n;
  for (std::size_t i = 0; i < k * n; ++i) {
    const T re = b_re[i * b_stride];
    const T im = b_im[i * b_stride];
    b1[2 * i] = re;
    b1[2 * i + 1] = im;
    b2[2 * i] = -im;
    b2[2 * i + 1] = re;
  }
  coloring_gemm_kernel(a_re, a_im, a_stride, m, k, b1, b2, n,
                       reinterpret_cast<T*>(c));
}

/// The interleaved operands of multiply_block_raw as (re, im, stride 2)
/// views (std::complex<T> is array-layout-compatible with T[2]).
template <typename T>
void block_raw(const std::complex<T>* a, std::size_t m, std::size_t k,
               const std::complex<T>* b, std::size_t n, std::complex<T>* c) {
  const T* a_re = reinterpret_cast<const T*>(a);
  const T* b_re = reinterpret_cast<const T*>(b);
  coloring_gemm(a_re, a_re + 1, 2, m, k, b_re, b_re + 1, 2, n, c);
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
  coloring_gemm(a_re, a_im, 1, m, k, b_re, b_im, 1, n, c);
}

void multiply_block_planar(const float* a_re, const float* a_im,
                           std::size_t m, std::size_t k, const float* b_re,
                           const float* b_im, std::size_t n, cfloat* c) {
  coloring_gemm(a_re, a_im, 1, m, k, b_re, b_im, 1, n, c);
}

namespace {

/// Crossfade on the raw interleaved re/im values (std::complex is
/// array-layout-compatible), multiversioned like the coloring GEMM; no FMA
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
