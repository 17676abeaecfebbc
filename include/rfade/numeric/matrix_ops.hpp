#pragma once

/// \file matrix_ops.hpp
/// \brief Free-function linear algebra kernels on Matrix<T>.
///
/// Concrete (non-template) signatures for the two element types rfade uses,
/// double and std::complex<double>, plus float overloads of the batched
/// emission kernels.  Everything validates shapes via
/// contracts and throws rfade::DimensionError-compatible ContractViolation
/// on mismatch.

#include <cmath>
#include <complex>

#include "rfade/numeric/matrix.hpp"

namespace rfade::numeric {

// --- construction / conversion ---------------------------------------------

/// Widen a real matrix to complex.
[[nodiscard]] CMatrix to_complex(const RMatrix& a);

/// Element-wise real parts.
[[nodiscard]] RMatrix real_part(const CMatrix& a);

/// Element-wise imaginary parts.
[[nodiscard]] RMatrix imag_part(const CMatrix& a);

/// Element-wise moduli |a_ij| — the envelope matrix of a block of
/// complex samples.
[[nodiscard]] RMatrix elementwise_abs(const CMatrix& a);

/// Diagonal matrix from a vector.
[[nodiscard]] CMatrix diag(const CVector& d);
[[nodiscard]] CMatrix diag(const RVector& d);

/// Main diagonal of a square matrix.
[[nodiscard]] CVector diagonal(const CMatrix& a);

// --- arithmetic --------------------------------------------------------------

/// C = A * B.
[[nodiscard]] CMatrix multiply(const CMatrix& a, const CMatrix& b);
[[nodiscard]] RMatrix multiply(const RMatrix& a, const RMatrix& b);

/// y = A * x.
[[nodiscard]] CVector multiply(const CMatrix& a, const CVector& x);
[[nodiscard]] RVector multiply(const RMatrix& a, const RVector& x);

/// A + B and A - B.
[[nodiscard]] CMatrix add(const CMatrix& a, const CMatrix& b);
[[nodiscard]] CMatrix subtract(const CMatrix& a, const CMatrix& b);

/// alpha * A.
[[nodiscard]] CMatrix scale(const CMatrix& a, cdouble alpha);

/// In-place Hadamard product a_ij <- a_ij * b_ij, each element the plain
/// std::complex product — the cascaded stage product Z1 (.) Z2 and its
/// covariance K1 (.) K2.
void multiply_elementwise(CMatrix& a, const CMatrix& b);
void multiply_elementwise(CMatrixF& a, const CMatrixF& b);

/// Conjugate transpose A^H.
[[nodiscard]] CMatrix conjugate_transpose(const CMatrix& a);

/// Transpose (real).
[[nodiscard]] RMatrix transpose(const RMatrix& a);

/// Gram product L * L^H (the coloring-matrix identity of the paper,
/// Eq. (10)).
[[nodiscard]] CMatrix gram(const CMatrix& l);

// --- batched (blocked) products ---------------------------------------------

/// acc + a * b in the coloring GEMM's fused order:
///   re = fma(a.imag, -b.imag, fma(a.real, b.real, acc.real))
///   im = fma(a.imag,  b.real, fma(a.real, b.imag, acc.imag))
/// each std::fma rounded once.  Every scalar path that must reproduce the
/// blocked GEMMs bit for bit (the per-draw matvec, test references)
/// accumulates through this one helper.
template <typename T>
[[nodiscard]] inline std::complex<T> fused_mac(std::complex<T> acc,
                                               std::complex<T> a,
                                               std::complex<T> b) {
  const T re = std::fma(a.real(), b.real(), acc.real());
  const T im = std::fma(a.real(), b.imag(), acc.imag());
  return {std::fma(a.imag(), -b.imag(), re), std::fma(a.imag(), b.real(), im)};
}

/// out[i] = fused_mac(out[i], w, b[i]) for i < n: one column step of a
/// matvec in the blocked GEMMs' fused order (the per-draw Z = L W walks
/// the columns of L through it).  Versioned beside the GEMM: std::fma per
/// op by default, inline vfmadd where the CPU has FMA; both are correctly
/// rounded, so both give the same bits.  \p out must not alias \p b.
void fused_mac_column(cdouble w, const cdouble* b, std::size_t n,
                      cdouble* out);

/// Raw kernel behind multiply_block: c = a * b with a (m x k), b (k x n) and
/// c (m x n), all dense row-major.  Every output element is accumulated as
/// acc = fused_mac(acc, a(t, kk), b(kk, j)) over strictly ascending kk from
/// a (+0, +0) start, so the result is bit-identical to that scalar loop
/// (and hence to the per-sample matvec) for all operands, at every vector
/// width and ISA: each fused multiply-add is correctly rounded, whether it
/// is a vfmadd lane or libm's std::fma.  Non-finite products follow the
/// plain formula, without std::complex's Annex G infinity recovery.  A
/// register-blocked kernel (one version per ISA, at that ISA's vector
/// width) keeps a tile of c in vector registers across the whole k loop
/// and stores it once, interleaved; b is repacked per call into a
/// per-thread buffer (4kn scalars) that only grows, so steady-state calls
/// allocate nothing.
/// \p c must not alias \p a or \p b.
///
/// Every batched kernel below comes in a double and a float overload
/// sharing one body: same accumulation order and rounding steps, so each
/// float kernel is bit-identical to its own scalar float loop at every ISA
/// width — float is its own bit-reference, not required to match double
/// bitwise.
void multiply_block_raw(const cdouble* a, std::size_t m, std::size_t k,
                        const cdouble* b, std::size_t n, cdouble* c);
void multiply_block_raw(const cfloat* a, std::size_t m, std::size_t k,
                        const cfloat* b, std::size_t n, cfloat* c);

/// out = a * b via the blocked kernel; \p out is resized/overwritten.
void multiply_block_into(const CMatrix& a, const CMatrix& b, CMatrix& out);

/// Blocked GEMM a * b: the multiply_block_raw contract on Matrix operands,
/// for block-of-draws workloads where a has thousands of rows.  Agrees
/// with the unfused multiply(a, b) to rounding, not bit for bit.
[[nodiscard]] CMatrix multiply_block(const CMatrix& a, const CMatrix& b);

/// Planar-operand variant of multiply_block_raw: a is given as split
/// real/imaginary planes a_re/a_im (each m x k row-major), b as planes
/// b_re/b_im (each k x n), and c is written interleaved (m x n complex,
/// row-major).  The same register-blocked kernel reads a through a unit
/// stride instead of the interleaved stride 2, so the result is
/// bit-identical to multiply_block_raw on the same values.  \p c must not
/// alias any input plane.
void multiply_block_planar(const double* a_re, const double* a_im,
                           std::size_t m, std::size_t k, const double* b_re,
                           const double* b_im, std::size_t n, cdouble* c);
void multiply_block_planar(const float* a_re, const float* a_im,
                           std::size_t m, std::size_t k, const float* b_re,
                           const float* b_im, std::size_t n, cfloat* c);

// --- streaming passes --------------------------------------------------------

/// WOLA equal-power crossfade (the per-seam pass of the
/// windowed-overlap-add branch source):
///   out[i] = fade_out[i] * previous[i] + fade_in[i] * current[i],
/// with real weight vectors applied to complex samples.  Multiversioned
/// (target_clones, like the coloring GEMM) with no FMA, so every clone
/// reproduces the scalar mul/add bit pattern.  \p out must not alias
/// any input.
void crossfade_block(const double* fade_out, const double* fade_in,
                     const cdouble* previous, const cdouble* current,
                     std::size_t count, cdouble* out);
void crossfade_block(const float* fade_out, const float* fade_in,
                     const cfloat* previous, const cfloat* current,
                     std::size_t count, cfloat* out);

/// Strided scale-and-scatter (the branch->row interleave pass of the
/// stream engine): out[l * stride] = u[l] * scale for l in [0, count).
/// Multiversioned like crossfade_block; bit-identical to the scalar
/// loop.
void scale_into_strided(const cdouble* u, std::size_t count, double scale,
                        cdouble* out, std::size_t stride);
void scale_into_strided(const cfloat* u, std::size_t count, float scale,
                        cfloat* out, std::size_t stride);

/// Trace of a square matrix.
[[nodiscard]] cdouble trace(const CMatrix& a);

// --- norms / comparisons -------------------------------------------------------

/// Frobenius norm sqrt(sum |a_ij|^2) — the metric of the paper's Sec. 4.2
/// PSD-approximation claim.
[[nodiscard]] double frobenius_norm(const CMatrix& a);
[[nodiscard]] double frobenius_norm(const RMatrix& a);

/// Largest |a_ij|.
[[nodiscard]] double max_abs(const CMatrix& a);

/// Largest |a_ij - b_ij|; shapes must match.
[[nodiscard]] double max_abs_diff(const CMatrix& a, const CMatrix& b);
[[nodiscard]] double max_abs_diff(const RMatrix& a, const RMatrix& b);

/// True when ||A - A^H||_max <= tol * max(1, ||A||_max).
[[nodiscard]] bool is_hermitian(const CMatrix& a, double tol = 1e-12);

/// Nearest Hermitian matrix (A + A^H)/2.
[[nodiscard]] CMatrix hermitian_part(const CMatrix& a);

}  // namespace rfade::numeric
