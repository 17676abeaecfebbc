#pragma once

/// \file matrix_ops.hpp
/// \brief Free-function linear algebra kernels on Matrix<T>.
///
/// Concrete (non-template) signatures for the two element types rfade uses,
/// double and std::complex<double>, plus float overloads of the batched
/// emission kernels.  Everything validates shapes via
/// contracts and throws rfade::DimensionError-compatible ContractViolation
/// on mismatch.

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

/// Conjugate transpose A^H.
[[nodiscard]] CMatrix conjugate_transpose(const CMatrix& a);

/// Transpose (real).
[[nodiscard]] RMatrix transpose(const RMatrix& a);

/// Gram product L * L^H (the coloring-matrix identity of the paper,
/// Eq. (10)).
[[nodiscard]] CMatrix gram(const CMatrix& l);

// --- batched (blocked) products ---------------------------------------------

/// Raw kernel behind multiply_block: c = a * b with a (m x k), b (k x n) and
/// c (m x n), all dense row-major.  The accumulation over k is strictly
/// ascending from a (+0, +0) start for every output element, so the result
/// is bit-identical to a naive std::complex dot product (and hence to the
/// per-sample matvec loops it replaces) for finite operands; non-finite
/// products follow the plain formula, without std::complex's Annex G
/// infinity recovery.  A register-blocked kernel (one version per ISA, at
/// that ISA's vector width) keeps a 4-row tile of c in vector registers
/// across the whole k loop and stores it once, interleaved; b is repacked
/// per call into a per-thread buffer (4kn scalars) that only grows, so
/// steady-state calls allocate nothing.
/// \p c must not alias \p a or \p b.
///
/// Every batched kernel below comes in a double and a float overload
/// sharing one body: same accumulation order and contraction discipline
/// (the implementation TU keeps -ffp-contract=off), so each float kernel
/// is bit-identical to its own scalar float loop at every ISA width —
/// float is its own bit-reference, not required to match double bitwise.
void multiply_block_raw(const cdouble* a, std::size_t m, std::size_t k,
                        const cdouble* b, std::size_t n, cdouble* c);
void multiply_block_raw(const cfloat* a, std::size_t m, std::size_t k,
                        const cfloat* b, std::size_t n, cfloat* c);

/// out = a * b via the blocked kernel; \p out is resized/overwritten.
void multiply_block_into(const CMatrix& a, const CMatrix& b, CMatrix& out);

/// Blocked GEMM a * b: the multiply_block_raw contract on Matrix operands,
/// for block-of-draws workloads where a has thousands of rows.  Equal to
/// multiply(a, b) bit for bit on finite operands whenever a has no zero
/// entries (multiply skips those terms, which can flip a zero's sign).
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
