#pragma once

/// \file bulk_gaussian.hpp
/// \brief Bulk, vectorizable complex-Gaussian generation on raw Philox
///        counter blocks — the RNG hot path of the batched SamplePipeline.
///
/// Sample t of the substream (seed, stream) consumes exactly Philox counter
/// block t: one block's four 32-bit words become the two uniforms of one
/// Box-Muller pair, re = r cos(2 pi v), im = r sin(2 pi v) with
/// r = sigma sqrt(-2 ln u) — the same construction as
/// Rng::complex_gaussian.  Because the mapping counter -> sample is pure,
/// any sub-range can be (re)generated independently, in any order, on any
/// thread: this is what makes the parallel sample_stream bit-identical for
/// every thread count.
///
/// The implementation runs the transform in split tile loops that the
/// compiler auto-vectorizes against libmvec (the translation unit builds
/// with relaxed-FP flags), so the output is *statistically* identical to —
/// but not the same bit-stream as — driving an Rng over the same engine
/// substream.  Use Rng/block_substream when bit-compatibility with the
/// per-draw paths is required; use this when throughput is.
///
/// Cross-ISA contract.  The counter -> uniform stage (Philox4x32-10 and
/// the (u, v) construction) is exact integer and exactly representable
/// arithmetic, vectorised per ISA (scalar default, 4 counters per ymm on
/// avx2, 8 per zmm on avx512f) and bit-identical at every width and in
/// every split between vector lanes and scalar tail.  Only the Box-Muller
/// transform's libmvec log/sin/cos are ulp-level across ISA widths, so
/// fills on machines of different vector width agree to a few ulp, not
/// bit for bit.  Within one process every fill is bit-exact and
/// positionally pure.

#include <cstddef>
#include <cstdint>

namespace rfade::random {

/// Fill the planar arrays re[0..count) / im[0..count) with i.i.d.
/// CN(0, \p variance) samples t = 0..count-1 of the Philox bulk substream
/// (\p seed, \p stream).  Deterministic: a pure function of
/// (seed, stream, variance, count) — thread- and call-order-free.
void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance, std::size_t count,
                                   double* re, double* im);

/// Stream-seekable form: samples first_sample..first_sample+count-1 of the
/// same substream (sample t consumes counter block t, so any two calls
/// whose ranges overlap agree bit-for-bit on the overlap).  This is how a
/// continuous source treats one substream as an unbounded input tape —
/// the overlap-save Doppler backend regenerates any window of its white
/// input stream from (seed, stream, offset) alone, which makes seeking
/// and multi-node fan-out pure key arithmetic.
void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance,
                                   std::uint64_t first_sample,
                                   std::size_t count, double* re, double* im);

/// Single-precision stream-seekable fill for the float32 emission
/// pipeline.  Same contract (sample t consumes Philox counter block t;
/// positionally pure at any ISA width and for any call partitioning),
/// but the uniforms and the Box-Muller transform run in float: sample t
/// draws u = (words[0] + 1) * 2^-32 in (0, 1] and
/// v = 2 pi words[2] * 2^-32, giving the float path its own
/// bit-reference — deterministic and seekable, but a different value
/// stream from the double fill.
void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance,
                                   std::uint64_t first_sample,
                                   std::size_t count, float* re, float* im);

/// The float fill under its historical name.
inline void fill_complex_gaussians_planar_f32(
    std::uint64_t seed, std::uint64_t stream, double variance,
    std::uint64_t first_sample, std::size_t count, float* re, float* im) {
  fill_complex_gaussians_planar(seed, stream, variance, first_sample, count,
                                re, im);
}

}  // namespace rfade::random
