// Built with relaxed-FP options (see CMakeLists.txt) so the split
// Box-Muller loops vectorize against libmvec; only those log/sin/cos
// calls are ulp-level across ISA widths.  The counter -> uniform stage
// before them is exact: Philox is integer arithmetic, and each uniform
// is an exactly representable value (the angle then rounds once in its
// 2 pi multiply), so its scalar, avx2 and avx512f versions produce the
// same bits whatever -ffast-math reassociates or contracts.

#include "rfade/random/bulk_gaussian.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "rfade/random/engine.hpp"
#include "rfade/random/philox.hpp"
#include "rfade/support/simd.hpp"

#if RFADE_HAS_TARGET_VERSIONS
#include <immintrin.h>
#endif

namespace rfade::random {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;
constexpr float kTwoPiF = 6.28318530717958647692f;

/// Tile length: u/v/r scratch stays L1-resident while the vectorized
/// transcendental loops stream over it.
constexpr std::size_t kTile = 1024;

/// The Box-Muller transform over one tile, multiversioned so the libmvec
/// calls use the widest vector ISA the machine has (zmm log/sin/cos on
/// avx512f; twice the lanes in float).  Cross-ISA the contract is
/// ulp-level, not bitwise: libmvec's vector transcendentals differ by a
/// few ulp between the xmm/ymm/zmm variants (the multiplies here have no
/// adds, so FMA contraction is moot).  Within one process the ifunc
/// resolves a single clone, so purity across rfade's code paths stays
/// exact.
template <typename T>
RFADE_CLONE_BODY void box_muller_body(const T* __restrict u,
                                      const T* __restrict v,
                                      T* __restrict radius, T sigma_per_dim,
                                      std::size_t m, T* __restrict out_re,
                                      T* __restrict out_im) {
  for (std::size_t t = 0; t < m; ++t) {
    radius[t] = sigma_per_dim * std::sqrt(T{-2} * std::log(u[t]));
  }
  for (std::size_t t = 0; t < m; ++t) {
    out_re[t] = radius[t] * std::cos(v[t]);
  }
  for (std::size_t t = 0; t < m; ++t) {
    out_im[t] = radius[t] * std::sin(v[t]);
  }
}

RFADE_TARGET_CLONES_WIDE
void box_muller_tile(const double* u, const double* v, double* radius,
                     double sigma_per_dim, std::size_t m, double* out_re,
                     double* out_im) {
  box_muller_body(u, v, radius, sigma_per_dim, m, out_re, out_im);
}

RFADE_TARGET_CLONES_WIDE
void box_muller_tile(const float* u, const float* v, float* radius,
                     float sigma_per_dim, std::size_t m, float* out_re,
                     float* out_im) {
  box_muller_body(u, v, radius, sigma_per_dim, m, out_re, out_im);
}

/// One bulk substream: the Philox key and the upper counter words.
struct Substream {
  std::array<std::uint32_t, 2> key;
  std::uint32_t stream_lo;
  std::uint32_t stream_hi;
};

/// Counter -> uniforms for samples first + t, t in [begin, end), one
/// Philox block at a time.  This is the reference every vector version
/// reproduces bit for bit, and it computes their tails.
template <typename T>
void counter_uniforms_scalar(const Substream& s, std::uint64_t first,
                             std::size_t begin, std::size_t end, T* u,
                             T* v) {
  for (std::size_t t = begin; t < end; ++t) {
    const std::uint64_t index = first + t;
    const std::array<std::uint32_t, 4> words = detail::philox_block(
        s.key, {static_cast<std::uint32_t>(index),
                static_cast<std::uint32_t>(index >> 32), s.stream_lo,
                s.stream_hi});
    if constexpr (std::is_same_v<T, double>) {
      // The block gives u in (0, 1] (log-safe) and the angle uniform v
      // in [0, 1), exactly as Rng's Box-Muller consumes them.
      const std::uint64_t bits01 =
          (static_cast<std::uint64_t>(words[1]) << 32) | words[0];
      const std::uint64_t bits23 =
          (static_cast<std::uint64_t>(words[3]) << 32) | words[2];
      u[t] = 1.0 - to_unit_double(bits01);
      v[t] = kTwoPi * to_unit_double(bits23);
    } else {
      // One 32-bit word per uniform: (words[0] + 1) * 2^-32 lands in
      // (0, 1] after rounding (log-safe, the float analogue of
      // 1 - to_unit_double), and words[2] * 2^-32 in [0, 1) scales to
      // the angle.
      u[t] = static_cast<float>(static_cast<std::uint64_t>(words[0]) + 1) *
             0x1p-32f;
      v[t] = kTwoPiF * (static_cast<float>(words[2]) * 0x1p-32f);
    }
  }
}

// The counter -> uniform stage of one tile, one version per ISA: the
// scalar loop in the default version (the only one on aarch64 and in
// sanitizer builds), 4 counters per ymm in avx2, 8 per zmm in avx512f.
RFADE_TARGET_VERSION("default")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      double* u, double* v) {
  counter_uniforms_scalar(s, first, 0, m, u, v);
}

RFADE_TARGET_VERSION("default")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      float* u, float* v) {
  counter_uniforms_scalar(s, first, 0, m, u, v);
}

#if RFADE_HAS_TARGET_VERSIONS
// The vector versions hold one 32-bit Philox word per 64-bit lane, so one
// vpmuludq forms a round's full 32x32 -> 64-bit product.  The upper lane
// halves are don't-care: vpmuludq reads only the low half, and the words
// are truncated to 32 bits before use.  That spares a mask per round and
// lets vpshufd (port 5) bring each product's high word down instead of
// vpsrlq, which competes with vpmuludq for port 0.  Every helper carries
// its version's target: a target-specific intrinsic cannot be inlined
// into a target-less always_inline body.
//
// Uniforms, exactly as counter_uniforms_scalar forms them:
//  - f64: bits >> 11 == w_hi 2^21 + (w_lo >> 11), below 2^53.  Both
//    terms convert exactly, and every partial sum of 1, -w_hi 2^-32 and
//    -(w_lo >> 11) 2^-53 is a multiple of 2^-53 in [-1, 1], so u and v
//    are exact in any association -ffast-math picks.
//  - f32: w0 + 1 (up to 2^32) and w2 convert exactly to double and then
//    round once to float, like the scalar static_cast<float>.

/// Philox4x32-10 on 4 counters per ymm: one substream's round keys and
/// upper counter words, broadcast once per tile.
struct PhiloxX4 {
  RFADE_TARGET_VERSION("avx2")
  explicit PhiloxX4(const Substream& s)
      : stream_lo(_mm256_set1_epi64x(s.stream_lo)),
        stream_hi(_mm256_set1_epi64x(s.stream_hi)) {
    std::array<std::uint32_t, 2> key = s.key;
    for (auto& round_key : keys) {
      round_key[0] = _mm256_set1_epi64x(key[0]);
      round_key[1] = _mm256_set1_epi64x(key[1]);
      key[0] += detail::kPhiloxWeyl0;
      key[1] += detail::kPhiloxWeyl1;
    }
  }

  /// Each lane's high word, moved to its low half (dwords 1, 1, 3, 3 of
  /// every 128 bits).
  RFADE_TARGET_VERSION("avx2")
  [[gnu::always_inline]] static __m256i high_words(__m256i x) {
    return _mm256_shuffle_epi32(x, _MM_SHUFFLE(3, 3, 1, 1));
  }

  /// Philox's four output words, one vector per word.
  struct Block {
    __m256i word[4];
  };

  /// The blocks of counters index + 0..3.
  RFADE_TARGET_VERSION("avx2")
  [[gnu::always_inline]] Block operator()(std::uint64_t index) const {
    __m256i c0 = _mm256_add_epi64(
        _mm256_set1_epi64x(static_cast<long long>(index)),
        _mm256_setr_epi64x(0, 1, 2, 3));
    __m256i c1 = high_words(c0);
    __m256i c2 = stream_lo;
    __m256i c3 = stream_hi;
    for (const auto& round_key : keys) {
      const __m256i p0 =
          _mm256_mul_epu32(c0, _mm256_set1_epi64x(detail::kPhiloxMult0));
      const __m256i p1 =
          _mm256_mul_epu32(c2, _mm256_set1_epi64x(detail::kPhiloxMult1));
      c0 = _mm256_xor_si256(_mm256_xor_si256(high_words(p1), c1),
                            round_key[0]);
      c1 = p1;
      c2 = _mm256_xor_si256(_mm256_xor_si256(high_words(p0), c3),
                            round_key[1]);
      c3 = p0;
    }
    return {{c0, c1, c2, c3}};
  }

  __m256i keys[10][2];
  __m256i stream_lo;
  __m256i stream_hi;
};

/// The four words of \p w packed into an xmm.
RFADE_TARGET_VERSION("avx2")
[[gnu::always_inline]] inline __m128i packed(__m256i w) {
  return _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      w, _mm256_setr_epi32(0, 2, 4, 6, 0, 2, 4, 6)));
}

/// Four unsigned words as exact doubles.  avx2 converts only signed
/// words, so w = 2 (w >> 1) + (w & 1), an exact integer sum.
RFADE_TARGET_VERSION("avx2")
[[gnu::always_inline]] inline __m256d to_f64(__m128i w) {
  return _mm256_cvtepi32_pd(_mm_srli_epi32(w, 1)) * 2.0 +
         _mm256_cvtepi32_pd(_mm_and_si128(w, _mm_set1_epi32(1)));
}

/// to_unit_double of the 64-bit words (hi, lo).
RFADE_TARGET_VERSION("avx2")
[[gnu::always_inline]] inline __m256d unit_f64(__m256i lo, __m256i hi) {
  return to_f64(packed(hi)) * 0x1p-32 +
         _mm256_cvtepi32_pd(_mm_srli_epi32(packed(lo), 11)) * 0x1p-53;
}

RFADE_TARGET_VERSION("avx2")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      double* u, double* v) {
  const PhiloxX4 philox(s);
  const std::size_t vector_end = m & ~std::size_t{3};
  for (std::size_t t = 0; t < vector_end; t += 4) {
    const auto block = philox(first + t);
    _mm256_storeu_pd(u + t, 1.0 - unit_f64(block.word[0], block.word[1]));
    _mm256_storeu_pd(v + t, kTwoPi * unit_f64(block.word[2], block.word[3]));
  }
  counter_uniforms_scalar(s, first, vector_end, m, u, v);
}

RFADE_TARGET_VERSION("avx2")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      float* u, float* v) {
  const PhiloxX4 philox(s);
  const std::size_t vector_end = m & ~std::size_t{3};
  for (std::size_t t = 0; t < vector_end; t += 4) {
    const auto block = philox(first + t);
    const __m256d u_exact = to_f64(packed(block.word[0])) + 1.0;
    const __m256d v_exact = to_f64(packed(block.word[2]));
    _mm_storeu_ps(u + t, _mm256_cvtpd_ps(u_exact) * 0x1p-32f);
    _mm_storeu_ps(v + t, kTwoPiF * (_mm256_cvtpd_ps(v_exact) * 0x1p-32f));
  }
  counter_uniforms_scalar(s, first, vector_end, m, u, v);
}

// The avx512f helpers use the zero-masking intrinsics with a full mask:
// they compile to the same unmasked instructions, while GCC 12's unmasked
// forms start from a self-initialised undefined vector that -Wall flags.
constexpr __mmask8 kAllLanes = 0xFF;
constexpr __mmask16 kAllWords = 0xFFFF;

/// Philox4x32-10 on 8 counters per zmm: one substream's round keys and
/// upper counter words, broadcast once per tile.
struct PhiloxX8 {
  RFADE_TARGET_VERSION("avx512f")
  explicit PhiloxX8(const Substream& s)
      : stream_lo(_mm512_set1_epi64(s.stream_lo)),
        stream_hi(_mm512_set1_epi64(s.stream_hi)) {
    std::array<std::uint32_t, 2> key = s.key;
    for (auto& round_key : keys) {
      round_key[0] = _mm512_set1_epi64(key[0]);
      round_key[1] = _mm512_set1_epi64(key[1]);
      key[0] += detail::kPhiloxWeyl0;
      key[1] += detail::kPhiloxWeyl1;
    }
  }

  /// Each lane's high word, moved to its low half (dwords 1, 1, 3, 3 of
  /// every 128 bits).
  RFADE_TARGET_VERSION("avx512f")
  [[gnu::always_inline]] static __m512i high_words(__m512i x) {
    return _mm512_maskz_shuffle_epi32(kAllWords, x, _MM_PERM_DDBB);
  }

  /// Philox's four output words, one vector per word.
  struct Block {
    __m512i word[4];
  };

  /// The blocks of counters index + 0..7.
  RFADE_TARGET_VERSION("avx512f")
  [[gnu::always_inline]] Block operator()(std::uint64_t index) const {
    __m512i c0 =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(index)),
                         _mm512_setr_epi64(0, 1, 2, 3, 4, 5, 6, 7));
    __m512i c1 = high_words(c0);
    __m512i c2 = stream_lo;
    __m512i c3 = stream_hi;
    for (const auto& round_key : keys) {
      const __m512i p0 = _mm512_maskz_mul_epu32(
          kAllLanes, c0, _mm512_set1_epi64(detail::kPhiloxMult0));
      const __m512i p1 = _mm512_maskz_mul_epu32(
          kAllLanes, c2, _mm512_set1_epi64(detail::kPhiloxMult1));
      c0 = _mm512_xor_si512(_mm512_xor_si512(high_words(p1), c1),
                            round_key[0]);
      c1 = p1;
      c2 = _mm512_xor_si512(_mm512_xor_si512(high_words(p0), c3),
                            round_key[1]);
      c3 = p0;
    }
    return {{c0, c1, c2, c3}};
  }

  __m512i keys[10][2];
  __m512i stream_lo;
  __m512i stream_hi;
};

/// The eight words of \p w packed into a ymm (vpmovqd truncates).
RFADE_TARGET_VERSION("avx512f")
[[gnu::always_inline]] inline __m256i packed(__m512i w) {
  return _mm512_maskz_cvtepi64_epi32(kAllLanes, w);
}

/// Eight unsigned words as exact doubles.
RFADE_TARGET_VERSION("avx512f")
[[gnu::always_inline]] inline __m512d to_f64(__m256i w) {
  return _mm512_maskz_cvtepu32_pd(kAllLanes, w);
}

/// to_unit_double of the 64-bit words (hi, lo).
RFADE_TARGET_VERSION("avx512f")
[[gnu::always_inline]] inline __m512d unit_f64(__m512i lo, __m512i hi) {
  return to_f64(packed(hi)) * 0x1p-32 +
         to_f64(_mm256_srli_epi32(packed(lo), 11)) * 0x1p-53;
}

/// Rounds eight exact doubles once to float.
RFADE_TARGET_VERSION("avx512f")
[[gnu::always_inline]] inline __m256 to_f32(__m512d x) {
  return _mm512_maskz_cvtpd_ps(kAllLanes, x);
}

RFADE_TARGET_VERSION("avx512f")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      double* u, double* v) {
  const PhiloxX8 philox(s);
  const std::size_t vector_end = m & ~std::size_t{7};
  for (std::size_t t = 0; t < vector_end; t += 8) {
    const auto block = philox(first + t);
    _mm512_storeu_pd(u + t, 1.0 - unit_f64(block.word[0], block.word[1]));
    _mm512_storeu_pd(v + t, kTwoPi * unit_f64(block.word[2], block.word[3]));
  }
  counter_uniforms_scalar(s, first, vector_end, m, u, v);
}

RFADE_TARGET_VERSION("avx512f")
void counter_uniforms(const Substream& s, std::uint64_t first, std::size_t m,
                      float* u, float* v) {
  const PhiloxX8 philox(s);
  const std::size_t vector_end = m & ~std::size_t{7};
  for (std::size_t t = 0; t < vector_end; t += 8) {
    const auto block = philox(first + t);
    const __m512d u_exact = to_f64(packed(block.word[0])) + 1.0;
    const __m512d v_exact = to_f64(packed(block.word[2]));
    _mm256_storeu_ps(u + t, to_f32(u_exact) * 0x1p-32f);
    _mm256_storeu_ps(v + t, kTwoPiF * (to_f32(v_exact) * 0x1p-32f));
  }
  counter_uniforms_scalar(s, first, vector_end, m, u, v);
}
#endif

/// Samples first_sample..first_sample+count-1 of the substream in
/// precision \p T.
template <typename T>
void fill_planar(std::uint64_t seed, std::uint64_t stream, double variance,
                 std::uint64_t first_sample, std::size_t count, T* re,
                 T* im) {
  const Substream substream = {
      {static_cast<std::uint32_t>(seed),
       static_cast<std::uint32_t>(seed >> 32)},
      static_cast<std::uint32_t>(stream),
      static_cast<std::uint32_t>(stream >> 32)};
  const T sigma_per_dim = static_cast<T>(std::sqrt(0.5 * variance));
  // The widest clone's vector width: one zmm, 8 doubles or 16 floats.
  constexpr std::size_t kLanes = 64 / sizeof(T);

  // 64-byte-aligned tile-local buffers: the vectorized loops must never
  // peel for alignment or fall into a narrower-width epilogue, because
  // libmvec's xmm/ymm/zmm transcendentals differ in the low bits — an
  // element computed at a different width would break the positional
  // purity contract (the value at an absolute sample index must not
  // depend on how the enclosing fill calls are partitioned).
  alignas(64) T u[kTile];
  alignas(64) T v[kTile];
  alignas(64) T radius[kTile];
  alignas(64) T tile_re[kTile];
  alignas(64) T tile_im[kTile];

  for (std::size_t base = 0; base < count; base += kTile) {
    const std::size_t m = std::min(kTile, count - base);
    counter_uniforms(substream, first_sample + base, m, u, v);
    // Pad the tile to the widest clone's vector width with log-safe
    // dummies, so every real element goes through the full-width loop
    // body — see the purity note above.
    const std::size_t padded = (m + kLanes - 1) & ~(kLanes - 1);
    for (std::size_t t = m; t < padded; ++t) {
      u[t] = T{1};
      v[t] = T{0};
    }
    // Split loops: each maps 1:1 onto a libmvec vector call.
    box_muller_tile(u, v, radius, sigma_per_dim, padded, tile_re, tile_im);
    std::copy(tile_re, tile_re + m, re + base);
    std::copy(tile_im, tile_im + m, im + base);
  }
}

}  // namespace

void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance, std::size_t count,
                                   double* re, double* im) {
  fill_planar(seed, stream, variance, /*first_sample=*/0, count, re, im);
}

void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance,
                                   std::uint64_t first_sample,
                                   std::size_t count, double* re, double* im) {
  fill_planar(seed, stream, variance, first_sample, count, re, im);
}

void fill_complex_gaussians_planar(std::uint64_t seed, std::uint64_t stream,
                                   double variance,
                                   std::uint64_t first_sample,
                                   std::size_t count, float* re, float* im) {
  fill_planar(seed, stream, variance, first_sample, count, re, im);
}

}  // namespace rfade::random
