// Built with relaxed-FP options (see CMakeLists.txt) so the split loops
// below vectorize against libmvec; everything integer-side is exact Philox.

#include "rfade/random/bulk_gaussian.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>

#include "rfade/random/engine.hpp"
#include "rfade/random/philox.hpp"
#include "rfade/support/simd.hpp"

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

/// Samples first_sample..first_sample+count-1 of the substream in
/// precision \p T.
template <typename T>
void fill_planar(std::uint64_t seed, std::uint64_t stream, double variance,
                 std::uint64_t first_sample, std::size_t count, T* re,
                 T* im) {
  const std::array<std::uint32_t, 2> key = {
      static_cast<std::uint32_t>(seed),
      static_cast<std::uint32_t>(seed >> 32)};
  const auto stream_lo = static_cast<std::uint32_t>(stream);
  const auto stream_hi = static_cast<std::uint32_t>(stream >> 32);
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
    for (std::size_t t = 0; t < m; ++t) {
      const std::uint64_t index = first_sample + base + t;
      const std::array<std::uint32_t, 4> words = detail::philox_block(
          key, {static_cast<std::uint32_t>(index),
                static_cast<std::uint32_t>(index >> 32), stream_lo,
                stream_hi});
      if constexpr (std::is_same_v<T, double>) {
        // Counter -> uniforms: block t gives u in (0, 1] (log-safe) and
        // the angle uniform v in [0, 1), exactly as Rng's Box-Muller
        // consumes them.
        const std::uint64_t bits01 =
            (static_cast<std::uint64_t>(words[1]) << 32) | words[0];
        const std::uint64_t bits23 =
            (static_cast<std::uint64_t>(words[3]) << 32) | words[2];
        u[t] = 1.0 - to_unit_double(bits01);
        v[t] = kTwoPi * to_unit_double(bits23);
      } else {
        // Counter -> float uniforms: one 32-bit word per uniform.
        // (words[0] + 1) * 2^-32 lands in (0, 1] after rounding (log-safe,
        // the float analogue of 1 - to_unit_double), and words[2] * 2^-32
        // in [0, 1) scales to the angle.
        u[t] = static_cast<float>(static_cast<std::uint64_t>(words[0]) + 1) *
               0x1p-32f;
        v[t] = kTwoPiF * (static_cast<float>(words[2]) * 0x1p-32f);
      }
    }
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
