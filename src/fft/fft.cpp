#include "rfade/fft/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "rfade/support/contracts.hpp"
#include "rfade/support/simd.hpp"

// NOTE: this translation unit is compiled with -ffp-contract=off (see
// CMakeLists.txt).  The butterfly kernel below promises the bits of the
// std::complex scalar reference at every ISA version, and the avx2 /
// avx512f versions would otherwise be free to contract mul+add into FMAs
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

// --- Butterfly kernel --------------------------------------------------------

namespace {

/// GCC/Clang generic vector of Bytes / sizeof(T) lanes.  The butterflies
/// are written in these explicit vectors (see support/simd.hpp).
template <typename T, std::size_t Bytes>
struct VectorOf {
  typedef T type __attribute__((vector_size(Bytes)));
};
template <typename T, std::size_t Bytes>
using Vector = typename VectorOf<T, Bytes>::type;

/// Planar data: point p, lane b at re[p * stride + b] / im[p * stride + b].
template <typename T>
struct PlanarBuffer {
  T* re;
  T* im;
  std::size_t stride;
};

/// One vector of Bytes / sizeof(T) lanes of every point of a planar
/// buffer (the buffer already offset to the slice's first lane): a unit
/// is one point's lanes, and a twiddle is one scalar, broadcast.
template <typename T, std::size_t Bytes>
struct PlanarSlice {
  using Buffer = PlanarBuffer<T>;
  using V = Vector<T, Bytes>;
  struct Unit {
    V re;
    V im;
  };
  using Twiddle = std::complex<T>;
  static constexpr std::size_t kPoints = 1;  ///< points per unit

  Buffer buffer;

  [[gnu::always_inline]] Unit load(std::size_t p) const {
    Unit u;
    std::memcpy(&u.re, buffer.re + p * buffer.stride, sizeof(V));
    std::memcpy(&u.im, buffer.im + p * buffer.stride, sizeof(V));
    return u;
  }
  [[gnu::always_inline]] void store(std::size_t p, const Unit& u) const {
    std::memcpy(buffer.re + p * buffer.stride, &u.re, sizeof(V));
    std::memcpy(buffer.im + p * buffer.stride, &u.im, sizeof(V));
  }
  [[gnu::always_inline]] static Twiddle twiddle(const std::complex<T>* w) {
    return *w;
  }
  /// x * w with std::complex's operands: (xr*wr - xi*wi, xr*wi + xi*wr).
  [[gnu::always_inline]] static Unit mul(const Unit& x, const Twiddle& w) {
    const T wr = w.real();
    const T wi = w.imag();
    return {x.re * wr - x.im * wi, x.re * wi + x.im * wr};
  }
  [[gnu::always_inline]] static Unit add(const Unit& a, const Unit& b) {
    return {a.re + b.re, a.im + b.im};
  }
  [[gnu::always_inline]] static Unit sub(const Unit& a, const Unit& b) {
    return {a.re - b.re, a.im - b.im};
  }
};

/// Interleaved data: point p at data[2p] (re), data[2p + 1] (im).
template <typename T>
struct InterleavedBuffer {
  T* data;
};

/// Bytes / (2 sizeof(T)) consecutive points of an interleaved buffer per
/// unit.  A twiddle unit is the table's (wr, wi) pairs w plus the
/// (-wi, wr) pairs derived from them in registers, so
///   x * w = (xr, xr) * (wr, wi) + (xi, xi) * (-wi, wr)
/// is, lane by lane, (xr*wr - xi*wi, xr*wi + xi*wr): the sign flip is
/// exact and x + (-y) == x - y.
template <typename T, std::size_t Bytes>
struct InterleavedRun {
  using Buffer = InterleavedBuffer<T>;
  using V = Vector<T, Bytes>;
  /// Vectors travel wrapped in structs between the (always inlined)
  /// helpers: a bare vector return trips GCC's -Wpsabi note.
  struct Unit {
    V v;
  };
  struct Twiddle {
    V w;
    V swapped;
  };
  static constexpr std::size_t kLanes = Bytes / sizeof(T);
  static constexpr std::size_t kPoints = kLanes / 2;
  using Lanes = std::make_index_sequence<kLanes>;

  Buffer buffer;

  [[gnu::always_inline]] Unit load(std::size_t p) const {
    Unit u;
    std::memcpy(&u.v, buffer.data + 2 * p, sizeof(V));
    return u;
  }
  [[gnu::always_inline]] void store(std::size_t p, const Unit& u) const {
    std::memcpy(buffer.data + 2 * p, &u.v, sizeof(V));
  }
  [[gnu::always_inline]] static Twiddle twiddle(const std::complex<T>* w) {
    Twiddle t;
    std::memcpy(&t.w, w, sizeof(V));
    t.swapped = swap_negate(t.w, Lanes{}).v;
    return t;
  }
  [[gnu::always_inline]] static Unit mul(const Unit& x, const Twiddle& w) {
    return {duplicate<false>(x.v, Lanes{}).v * w.w +
            duplicate<true>(x.v, Lanes{}).v * w.swapped};
  }
  [[gnu::always_inline]] static Unit add(const Unit& a, const Unit& b) {
    return {a.v + b.v};
  }
  [[gnu::always_inline]] static Unit sub(const Unit& a, const Unit& b) {
    return {a.v - b.v};
  }
  /// Lane l of the result is x[l & ~1] (Odd = false) or x[l | 1] (Odd =
  /// true): each point's real or imaginary part in both of its lanes.
  template <bool Odd, std::size_t... I>
  [[gnu::always_inline]] static Unit duplicate(const V& x,
                                               std::index_sequence<I...>) {
    return {__builtin_shufflevector(
        x, x, (Odd ? (I | 1) : (I & ~std::size_t{1}))...)};
  }
  /// (re, im) pairs -> (-im, re) pairs: a lane swap and an exact sign flip.
  template <std::size_t... I>
  [[gnu::always_inline]] static Unit swap_negate(
      const V& w, std::index_sequence<I...>) {
    return {__builtin_shufflevector(
        w, -w, ((I & 1) != 0 ? I - 1 : kLanes + I + 1)...)};
  }
};

/// One radix-2 stage of half-size h over points [first, first + count):
/// (p, p + h) with twiddle w[k] for p = block start + k.  With Post, each
/// result is then multiplied by post[p].
template <bool Post, typename K, typename T>
RFADE_CLONE_BODY void radix2_pass(const K& kernel, std::size_t h,
                                  std::size_t first, std::size_t count,
                                  const std::complex<T>* w,
                                  const std::complex<T>* post) {
  for (std::size_t s = first; s < first + count; s += 2 * h) {
    for (std::size_t k = 0; k < h; k += K::kPoints) {
      const std::size_t a = s + k;
      const auto x0 = kernel.load(a);
      const auto odd = K::mul(kernel.load(a + h), K::twiddle(w + k));
      auto y0 = K::add(x0, odd);
      auto y1 = K::sub(x0, odd);
      if constexpr (Post) {
        y0 = K::mul(y0, K::twiddle(post + a));
        y1 = K::mul(y1, K::twiddle(post + a + h));
      }
      kernel.store(a, y0);
      kernel.store(a + h, y1);
    }
  }
}

/// Stages of half-size h and 2h fused over points [first, first + count):
/// per block of 4h points and k < h, the four points a, a+h, a+2h, a+3h
/// (a = block start + k) stay in registers through both stages — first
/// (a, a+h) and (a+2h, a+3h) with twiddle w1[k], then (a, a+2h) with
/// w2[k] and (a+h, a+3h) with w2[k+h] — exactly the butterflies the two
/// separate stages run.  With Post, each result is then multiplied by
/// post at its point.
template <bool Post, typename K, typename T>
RFADE_CLONE_BODY void pair_pass(const K& kernel, std::size_t h,
                                std::size_t first, std::size_t count,
                                const std::complex<T>* w1,
                                const std::complex<T>* w2,
                                const std::complex<T>* post) {
  for (std::size_t s = first; s < first + count; s += 4 * h) {
    for (std::size_t k = 0; k < h; k += K::kPoints) {
      const std::size_t a = s + k;
      const auto t1 = K::twiddle(w1 + k);
      const auto x0 = kernel.load(a);
      const auto x2 = kernel.load(a + 2 * h);
      auto odd = K::mul(kernel.load(a + h), t1);
      const auto y0 = K::add(x0, odd);
      const auto y1 = K::sub(x0, odd);
      odd = K::mul(kernel.load(a + 3 * h), t1);
      const auto y2 = K::add(x2, odd);
      const auto y3 = K::sub(x2, odd);
      odd = K::mul(y2, K::twiddle(w2 + k));
      auto z0 = K::add(y0, odd);
      auto z2 = K::sub(y0, odd);
      odd = K::mul(y3, K::twiddle(w2 + k + h));
      auto z1 = K::add(y1, odd);
      auto z3 = K::sub(y1, odd);
      if constexpr (Post) {
        z0 = K::mul(z0, K::twiddle(post + a));
        z1 = K::mul(z1, K::twiddle(post + a + h));
        z2 = K::mul(z2, K::twiddle(post + a + 2 * h));
        z3 = K::mul(z3, K::twiddle(post + a + 3 * h));
      }
      kernel.store(a, z0);
      kernel.store(a + h, z1);
      kernel.store(a + 2 * h, z2);
      kernel.store(a + 3 * h, z3);
    }
  }
}

/// One pass (a radix-2 stage, or the stage pair h / 2h) over points
/// [first, first + count), at Bytes or — when a unit spans more points
/// than the stage's half-size — the widest narrower vector that fits.
/// Stage len's twiddles start at tw + len/2 - 1.
template <template <typename, std::size_t> class K, typename T,
          std::size_t Bytes, bool Post>
RFADE_CLONE_BODY void run_pass(const typename K<T, Bytes>::Buffer& buffer,
                               bool radix2, std::size_t h, std::size_t first,
                               std::size_t count, const std::complex<T>* tw,
                               const std::complex<T>* post) {
  using Kernel = K<T, Bytes>;
  if constexpr (Kernel::kPoints > 1) {
    if (h < Kernel::kPoints) {
      run_pass<K, T, Bytes / 2, Post>(buffer, radix2, h, first, count, tw,
                                      post);
      return;
    }
  }
  const Kernel kernel{buffer};
  if (radix2) {
    radix2_pass<Post>(kernel, h, first, count, tw + h - 1, post);
  } else {
    pair_pass<Post>(kernel, h, first, count, tw + h - 1, tw + 2 * h - 1,
                    post);
  }
}

template <template <typename, std::size_t> class K, typename T,
          std::size_t Bytes>
RFADE_CLONE_BODY void pass(const typename K<T, Bytes>::Buffer& buffer,
                           bool radix2, std::size_t h, std::size_t first,
                           std::size_t count, std::size_t n,
                           const std::complex<T>* tw,
                           const std::complex<T>* post) {
  // The pass that completes the transform applies the pointwise multiply.
  if (post != nullptr && (radix2 ? 2 * h : 4 * h) == n) {
    run_pass<K, T, Bytes, true>(buffer, radix2, h, first, count, tw, post);
  } else {
    run_pass<K, T, Bytes, false>(buffer, radix2, h, first, count, tw, post);
  }
}

/// Every butterfly stage of an n-point transform whose input is already
/// in bit-reversed order: a leading radix-2 stage when log2(n) is odd,
/// then stage pairs.  Passes whose blocks of 4h points fit in \p block
/// points run one block at a time (the block stays in L1); the others
/// sweep all n points.  Butterflies in disjoint blocks are independent,
/// so this only reorders them.
template <template <typename, std::size_t> class K, typename T,
          std::size_t Bytes>
RFADE_CLONE_BODY void butterfly_stages(
    const typename K<T, Bytes>::Buffer& buffer, std::size_t n,
    std::size_t block, const std::complex<T>* tw,
    const std::complex<T>* post) {
  if (n < 2) {
    return;
  }
  block = std::min(block, n);
  const bool odd = (std::countr_zero(n) & 1) != 0;
  const std::size_t first_h = odd ? 2 : 1;
  for (std::size_t base = 0; base < n; base += block) {
    if (odd) {
      pass<K, T, Bytes>(buffer, true, 1, base, block, n, tw, post);
    }
    for (std::size_t h = first_h; 4 * h <= block; h *= 4) {
      pass<K, T, Bytes>(buffer, false, h, base, block, n, tw, post);
    }
  }
  for (std::size_t h = first_h; 4 * h <= n; h *= 4) {
    if (4 * h > block) {
      pass<K, T, Bytes>(buffer, false, h, 0, n, n, tw, post);
    }
  }
}

/// Points per cache-resident block for \p point_bytes of data per point:
/// the largest power of two whose block fits in 32 KiB (L1 data caches
/// are 32-48 KiB), at least 4.
std::size_t block_points(std::size_t point_bytes) {
  std::size_t points = 4;
  while (2 * points * point_bytes <= (std::size_t{32} << 10)) {
    points *= 2;
  }
  return points;
}

/// The bit-reversal permutation of n points of Bytes each, \p stride
/// scalars apart (one lane slice of a planar buffer, or interleaved
/// complex points): point p of \p out is point rev[p] of \p in, moved
/// one vector per point (swapped in place when \p in is \p out).
template <typename T, std::size_t Bytes>
RFADE_CLONE_BODY void permute_slice(const T* in, T* out, std::size_t n,
                                    std::size_t stride,
                                    const std::uint32_t* rev) {
  using V = Vector<T, Bytes>;
  V x;
  V y;
  if (in == out) {
    for (std::size_t p = 0; p < n; ++p) {
      const std::size_t q = rev[p];
      if (p < q) {
        std::memcpy(&x, out + p * stride, sizeof(V));
        std::memcpy(&y, out + q * stride, sizeof(V));
        std::memcpy(out + p * stride, &y, sizeof(V));
        std::memcpy(out + q * stride, &x, sizeof(V));
      }
    }
    return;
  }
  for (std::size_t p = 0; p < n; ++p) {
    std::memcpy(&x, in + rev[p] * stride, sizeof(V));
    std::memcpy(out + p * stride, &x, sizeof(V));
  }
}

/// Planar form: every lane slice [j, j + Bytes / sizeof(T)) of the batch
/// is permuted and runs the stages in one vector per point; the lanes a
/// whole-width slice leaves run at each halving width down to one lane.
template <typename T, std::size_t Bytes>
RFADE_CLONE_BODY void planar_slices(const T* in_re, const T* in_im, T* re,
                                    T* im, std::size_t n, std::size_t batch,
                                    std::size_t j, std::size_t block,
                                    const std::uint32_t* rev,
                                    const std::complex<T>* tw,
                                    const std::complex<T>* post) {
  constexpr std::size_t kLanes = Bytes / sizeof(T);
  for (; j + kLanes <= batch; j += kLanes) {
    permute_slice<T, Bytes>(in_re + j, re + j, n, batch, rev);
    permute_slice<T, Bytes>(in_im + j, im + j, n, batch, rev);
    butterfly_stages<PlanarSlice, T, Bytes>({re + j, im + j, batch}, n,
                                            block, tw, post);
  }
  if constexpr (kLanes > 1) {
    planar_slices<T, Bytes / 2>(in_re, in_im, re, im, n, batch, j, block,
                                rev, tw, post);
  }
}

template <typename T, std::size_t Bytes>
RFADE_CLONE_BODY void planar_body(const T* in_re, const T* in_im, T* re,
                                  T* im, std::size_t n, std::size_t batch,
                                  const std::uint32_t* rev,
                                  const std::complex<T>* tw,
                                  const std::complex<T>* post) {
  planar_slices<T, Bytes>(in_re, in_im, re, im, n, batch, 0,
                          block_points(2 * batch * sizeof(T)), rev, tw,
                          post);
}

template <typename T, std::size_t Bytes>
RFADE_CLONE_BODY void interleaved_body(const std::complex<T>* in,
                                       std::complex<T>* out, std::size_t n,
                                       const std::uint32_t* rev,
                                       const std::complex<T>* tw,
                                       const std::complex<T>* post) {
  T* data = reinterpret_cast<T*>(out);
  permute_slice<T, sizeof(std::complex<T>)>(reinterpret_cast<const T*>(in),
                                            data, n, 2, rev);
  butterfly_stages<InterleavedRun, T, Bytes>(
      {data}, n, block_points(sizeof(std::complex<T>)), tw, post);
}

// One version per ISA, each at its register width: 16-byte vectors in the
// baseline (SSE2 / NEON), 32 in avx2, 64 in avx512f.
#define RFADE_FFT_KERNELS(isa, bytes)                                        \
  RFADE_TARGET_VERSION(isa)                                                  \
  void planar_kernel(const double* in_re, const double* in_im, double* re,   \
                     double* im, std::size_t n, std::size_t batch,           \
                     const std::uint32_t* rev, const cdouble* tw,            \
                     const cdouble* post) {                                  \
    planar_body<double, bytes>(in_re, in_im, re, im, n, batch, rev, tw,      \
                               post);                                        \
  }                                                                          \
  RFADE_TARGET_VERSION(isa)                                                  \
  void planar_kernel(const float* in_re, const float* in_im, float* re,      \
                     float* im, std::size_t n, std::size_t batch,            \
                     const std::uint32_t* rev, const cfloat* tw,             \
                     const cfloat* post) {                                   \
    planar_body<float, bytes>(in_re, in_im, re, im, n, batch, rev, tw,       \
                              post);                                         \
  }                                                                          \
  RFADE_TARGET_VERSION(isa)                                                  \
  void interleaved_kernel(const cdouble* in, cdouble* out, std::size_t n,    \
                          const std::uint32_t* rev, const cdouble* tw,       \
                          const cdouble* post) {                             \
    interleaved_body<double, bytes>(in, out, n, rev, tw, post);              \
  }                                                                          \
  RFADE_TARGET_VERSION(isa)                                                  \
  void interleaved_kernel(const cfloat* in, cfloat* out, std::size_t n,      \
                          const std::uint32_t* rev, const cfloat* tw,        \
                          const cfloat* post) {                              \
    interleaved_body<float, bytes>(in, out, n, rev, tw, post);               \
  }

RFADE_FFT_KERNELS("default", 16)
#if RFADE_HAS_TARGET_VERSIONS
RFADE_FFT_KERNELS("avx2", 32)
RFADE_FFT_KERNELS("avx512f", 64)
#endif
#undef RFADE_FFT_KERNELS

}  // namespace

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
  // Bit-reversal permutation.
  bit_reversed_.resize(n);
  std::size_t j = 0;
  for (std::size_t i = 0; i < n; ++i) {
    bit_reversed_[i] = static_cast<std::uint32_t>(j);
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
  transform(data.data(), data.data(), direction);
}

template <typename T>
void BasicPow2Plan<T>::transform(const Complex* in, Complex* out,
                                 Direction direction,
                                 const Complex* multiply_by) const {
  RFADE_EXPECTS(in != nullptr && out != nullptr, "Pow2Plan: null data");
  if (n_ == 1) {
    out[0] = in[0];
    if (multiply_by != nullptr) {
      out[0] *= multiply_by[0];
    }
    return;
  }
  const ComplexVector& twiddles =
      direction == Direction::Forward ? forward_twiddles_ : inverse_twiddles_;
  interleaved_kernel(in, out, n_, bit_reversed_.data(), twiddles.data(),
                     multiply_by);
}

template <typename T>
void BasicPow2Plan<T>::transform_batched(T* re, T* im, std::size_t batch,
                                         Direction direction) const {
  transform_batched(re, im, re, im, batch, direction);
}

template <typename T>
void BasicPow2Plan<T>::transform_batched(const T* in_re, const T* in_im,
                                         T* re, T* im, std::size_t batch,
                                         Direction direction,
                                         const Complex* multiply_by) const {
  RFADE_EXPECTS(in_re != nullptr && in_im != nullptr && re != nullptr &&
                    im != nullptr,
                "Pow2Plan::transform_batched: null data");
  if (n_ == 1) {
    for (std::size_t b = 0; b < batch; ++b) {
      Complex x(in_re[b], in_im[b]);
      if (multiply_by != nullptr) {
        x *= multiply_by[0];
      }
      re[b] = x.real();
      im[b] = x.imag();
    }
    return;
  }
  const ComplexVector& twiddles =
      direction == Direction::Forward ? forward_twiddles_ : inverse_twiddles_;
  planar_kernel(in_re, in_im, re, im, n_, batch, bit_reversed_.data(),
                twiddles.data(), multiply_by);
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
  work.resize(in.size());
  plan_->transform(in.data(), work.data(), Direction::Forward,
                   spectrum_.data());
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
  plan_->transform(work.data(), work.data(), Direction::Forward,
                   spectrum_.data());
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
