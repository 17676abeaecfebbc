// Per-core floating-point ceilings, and the coloring GEMM's share of them.
//
// On one thread of this process, measures the peak GFLOP/s of separate
// vector multiplies and adds (the mul+add ceiling: what a kernel without
// fused multiply-add can reach) and of fused multiply-adds (the FMA
// ceiling) at the widest vector the CPU runs — zmm with avx512f, ymm with
// avx2 + fma, else 16-byte vectors — in f64 and f32.  Then times the
// coloring GEMM numeric::multiply_block_planar (paper steps 7-8, the
// instant path's Z = W L^T) at M = 4096 rows and N in {4, 8, 16, 64},
// counting 8 M N^2 flops per call, and prints its GFLOP/s and its
// fraction of each ceiling.
//
// Informational, not a gate: the numbers depend on the machine and its
// load.  Each figure is the best of several timed repetitions.
//
// Usage: bench_fp_ceiling [--min-time SECONDS]   (per repetition; 0.05)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RFADE_FP_CEILING_X86 1
#include <immintrin.h>
#else
#define RFADE_FP_CEILING_X86 0
#endif

namespace {

using Clock = std::chrono::steady_clock;

template <typename T, std::size_t Bytes>
struct VectorOf {
  typedef T type __attribute__((vector_size(Bytes)));
};
template <typename T, std::size_t Bytes>
using Vector = typename VectorOf<T, Bytes>::type;

/// Independent dependency chains per loop: enough to cover a 4-cycle
/// latency on two ports, few enough (with two constants) for 16 registers.
constexpr int kChains = 12;

// The constants are read through volatiles so the compiler cannot fold
// x * 1 or x + 0; the chains then hold their values, with no subnormals.
volatile double g_one = 1.0;
volatile double g_zero = 0.0;
volatile double g_sink = 0.0;

template <typename T, std::size_t Bytes>
[[gnu::always_inline]] inline void splat(Vector<T, Bytes>& v, T value) {
  for (std::size_t l = 0; l < Bytes / sizeof(T); ++l) v[l] = value;
}

/// kChains / 2 multiply chains and kChains / 2 add chains, none feeding
/// the other, so nothing can be contracted: one flop per lane per op.
template <typename T, std::size_t Bytes>
[[gnu::always_inline]] inline void mul_add_loop(std::size_t iterations) {
  using V = Vector<T, Bytes>;
  V one;
  V zero;
  splat<T, Bytes>(one, static_cast<T>(g_one));
  splat<T, Bytes>(zero, static_cast<T>(g_zero));
  V acc[kChains];
  for (int c = 0; c < kChains; ++c) splat<T, Bytes>(acc[c], T(1 + c));
  for (std::size_t i = 0; i < iterations; ++i) {
    for (int c = 0; c < kChains / 2; ++c) acc[c] = acc[c] * one;
    for (int c = kChains / 2; c < kChains; ++c) acc[c] = acc[c] + zero;
  }
  T sum = 0;
  for (int c = 0; c < kChains; ++c) sum += acc[c][0];
  g_sink = sum;
}

/// kChains chains of acc = acc * 1 + 0, fused: two flops per lane per op.
/// Fma::apply(a, b, c) sets a = a * b + c with one rounding per lane.
template <typename T, std::size_t Bytes, typename Fma>
[[gnu::always_inline]] inline void fma_loop(std::size_t iterations) {
  using V = Vector<T, Bytes>;
  V one;
  V zero;
  splat<T, Bytes>(one, static_cast<T>(g_one));
  splat<T, Bytes>(zero, static_cast<T>(g_zero));
  V acc[kChains];
  for (int c = 0; c < kChains; ++c) splat<T, Bytes>(acc[c], T(1 + c));
  for (std::size_t i = 0; i < iterations; ++i) {
    for (int c = 0; c < kChains; ++c) Fma::apply(acc[c], one, zero);
  }
  T sum = 0;
  for (int c = 0; c < kChains; ++c) sum += acc[c][0];
  g_sink = sum;
}

/// Lane-wise std::fma: the portable fused form (one vector fma on targets
/// whose baseline has it, e.g. aarch64).
struct LaneFma {
  template <typename V>
  [[gnu::always_inline]] static void apply(V& a, const V& b, const V& c) {
    for (std::size_t l = 0; l < sizeof(V) / sizeof(a[0]); ++l) {
      a[l] = std::fma(a[l], b[l], c[l]);
    }
  }
};

/// One ISA tier of the probe: its vector name and width, and the four
/// timed loops (f64 / f32, mul+add / fma).
struct Tier {
  const char* name;
  std::size_t bytes;
  void (*mul_add_f64)(std::size_t);
  void (*mul_add_f32)(std::size_t);
  void (*fma_f64)(std::size_t);
  void (*fma_f32)(std::size_t);
};

void mul_add_f64_base(std::size_t n) { mul_add_loop<double, 16>(n); }
void mul_add_f32_base(std::size_t n) { mul_add_loop<float, 16>(n); }
void fma_f64_base(std::size_t n) { fma_loop<double, 16, LaneFma>(n); }
void fma_f32_base(std::size_t n) { fma_loop<float, 16, LaneFma>(n); }

#if RFADE_FP_CEILING_X86
/// vfmadd at ymm and zmm width; each helper inlines into the
/// [[gnu::flatten]] loop of its own target.
struct X86Fma {
  __attribute__((target("avx2,fma"))) static void apply(
      Vector<double, 32>& a, const Vector<double, 32>& b,
      const Vector<double, 32>& c) {
    a = _mm256_fmadd_pd(a, b, c);
  }
  __attribute__((target("avx2,fma"))) static void apply(
      Vector<float, 32>& a, const Vector<float, 32>& b,
      const Vector<float, 32>& c) {
    a = _mm256_fmadd_ps(a, b, c);
  }
  __attribute__((target("avx512f"))) static void apply(
      Vector<double, 64>& a, const Vector<double, 64>& b,
      const Vector<double, 64>& c) {
    a = _mm512_fmadd_pd(a, b, c);
  }
  __attribute__((target("avx512f"))) static void apply(
      Vector<float, 64>& a, const Vector<float, 64>& b,
      const Vector<float, 64>& c) {
    a = _mm512_fmadd_ps(a, b, c);
  }
};

#define RFADE_FP_CEILING_LOOPS(suffix, isa, bytes)                           \
  __attribute__((target(isa))) void mul_add_f64_##suffix(std::size_t n) {    \
    mul_add_loop<double, bytes>(n);                                          \
  }                                                                          \
  __attribute__((target(isa))) void mul_add_f32_##suffix(std::size_t n) {    \
    mul_add_loop<float, bytes>(n);                                           \
  }                                                                          \
  [[gnu::flatten]] __attribute__((target(isa))) void fma_f64_##suffix(       \
      std::size_t n) {                                                       \
    fma_loop<double, bytes, X86Fma>(n);                                      \
  }                                                                          \
  [[gnu::flatten]] __attribute__((target(isa))) void fma_f32_##suffix(       \
      std::size_t n) {                                                       \
    fma_loop<float, bytes, X86Fma>(n);                                       \
  }
RFADE_FP_CEILING_LOOPS(avx2, "avx2,fma", 32)
RFADE_FP_CEILING_LOOPS(avx512, "avx512f", 64)
#undef RFADE_FP_CEILING_LOOPS
#endif

Tier widest_tier() {
#if RFADE_FP_CEILING_X86
  if (__builtin_cpu_supports("avx512f")) {
    return {"zmm (avx512f)", 64, mul_add_f64_avx512, mul_add_f32_avx512,
            fma_f64_avx512, fma_f32_avx512};
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {"ymm (avx2+fma)", 32, mul_add_f64_avx2, mul_add_f32_avx2,
            fma_f64_avx2, fma_f32_avx2};
  }
#endif
  return {"16-byte (baseline)", 16, mul_add_f64_base, mul_add_f32_base,
          fma_f64_base, fma_f32_base};
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Best seconds per call of \p run(count) over 5 repetitions, with count
/// doubled until one repetition lasts at least \p min_time.
template <typename Run>
double best_seconds_per_unit(Run run, double min_time) {
  std::size_t count = 1;
  for (;;) {
    const Clock::time_point start = Clock::now();
    run(count);
    if (seconds_since(start) >= min_time) break;
    count *= 2;
  }
  double best = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    run(count);
    best = std::min(best, seconds_since(start) / static_cast<double>(count));
  }
  return best;
}

/// GFLOP/s of one peak loop: kChains ops per iteration, each on
/// bytes / sizeof(T) lanes, at flops_per_op flops per lane.
double peak_gflops(void (*loop)(std::size_t), std::size_t lanes,
                   double flops_per_op, double min_time) {
  const double seconds = best_seconds_per_unit(
      [&](std::size_t count) { loop(count * 4096); }, min_time);
  return kChains * lanes * flops_per_op * 4096.0 / seconds * 1e-9;
}

/// GFLOP/s of multiply_block_planar at m rows, k = n = N.
template <typename T>
double gemm_gflops(std::size_t m, std::size_t n, double min_time) {
  rfade::random::Rng rng(0xF10A7 + n);
  std::vector<T> a_re(m * n), a_im(m * n), b_re(n * n), b_im(n * n);
  for (std::size_t i = 0; i < m * n; ++i) {
    const std::complex<double> w = rng.complex_gaussian(1.0);
    a_re[i] = static_cast<T>(w.real());
    a_im[i] = static_cast<T>(w.imag());
  }
  for (std::size_t i = 0; i < n * n; ++i) {
    const std::complex<double> l = rng.complex_gaussian(1.0);
    b_re[i] = static_cast<T>(l.real());
    b_im[i] = static_cast<T>(l.imag());
  }
  std::vector<std::complex<T>> c(m * n);
  const double seconds = best_seconds_per_unit(
      [&](std::size_t count) {
        for (std::size_t i = 0; i < count; ++i) {
          rfade::numeric::multiply_block_planar(a_re.data(), a_im.data(), m,
                                                n, b_re.data(), b_im.data(),
                                                n, c.data());
        }
      },
      min_time);
  g_sink = static_cast<double>(c[0].real());
  return 8.0 * static_cast<double>(m * n * n) / seconds * 1e-9;
}

}  // namespace

int main(int argc, char** argv) {
  double min_time = 0.05;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--min-time") == 0 && i + 1 < argc) {
      min_time = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: %s [--min-time SECONDS]\n", argv[0]);
      return 2;
    }
  }
  if (!(min_time > 0.0)) {
    std::fprintf(stderr, "--min-time must be positive\n");
    return 2;
  }

  const Tier tier = widest_tier();
  std::printf("widest vector: %s, one thread\n", tier.name);
  const std::size_t lanes_f64 = tier.bytes / 8;
  const std::size_t lanes_f32 = tier.bytes / 4;
  const double mul_add_f64 =
      peak_gflops(tier.mul_add_f64, lanes_f64, 1.0, min_time);
  const double fma_f64 = peak_gflops(tier.fma_f64, lanes_f64, 2.0, min_time);
  const double mul_add_f32 =
      peak_gflops(tier.mul_add_f32, lanes_f32, 1.0, min_time);
  const double fma_f32 = peak_gflops(tier.fma_f32, lanes_f32, 2.0, min_time);
  std::printf("ceiling f64  mul+add %7.1f GFLOP/s  fma %7.1f GFLOP/s\n",
              mul_add_f64, fma_f64);
  std::printf("ceiling f32  mul+add %7.1f GFLOP/s  fma %7.1f GFLOP/s\n",
              mul_add_f32, fma_f32);

  constexpr std::size_t kRows = 4096;
  std::printf("coloring GEMM (multiply_block_planar), M = %zu, 8 M N^2 flops\n",
              kRows);
  for (const bool f32 : {false, true}) {
    const double mul_add = f32 ? mul_add_f32 : mul_add_f64;
    const double fma = f32 ? fma_f32 : fma_f64;
    for (const std::size_t n : {4u, 8u, 16u, 64u}) {
      const double gflops = f32 ? gemm_gflops<float>(kRows, n, min_time)
                                : gemm_gflops<double>(kRows, n, min_time);
      std::printf(
          "gemm %s N=%-3zu %7.1f GFLOP/s  %5.2f of mul+add  %5.2f of fma\n",
          f32 ? "f32" : "f64", n, gflops, gflops / mul_add, gflops / fma);
    }
  }
  return 0;
}
