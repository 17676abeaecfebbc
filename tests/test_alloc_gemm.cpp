// Allocation audit of the hot kernels.  After one warm-up call per
// thread, the coloring GEMMs multiply_block_raw and multiply_block_planar
// make no heap allocation at the stream (N = 16) and instant (N = 64)
// shapes, in both precisions; neither do the FFT plan's transform /
// transform_batched nor the batched overlap-save sweep
// OverlapSaveBatch::fill_block.  The bulk Gaussian fill
// fill_complex_gaussians_planar makes none at all, warm-up or not.  An
// enabled metrics::MetricsTap's observe (level crossings, ACF and mutual
// information, f64 and f32 blocks) makes none after one warm-up block.  A
// replaced global operator new counts allocations per thread, so gtest's
// own bookkeeping on other threads never leaks in.

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "rfade/doppler/branch_source.hpp"
#include "rfade/fft/fft.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/telemetry/registry.hpp"

namespace {

thread_local std::size_t t_allocations = 0;

}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace rfade;

/// Operands for one (m x n) * (n x n) product, allocated up front.
template <typename T>
struct GemmOperands {
  explicit GemmOperands(std::size_t n)
      : n(n),
        a(kRows * n, std::complex<T>(T(0.5), T(-0.25))),
        b(n * n, std::complex<T>(T(-1), T(2))),
        a_re(kRows * n, T(0.5)),
        a_im(kRows * n, T(-0.25)),
        b_re(n * n, T(-1)),
        b_im(n * n, T(2)),
        c(kRows * n) {}

  void multiply() {
    numeric::multiply_block_raw(a.data(), kRows, n, b.data(), n, c.data());
    numeric::multiply_block_planar(a_re.data(), a_im.data(), kRows, n,
                                   b_re.data(), b_im.data(), n, c.data());
  }

  static constexpr std::size_t kRows = 64;
  std::size_t n;
  std::vector<std::complex<T>> a;
  std::vector<std::complex<T>> b;
  std::vector<T> a_re;
  std::vector<T> a_im;
  std::vector<T> b_re;
  std::vector<T> b_im;
  std::vector<std::complex<T>> c;
};

/// Heap allocations made by the calling thread during the steady-state
/// products at N = 16 and N = 64, after one warm-up at the larger shape.
template <typename T>
std::size_t steady_state_allocations() {
  GemmOperands<T> small(16);
  GemmOperands<T> large(64);
  large.multiply();
  const std::size_t before = t_allocations;
  small.multiply();
  large.multiply();
  small.multiply();
  return t_allocations - before;
}

TEST(AllocGemm, CountingOperatorNewSeesVectorAllocations) {
  const std::size_t before = t_allocations;
  std::vector<double> v(100);
  EXPECT_EQ(t_allocations - before, 1u);
}

TEST(AllocGemm, SteadyStateGemmsAllocateNothing) {
  EXPECT_EQ(steady_state_allocations<double>(), 0u);
  EXPECT_EQ(steady_state_allocations<float>(), 0u);
}

TEST(AllocGemm, SteadyStateGemmsAllocateNothingOnAFreshThread) {
  std::size_t f64 = 1;
  std::size_t f32 = 1;
  std::thread worker([&] {
    f64 = steady_state_allocations<double>();
    f32 = steady_state_allocations<float>();
  });
  worker.join();
  EXPECT_EQ(f64, 0u);
  EXPECT_EQ(f32, 0u);
}

/// Heap allocations made by the calling thread while filling \p count
/// samples (the instant N = 64 block's 262,144, and a count that is not a
/// multiple of any vector width), output buffers allocated up front.
template <typename T>
std::size_t fill_allocations(std::size_t count) {
  std::vector<T> re(count);
  std::vector<T> im(count);
  const std::size_t before = t_allocations;
  random::fill_complex_gaussians_planar(0xA110C, 3, 1.0, /*first_sample=*/5,
                                        count, re.data(), im.data());
  return t_allocations - before;
}

constexpr std::size_t kInstantSamples = 262144;
constexpr std::size_t kRaggedSamples = 262147;

TEST(AllocFill, BulkFillsAllocateNothing) {
  for (const std::size_t count : {kInstantSamples, kRaggedSamples}) {
    EXPECT_EQ(fill_allocations<double>(count), 0u) << count;
    EXPECT_EQ(fill_allocations<float>(count), 0u) << count;
  }
}

TEST(AllocFill, BulkFillsAllocateNothingOnAFreshThread) {
  for (const std::size_t count : {kInstantSamples, kRaggedSamples}) {
    std::size_t f64 = 1;
    std::size_t f32 = 1;
    std::thread worker([&] {
      f64 = fill_allocations<double>(count);
      f32 = fill_allocations<float>(count);
    });
    worker.join();
    EXPECT_EQ(f64, 0u) << count;
    EXPECT_EQ(f32, 0u) << count;
  }
}

/// Heap allocations made by the calling thread during steady-state
/// transforms of every form at n = 8192, after one warm-up of each.
template <typename T>
std::size_t transform_allocations() {
  constexpr std::size_t kN = 8192;
  constexpr std::size_t kLanes = 8;
  const fft::BasicPow2Plan<T> plan(kN);
  std::vector<std::complex<T>> x(kN, std::complex<T>(T(0.5), T(-1)));
  std::vector<std::complex<T>> y(kN);
  const std::vector<std::complex<T>> h(kN, std::complex<T>(T(2), T(1)));
  std::vector<T> re(kN * kLanes, T(1));
  std::vector<T> im(kN * kLanes, T(-2));
  std::vector<T> out_re(kN * kLanes);
  std::vector<T> out_im(kN * kLanes);
  const auto run = [&] {
    plan.transform(x, fft::Direction::Forward);
    plan.transform(x.data(), y.data(), fft::Direction::Inverse, h.data());
    plan.transform_batched(re.data(), im.data(), kLanes,
                           fft::Direction::Forward);
    plan.transform_batched(re.data(), im.data(), out_re.data(),
                           out_im.data(), kLanes, fft::Direction::Inverse,
                           h.data());
  };
  run();
  const std::size_t before = t_allocations;
  run();
  run();
  return t_allocations - before;
}

/// Heap allocations made by the calling thread during steady-state
/// overlap-save sweeps (N = 16, M = 1024): in-order blocks (the shift
/// path) and a jump (both halves regenerated), after one warm-up block.
template <typename T>
std::size_t sweep_allocations() {
  constexpr std::size_t kBranches = 16;
  const auto design = std::make_shared<const doppler::BranchSourceDesign>(
      doppler::StreamBackend::OverlapSaveFir, 1024, 0.05, 0.5);
  std::vector<std::uint64_t> seeds(kBranches);
  for (std::size_t j = 0; j < kBranches; ++j) {
    seeds[j] = doppler::BranchSourceDesign::input_seed(99, j);
  }
  doppler::OverlapSaveBatch batch(design, seeds, std::is_same_v<T, float>);
  numeric::Matrix<std::complex<T>> w(design->block_size(), kBranches);
  batch.fill_block<T>(0, T(1), w, /*parallel=*/false);
  const std::size_t before = t_allocations;
  for (const std::uint64_t block : {1u, 2u, 9u, 10u}) {
    batch.fill_block<T>(block, T(1), w, /*parallel=*/false);
  }
  return t_allocations - before;
}

TEST(AllocFft, SteadyStateTransformsAllocateNothing) {
  EXPECT_EQ(transform_allocations<double>(), 0u);
  EXPECT_EQ(transform_allocations<float>(), 0u);
}

TEST(AllocFft, SteadyStateOverlapSaveSweepsAllocateNothing) {
  EXPECT_EQ(sweep_allocations<double>(), 0u);
  EXPECT_EQ(sweep_allocations<float>(), 0u);
}

TEST(AllocFft, SteadyStateAllocateNothingOnAFreshThread) {
  std::size_t counts[4] = {1, 1, 1, 1};
  std::thread worker([&] {
    counts[0] = transform_allocations<double>();
    counts[1] = transform_allocations<float>();
    counts[2] = sweep_allocations<double>();
    counts[3] = sweep_allocations<float>();
  });
  worker.join();
  for (const std::size_t count : counts) {
    EXPECT_EQ(count, 0u);
  }
}

/// Heap allocations made by the calling thread during steady-state
/// observes of an enabled tap (N = 8, M = 1024, lags up to 8, no
/// automatic publish), after one warm-up block.
template <typename T>
std::size_t tap_allocations() {
  constexpr std::size_t kBranches = 8;
  constexpr std::size_t kRows = 1024;
  telemetry::Registry registry;
  metrics::AnalyticReference reference;
  reference.normalized_doppler = 0.05;
  reference.branch_power.assign(kBranches, 1.0);
  reference.rayleigh = true;
  metrics::MetricsTapConfig config;
  config.publish_every_blocks = 0;
  config.registry = &registry;
  metrics::MetricsTap tap(reference, config);
  numeric::Matrix<std::complex<T>> block(kRows, kBranches);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block.data()[i] = std::complex<T>(T(0.001) * T(i % 997), T(-0.5));
  }
  tap.observe(block);
  const std::size_t before = t_allocations;
  for (int b = 0; b < 3; ++b) {
    tap.observe(block);
  }
  return t_allocations - before;
}

TEST(AllocMetrics, SteadyStateTapObservesAllocateNothing) {
  EXPECT_EQ(tap_allocations<double>(), 0u);
  EXPECT_EQ(tap_allocations<float>(), 0u);
}

TEST(AllocMetrics, SteadyStateTapObservesAllocateNothingOnAFreshThread) {
  std::size_t f64 = 1;
  std::size_t f32 = 1;
  std::thread worker([&] {
    f64 = tap_allocations<double>();
    f32 = tap_allocations<float>();
  });
  worker.join();
  EXPECT_EQ(f64, 0u);
  EXPECT_EQ(f32, 0u);
}

}  // namespace
