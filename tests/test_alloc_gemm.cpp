// Allocation audit of the coloring GEMMs: after one warm-up call per
// thread, multiply_block_raw and multiply_block_planar make no heap
// allocation at the stream (N = 16) and instant (N = 64) shapes, in both
// precisions.  A replaced global operator new counts allocations per
// thread, so gtest's own bookkeeping on other threads never leaks in.

#include <gtest/gtest.h>

#include <complex>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "rfade/numeric/matrix_ops.hpp"

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

}  // namespace
