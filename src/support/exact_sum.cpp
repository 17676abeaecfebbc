#include "rfade/support/exact_sum.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "rfade/support/error.hpp"
#include "rfade/support/simd.hpp"

namespace rfade::support {

// --- Block add: error-free extraction kernels --------------------------------

namespace {

/// GCC/Clang generic vectors of Bytes / 8 doubles and of as many int64
/// lanes.  The extraction levels are written in these explicit vectors
/// (see support/simd.hpp); this TU is built with -ffp-contract=off, and
/// it holds no multiply to contract anyway.
template <std::size_t Bytes>
struct Lanes {
  typedef double Real __attribute__((vector_size(Bytes)));
  typedef std::int64_t Int __attribute__((vector_size(Bytes)));
  static constexpr std::size_t kCount = Bytes / sizeof(double);
};

/// Chunk length of the block add: σ = 2^(e + kChunkBits) needs
/// 2^kChunkBits ≥ n + 2 terms per chunk.
constexpr int kChunkBits = 11;
constexpr std::size_t kChunk = 1024;
static_assert((std::size_t{1} << kChunkBits) >= kChunk + 2);
/// Every kernel walks two vectors per step, so chunks are zero-padded to
/// a multiple of two of the widest vector (64 bytes).
constexpr std::size_t kPad = 16;
static_assert(kChunk % kPad == 0);
/// Extraction levels before the leftover residues go one by one.
constexpr int kLevels = 4;

constexpr std::int64_t kMagnitudeMask = 0x7fffffffffffffff;
constexpr std::uint64_t kInfinityBits = 0x7ff0000000000000;

/// m = max(m, x) lane by lane (by reference: a bare vector argument or
/// return trips GCC's -Wpsabi note).
template <typename V>
[[gnu::always_inline]] inline void raise_to(V& m, const V& x) {
  const V greater = x > m;
  m = (x & greater) | (m & ~greater);
}

/// The largest sign-cleared bit pattern in x[0..n): for finite doubles
/// |x| orders as that pattern, and a NaN or infinity's pattern is at
/// least kInfinityBits, above every finite one.
template <std::size_t Bytes>
RFADE_CLONE_BODY std::uint64_t max_magnitude_body(const double* x,
                                                  std::size_t n) {
  using L = Lanes<Bytes>;
  using Int = typename L::Int;
  constexpr std::size_t kStep = 2 * L::kCount;
  const Int mask = Int{} + kMagnitudeMask;
  Int m0 = {};
  Int m1 = {};
  std::size_t i = 0;
  for (; i + kStep <= n; i += kStep) {
    Int a;
    Int b;
    std::memcpy(&a, x + i, Bytes);
    std::memcpy(&b, x + i + L::kCount, Bytes);
    raise_to(m0, a & mask);
    raise_to(m1, b & mask);
  }
  raise_to(m0, m1);
  std::int64_t m = 0;
  for (std::size_t l = 0; l < L::kCount; ++l) m = std::max(m, m0[l]);
  for (; i < n; ++i) {
    m = std::max(m, std::bit_cast<std::int64_t>(x[i]) & kMagnitudeMask);
  }
  return static_cast<std::uint64_t>(m);
}

/// One extraction level's exact total Σq and largest residue pattern.
struct Level {
  double total;
  std::uint64_t max_residue;
};

/// One ExtractVector level over r[0..n) in place, n a multiple of kPad:
/// q = (σ + r) − σ, r ← r − q.  Lane sums of q are exact in any order
/// (the file comment of exact_sum.hpp), so the lanes fold freely.
template <std::size_t Bytes>
RFADE_CLONE_BODY Level extract_body(double* r, std::size_t n, double sigma) {
  using L = Lanes<Bytes>;
  using Real = typename L::Real;
  using Int = typename L::Int;
  constexpr std::size_t kStep = 2 * L::kCount;
  const Real s = Real{} + sigma;
  const Int mask = Int{} + kMagnitudeMask;
  Real t0 = {};
  Real t1 = {};
  Int m0 = {};
  Int m1 = {};
  for (std::size_t i = 0; i < n; i += kStep) {
    Real a;
    Real b;
    std::memcpy(&a, r + i, Bytes);
    std::memcpy(&b, r + i + L::kCount, Bytes);
    const Real qa = (s + a) - s;
    const Real qb = (s + b) - s;
    a -= qa;
    b -= qb;
    std::memcpy(r + i, &a, Bytes);
    std::memcpy(r + i + L::kCount, &b, Bytes);
    t0 += qa;
    t1 += qb;
    Int ia;
    Int ib;
    std::memcpy(&ia, &a, Bytes);
    std::memcpy(&ib, &b, Bytes);
    raise_to(m0, ia & mask);
    raise_to(m1, ib & mask);
  }
  t0 += t1;
  raise_to(m0, m1);
  Level level{0.0, 0};
  std::int64_t m = 0;
  for (std::size_t l = 0; l < L::kCount; ++l) {
    level.total += t0[l];
    m = std::max(m, m0[l]);
  }
  level.max_residue = static_cast<std::uint64_t>(m);
  return level;
}

// One version per ISA, each at its register width: 16-byte vectors in the
// baseline (SSE2 / NEON), 32 in avx2, 64 in avx512f.
#define RFADE_EXACT_SUM_KERNELS(isa, bytes)                                  \
  RFADE_TARGET_VERSION(isa)                                                  \
  std::uint64_t max_magnitude(const double* x, std::size_t n) {              \
    return max_magnitude_body<bytes>(x, n);                                  \
  }                                                                          \
  RFADE_TARGET_VERSION(isa)                                                  \
  Level extract_level(double* r, std::size_t n, double sigma) {              \
    return extract_body<bytes>(r, n, sigma);                                 \
  }

RFADE_EXACT_SUM_KERNELS("default", 16)
#if RFADE_HAS_TARGET_VERSIONS
RFADE_EXACT_SUM_KERNELS("avx2", 32)
RFADE_EXACT_SUM_KERNELS("avx512f", 64)
#endif
#undef RFADE_EXACT_SUM_KERNELS

}  // namespace

// --- ExactSum ----------------------------------------------------------------

ExactSum::ExactSum() noexcept { reset(); }

void ExactSum::reset() noexcept {
  std::memset(limbs_, 0, sizeof(limbs_));
  count_ = 0;
  pending_ = 0;
}

void ExactSum::throw_non_finite() {
  throw ValueError("ExactSum::add: input must be finite");
}

void ExactSum::add(std::span<const double> values) {
  if (values.empty()) return;
  // The pre-scan: all or nothing, and its maximum bounds every chunk.
  const std::uint64_t top = max_magnitude(values.data(), values.size());
  if (top >= kInfinityBits) throw_non_finite();
  count_ += values.size();
  if (top == 0) return;  // only ±0

  alignas(64) double residue[kChunk];
  for (std::size_t begin = 0; begin < values.size(); begin += kChunk) {
    const std::size_t n = std::min(kChunk, values.size() - begin);
    const std::size_t padded = (n + kPad - 1) / kPad * kPad;
    std::memcpy(residue, values.data() + begin, n * sizeof(double));
    std::memset(residue + n, 0, (padded - n) * sizeof(double));
    std::uint64_t bound = top;  // every |r| of the chunk is <= this pattern
    for (int level = 0; level < kLevels && bound != 0; ++level) {
      // |r| < 2^e with e = biased exponent - 1022 (a subnormal bound
      // gives e = -1022 and falls back below).  σ = 2^(e + 11) must be
      // finite and the grid 2^(e - 42) normal.
      const int e = static_cast<int>(bound >> 52) - 1022;
      if (e + kChunkBits > 1023 || e + kChunkBits - 53 < -1022) break;
      const double sigma = std::bit_cast<double>(
          static_cast<std::uint64_t>(e + kChunkBits + 1023) << 52);
      const Level extracted = extract_level(residue, padded, sigma);
      deposit(std::bit_cast<std::uint64_t>(extracted.total));
      bound = extracted.max_residue;
    }
    if (bound != 0) {
      for (std::size_t i = 0; i < n; ++i) {
        deposit(std::bit_cast<std::uint64_t>(residue[i]));
      }
    }
  }
}

void ExactSum::normalize() const noexcept {
  // Canonicalize: low limbs in [0, 2^32), sign carried by the top limb.
  // The canonical state is the unique base-2^32 representation of the
  // exact integer total, so it is independent of add/merge order.
  std::int64_t carry = 0;
  for (int i = 0; i < kLimbs - 1; ++i) {
    const std::int64_t v = limbs_[i] + carry;
    carry = v >> 32;  // arithmetic shift: floor division by 2^32
    limbs_[i] = v - (carry << 32);
  }
  limbs_[kLimbs - 1] += carry;
  pending_ = 0;
}

void ExactSum::merge(const ExactSum& other) noexcept {
  normalize();
  other.normalize();
  for (int i = 0; i < kLimbs; ++i) {
    limbs_[i] += other.limbs_[i];
  }
  count_ += other.count_;
  pending_ = 1;  // limbs may sit one carry above canonical form
}

double ExactSum::value() const noexcept {
  normalize();
  // High-to-low read-out of the canonical state: every limb fits a double
  // exactly (< 2^32, except the signed top limb which stays far below
  // 2^53 in practice), so the only rounding is the final fold into the
  // 53-bit result.  Deterministic given the canonical state.
  double acc = 0.0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    if (limbs_[i] != 0) {
      acc += std::ldexp(static_cast<double>(limbs_[i]), 32 * i - kPointShift);
    }
  }
  return acc;
}

}  // namespace rfade::support
