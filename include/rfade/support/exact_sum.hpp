#pragma once

/// \file exact_sum.hpp
/// \brief Order-invariant exact accumulation of IEEE doubles.
///
/// ExactSum is a fixed-point superaccumulator: every finite double is
/// decomposed into its exact 53-bit integer significand and added into a
/// wide array of base-2^32 limbs spanning the full double exponent range.
/// Because each add is exact integer arithmetic, the accumulated state —
/// and therefore value() — is a pure function of the *multiset* of inputs:
/// independent of add order, chunking, or thread/shard layout.  merge() is
/// limb-wise addition, so combining shard accumulators is exactly
/// associative and commutative.
///
/// This is what makes the service-layer validator accumulators
/// (service/accumulators.hpp) shard-mergeable with *bit-exact* equality:
/// a two-shard run merged equals the single-run answer, not merely up to
/// rounding.  The approach follows the "superaccumulator" line of exact
/// summation work (Kulisch accumulators; Collange et al.'s reproducible
/// BLAS).
///
/// The deposit: each term reads the sign, biased exponent and fraction
/// straight from the IEEE bit pattern, so x = ±M·2^(s - kPointShift)
/// with M < 2^53 the integer significand (implicit bit set for normals,
/// the raw fraction for subnormals) and s ≥ 52.  The fixed-point integer
/// |x|·2^kPointShift = M·2^s is then deposited as its three base-2^32
/// digits at limbs s/32 .. s/32 + 2, each negated under a sign mask —
/// no loop, no sign branch, no frexp/ldexp.  Base-2^32 digits of an
/// integer are unique, so every limb receives exactly what any other
/// exact decomposition of x (frexp's renormalised subnormals included)
/// would deposit: the limbs, value() and merge() depend only on the
/// inputs, not on how add() splits them.
///
/// The block add: add(span) folds a whole span at once and is exactly
/// equivalent to one scalar add() per element — the same count(), the
/// same canonical limbs, hence the same value() and merge().  It uses
/// error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
/// summation part I: faithful rounding", SIAM J. Sci. Comput. 31(1),
/// 2008, ExtractVector) on chunks of n ≤ 1024 terms.  With every
/// |x| < 2^e and σ = 2^(e+11), σ + x lies in [σ/2, 2σ], where doubles
/// are multiples of 2^(e-42): q = (σ + x) − σ is exact (Sterbenz) and
/// such a multiple, with |q| ≤ 2^e, and x − q is the rounding error of
/// σ + x, itself a double, so that subtraction is exact too.  The
/// chunk's Σq is then an integer multiple of 2^(e-42) of magnitude at
/// most n·2^e ≤ 2^(e+10), i.e. below 2^53 units — every partial sum is
/// exact in any order, vector lanes included — and is deposited once.
/// The residues x − q (|r| ≤ 2^(e-42)) go through the next level, each
/// level taking 41 more bits; two or three levels usually empty a
/// chunk.  Residues still nonzero after four levels, or when σ would
/// overflow (e > 1012) or the grid 2^(e-42) would drop below the normal
/// range (2^-1022), are deposited one by one.  The argument needs
/// IEEE round-to-nearest with subnormals kept (no FTZ/DAZ), which is
/// the default floating-point environment; the extraction levels run in
/// explicit vectors at each ISA's width.  The metrics tap and the
/// service accumulators fold whole columns this way: a block add of
/// 1024 Gaussian products costs ≈0.8 ns per term against ≈5–7 ns for
/// scalar adds (4-vCPU AVX-512 VM, g++ 12).

#include <bit>
#include <cstdint>
#include <span>

namespace rfade::support {

/// Exact, order-invariant sum of finite doubles.
///
/// Not thread-safe; accumulate per-thread/shard instances and merge().
class ExactSum {
 public:
  ExactSum() noexcept;

  /// Adds \p x exactly.  Throws rfade::ValueError (ErrorCode::DomainError)
  /// for NaN or infinity, before count() moves — a poisoned statistic
  /// should fail loudly, not silently saturate.
  void add(double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    if (((bits >> 52) & 0x7ffu) == 0x7ffu) [[unlikely]] {
      throw_non_finite();
    }
    ++count_;
    deposit(bits);
  }

  /// Adds every element of \p values exactly: equivalent to one add()
  /// per element, in any order (see the file comment).  All or nothing:
  /// a NaN or infinity anywhere throws ValueError (DomainError) before
  /// anything is deposited or count() moves.
  void add(std::span<const double> values);

  /// Number of terms folded in: scalar add()s plus block elements,
  /// including via merge().
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Folds \p other into this accumulator; exactly equivalent to having
  /// replayed all of other's add() calls here, in any order.
  void merge(const ExactSum& other) noexcept;

  /// The accumulated sum rounded back to double: a deterministic pure
  /// function of the accumulated *multiset* (order- and shard-invariant),
  /// faithful to the exact sum (the internal state is exact; only this
  /// final read-out rounds).
  [[nodiscard]] double value() const noexcept;

  /// Resets to the empty sum.
  void reset() noexcept;

 private:
  // Limbs in base 2^32 covering bit positions from below the smallest
  // subnormal contribution through above the largest finite double times
  // 2^63 of carry headroom.  Limb i holds a signed coefficient of
  // 2^(32*i - kPointShift); coefficients may drift past 2^32 between
  // normalizations (headroom tracked by pending_).
  static constexpr int kLimbs = 68;
  // Smallest contribution bit: a subnormal's significand scaled to an
  // integer occupies bit e - 53 with e >= -1073, so shift the fixed
  // point by 1126 to keep every index non-negative.
  static constexpr int kPointShift = 1126;
  // Normalize before signed-limb magnitudes can approach 2^63: each
  // deposit puts strictly less than 2^32 into any one limb, and a
  // canonical state starts below 2^32 per limb, so after k deposits
  // |limb| < (k+1)·2^32.
  // k = 2^20 keeps magnitudes under 2^53 — ample margin below 2^63.
  static constexpr std::uint64_t kNormalizeEvery = 1u << 20;

  [[noreturn]] static void throw_non_finite();
  void normalize() const noexcept;

  /// Deposits the finite double with IEEE pattern \p bits; count_ is the
  /// caller's.
  void deposit(std::uint64_t bits) {
    if ((bits << 1) == 0) {
      return;  // ±0
    }
    if (pending_ >= kNormalizeEvery) [[unlikely]] {
      normalize();
    }
    ++pending_;

    // |x| = M·2^(shift - kPointShift): a normal's biased exponent b gives
    // x = (2^52 | fraction)·2^(b - 1075), a subnormal's x = fraction ·
    // 2^(1 - 1075), so shift = max(b, 1) + kPointShift - 1075 ∈ [52, 2097].
    const auto biased = static_cast<std::uint32_t>(bits >> 52) & 0x7ffu;
    const std::uint64_t normal = biased != 0;
    const std::uint64_t significand =
        (bits & ((std::uint64_t{1} << 52) - 1)) | (normal << 52);
    const auto shift = static_cast<int>(biased + (normal ^ 1)) +
                       (kPointShift - 1075);
    const int idx = shift >> 5;
    const int rem = shift & 31;
    // M·2^rem < 2^84 as a 64-bit low word and the bits above it; the
    // split shift keeps rem = 0 defined.
    const std::uint64_t low = significand << rem;
    const std::uint64_t high = (significand >> 1) >> (63 - rem);
    // 0 for +x, all ones for -x: (d ^ sign) - sign is d or -d.
    const auto sign = -static_cast<std::int64_t>(bits >> 63);
    const auto digit = [sign](std::uint64_t d) {
      return (static_cast<std::int64_t>(d) ^ sign) - sign;
    };
    limbs_[idx] += digit(low & 0xffffffffu);
    limbs_[idx + 1] += digit(low >> 32);
    limbs_[idx + 2] += digit(high);
  }

  mutable std::int64_t limbs_[kLimbs];
  std::uint64_t count_ = 0;
  mutable std::uint64_t pending_ = 0;
};

}  // namespace rfade::support
