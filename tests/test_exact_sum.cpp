// Tests for the ExactSum superaccumulator and the shard-mergeable
// service accumulators built on it: exactness, order/shard invariance,
// bit-identical merges, and the error taxonomy of the failure paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "rfade/numeric/matrix.hpp"
#include "rfade/service/accumulators.hpp"
#include "rfade/support/error.hpp"
#include "rfade/support/exact_sum.hpp"

namespace {

using namespace rfade;
using support::ExactSum;

std::vector<double> mixed_magnitude_values(std::size_t count,
                                           unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
  std::uniform_int_distribution<int> exponent(-300, 300);
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    values.push_back(std::ldexp(mantissa(rng), exponent(rng)));
  }
  return values;
}

TEST(ExactSum, EmptyIsZero) {
  const ExactSum sum;
  EXPECT_EQ(sum.value(), 0.0);
  EXPECT_EQ(sum.count(), 0u);
}

TEST(ExactSum, SimpleSumsAreExact) {
  ExactSum sum;
  sum.add(0.25);
  sum.add(0.5);
  sum.add(-0.125);
  EXPECT_EQ(sum.value(), 0.625);
  EXPECT_EQ(sum.count(), 3u);
}

TEST(ExactSum, CatastrophicCancellationIsExact) {
  // Naive double accumulation loses the 1.0 entirely: 1e300 + 1 == 1e300.
  ExactSum sum;
  sum.add(1e300);
  sum.add(1.0);
  sum.add(-1e300);
  EXPECT_EQ(sum.value(), 1.0);
}

TEST(ExactSum, TinyValuesSurviveHugeIntermediates) {
  ExactSum sum;
  sum.add(1e-300);
  sum.add(1e280);
  sum.add(-1e280);
  EXPECT_EQ(sum.value(), 1e-300);
}

TEST(ExactSum, SubnormalsAccumulateExactly) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  ExactSum sum;
  for (int i = 0; i < 7; ++i) {
    sum.add(tiny);
  }
  EXPECT_EQ(sum.value(), 7.0 * tiny);
}

TEST(ExactSum, OrderInvariantToTheBit) {
  const auto values = mixed_magnitude_values(5000, 12345);
  ExactSum forward;
  for (const double v : values) {
    forward.add(v);
  }
  auto shuffled = values;
  std::mt19937_64 rng(999);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  ExactSum reordered;
  for (const double v : shuffled) {
    reordered.add(v);
  }
  EXPECT_EQ(forward.value(), reordered.value());
}

TEST(ExactSum, MergeEqualsSingleAccumulatorExactly) {
  const auto values = mixed_magnitude_values(4096, 777);
  ExactSum single;
  for (const double v : values) {
    single.add(v);
  }
  // Any sharding, merged in any order, is bit-identical.
  for (const std::size_t split : {std::size_t{1}, std::size_t{1000},
                                  std::size_t{4095}}) {
    ExactSum a;
    ExactSum b;
    for (std::size_t i = 0; i < values.size(); ++i) {
      (i < split ? a : b).add(values[i]);
    }
    ExactSum ab = a;
    ab.merge(b);
    ExactSum ba = b;
    ba.merge(a);
    EXPECT_EQ(ab.value(), single.value());
    EXPECT_EQ(ba.value(), single.value());
    EXPECT_EQ(ab.count(), single.count());
  }
}

TEST(ExactSum, ManyAddsCrossNormalizationCadence) {
  // More adds than kNormalizeEvery, all equal: total must stay exact.
  const std::size_t n = (1u << 20) + 123;
  ExactSum sum;
  for (std::size_t i = 0; i < n; ++i) {
    sum.add(0.5);
  }
  EXPECT_EQ(sum.value(), 0.5 * static_cast<double>(n));
}

TEST(ExactSum, RejectsNonFinite) {
  ExactSum sum;
  EXPECT_THROW(sum.add(std::numeric_limits<double>::infinity()), ValueError);
  EXPECT_THROW(sum.add(std::numeric_limits<double>::quiet_NaN()), ValueError);
}

TEST(ExactSum, ResetClearsState) {
  ExactSum sum;
  sum.add(3.0);
  sum.reset();
  EXPECT_EQ(sum.value(), 0.0);
  EXPECT_EQ(sum.count(), 0u);
}

// --- deposit against the frexp/ldexp decomposition -------------------------

/// The frexp/ldexp deposit ExactSum::add used before it read the IEEE
/// fields directly, with the same limb layout, normalisation and value()
/// fold: the reference the bit-field deposit must reproduce exactly.
class FrexpExactSum {
 public:
  void add(double x) {
    if (x == 0.0) return;
    if (pending_ >= kNormalizeEvery) normalize();
    ++pending_;
    int e = 0;
    const double m = std::frexp(x, &e);
    const auto significand = static_cast<std::int64_t>(std::ldexp(m, 53));
    const int shift = e - 53 + kPointShift;
    const int idx = shift >> 5;
    const int rem = shift & 31;
    const bool negative = significand < 0;
    auto magnitude = static_cast<unsigned __int128>(
        negative ? -significand : significand);
    magnitude <<= rem;
    for (int i = idx; magnitude != 0; ++i, magnitude >>= 32) {
      const auto chunk = static_cast<std::int64_t>(
          static_cast<std::uint32_t>(magnitude & 0xffffffffu));
      limbs_[i] += negative ? -chunk : chunk;
    }
  }

  double value() {
    normalize();
    double acc = 0.0;
    for (int i = kLimbs - 1; i >= 0; --i) {
      if (limbs_[i] != 0) {
        acc += std::ldexp(static_cast<double>(limbs_[i]), 32 * i - kPointShift);
      }
    }
    return acc;
  }

 private:
  static constexpr int kLimbs = 68;
  static constexpr int kPointShift = 1126;
  static constexpr std::uint64_t kNormalizeEvery = 1u << 20;

  void normalize() {
    std::int64_t carry = 0;
    for (int i = 0; i < kLimbs - 1; ++i) {
      const std::int64_t v = limbs_[i] + carry;
      carry = v >> 32;
      limbs_[i] = v - (carry << 32);
    }
    limbs_[kLimbs - 1] += carry;
    pending_ = 0;
  }

  std::int64_t limbs_[kLimbs] = {};
  std::uint64_t pending_ = 0;
};

/// The exact total of \p sum as a sequence of doubles: read value(),
/// subtract it exactly, repeat until the accumulator is empty (a total
/// beyond the double range reads as ±inf and is peeled ±DBL_MAX at a
/// time).  Two accumulators peel to the same sequence iff their exact
/// totals (hence their canonical limbs) agree, down to the lowest limb.
template <typename Sum>
std::vector<double> peel(Sum sum) {
  std::vector<double> terms;
  for (int step = 0; step < 200; ++step) {
    double v = sum.value();
    if (v == 0.0) return terms;
    if (std::isinf(v)) v = std::copysign(DBL_MAX, v);
    terms.push_back(v);
    sum.add(-v);
  }
  ADD_FAILURE() << "peel did not terminate";
  return terms;
}

/// Feeds \p values to both deposits and compares value() and the peeled
/// exact totals.
void expect_same_as_frexp(const std::vector<double>& values) {
  ExactSum sum;
  FrexpExactSum reference;
  for (const double v : values) {
    sum.add(v);
    reference.add(v);
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.value()),
            std::bit_cast<std::uint64_t>(reference.value()));
  EXPECT_EQ(peel(sum), peel(reference));
  EXPECT_EQ(sum.count(), values.size());
}

/// Random finite doubles with every biased exponent equally likely
/// (subnormals included), random sign and fraction.
std::vector<double> full_range_values(std::size_t count, unsigned seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::uint64_t> exponent(0, 2046);
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t bits = (rng() & 0x800FFFFFFFFFFFFFULL) |
                               (exponent(rng) << 52);
    values.push_back(std::bit_cast<double>(bits));
  }
  return values;
}

TEST(ExactSumDeposit, FullExponentRangeMatchesFrexpDeposit) {
  for (const unsigned seed : {1u, 2u, 3u}) {
    expect_same_as_frexp(full_range_values(20000, seed));
  }
}

TEST(ExactSumDeposit, SubnormalsAndSignedZerosMatchFrexpDeposit) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  std::vector<double> values = {0.0, -0.0, tiny, -tiny, 3 * tiny,
                                min_normal, -min_normal,
                                std::nextafter(min_normal, 0.0),
                                -std::nextafter(min_normal, 0.0)};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 5000; ++i) {
    // Every subnormal fraction width, both signs.
    const std::uint64_t fraction = rng() >> (12 + i % 52);
    const double v = std::bit_cast<double>(fraction);
    values.push_back(i % 2 == 0 ? v : -v);
    if (i % 97 == 0) values.push_back(i % 3 == 0 ? 0.0 : -0.0);
  }
  expect_same_as_frexp(values);
  // A lone subnormal of each fraction width.
  for (int width = 1; width <= 52; ++width) {
    expect_same_as_frexp(
        {std::bit_cast<double>((std::uint64_t{1} << width) - 1)});
  }
}

TEST(ExactSumDeposit, ExtremesMatchFrexpDeposit) {
  expect_same_as_frexp({DBL_MAX});
  expect_same_as_frexp({-DBL_MAX});
  expect_same_as_frexp({DBL_MAX, DBL_MAX, DBL_MAX, -DBL_MAX, 1.0,
                        std::numeric_limits<double>::denorm_min()});
  expect_same_as_frexp({-DBL_MAX, std::numeric_limits<double>::min(),
                        -std::numeric_limits<double>::denorm_min()});
}

TEST(ExactSumDeposit, CancellationHeavySequencesMatchFrexpDeposit) {
  // Large terms cancel in a different order than they were added, so the
  // value lives entirely in the low limbs the small terms reached.
  for (const unsigned seed : {11u, 12u}) {
    std::vector<double> values = full_range_values(4000, seed);
    std::vector<double> negated;
    for (const double v : values) negated.push_back(-v);
    std::mt19937_64 rng(seed);
    std::shuffle(negated.begin(), negated.end(), rng);
    values.insert(values.end(), negated.begin(), negated.end());
    for (const double small : {std::numeric_limits<double>::denorm_min(),
                               std::ldexp(1.0, -1000), 1e-300, 3.0}) {
      values.push_back(small);
    }
    std::shuffle(values.begin(), values.end(), rng);
    expect_same_as_frexp(values);
  }
  // Near-cancellation: x and -nextafter(x) leave one ulp each.
  std::vector<double> ulps;
  for (const double x : full_range_values(3000, 13)) {
    ulps.push_back(x);
    ulps.push_back(-std::nextafter(x, 0.0));
  }
  expect_same_as_frexp(ulps);
}

TEST(ExactSumDeposit, NormaliseCadenceMatchesFrexpDeposit) {
  // More than 2^20 adds crosses the normalise cadence at least once.
  const std::size_t n = (std::size_t{1} << 20) + 4099;
  std::vector<double> values = full_range_values(n, 21);
  expect_same_as_frexp(values);
  // All same-signed and equal-exponent: every add lands on the same limbs,
  // the case the cadence bounds.
  std::vector<double> same(n);
  std::mt19937_64 rng(22);
  for (double& v : same) {
    v = std::bit_cast<double>((rng() & 0x000FFFFFFFFFFFFFULL) |
                              (std::uint64_t{1000} << 52));
  }
  expect_same_as_frexp(same);
}

TEST(ExactSumDeposit, MergeMatchesSinglePassOnFullRange) {
  const std::vector<double> values = full_range_values(30000, 31);
  ExactSum single;
  ExactSum left;
  ExactSum right;
  for (std::size_t i = 0; i < values.size(); ++i) {
    single.add(values[i]);
    (i % 3 == 0 ? left : right).add(values[i]);
  }
  left.merge(right);
  EXPECT_EQ(peel(left), peel(single));
  EXPECT_EQ(left.count(), single.count());
}

TEST(ExactSumDeposit, NonFiniteThrowsDomainErrorWithoutCounting) {
  ExactSum sum;
  sum.add(1.5);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    try {
      sum.add(bad);
      ADD_FAILURE() << "no throw for " << bad;
    } catch (const ValueError& error) {
      EXPECT_EQ(error.code(), ErrorCode::DomainError);
    }
    EXPECT_EQ(sum.count(), 1u);
  }
  EXPECT_EQ(sum.value(), 1.5);
}

// --- block add against scalar adds ------------------------------------------

/// Feeds \p values to one ExactSum through the block add and to another
/// one scalar add() at a time; the counts, value() bits and peeled exact
/// totals (hence the canonical limbs) must agree.
void expect_block_same_as_scalar(const std::vector<double>& values) {
  ExactSum block;
  block.add(std::span<const double>(values));
  ExactSum scalar;
  for (const double v : values) scalar.add(v);
  EXPECT_EQ(block.count(), scalar.count());
  EXPECT_EQ(std::bit_cast<std::uint64_t>(block.value()),
            std::bit_cast<std::uint64_t>(scalar.value()));
  EXPECT_EQ(peel(block), peel(scalar));
}

/// The lengths the block add's chunking and vector tails must get right.
const std::size_t kBlockLengths[] = {0,    1,    2,    7,    8,    9,
                                     15,   16,   17,   1023, 1024, 1025,
                                     2047, 2048, 2049, (1u << 16) + 3};

TEST(ExactSumBlock, FullExponentRangeMatchesScalarAdds) {
  unsigned seed = 40;
  for (const std::size_t n : kBlockLengths) {
    SCOPED_TRACE(n);
    expect_block_same_as_scalar(full_range_values(n, ++seed));
  }
}

TEST(ExactSumBlock, GaussianProductsMatchScalarAdds) {
  // The metrics tap's terms: lag products of unit-power samples.
  std::mt19937_64 rng(41);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (const std::size_t n : kBlockLengths) {
    SCOPED_TRACE(n);
    std::vector<double> values(n);
    for (double& v : values) v = normal(rng) * normal(rng);
    expect_block_same_as_scalar(values);
    for (double& v : values) v = std::log2(1.0 + 10.0 * std::abs(v));
    expect_block_same_as_scalar(values);
  }
}

TEST(ExactSumBlock, SubnormalsAndSignedZerosMatchScalarAdds) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  std::mt19937_64 rng(42);
  for (const std::size_t n : kBlockLengths) {
    SCOPED_TRACE(n);
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t fraction = rng() >> (12 + i % 52);
      const double v = std::bit_cast<double>(fraction);
      values[i] = i % 5 == 0   ? (i % 2 == 0 ? 0.0 : -0.0)
                  : i % 2 == 0 ? v
                               : -v;
    }
    expect_block_same_as_scalar(values);  // subnormals and zeros only
    if (n > 0) values[n / 2] = 1.0;       // one normal among them
    expect_block_same_as_scalar(values);
  }
  expect_block_same_as_scalar({0.0, -0.0, 0.0});
  expect_block_same_as_scalar({tiny, -tiny, 3 * tiny, min_normal,
                               -min_normal, std::nextafter(min_normal, 0.0)});
}

TEST(ExactSumBlock, TinyOnlySpansMatchScalarAdds) {
  // Maxima whose extraction grid 2^(e - 42) leaves the normal range: the
  // underflow fallback, on both sides of its boundary exponent.
  std::mt19937_64 rng(43);
  for (const int top : {-1023, -1000, -981, -980, -979, -970, -900}) {
    SCOPED_TRACE(top);
    for (const std::size_t n : {std::size_t{1}, std::size_t{9},
                                std::size_t{1025}}) {
      std::vector<double> values(n);
      std::uniform_int_distribution<int> exponent(-1074, top - 1);
      std::uniform_real_distribution<double> mantissa(-1.0, 1.0);
      for (double& v : values) v = std::ldexp(mantissa(rng), exponent(rng));
      values[0] = std::ldexp(0.75, top);  // max |x| just below 2^top
      expect_block_same_as_scalar(values);
    }
  }
}

TEST(ExactSumBlock, ExtremesMatchScalarAdds) {
  // ±DBL_MAX and maxima around 2^1012 exercise the overflow fallback and
  // the largest σ = 2^1023 it still allows.
  expect_block_same_as_scalar({DBL_MAX});
  expect_block_same_as_scalar({DBL_MAX, DBL_MAX, DBL_MAX, -DBL_MAX, 1.0,
                               std::numeric_limits<double>::denorm_min()});
  expect_block_same_as_scalar({-DBL_MAX, std::numeric_limits<double>::min(),
                               -std::numeric_limits<double>::denorm_min()});
  std::mt19937_64 rng(44);
  for (const double top :
       {std::ldexp(1.0, 1012), std::nextafter(std::ldexp(1.0, 1012), 0.0),
        std::ldexp(1.0, 1011), std::ldexp(1.0, 1013)}) {
    std::vector<double> values = full_range_values(1500, 45);
    for (double& v : values) {
      if (std::abs(v) > top) v = std::ldexp(v, -200);
    }
    values[7] = top;
    values[1200] = -top;
    expect_block_same_as_scalar(values);
  }
  // One huge term over many tiny ones: all four levels, then residues.
  std::vector<double> mixed = full_range_values(1024, 46);
  for (double& v : mixed) v = std::ldexp(v, -std::ilogb(v) - 300);
  mixed[3] = 1e300;
  expect_block_same_as_scalar(mixed);
}

TEST(ExactSumBlock, CancellationHeavySpansMatchScalarAdds) {
  for (const unsigned seed : {47u, 48u}) {
    std::vector<double> values = full_range_values(1500, seed);
    std::vector<double> negated;
    for (const double v : values) negated.push_back(-v);
    std::mt19937_64 rng(seed);
    std::shuffle(negated.begin(), negated.end(), rng);
    values.insert(values.end(), negated.begin(), negated.end());
    values.push_back(std::numeric_limits<double>::denorm_min());
    values.push_back(3.0);
    std::shuffle(values.begin(), values.end(), rng);
    expect_block_same_as_scalar(values);
  }
  std::vector<double> ulps;
  std::mt19937_64 rng(49);
  std::normal_distribution<double> normal(0.0, 1.0);
  for (int i = 0; i < 1500; ++i) {
    const double x = normal(rng);
    ulps.push_back(x);
    ulps.push_back(-std::nextafter(x, 0.0));
  }
  expect_block_same_as_scalar(ulps);
}

TEST(ExactSumBlock, SameSignNearMaximumSpansMatchScalarAdds) {
  // A full chunk of same-signed terms just below a power of two: the
  // extracted total reaches n·2^e, the bound the σ exponent is sized for.
  std::mt19937_64 rng(54);
  for (const int e : {-900, -3, 0, 5, 700, 1012}) {
    SCOPED_TRACE(e);
    for (const double sign : {1.0, -1.0}) {
      std::vector<double> values(1024 + 1024 + 300);
      for (double& v : values) {
        const std::uint64_t fraction =
            (rng() >> 12) | (std::uint64_t{0xfff} << 40);  // top bits set
        v = sign * std::ldexp(std::bit_cast<double>(
                                  fraction | (std::uint64_t{1022} << 52)),
                              e);
      }
      expect_block_same_as_scalar(values);
    }
  }
}

TEST(ExactSumBlock, MixesWithScalarAddsAndMerges) {
  // Random cuts into block adds, scalar adds and shards, merged in any
  // order, equal one scalar pass.
  const std::vector<double> values = full_range_values(9000, 50);
  ExactSum scalar;
  for (const double v : values) scalar.add(v);
  std::mt19937_64 rng(51);
  for (int trial = 0; trial < 4; ++trial) {
    std::vector<ExactSum> shards(3);
    std::size_t begin = 0;
    while (begin < values.size()) {
      const std::size_t length =
          std::min<std::size_t>(rng() % 2100, values.size() - begin);
      ExactSum& shard = shards[rng() % shards.size()];
      if (rng() % 4 == 0) {
        for (std::size_t i = begin; i < begin + length; ++i) {
          shard.add(values[i]);
        }
      } else {
        shard.add(std::span<const double>(values.data() + begin, length));
      }
      begin += length;
    }
    shards[2].merge(shards[0]);
    shards[1].merge(shards[2]);
    EXPECT_EQ(shards[1].count(), scalar.count());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(shards[1].value()),
              std::bit_cast<std::uint64_t>(scalar.value()));
    EXPECT_EQ(peel(shards[1]), peel(scalar));
  }
}

TEST(ExactSumBlock, CrossesTheNormaliseCadence) {
  // 2^20 + 1 deposits of one same-signed term per block land on the same
  // limbs: the block add's deposits must keep the normalise cadence.
  ExactSum block;
  ExactSum scalar;
  const std::vector<double> one = {std::ldexp(0x1.fffffffffffffp0, 40)};
  for (std::size_t i = 0; i < (std::size_t{1} << 20) + 1; ++i) {
    block.add(std::span<const double>(one));
    scalar.add(one[0]);
  }
  EXPECT_EQ(peel(block), peel(scalar));
  EXPECT_EQ(block.count(), scalar.count());
}

TEST(ExactSumBlock, NonFiniteThrowsDomainErrorWithStateUntouched) {
  const double bad_values[] = {std::numeric_limits<double>::quiet_NaN(),
                               -std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::signaling_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
  const std::vector<double> prefix = full_range_values(100, 52);
  for (const double bad : bad_values) {
    for (const std::size_t at : {std::size_t{0}, std::size_t{1000},
                                 std::size_t{1500}, std::size_t{2999}}) {
      ExactSum sum;
      sum.add(std::span<const double>(prefix));
      const std::vector<double> before = peel(sum);
      std::vector<double> values = full_range_values(3000, 53);
      values[at] = bad;
      try {
        sum.add(std::span<const double>(values));
        ADD_FAILURE() << "no throw for " << bad << " at " << at;
      } catch (const ValueError& error) {
        EXPECT_EQ(error.code(), ErrorCode::DomainError);
      }
      EXPECT_EQ(sum.count(), prefix.size());
      EXPECT_EQ(peel(sum), before);
    }
  }
}

// --- service accumulators ---------------------------------------------------

numeric::CMatrix random_block(std::size_t rows, std::size_t cols,
                              unsigned seed) {
  std::mt19937_64 rng(seed);
  std::normal_distribution<double> normal(0.0, 1.0);
  numeric::CMatrix block(rows, cols);
  for (std::size_t i = 0; i < block.size(); ++i) {
    block.data()[i] = numeric::cdouble(normal(rng), normal(rng));
  }
  return block;
}

TEST(EnvelopeMomentAccumulator, ShardedMergeIsBitExact) {
  const std::size_t n = 3;
  std::vector<numeric::CMatrix> blocks;
  for (unsigned b = 0; b < 4; ++b) {
    blocks.push_back(random_block(128, n, 100 + b));
  }

  service::EnvelopeMomentAccumulator single(n);
  for (const auto& block : blocks) {
    single.accumulate(block);
  }

  service::EnvelopeMomentAccumulator shard_a(n);
  service::EnvelopeMomentAccumulator shard_b(n);
  shard_a.accumulate(blocks[0]);
  shard_a.accumulate(blocks[1]);
  shard_b.accumulate(blocks[2]);
  shard_b.accumulate(blocks[3]);
  shard_a.merge(shard_b);

  EXPECT_EQ(shard_a.count(), single.count());
  for (std::size_t j = 0; j < n; ++j) {
    const auto merged = shard_a.finalize(j);
    const auto direct = single.finalize(j);
    EXPECT_EQ(merged.mean, direct.mean);
    EXPECT_EQ(merged.second_moment, direct.second_moment);
    EXPECT_EQ(merged.fourth_moment, direct.fourth_moment);
    EXPECT_EQ(merged.variance, direct.variance);
    EXPECT_EQ(merged.amount_of_fading, direct.amount_of_fading);
  }
}

TEST(EnvelopeMomentAccumulator, MomentsMatchNaiveSums) {
  const auto block = random_block(64, 2, 7);
  service::EnvelopeMomentAccumulator acc(2);
  acc.accumulate(block);
  const auto moments = acc.finalize(0);
  double sum_r = 0.0;
  for (std::size_t t = 0; t < block.rows(); ++t) {
    sum_r += std::abs(block(t, 0));
  }
  EXPECT_NEAR(moments.mean, sum_r / 64.0, 1e-12);
  EXPECT_GT(moments.second_moment, 0.0);
}

TEST(EnvelopeMomentAccumulator, ColumnFoldsMatchScalarAdds) {
  // The column folds hold exactly the terms of one scalar add per sample.
  const std::size_t n = 3;
  const auto block = random_block(700, n, 9);  // spans several column chunks
  service::EnvelopeMomentAccumulator acc(n);
  acc.accumulate(block);
  service::ComplexCovarianceAccumulator cov(n);
  cov.accumulate(block);
  const numeric::CMatrix covariance = cov.finalize();
  const auto rows = static_cast<double>(block.rows());
  for (std::size_t k = 0; k < n; ++k) {
    ExactSum r;
    ExactSum r2;
    ExactSum r4;
    for (std::size_t t = 0; t < block.rows(); ++t) {
      const numeric::cdouble z = block(t, k);
      const double power = z.real() * z.real() + z.imag() * z.imag();
      r.add(std::sqrt(power));
      r2.add(power);
      r4.add(power * power);
    }
    const auto moments = acc.finalize(k);
    EXPECT_EQ(moments.mean, r.value() / rows);
    EXPECT_EQ(moments.second_moment, r2.value() / rows);
    EXPECT_EQ(moments.fourth_moment, r4.value() / rows);
    for (std::size_t j = 0; j < n; ++j) {
      ExactSum re;
      ExactSum im;
      for (std::size_t t = 0; t < block.rows(); ++t) {
        const numeric::cdouble p = block(t, k) * std::conj(block(t, j));
        re.add(p.real());
        im.add(p.imag());
      }
      EXPECT_EQ(covariance(k, j).real(), re.value() / rows);
      EXPECT_EQ(covariance(k, j).imag(), im.value() / rows);
    }
  }
}

TEST(EnvelopeMomentAccumulator, Rejections) {
  service::EnvelopeMomentAccumulator acc(2);
  EXPECT_THROW(acc.accumulate(random_block(4, 3, 1)), ContractViolation);
  EXPECT_THROW(acc.finalize(0), ValueError);
  service::EnvelopeMomentAccumulator other(3);
  EXPECT_THROW(acc.merge(other), DimensionError);
  EXPECT_THROW(service::EnvelopeMomentAccumulator(0), ContractViolation);
}

TEST(ComplexCovarianceAccumulator, ShardedMergeIsBitExact) {
  const std::size_t n = 3;
  std::vector<numeric::CMatrix> blocks;
  for (unsigned b = 0; b < 3; ++b) {
    blocks.push_back(random_block(96, n, 200 + b));
  }
  service::ComplexCovarianceAccumulator single(n);
  for (const auto& block : blocks) {
    single.accumulate(block);
  }
  service::ComplexCovarianceAccumulator shard_a(n);
  service::ComplexCovarianceAccumulator shard_b(n);
  shard_a.accumulate(blocks[0]);
  shard_b.accumulate(blocks[1]);
  shard_b.accumulate(blocks[2]);
  shard_b.merge(shard_a);  // merge order must not matter

  const numeric::CMatrix merged = shard_b.finalize();
  const numeric::CMatrix direct = single.finalize();
  ASSERT_EQ(merged.rows(), direct.rows());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged.data()[i].real(), direct.data()[i].real());
    EXPECT_EQ(merged.data()[i].imag(), direct.data()[i].imag());
  }
}

TEST(ComplexCovarianceAccumulator, Rejections) {
  service::ComplexCovarianceAccumulator acc(2);
  EXPECT_THROW(acc.finalize(), ValueError);
  service::ComplexCovarianceAccumulator other(4);
  EXPECT_THROW(acc.merge(other), DimensionError);
}

}  // namespace
