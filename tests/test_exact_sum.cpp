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
