// Link-level metrics layer: the Wang & Abdi mutual-information closed
// forms, the shard-mergeable streaming accumulators (K-shard merge ==
// single pass bit-for-bit, boundary state stitched across block splits
// and association orders), the analytic health gates on real stream
// output (Rice LCR/AFD, J0 autocorrelation, MI statistics on all three
// stream backends), and the MetricsTap wiring into core::FadingStream /
// service::Session with telemetry gauge publication.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/metrics/accumulators.hpp"
#include "rfade/metrics/health.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/mutual_information.hpp"
#include "rfade/support/error.hpp"
#include "rfade/support/exact_sum.hpp"
#include "rfade/telemetry/telemetry.hpp"

using namespace rfade;
using metrics::AcfAccumulator;
using metrics::AnalyticReference;
using metrics::LevelCrossingAccumulator;
using metrics::MetricsTap;
using metrics::MetricsTapConfig;
using metrics::MutualInformationAccumulator;
using numeric::cdouble;
using numeric::CMatrix;

namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

CMatrix random_block(std::mt19937_64& gen, std::size_t rows,
                     std::size_t cols) {
  std::normal_distribution<double> normal(0.0, 0.70710678118654752);
  CMatrix block(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      block(r, j) = cdouble(normal(gen), normal(gen));
    }
  }
  return block;
}

CMatrix rows_of(const CMatrix& all, std::size_t begin, std::size_t end) {
  CMatrix out(end - begin, all.cols());
  for (std::size_t r = begin; r < end; ++r) {
    for (std::size_t j = 0; j < all.cols(); ++j) {
      out(r - begin, j) = all(r, j);
    }
  }
  return out;
}

}  // namespace

// --- Wang & Abdi closed forms ------------------------------------------------

TEST(MutualInformationReference, ExponentialIntegralKnownValues) {
  EXPECT_NEAR(stats::expint_e1(0.1), 1.8229239584, 1e-9);
  EXPECT_NEAR(stats::expint_e1(1.0), 0.2193839344, 1e-9);
  EXPECT_NEAR(stats::expint_e1(5.0), 0.0011482955, 1e-9);
  EXPECT_THROW((void)stats::expint_e1(0.0), ValueError);
  EXPECT_THROW((void)stats::expint_e1(-1.0), ValueError);
}

TEST(MutualInformationReference, MeanMatchesQuadratureAndMonteCarlo) {
  // Closed form log2(e) e^{1/s} E1(1/s) vs an independent Monte Carlo
  // draw of log2(1 + s X), X ~ Exp(1).
  const double snr = 10.0;
  const double mean = stats::mi_mean(snr);
  std::mt19937_64 gen(0xA1);
  std::exponential_distribution<double> exponential(1.0);
  double sum = 0.0;
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) {
    sum += std::log2(1.0 + snr * exponential(gen));
  }
  EXPECT_NEAR(mean, sum / draws, 0.01);
  EXPECT_GT(stats::mi_variance(snr), 0.0);
}

TEST(MutualInformationReference, FirstLaguerreCoefficientClosedForm) {
  // a_1 = -E[sX/(1+sX)] = -(1 - e^{1/s} E1(1/s) / s).
  const double snr = 10.0;
  const auto a = stats::mi_laguerre_coefficients(snr, 4);
  const double closed =
      -(1.0 - std::exp(1.0 / snr) * stats::expint_e1(1.0 / snr) / snr);
  EXPECT_NEAR(a[0], closed, 1e-8);
}

TEST(MutualInformationReference, AutocovarianceLimits) {
  const double snr = 10.0;
  const double variance = stats::mi_variance(snr);
  EXPECT_NEAR(stats::mi_autocovariance(snr, 1.0), variance, 1e-9);
  EXPECT_NEAR(stats::mi_autocovariance(snr, -1.0), variance, 1e-9);
  EXPECT_EQ(stats::mi_autocovariance(snr, 0.0), 0.0);
  // The Laguerre series approaches the variance from below as rho -> 1.
  const double near_one = stats::mi_autocovariance(snr, 0.999);
  EXPECT_LT(near_one, variance);
  EXPECT_GT(near_one, 0.9 * variance);
  // Monotone in |field correlation|.
  EXPECT_GT(stats::mi_autocovariance(snr, 0.8),
            stats::mi_autocovariance(snr, 0.5));
}

// --- accumulator vs the offline estimator ------------------------------------

TEST(LevelCrossingAccumulatorTest, MatchesOfflineEstimatorExactly) {
  std::mt19937_64 gen(0xBEEF);
  const std::size_t n = 4096;
  const CMatrix trace = random_block(gen, n, 1);
  numeric::RVector envelope(n);
  for (std::size_t i = 0; i < n; ++i) envelope[i] = std::abs(trace(i, 0));

  const double rho = 0.7;
  LevelCrossingAccumulator accumulator(1, {rho}, {1.0});
  accumulator.accumulate(trace);
  const auto stats_streaming = accumulator.finalize(0, 0);

  const auto offline = stats::measure_fading_metrics(envelope, rho, 1.0);
  EXPECT_EQ(stats_streaming.up_crossings, offline.crossings);
  EXPECT_DOUBLE_EQ(stats_streaming.lcr_per_sample *
                       static_cast<double>(n),
                   offline.level_crossing_rate *
                       static_cast<double>(n));
  EXPECT_DOUBLE_EQ(stats_streaming.afd_samples,
                   offline.average_fade_duration);
}

// --- the |z|^2 level test against std::abs ------------------------------------

/// Samples probing every level in \p levels: on it along both axes, one
/// ulp (of T) either side, half and twice it, |z| = level at 1,000
/// angles; then zeros, NaN and Inf components.
template <typename T>
std::vector<std::complex<T>> level_probes(const std::vector<double>& levels) {
  const T inf = std::numeric_limits<T>::infinity();
  const T nan = std::numeric_limits<T>::quiet_NaN();
  std::vector<std::complex<T>> z;
  for (const double level : levels) {
    const T on = static_cast<T>(level);
    for (const T r : {on, std::nextafter(on, T(0)), std::nextafter(on, inf),
                      on / T(2), on * T(2)}) {
      z.emplace_back(r, T(0));
      z.emplace_back(T(0), -r);
      z.emplace_back(-r, T(0));
    }
    for (int k = 0; k < 1000; ++k) {
      const double theta = 2.0 * kPi * k / 1000.0;
      z.emplace_back(static_cast<T>(level * std::cos(theta)),
                     static_cast<T>(level * std::sin(theta)));
    }
  }
  for (const std::complex<T> special :
       {std::complex<T>(T(0), T(0)), std::complex<T>(-T(0), T(0)),
        std::complex<T>(nan, T(0)), std::complex<T>(T(0), nan),
        std::complex<T>(inf, T(0)), std::complex<T>(-inf, nan),
        std::complex<T>(nan, inf), std::complex<T>(inf, -inf)}) {
    z.push_back(special);
  }
  return z;
}

/// Feeds \p probes (each branch reads them from a different offset, so
/// runs differ per branch) one row at a time to accumulate() and to
/// accumulate_envelopes() of std::abs, checking every cell after every
/// row: each below/above decision, crossing and fade must agree.
template <typename T>
void expect_level_decisions_match_abs(
    const std::vector<double>& thresholds, const std::vector<double>& rms,
    const std::vector<std::complex<T>>& probes) {
  const std::size_t n = rms.size();
  LevelCrossingAccumulator fast(n, thresholds, rms);
  LevelCrossingAccumulator reference(n, thresholds, rms);
  numeric::Matrix<std::complex<T>> row(1, n);
  numeric::RMatrix envelopes(1, n);
  for (std::size_t r = 0; r < probes.size(); ++r) {
    for (std::size_t j = 0; j < n; ++j) {
      row(0, j) = probes[(r + 7 * j) % probes.size()];
      envelopes(0, j) = std::abs(cdouble(row(0, j)));
    }
    fast.accumulate(row);
    reference.accumulate_envelopes(envelopes);
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        ASSERT_EQ(fast.finalize(j, t).samples_below,
                  reference.finalize(j, t).samples_below)
            << "row " << r << " branch " << j << " threshold " << t
            << " z = " << row(0, j);
      }
    }
  }
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      const auto a = fast.finalize(j, t);
      const auto b = reference.finalize(j, t);
      EXPECT_EQ(a.up_crossings, b.up_crossings);
      EXPECT_EQ(a.longest_fade, b.longest_fade);
    }
  }
}

std::vector<double> levels_of(const std::vector<double>& thresholds,
                              const std::vector<double>& rms) {
  std::vector<double> levels;
  for (const double r : rms) {
    for (const double rho : thresholds) levels.push_back(rho * r);
  }
  return levels;
}

TEST(LevelCrossingAccumulatorTest, BandedLevelTestMatchesAbsF64) {
  // 0.3 and 0.7 make levels that are not exact binary fractions.
  const std::vector<double> thresholds = {0.3, 1.0, 1.75};
  const std::vector<double> rms = {1.0, 0.7, 0.25};
  expect_level_decisions_match_abs(
      thresholds, rms, level_probes<double>(levels_of(thresholds, rms)));
}

TEST(LevelCrossingAccumulatorTest, BandedLevelTestMatchesAbsF32) {
  const std::vector<double> thresholds = {0.5, 1.0, 1.75};
  const std::vector<double> rms = {1.0, 0.25};
  expect_level_decisions_match_abs(
      thresholds, rms, level_probes<float>(levels_of(thresholds, rms)));
  // Levels between float samples: the float probes sit one float ulp
  // from a double level that no float equals.
  const std::vector<double> odd_rms = {0.3, 1.1};
  expect_level_decisions_match_abs(
      thresholds, odd_rms,
      level_probes<float>(levels_of(thresholds, odd_rms)));
}

TEST(LevelCrossingAccumulatorTest, ExtremeLevelsMatchAbs) {
  // 1e-200 and 1e200 have squares outside [2^-900, 2^900]: every sample
  // takes the std::abs path.  1e-130 and 1e130 stay banded, and see
  // samples whose squares underflow to 0 or overflow to +inf.
  const std::vector<double> thresholds = {0.5, 1.0};
  const std::vector<double> rms = {1e-200, 1e200, 1e-130, 1e130};
  expect_level_decisions_match_abs(
      thresholds, rms, level_probes<double>(levels_of(thresholds, rms)));
}

TEST(AcfAccumulatorTest, MatchesBruteForceSums) {
  std::mt19937_64 gen(0xACF);
  const std::size_t n = 600;
  const CMatrix trace = random_block(gen, n, 1);
  AcfAccumulator accumulator(1, {5, 17});
  accumulator.accumulate(trace);
  for (const std::size_t lag : {std::size_t{5}, std::size_t{17}}) {
    cdouble brute(0.0, 0.0);
    for (std::size_t t = lag; t < n; ++t) {
      brute += trace(t, 0) * std::conj(trace(t - lag, 0));
    }
    const cdouble streamed = accumulator.correlation_sum(0, lag);
    EXPECT_NEAR(streamed.real(), brute.real(), 1e-9);
    EXPECT_NEAR(streamed.imag(), brute.imag(), 1e-9);
  }
}

// --- column sweep against the row-wise loops ----------------------------------

namespace {

/// The row-wise folds the accumulators ran before their column sweep,
/// over one sample at a time: the same cell steps, lag_product, I_t
/// expression and ExactSum terms, kept here as the bit reference.
class RowWiseReference {
 public:
  RowWiseReference(std::size_t dimension, std::vector<double> levels,
                   std::vector<std::size_t> acf_lags,
                   std::vector<std::size_t> mi_lags, double inv_power)
      : dimension_(dimension),
        levels_(std::move(levels)),
        acf_lags_(std::move(acf_lags)),
        mi_lags_(std::move(mi_lags)),
        inv_power_(inv_power),
        cells_(dimension * levels_.size()),
        samples_(dimension),
        information_(dimension),
        acf_re_(dimension * acf_lags_.size()),
        acf_im_(dimension * acf_lags_.size()),
        mi_sum_(dimension),
        mi_sum_sq_(dimension),
        mi_lag_(dimension * mi_lags_.size()) {}

  void fold(std::size_t j, cdouble z) {
    const std::size_t pos = samples_[j].size();
    samples_[j].push_back(z);
    for (std::size_t t = 0; t < levels_.size(); ++t) {
      step(cells_[j * levels_.size() + t], std::abs(z) < levels_[t]);
    }
    for (std::size_t k = 0; k < acf_lags_.size(); ++k) {
      const std::size_t d = acf_lags_[k];
      if (pos < d) break;
      const cdouble p = z * std::conj(samples_[j][pos - d]);
      acf_re_[j * acf_lags_.size() + k].add(p.real());
      acf_im_[j * acf_lags_.size() + k].add(p.imag());
    }
    const double information =
        std::log2(1.0 + inv_power_ * std::norm(z));
    information_[j].push_back(information);
    mi_sum_[j].add(information);
    mi_sum_sq_[j].add(information * information);
    for (std::size_t k = 0; k < mi_lags_.size(); ++k) {
      const std::size_t d = mi_lags_[k];
      if (pos < d) break;
      mi_lag_[j * mi_lags_.size() + k].add(information *
                                           information_[j][pos - d]);
    }
  }

  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block) {
    for (std::size_t r = 0; r < block.rows(); ++r) {
      for (std::size_t j = 0; j < dimension_; ++j) fold(j, block(r, j));
    }
  }

  /// Every read-out of the three accumulators, bit for bit.
  void expect_equal(const LevelCrossingAccumulator& lcr,
                    const AcfAccumulator& acf,
                    const MutualInformationAccumulator& mi) const {
    const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
    const std::uint64_t count = samples_[0].size();
    ASSERT_EQ(lcr.count(), count);
    ASSERT_EQ(acf.count(), count);
    ASSERT_EQ(mi.count(), count);
    for (std::size_t j = 0; j < dimension_; ++j) {
      for (std::size_t t = 0; t < levels_.size() && count > 0; ++t) {
        const Cell& cell = cells_[j * levels_.size() + t];
        const metrics::LevelCrossingStats stats = lcr.finalize(j, t);
        EXPECT_EQ(stats.samples_below, cell.below) << j << "/" << t;
        EXPECT_EQ(stats.up_crossings, cell.crossings) << j << "/" << t;
        EXPECT_EQ(stats.longest_fade, cell.longest) << j << "/" << t;
      }
      for (std::size_t k = 0; k < acf_lags_.size(); ++k) {
        const cdouble sum = acf.correlation_sum(j, acf_lags_[k]);
        EXPECT_EQ(bits(sum.real()),
                  bits(acf_re_[j * acf_lags_.size() + k].value()))
            << "acf branch " << j << " lag " << acf_lags_[k];
        EXPECT_EQ(bits(sum.imag()),
                  bits(acf_im_[j * acf_lags_.size() + k].value()))
            << "acf branch " << j << " lag " << acf_lags_[k];
      }
      EXPECT_EQ(bits(mi.sum(j)), bits(mi_sum_[j].value())) << j;
      EXPECT_EQ(bits(mi.sum_squares(j)), bits(mi_sum_sq_[j].value())) << j;
      for (std::size_t k = 0; k < mi_lags_.size(); ++k) {
        EXPECT_EQ(bits(mi.lag_product_sum(j, mi_lags_[k])),
                  bits(mi_lag_[j * mi_lags_.size() + k].value()))
            << "mi branch " << j << " lag " << mi_lags_[k];
      }
    }
  }

 private:
  struct Cell {
    std::uint64_t below = 0;
    std::uint64_t crossings = 0;
    std::uint64_t run = 0;
    std::uint64_t longest = 0;
    bool seen_above = false;
  };

  static void step(Cell& cell, bool below) {
    if (below) {
      ++cell.below;
      ++cell.run;
      return;
    }
    if (cell.run > 0) {
      ++cell.crossings;
      if (cell.seen_above) cell.longest = std::max(cell.longest, cell.run);
    }
    cell.seen_above = true;
    cell.run = 0;
  }

  std::size_t dimension_;
  std::vector<double> levels_;
  std::vector<std::size_t> acf_lags_;  ///< sorted, with 0
  std::vector<std::size_t> mi_lags_;   ///< sorted, positive
  double inv_power_;
  std::vector<Cell> cells_;
  std::vector<std::vector<cdouble>> samples_;
  std::vector<std::vector<double>> information_;
  std::vector<support::ExactSum> acf_re_;
  std::vector<support::ExactSum> acf_im_;
  std::vector<support::ExactSum> mi_sum_;
  std::vector<support::ExactSum> mi_sum_sq_;
  std::vector<support::ExactSum> mi_lag_;
};

/// A block of \p rows unit-power samples with some exact zeros, tiny
/// (1e-160-scale) samples and samples exactly on a level mixed in.
template <typename T>
numeric::Matrix<std::complex<T>> sweep_block(std::mt19937_64& gen,
                                             std::size_t rows,
                                             std::size_t cols) {
  std::normal_distribution<double> normal(0.0, 0.70710678118654752);
  numeric::Matrix<std::complex<T>> block(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t j = 0; j < cols; ++j) {
      std::complex<double> z(normal(gen), normal(gen));
      switch (gen() % 16) {
        case 0: z = 0.0; break;
        case 1: z *= 1e-160; break;
        case 2: z = std::polar(1.0, normal(gen)); break;  // on level 1.0
        default: break;
      }
      block(r, j) = std::complex<T>(static_cast<T>(z.real()),
                                    static_cast<T>(z.imag()));
    }
  }
  return block;
}

/// Feeds random cuts — every row count from 1 to max_lag + 1 first, so
/// early blocks have count < lag, then random sizes up to past an
/// ExactSum chunk — to the accumulators and the row-wise reference,
/// comparing every read-out after every block.
template <typename T>
void expect_sweep_matches_row_wise(std::vector<std::size_t> lags,
                                   unsigned seed) {
  constexpr std::size_t kBranches = 3;
  const double snr = 10.0;
  const double power = 1.0;
  const std::vector<double> thresholds = {0.5, 1.0};
  LevelCrossingAccumulator lcr(kBranches, thresholds,
                               std::vector<double>(kBranches, 1.0));
  AcfAccumulator acf(kBranches, lags);
  MutualInformationAccumulator mi(kBranches, snr,
                                  std::vector<double>(kBranches, power), lags);
  RowWiseReference reference(kBranches, thresholds, acf.lags(), mi.lags(),
                             snr / power);
  const std::size_t max_lag = acf.lags().back();
  std::mt19937_64 gen(seed);
  std::vector<std::size_t> cuts;
  for (std::size_t rows = 1; rows <= max_lag + 1; ++rows) cuts.push_back(rows);
  for (int b = 0; b < 12; ++b) cuts.push_back(gen() % (3 * max_lag) + 1);
  cuts.push_back(1030);
  cuts.push_back(1);
  for (const std::size_t rows : cuts) {
    SCOPED_TRACE(rows);
    const auto block = sweep_block<T>(gen, rows, kBranches);
    lcr.accumulate(block);
    acf.accumulate(block);
    mi.accumulate(block);
    reference.accumulate(block);
    reference.expect_equal(lcr, acf, mi);
  }
}

}  // namespace

TEST(MetricsColumnSweep, MatchesRowWiseLoopsF64) {
  expect_sweep_matches_row_wise<double>({1, 2, 4, 8}, 0x5EE1);
  expect_sweep_matches_row_wise<double>({3, 5, 17}, 0x5EE2);
  expect_sweep_matches_row_wise<double>({1}, 0x5EE3);
}

TEST(MetricsColumnSweep, MatchesRowWiseLoopsF32) {
  expect_sweep_matches_row_wise<float>({1, 2, 4, 8}, 0x5EE4);
  expect_sweep_matches_row_wise<float>({3, 5, 17}, 0x5EE5);
}

TEST(MetricsColumnSweep, MutualInformationWithoutLagsMatchesRowWise) {
  // No lags: no ring at all; the moments still fold per column.
  MutualInformationAccumulator mi(2, 4.0, {1.0, 2.0}, {});
  support::ExactSum sum[2];
  support::ExactSum squares[2];
  std::mt19937_64 gen(0x5EE6);
  for (const std::size_t rows : {1u, 2u, 7u, 1500u}) {
    const CMatrix block = random_block(gen, rows, 2);
    mi.accumulate(block);
    for (std::size_t r = 0; r < rows; ++r) {
      for (std::size_t j = 0; j < 2; ++j) {
        const double power = std::norm(block(r, j));
        const double information =
            std::log2(1.0 + (4.0 / (j == 0 ? 1.0 : 2.0)) * power);
        sum[j].add(information);
        squares[j].add(information * information);
      }
    }
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mi.sum(j)),
                std::bit_cast<std::uint64_t>(sum[j].value()));
      EXPECT_EQ(std::bit_cast<std::uint64_t>(mi.sum_squares(j)),
                std::bit_cast<std::uint64_t>(squares[j].value()));
    }
  }
}

// --- bit-exact K-shard merge --------------------------------------------------

TEST(MetricsAccumulators, ShardMergeEqualsSinglePassBitForBit) {
  // Random sample-level splits (not just block boundaries) merged in
  // random association orders must reproduce the single-pass state
  // bit-for-bit: integer counts equal, ExactSum read-outs bit-identical.
  std::mt19937_64 gen(0x5EED);
  const std::size_t dimension = 2;
  const std::vector<double> thresholds{0.3, 1.0};
  const std::vector<double> rms{1.0, 1.0};
  const std::vector<std::size_t> lags{1, 3, 7, 20};
  const std::vector<double> omega{1.0, 1.0};
  const double snr = 10.0;

  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + gen() % 500;
    const CMatrix all = random_block(gen, n, dimension);

    LevelCrossingAccumulator lcr_single(dimension, thresholds, rms);
    AcfAccumulator acf_single(dimension, lags);
    MutualInformationAccumulator mi_single(dimension, snr, omega, lags);
    lcr_single.accumulate(all);
    acf_single.accumulate(all);
    mi_single.accumulate(all);

    // Random adjacent partition into up to 5 shards.
    std::vector<std::size_t> cuts{0, n};
    for (int i = 0; i < 3; ++i) cuts.push_back(gen() % (n + 1));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());

    struct Shard {
      LevelCrossingAccumulator lcr;
      AcfAccumulator acf;
      MutualInformationAccumulator mi;
    };
    std::vector<Shard> shards;
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
      Shard shard{LevelCrossingAccumulator(dimension, thresholds, rms),
                  AcfAccumulator(dimension, lags),
                  MutualInformationAccumulator(dimension, snr, omega, lags)};
      const CMatrix segment = rows_of(all, cuts[i], cuts[i + 1]);
      shard.lcr.accumulate(segment);
      shard.acf.accumulate(segment);
      shard.mi.accumulate(segment);
      shards.push_back(std::move(shard));
    }

    // Merge adjacent pairs in a random association order.
    while (shards.size() > 1) {
      const std::size_t i = gen() % (shards.size() - 1);
      shards[i].lcr.merge(shards[i + 1].lcr);
      shards[i].acf.merge(shards[i + 1].acf);
      shards[i].mi.merge(shards[i + 1].mi);
      shards.erase(shards.begin() + static_cast<std::ptrdiff_t>(i) + 1);
    }
    const Shard& merged = shards.front();

    for (std::size_t j = 0; j < dimension; ++j) {
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        const auto a = lcr_single.finalize(j, t);
        const auto b = merged.lcr.finalize(j, t);
        EXPECT_EQ(a.samples, b.samples);
        EXPECT_EQ(a.samples_below, b.samples_below);
        EXPECT_EQ(a.up_crossings, b.up_crossings);
        EXPECT_EQ(a.longest_fade, b.longest_fade);
      }
      for (const std::size_t lag : acf_single.lags()) {
        const cdouble a = acf_single.correlation_sum(j, lag);
        const cdouble b = merged.acf.correlation_sum(j, lag);
        // Bit-for-bit: exact double equality, not approximate.
        EXPECT_EQ(a.real(), b.real());
        EXPECT_EQ(a.imag(), b.imag());
      }
      EXPECT_EQ(mi_single.sum(j), merged.mi.sum(j));
      EXPECT_EQ(mi_single.sum_squares(j), merged.mi.sum_squares(j));
      for (const std::size_t lag : lags) {
        EXPECT_EQ(mi_single.lag_product_sum(j, lag),
                  merged.mi.lag_product_sum(j, lag));
      }
    }
  }
}

TEST(MetricsAccumulators, MergeRejectsMismatchedConfigurations) {
  LevelCrossingAccumulator a(1, {0.5}, {1.0});
  LevelCrossingAccumulator b(1, {0.7}, {1.0});
  EXPECT_THROW(a.merge(b), DimensionError);
  AcfAccumulator c(1, {1, 2});
  AcfAccumulator d(2, {1, 2});
  EXPECT_THROW(c.merge(d), DimensionError);
  MutualInformationAccumulator e(1, 10.0, {1.0}, {1});
  MutualInformationAccumulator f(1, 20.0, {1.0}, {1});
  EXPECT_THROW(e.merge(f), DimensionError);
}

TEST(MetricsAccumulators, BlockShardedStreamMergesExactly) {
  // The production sharding shape: adjacent block ranges of one keyed
  // stream realisation folded by separate accumulators, merged at the
  // join — equals the single continuous walk bit-for-bit.
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = 256;
  options.normalized_doppler = 0.05;
  options.seed = 0x11;
  core::FadingStream stream(CMatrix::identity(2), options);

  const std::vector<std::size_t> lags{1, 4, 16};
  AcfAccumulator single(2, lags);
  AcfAccumulator shard_a(2, lags);
  AcfAccumulator shard_b(2, lags);
  for (std::uint64_t b = 0; b < 12; ++b) {
    const CMatrix block = stream.generate_block(options.seed, b);
    single.accumulate(block);
    (b < 5 ? shard_a : shard_b).accumulate(block);
  }
  shard_a.merge(shard_b);
  for (std::size_t j = 0; j < 2; ++j) {
    for (const std::size_t lag : single.lags()) {
      const cdouble a = single.correlation_sum(j, lag);
      const cdouble b = shard_a.correlation_sum(j, lag);
      EXPECT_EQ(a.real(), b.real());
      EXPECT_EQ(a.imag(), b.imag());
    }
  }
}

// --- analytic gates on real stream output -------------------------------------

TEST(MetricsAnalyticGates, RiceLcrAfdOnAllBackends) {
  const double fm = 0.05;
  const std::vector<double> thresholds{0.5, 1.0};
  for (const auto backend : {doppler::StreamBackend::IndependentBlock,
                             doppler::StreamBackend::WindowedOverlapAdd,
                             doppler::StreamBackend::OverlapSaveFir}) {
    core::FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = 512;
    options.normalized_doppler = fm;
    options.seed = 0x1C4;
    core::FadingStream stream(CMatrix::identity(2), options);

    LevelCrossingAccumulator accumulator(2, thresholds, {1.0, 1.0});
    for (int b = 0; b < 400; ++b) {
      accumulator.accumulate(stream.next_block());
    }
    for (std::size_t j = 0; j < 2; ++j) {
      for (std::size_t t = 0; t < thresholds.size(); ++t) {
        const double rho = thresholds[t];
        const auto measured = accumulator.finalize(j, t);
        const double lcr_expected = stats::theoretical_lcr(rho, fm);
        const double afd_expected = stats::theoretical_afd(rho, fm);
        EXPECT_NEAR(measured.lcr_per_sample, lcr_expected,
                    0.10 * lcr_expected)
            << doppler::stream_backend_name(backend) << " branch " << j
            << " rho " << rho;
        EXPECT_NEAR(measured.afd_samples, afd_expected, 0.10 * afd_expected)
            << doppler::stream_backend_name(backend) << " branch " << j
            << " rho " << rho;
      }
    }
  }
}

TEST(MetricsAnalyticGates, StreamingAcfMatchesJ0OnAllBackends) {
  const double fm = 0.05;
  const std::vector<std::size_t> lags{1, 2, 4, 8, 16, 32};
  for (const auto backend : {doppler::StreamBackend::IndependentBlock,
                             doppler::StreamBackend::WindowedOverlapAdd,
                             doppler::StreamBackend::OverlapSaveFir}) {
    core::FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = 512;
    options.normalized_doppler = fm;
    options.seed = 0xACF0;
    core::FadingStream stream(CMatrix::identity(1), options);

    AcfAccumulator accumulator(1, lags);
    for (int b = 0; b < 600; ++b) {
      accumulator.accumulate(stream.next_block());
    }
    for (const std::size_t lag : lags) {
      const double expected =
          special::bessel_j0(2.0 * kPi * fm * static_cast<double>(lag));
      const cdouble measured = accumulator.autocorrelation(0, lag);
      // Same tolerance the offline seam tests use (0.1); the
      // independent-block backend dilutes cross-seam pairs but stays
      // within it at lags << M.
      EXPECT_NEAR(measured.real(), expected, 0.1)
          << doppler::stream_backend_name(backend) << " lag " << lag;
      EXPECT_NEAR(measured.imag(), 0.0, 0.1)
          << doppler::stream_backend_name(backend) << " lag " << lag;
    }
  }
}

TEST(MetricsAnalyticGates, MutualInformationMatchesWangAbdiClosedForms) {
  const double fm = 0.05;
  const double snr = 10.0;
  const std::vector<std::size_t> lags{2, 4, 8};
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = 512;
  options.normalized_doppler = fm;
  options.seed = 0x31;
  core::FadingStream stream(CMatrix::identity(2), options);

  MutualInformationAccumulator accumulator(2, snr, {1.0, 1.0}, lags);
  for (int b = 0; b < 600; ++b) {
    accumulator.accumulate(stream.next_block());
  }
  const double mean_expected = stats::mi_mean(snr);
  const double variance_expected = stats::mi_variance(snr);
  for (std::size_t j = 0; j < 2; ++j) {
    EXPECT_NEAR(accumulator.mean(j), mean_expected, 0.03 * mean_expected);
    EXPECT_NEAR(accumulator.variance(j), variance_expected,
                0.10 * variance_expected);
    for (const std::size_t lag : lags) {
      const double field =
          special::bessel_j0(2.0 * kPi * fm * static_cast<double>(lag));
      const double expected = stats::mi_autocovariance(snr, field);
      EXPECT_NEAR(accumulator.autocovariance(j, lag), expected,
                  0.15 * variance_expected)
          << "branch " << j << " lag " << lag;
    }
  }
}

// --- MetricsTap ---------------------------------------------------------------

namespace {

AnalyticReference unit_rayleigh_reference(std::size_t dimension, double fm,
                                          double snr) {
  AnalyticReference reference;
  reference.normalized_doppler = fm;
  reference.branch_power.assign(dimension, 1.0);
  reference.rayleigh = true;
  reference.snr_linear = snr;
  return reference;
}

}  // namespace

TEST(MetricsTapTest, DisabledTapObservesNothing) {
  MetricsTapConfig config;
  config.enabled = false;
  config.publish_every_blocks = 0;
  MetricsTap tap(unit_rayleigh_reference(1, 0.05, 10.0), config);
  std::mt19937_64 gen(1);
  tap.observe(random_block(gen, 64, 1));
  EXPECT_EQ(tap.samples_observed(), 0u);
  EXPECT_EQ(tap.blocks_observed(), 0u);
  tap.set_enabled(true);
  tap.observe(random_block(gen, 64, 1));
  EXPECT_EQ(tap.samples_observed(), 64u);
  EXPECT_EQ(tap.blocks_observed(), 1u);
}

TEST(MetricsTapTest, RejectsEmptyConfiguration) {
  MetricsTapConfig config;
  config.thresholds.clear();
  config.lags.clear();
  config.snr_linear = 0.0;
  EXPECT_THROW(MetricsTap(unit_rayleigh_reference(1, 0.05, 10.0), config),
               ValueError);
}

TEST(MetricsTapTest, AttachesToFadingStreamAndGatesHealthy) {
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = 512;
  options.normalized_doppler = 0.05;
  options.seed = 0x7A9;
  core::FadingStream stream(CMatrix::identity(2), options);

  telemetry::Registry registry;
  MetricsTapConfig config;
  config.thresholds = {0.5, 1.0};
  config.lags = {1, 2, 4, 8};
  config.snr_linear = 10.0;
  config.publish_every_blocks = 0;
  config.registry = &registry;
  auto tap = std::make_shared<MetricsTap>(
      unit_rayleigh_reference(2, options.normalized_doppler, 10.0), config);
  stream.set_metrics_tap(tap);

  for (int b = 0; b < 400; ++b) {
    (void)stream.next_block();
  }
  EXPECT_EQ(tap->blocks_observed(), 400u);
  EXPECT_EQ(tap->samples_observed(), 400u * stream.block_size());

  const auto reports = tap->health();
  ASSERT_FALSE(reports.empty());
  for (const auto& report : reports) {
    EXPECT_TRUE(report.ok) << report.metric << " branch " << report.branch
                           << " parameter " << report.parameter << ": measured "
                           << report.measured << " expected " << report.expected
                           << " drift " << report.drift;
  }
  EXPECT_TRUE(tap->healthy());

  if (telemetry::kCompiledIn) {
    tap->publish();
    const std::string text = telemetry::prometheus_text(registry);
    EXPECT_NE(text.find("rfade_metrics_lcr_per_sample"), std::string::npos);
    EXPECT_NE(text.find("rfade_metrics_acf_re"), std::string::npos);
    EXPECT_NE(text.find("rfade_metrics_mi_mean"), std::string::npos);
    EXPECT_NE(text.find("rfade_metrics_drift"), std::string::npos);
    EXPECT_NE(text.find("rfade_metrics_healthy"), std::string::npos);
    const std::string json = telemetry::json_snapshot(registry);
    EXPECT_NE(json.find("rfade_metrics_mi_variance"), std::string::npos);
  }
}

TEST(MetricsTapTest, ShardTapsMergeBitExactly) {
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = 256;
  options.normalized_doppler = 0.05;
  options.seed = 0xD1;
  core::FadingStream stream(CMatrix::identity(1), options);

  MetricsTapConfig config;
  config.publish_every_blocks = 0;
  const AnalyticReference reference = unit_rayleigh_reference(1, 0.05, 10.0);
  MetricsTap single(reference, config);
  MetricsTap shard_a(reference, config);
  MetricsTap shard_b(reference, config);
  for (std::uint64_t b = 0; b < 10; ++b) {
    const CMatrix block = stream.generate_block(options.seed, b);
    single.observe(block);
    (b < 4 ? shard_a : shard_b).observe(block);
  }
  shard_a.merge(shard_b);
  EXPECT_EQ(single.samples_observed(), shard_a.samples_observed());
  const auto* acf_single = single.autocorrelation();
  const auto* acf_merged = shard_a.autocorrelation();
  ASSERT_NE(acf_single, nullptr);
  ASSERT_NE(acf_merged, nullptr);
  for (const std::size_t lag : acf_single->lags()) {
    const cdouble a = acf_single->correlation_sum(0, lag);
    const cdouble b = acf_merged->correlation_sum(0, lag);
    EXPECT_EQ(a.real(), b.real());
    EXPECT_EQ(a.imag(), b.imag());
  }
  const auto* lcr_single = single.level_crossings();
  const auto* lcr_merged = shard_a.level_crossings();
  for (std::size_t t = 0; t < lcr_single->thresholds().size(); ++t) {
    EXPECT_EQ(lcr_single->finalize(0, t).up_crossings,
              lcr_merged->finalize(0, t).up_crossings);
    EXPECT_EQ(lcr_single->finalize(0, t).samples_below,
              lcr_merged->finalize(0, t).samples_below);
  }
  EXPECT_EQ(single.mutual_information()->sum(0),
            shard_a.mutual_information()->sum(0));
}

namespace {

void expect_same_reports(const std::vector<metrics::DriftReport>& a,
                         const std::vector<metrics::DriftReport>& b) {
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].metric, b[i].metric);
    EXPECT_EQ(a[i].branch, b[i].branch);
    EXPECT_EQ(bits(a[i].parameter), bits(b[i].parameter));
    EXPECT_EQ(bits(a[i].measured), bits(b[i].measured));
    EXPECT_EQ(bits(a[i].expected), bits(b[i].expected)) << a[i].metric;
    EXPECT_EQ(bits(a[i].drift), bits(b[i].drift));
    EXPECT_EQ(bits(a[i].tolerance), bits(b[i].tolerance));
    EXPECT_EQ(a[i].ok, b[i].ok);
  }
}

/// What health() reported before it kept its references: the free
/// gates, accumulator by accumulator.
std::vector<metrics::DriftReport> free_gates(const MetricsTap& tap) {
  std::vector<metrics::DriftReport> reports;
  const auto& tolerances = tap.config().tolerances;
  const auto append = [&](std::vector<metrics::DriftReport> r) {
    reports.insert(reports.end(), r.begin(), r.end());
  };
  append(metrics::evaluate_health(*tap.level_crossings(), tap.reference(),
                                  tolerances));
  append(metrics::evaluate_health(*tap.autocorrelation(), tap.reference(),
                                  tolerances));
  append(metrics::evaluate_health(*tap.mutual_information(), tap.reference(),
                                  tolerances));
  return reports;
}

}  // namespace

TEST(MetricsTapTest, KeptReferencesMatchFreeGatesAcrossPublishes) {
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = 256;
  options.normalized_doppler = 0.05;
  options.seed = 0x3E3;
  core::FadingStream stream(CMatrix::identity(2), options);

  AnalyticReference rayleigh = unit_rayleigh_reference(2, 0.05, 10.0);
  AnalyticReference shadowed = rayleigh;
  shadowed.shadowing = metrics::ShadowingReference{6.0, 50.0};
  for (const AnalyticReference& reference : {rayleigh, shadowed}) {
    telemetry::Registry registry;
    MetricsTapConfig config;
    config.lags = {1, 2, 4, 8, 300};  // 300: no pairs after the first block
    config.publish_every_blocks = 0;
    config.registry = &registry;
    MetricsTap tap(reference, config);
    EXPECT_TRUE(tap.health().empty());  // nothing observed yet
    for (std::uint64_t b = 0; b < 6; ++b) {
      tap.observe(stream.generate_block(options.seed, b));
      const auto first = tap.health();
      expect_same_reports(first, free_gates(tap));
      expect_same_reports(tap.health(), first);
    }
    if (telemetry::kCompiledIn) {
      tap.publish();
      const auto gauges = registry.gauges();
      ASSERT_FALSE(gauges.empty());
      tap.publish();
      const auto again = registry.gauges();
      ASSERT_EQ(gauges.size(), again.size());
      for (std::size_t i = 0; i < gauges.size(); ++i) {
        EXPECT_EQ(gauges[i].name, again[i].name);
        EXPECT_EQ(gauges[i].labels, again[i].labels);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(gauges[i].value),
                  std::bit_cast<std::uint64_t>(again[i].value))
            << gauges[i].name << "{" << gauges[i].labels << "}";
      }
    }
  }
}

// --- service-layer wiring -----------------------------------------------------

TEST(SessionMetrics, StreamSessionGatesHealthy) {
  service::ChannelService service;
  const service::ChannelSpec spec =
      service::ChannelSpec::Builder()
          .rayleigh(CMatrix::identity(2))
          .backend(doppler::StreamBackend::OverlapSaveFir)
          .idft_size(512)
          .doppler(0.05)
          .build();
  service::Session session = service.open_session(spec, 0xBEE);
  MetricsTapConfig config;
  config.publish_every_blocks = 0;
  auto tap = session.enable_metrics(config);
  ASSERT_NE(tap, nullptr);
  EXPECT_EQ(session.metrics_tap(), tap);
  // The reference was derived from the compiled spec.
  EXPECT_DOUBLE_EQ(tap->reference().normalized_doppler, 0.05);
  EXPECT_TRUE(tap->reference().rayleigh);
  ASSERT_EQ(tap->reference().branch_power.size(), 2u);

  for (int b = 0; b < 400; ++b) {
    (void)session.next_block();
  }
  EXPECT_EQ(tap->blocks_observed(), 400u);
  EXPECT_TRUE(tap->healthy());
}

TEST(SessionMetrics, CascadedReferencePowersAreTheProductOfStagePowers) {
  // A cascade's branch power is K1_jj K2_jj, so with K2 = 4 I the LCR rms
  // levels and the MI normalisation must see four times stage 1's power.
  CMatrix k1 = CMatrix::identity(3);
  k1(0, 0) = cdouble(0.5, 0.0);
  k1(2, 2) = cdouble(2.0, 0.0);
  k1(0, 1) = cdouble(0.3, 0.1);
  k1(1, 0) = cdouble(0.3, -0.1);
  CMatrix k2 = CMatrix::identity(3);
  for (std::size_t j = 0; j < 3; ++j) k2(j, j) = cdouble(4.0, 0.0);
  service::ChannelService service;
  const service::ChannelSpec spec = service::ChannelSpec::Builder()
                                        .cascaded(k1, k2)
                                        .idft_size(256)
                                        .doppler(0.05)
                                        .second_doppler(0.08)
                                        .build();
  service::Session session = service.open_session(spec, 3);
  const auto tap = session.enable_metrics(MetricsTapConfig{});
  const auto& k1_bar = session.channel().plan()->effective_covariance();
  ASSERT_EQ(tap->reference().branch_power.size(), 3u);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_EQ(tap->reference().branch_power[j], 4.0 * k1_bar(j, j).real())
        << "branch " << j;
  }
}

TEST(SessionMetrics, InstantModeRejectsMetrics) {
  service::ChannelService service;
  const service::ChannelSpec spec = service::ChannelSpec::Builder()
                                        .rayleigh(CMatrix::identity(2))
                                        .instant()
                                        .build();
  service::Session session = service.open_session(spec, 1);
  EXPECT_THROW((void)session.enable_metrics(MetricsTapConfig{}),
               UnsupportedOperationError);
}

TEST(SessionMetrics, KeyedPathsAreNeverObserved) {
  service::ChannelService service;
  const service::ChannelSpec spec =
      service::ChannelSpec::Builder()
          .rayleigh(CMatrix::identity(1))
          .backend(doppler::StreamBackend::IndependentBlock)
          .idft_size(256)
          .doppler(0.05)
          .build();
  service::Session session = service.open_session(spec, 2);
  auto tap = session.enable_metrics(MetricsTapConfig{});
  (void)session.generate_block(0);
  (void)session.generate_envelope_block(1);
  EXPECT_EQ(tap->blocks_observed(), 0u);
  (void)session.next_block();
  EXPECT_EQ(tap->blocks_observed(), 1u);
}
