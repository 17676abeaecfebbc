// Tests for the composite-fading subsystem (scenario/composite/ + the
// core GainSource hook): the multiplicative gain threaded through every
// SamplePipeline / FadingStream hot path (unit gain bit-identical to the
// gain-free Rayleigh paths — the acceptance anchor), the Gudmundson
// shadowing process (marginal, exponential ACF, cross-branch coloring,
// seekability), Suzuki generation (KS against the exact lognormal
// mixture, streaming next_block/seek == keyed blocks on every backend)
// and the Gaussian-copula marginal transform (Nakagami-m / Weibull KS,
// Rayleigh pre-distortion anchor, realized envelope correlation).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "rfade/core/envelope_correlation.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/gain_source.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/metrics/accumulators.hpp"
#include "rfade/metrics/health.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/random/xoshiro.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/scenario/composite/copula.hpp"
#include "rfade/scenario/composite/shadowing.hpp"
#include "rfade/scenario/composite/suzuki.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::FadingStream;
using core::FadingStreamOptions;
using core::GainSource;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;
using numeric::RMatrix;
using numeric::RVector;
using scenario::composite::CopulaMarginal;
using scenario::composite::CopulaMarginalTransform;
using scenario::composite::ShadowingDesign;
using scenario::composite::ShadowingProcess;
using scenario::composite::ShadowingSpec;
using scenario::composite::SuzukiGenerator;

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

ShadowingSpec fast_shadowing() {
  // Unphysically fast shadowing (decorrelates in a few samples) so
  // statistical tests see many independent shadowing draws cheaply.
  ShadowingSpec spec;
  spec.sigma_db = 6.0;
  spec.decorrelation_samples = 4.0;
  spec.spacing = 1;
  return spec;
}

// --- GainSource contracts ----------------------------------------------------

TEST(GainSource, UnitAndAllOnesCollapse) {
  EXPECT_TRUE(GainSource().is_unit());
  EXPECT_TRUE(GainSource::unit().is_unit());
  EXPECT_TRUE(GainSource::constant({}).is_unit());
  EXPECT_TRUE(GainSource::constant({1.0, 1.0, 1.0}).is_unit());
  EXPECT_EQ(GainSource::constant({1.0, 1.0}).dimension(), 0u);
  const GainSource g = GainSource::constant({2.0, 0.5});
  EXPECT_FALSE(g.is_unit());
  EXPECT_TRUE(g.is_constant());
  EXPECT_FALSE(g.is_time_varying());
  EXPECT_EQ(g.dimension(), 2u);
}

TEST(GainSource, RejectsNonPositiveAndNonFinite) {
  EXPECT_THROW((void)GainSource::constant({1.0, 0.0}), ContractViolation);
  EXPECT_THROW((void)GainSource::constant({-2.0}), ContractViolation);
  EXPECT_THROW((void)GainSource::constant({std::nan("")}),
               ContractViolation);
  EXPECT_THROW(
      (void)GainSource::constant({std::numeric_limits<double>::infinity()}),
      ContractViolation);
  EXPECT_THROW((void)GainSource::dynamic(nullptr), ContractViolation);
}

TEST(GainSource, PipelineRejectsDimensionMismatch) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(4));
  core::PipelineOptions options;
  options.gain = GainSource::constant({2.0, 3.0});  // N = 2 != 4
  EXPECT_THROW((void)SamplePipeline(plan, options), ContractViolation);
  options.gain = GainSource::dynamic(
      std::make_shared<const ShadowingProcess>(3, fast_shadowing(), 1));
  EXPECT_THROW((void)SamplePipeline(plan, options), ContractViolation);
}

TEST(GainSource, GainsAtAndMultiplyRows) {
  const GainSource g = GainSource::constant({2.0, 0.5});
  std::vector<double> gains(2);
  g.gains_at(7, gains);
  EXPECT_EQ(gains[0], 2.0);
  EXPECT_EQ(gains[1], 0.5);
  std::vector<cdouble> rows = {cdouble(1.0, -1.0), cdouble(3.0, 2.0),
                               cdouble(0.5, 0.0), cdouble(-2.0, 4.0)};
  g.multiply_rows(0, 2, 2, rows.data());
  EXPECT_EQ(rows[0], cdouble(2.0, -2.0));
  EXPECT_EQ(rows[1], cdouble(1.5, 1.0));
  EXPECT_EQ(rows[2], cdouble(1.0, 0.0));
  EXPECT_EQ(rows[3], cdouble(-1.0, 2.0));
  // The unit gain writes ones and leaves rows untouched.
  std::vector<double> unit_gains(5);
  GainSource::unit().gains_at(3, unit_gains);
  for (double v : unit_gains) {
    EXPECT_EQ(v, 1.0);
  }
}

TEST(GainSource, GainsForRowsEqualsPerRowGainsAt) {
  constexpr std::size_t kN = 3;
  constexpr std::size_t kRows = 70;
  ShadowingSpec spec;
  spec.sigma_db = 5.0;
  spec.decorrelation_samples = 64.0;
  spec.spacing = 8;
  const GainSource forms[] = {
      GainSource::unit(),
      GainSource::constant({2.0, 0.5, 1.25}),
      GainSource::dynamic(
          std::make_shared<const ShadowingProcess>(kN, spec, 0xBEEF)),
  };
  for (const GainSource& g : forms) {
    for (const std::uint64_t first : {0ULL, 1003ULL, (1ULL << 33) + 5}) {
      std::vector<double> block(kRows * kN);
      g.gains_for_rows(first, kRows, kN, block.data());
      // The float multiply pass scales by each gain narrowed.
      std::vector<numeric::cfloat> narrow(kRows * kN,
                                          numeric::cfloat(1.5f, -0.25f));
      g.multiply_rows(first, kRows, kN, narrow.data());
      std::vector<double> row(kN);
      for (std::size_t t = 0; t < kRows; ++t) {
        g.gains_at(first + t, row);
        for (std::size_t j = 0; j < kN; ++j) {
          EXPECT_EQ(block[t * kN + j], row[j])
              << "first=" << first << " row " << t << " branch " << j;
          EXPECT_EQ(narrow[t * kN + j],
                    numeric::cfloat(1.5f, -0.25f) * static_cast<float>(row[j]))
              << "first=" << first << " row " << t << " branch " << j;
        }
      }
    }
  }
}

// --- bit-identity of the unit-gain paths (acceptance anchor) -----------------

TEST(GainSource, UnitGainBitIdenticalOnEveryPipelinePath) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(6));
  const SamplePipeline plain(plan);
  core::PipelineOptions with_unit;
  with_unit.gain = GainSource::unit();
  const SamplePipeline unit(plan, with_unit);
  core::PipelineOptions with_ones;
  with_ones.gain = GainSource::constant(RVector(6, 1.0));
  const SamplePipeline ones(plan, with_ones);

  EXPECT_FALSE(unit.has_gain());
  EXPECT_FALSE(ones.has_gain());

  // Bulk-keyed block, parallel stream, per-draw and rng-batched paths.
  EXPECT_EQ(unit.sample_block(333, 0xFEED, 2), plain.sample_block(333, 0xFEED, 2));
  EXPECT_EQ(unit.sample_stream(5000, 0xCAFE), plain.sample_stream(5000, 0xCAFE));
  EXPECT_EQ(ones.sample_stream(5000, 0xCAFE), plain.sample_stream(5000, 0xCAFE));
  random::Rng a(7);
  random::Rng b(7);
  EXPECT_EQ(unit.sample_block(257, a), plain.sample_block(257, b));
  random::Rng c(9);
  random::Rng d(9);
  numeric::CVector zu(6);
  numeric::CVector zp(6);
  for (int i = 0; i < 50; ++i) {
    unit.sample_into(c, zu, static_cast<std::uint64_t>(i));
    plain.sample_into(d, zp, static_cast<std::uint64_t>(i));
    for (std::size_t j = 0; j < 6; ++j) {
      EXPECT_EQ(zu[j], zp[j]);
    }
  }
  // color_block path.
  const CMatrix w = plain.sample_block(64, 0xB0B, 0);
  EXPECT_EQ(unit.color_block(w, 2.0), plain.color_block(w, 2.0));
}

TEST(GainSource, UnitGainBitIdenticalOnEveryStreamBackend) {
  const CMatrix k = tridiagonal_covariance(4);
  for (const doppler::StreamBackend backend :
       {doppler::StreamBackend::IndependentBlock,
        doppler::StreamBackend::WindowedOverlapAdd,
        doppler::StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = 256;
    options.normalized_doppler = 0.05;
    options.seed = 0x5EED;
    FadingStream plain(k, options);
    FadingStreamOptions with_unit = options;
    with_unit.gain = GainSource::unit();
    FadingStream unit(k, with_unit);
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(unit.next_block(), plain.next_block())
          << doppler::stream_backend_name(backend) << " block " << b;
    }
    EXPECT_EQ(unit.generate_block(0x5EED, 5), plain.generate_block(0x5EED, 5))
        << doppler::stream_backend_name(backend);
  }
}

TEST(GainSource, ConstantGainScalesColumnsExactly) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(3));
  const SamplePipeline plain(plan);
  core::PipelineOptions options;
  const RVector gains = {2.0, 0.25, 3.5};
  options.gain = GainSource::constant(gains);
  const SamplePipeline gained(plan, options);
  const CMatrix z = plain.sample_block(200, 0xD0, 0);
  const CMatrix g = gained.sample_block(200, 0xD0, 0);
  for (std::size_t t = 0; t < z.rows(); ++t) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(g(t, j), z(t, j) * gains[j]);
    }
  }
}

TEST(GainSource, DynamicGainBatchedMatchesPerDraw) {
  // With a time-varying gain the rng-batched path must still equal
  // per-draw sampling at matching instants.
  const auto plan = ColoringPlan::create(tridiagonal_covariance(3));
  core::PipelineOptions options;
  options.gain = GainSource::dynamic(
      std::make_shared<const ShadowingProcess>(3, fast_shadowing(), 0xAB));
  const SamplePipeline pipeline(plan, options);
  ASSERT_TRUE(pipeline.has_gain());
  ASSERT_TRUE(pipeline.has_time_varying_gain());
  random::Rng rng_block(31);
  random::Rng rng_draw(31);
  const CMatrix block = pipeline.sample_block(100, rng_block);
  numeric::CVector z(3);
  for (std::size_t t = 0; t < block.rows(); ++t) {
    pipeline.sample_into(rng_draw, z, t);
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(block(t, j), z[j]) << "row " << t;
    }
  }
  // And the parallel stream is thread-count independent.
  core::PipelineOptions serial = options;
  serial.block_size = 512;
  serial.parallel = false;
  core::PipelineOptions parallel = serial;
  parallel.parallel = true;
  EXPECT_EQ(SamplePipeline(plan, serial).sample_stream(3000, 5),
            SamplePipeline(plan, parallel).sample_stream(3000, 5));
}

// --- ShadowingProcess --------------------------------------------------------

TEST(Shadowing, RejectsOutOfRangeParameters) {
  ShadowingSpec spec;
  spec.sigma_db = 0.0;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.sigma_db = 25.0;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.mean_db = 60.0;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.decorrelation_samples = 0.5;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.spacing = 0;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.truncation_tolerance = 0.0;
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.branch_correlation = RMatrix(3, 3, 0.0);  // wrong size for N = 2
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec = {};
  spec.branch_correlation = RMatrix(2, 2, 0.0);
  spec.branch_correlation(0, 0) = 1.0;
  spec.branch_correlation(1, 1) = 0.5;  // diagonal must be 1
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec.branch_correlation(1, 1) = 1.0;
  spec.branch_correlation(0, 1) = 0.4;
  spec.branch_correlation(1, 0) = -0.4;  // asymmetric
  EXPECT_THROW((void)ShadowingDesign(2, spec), ContractViolation);
  spec.branch_correlation(1, 0) = 0.4;
  EXPECT_NO_THROW((void)ShadowingDesign(2, spec));
  EXPECT_THROW((void)ShadowingDesign(0, ShadowingSpec{}), ContractViolation);
}

TEST(Shadowing, GainsArePureFunctionsOfSeedAndInstant) {
  ShadowingSpec spec;
  spec.sigma_db = 5.0;
  spec.decorrelation_samples = 64.0;
  spec.spacing = 8;
  const ShadowingProcess process(3, spec, 0xC0DE);
  std::vector<double> whole(900 * 3);
  process.gains_for_rows(100, 900, whole);
  // Split calls reproduce the same gains (no carried state).
  std::vector<double> head(500 * 3);
  std::vector<double> tail(400 * 3);
  process.gains_for_rows(100, 500, head);
  process.gains_for_rows(600, 400, tail);
  for (std::size_t i = 0; i < head.size(); ++i) {
    EXPECT_EQ(head[i], whole[i]);
  }
  for (std::size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i], whole[500 * 3 + i]);
  }
  for (double g : whole) {
    EXPECT_GT(g, 0.0);
  }
  // A different seed is a different realisation.
  const ShadowingProcess other(3, spec, 0xC0DF);
  std::vector<double> other_gains(900 * 3);
  other.gains_for_rows(100, 900, other_gains);
  std::size_t differing = 0;
  for (std::size_t i = 0; i < whole.size(); ++i) {
    differing += other_gains[i] != whole[i] ? 1 : 0;
  }
  EXPECT_GT(differing, whole.size() / 2);
}

/// ShadowingProcess::gains_for_rows as first written: the same tape
/// seed (salt + splitmix64), per-branch bulk-Philox tapes and mixing,
/// but the FIR with nodes outer and taps inner — one running sum per
/// node, taps in ascending k from +0.
std::vector<double> node_order_reference_gains(const ShadowingDesign& design,
                                               std::uint64_t seed,
                                               std::uint64_t first_instant,
                                               std::size_t rows) {
  std::uint64_t state = seed ^ 0x5AD0516A11C0FFEEULL;
  const std::uint64_t tape = random::splitmix64(state);
  const std::size_t n = design.dimension();
  const std::size_t k = design.taps();
  const RVector& taps = design.taps_vector();
  const std::size_t spacing = design.spec().spacing;
  const std::uint64_t first_node = first_instant / spacing;
  const std::size_t count = static_cast<std::size_t>(
      (first_instant + rows - 1) / spacing + 1 - first_node + 1);
  const std::size_t white = count + k - 1;
  std::vector<double> w_re(white);
  std::vector<double> w_im(white);
  std::vector<double> f_re(count * n);
  std::vector<double> f_im(count * n);
  for (std::size_t i = 0; i < n; ++i) {
    random::fill_complex_gaussians_planar(tape, i + 1, 2.0, first_node, white,
                                          w_re.data(), w_im.data());
    for (std::size_t t = 0; t < count; ++t) {
      double acc_re = 0.0;
      double acc_im = 0.0;
      for (std::size_t j = 0; j < k; ++j) {
        acc_re += taps[j] * w_re[t + k - 1 - j];
        acc_im += taps[j] * w_im[t + k - 1 - j];
      }
      f_re[i * count + t] = acc_re;
      f_im[i * count + t] = acc_im;
    }
  }
  const double scale = design.spec().sigma_db *
                       stats::LognormalDistribution::kDbToNaturalLog;
  const double offset =
      design.spec().mean_db * stats::LognormalDistribution::kDbToNaturalLog;
  std::vector<double> nodes(count * n);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = f_re[j * count + t];
      if (design.has_mixing()) {
        s = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          s += design.mixing_matrix()(j, i).real() * f_re[i * count + t] -
               design.mixing_matrix()(j, i).imag() * f_im[i * count + t];
        }
      }
      nodes[t * n + j] = std::exp(offset + scale * s);
    }
  }
  std::vector<double> out(rows * n);
  const double inv_spacing = 1.0 / static_cast<double>(spacing);
  for (std::size_t t = 0; t < rows; ++t) {
    const std::uint64_t l = first_instant + t;
    const std::size_t node = static_cast<std::size_t>(l / spacing - first_node);
    const double frac = static_cast<double>(l % spacing) * inv_spacing;
    for (std::size_t j = 0; j < n; ++j) {
      const double a = nodes[node * n + j];
      const double b = nodes[(node + 1) * n + j];
      out[t * n + j] = a + frac * (b - a);
    }
  }
  return out;
}

TEST(Shadowing, TapOuterFirBitIdenticalToNodeOrderReference) {
  constexpr std::size_t kN = 3;
  RMatrix correlation(kN, kN);
  for (std::size_t i = 0; i < kN; ++i) {
    for (std::size_t j = 0; j < kN; ++j) {
      correlation(i, j) = i == j ? 1.0 : 0.55;
    }
  }
  for (const bool mixed : {false, true}) {
    for (const std::size_t spacing : {std::size_t{1}, std::size_t{64}}) {
      ShadowingSpec spec;
      spec.sigma_db = 7.0;
      spec.mean_db = -2.0;
      spec.spacing = spacing;
      spec.decorrelation_samples = spacing == 1 ? 64.0 : 2048.0;
      if (mixed) {
        spec.branch_correlation = correlation;
      }
      const auto design = std::make_shared<const ShadowingDesign>(kN, spec);
      ASSERT_EQ(design->has_mixing(), mixed);
      const ShadowingProcess process(design, 0x5EED);
      const std::uint64_t a = 12345;
      const std::size_t rows = 300;
      std::vector<double> whole(rows * kN);
      process.gains_for_rows(a, rows, whole);
      const std::vector<double> want =
          node_order_reference_gains(*design, 0x5EED, a, rows);
      for (std::size_t i = 0; i < whole.size(); ++i) {
        ASSERT_EQ(whole[i], want[i])
            << "mixed=" << mixed << " spacing=" << spacing << " entry " << i;
      }
      // [a, b) is [a, m) followed by [m, b).
      const std::size_t head_rows = 131;
      std::vector<double> head(head_rows * kN);
      std::vector<double> tail((rows - head_rows) * kN);
      process.gains_for_rows(a, head_rows, head);
      process.gains_for_rows(a + head_rows, rows - head_rows, tail);
      for (std::size_t i = 0; i < head.size(); ++i) {
        ASSERT_EQ(head[i], whole[i]) << "mixed=" << mixed
                                     << " spacing=" << spacing;
      }
      for (std::size_t i = 0; i < tail.size(); ++i) {
        ASSERT_EQ(tail[i], whole[head.size() + i])
            << "mixed=" << mixed << " spacing=" << spacing;
      }
    }
  }
}

TEST(Shadowing, NodeMarginalAndGudmundsonAcf) {
  ShadowingSpec spec;
  spec.sigma_db = 6.0;
  spec.mean_db = -2.0;
  spec.decorrelation_samples = 8.0;
  spec.spacing = 1;
  const ShadowingProcess process(1, spec, 0x51);
  const std::size_t count = 200000;
  std::vector<double> gains(count);
  process.gains_for_rows(0, count, gains);
  // Recover the dB field: spacing 1 means no interpolation.
  std::vector<double> db(count);
  for (std::size_t i = 0; i < count; ++i) {
    db[i] = 20.0 * std::log10(gains[i]);
  }
  stats::RunningStats moments;
  for (double v : db) {
    moments.add(v);
  }
  EXPECT_NEAR(moments.mean(), -2.0, 0.1);
  EXPECT_NEAR(std::sqrt(moments.variance()), 6.0, 0.1);
  // Empirical ACF vs Gudmundson's e^{-d/D} on the node grid.
  const double mean = moments.mean();
  const double var = moments.variance();
  for (const std::size_t lag : {1ul, 4ul, 8ul, 16ul}) {
    double acc = 0.0;
    for (std::size_t i = 0; i + lag < count; ++i) {
      acc += (db[i] - mean) * (db[i + lag] - mean);
    }
    const double rho = acc / (static_cast<double>(count - lag) * var);
    const double expected =
        std::exp(-static_cast<double>(lag) / spec.decorrelation_samples);
    EXPECT_NEAR(rho, expected, 0.02) << "lag " << lag;
  }
  // node_db agrees with the recovered field.
  const RVector first = process.node_db(0);
  EXPECT_NEAR(first[0], db[0], 1e-12);
}

TEST(Shadowing, CrossBranchCorrelationThroughColoringPlan) {
  ShadowingSpec spec = fast_shadowing();
  spec.branch_correlation = RMatrix(2, 2, 0.0);
  spec.branch_correlation(0, 0) = spec.branch_correlation(1, 1) = 1.0;
  spec.branch_correlation(0, 1) = spec.branch_correlation(1, 0) = 0.7;
  const ShadowingProcess process(2, spec, 0x7E57);
  EXPECT_NEAR(process.design()->effective_branch_correlation()(0, 1), 0.7,
              1e-12);
  const std::size_t count = 120000;
  std::vector<double> gains(count * 2);
  process.gains_for_rows(0, count, gains);
  stats::RunningStats s0;
  stats::RunningStats s1;
  double cross = 0.0;
  std::vector<double> db0(count);
  std::vector<double> db1(count);
  for (std::size_t i = 0; i < count; ++i) {
    db0[i] = 20.0 * std::log10(gains[2 * i]);
    db1[i] = 20.0 * std::log10(gains[2 * i + 1]);
    s0.add(db0[i]);
    s1.add(db1[i]);
  }
  for (std::size_t i = 0; i < count; ++i) {
    cross += (db0[i] - s0.mean()) * (db1[i] - s1.mean());
  }
  const double rho = cross / (static_cast<double>(count) *
                              std::sqrt(s0.variance() * s1.variance()));
  EXPECT_NEAR(rho, 0.7, 0.03);
}

TEST(Shadowing, NonPsdBranchCorrelationIsForced) {
  // A 3-branch "correlation" that is not PSD: the process's own coloring
  // plan must force it (the paper's step 3) instead of failing.
  ShadowingSpec spec = fast_shadowing();
  spec.branch_correlation = RMatrix(3, 3, 0.9);
  for (std::size_t i = 0; i < 3; ++i) {
    spec.branch_correlation(i, i) = 1.0;
  }
  spec.branch_correlation(0, 1) = spec.branch_correlation(1, 0) = -0.9;
  const ShadowingDesign design(3, spec);
  const RMatrix& effective = design.effective_branch_correlation();
  for (std::size_t i = 0; i < 3; ++i) {
    // Eigenvalue clipping may move the diagonal (it is the Frobenius-
    // nearest PSD matrix, not a diagonal-preserving one); the marginal
    // accounting must track the *effective* per-branch dB deviation.
    EXPECT_GT(effective(i, i), 0.0);
    EXPECT_NEAR(design.effective_sigma_db(i),
                spec.sigma_db * std::sqrt(effective(i, i)), 1e-12);
  }
  // The realised matrix is PSD: a second plan accepts it unchanged.
  const auto forced = ColoringPlan::create(numeric::to_complex(effective));
  EXPECT_LT(forced->coloring().psd.frobenius_distance, 1e-9);
}

// --- Suzuki ------------------------------------------------------------------

TEST(Suzuki, MarginalsPassKsAgainstLognormalMixture) {
  // Fast shadowing + stride 32 so retained samples are effectively
  // independent draws of the composite law (see validate_suzuki docs).
  ShadowingSpec spec = fast_shadowing();
  const SuzukiGenerator generator(
      ColoringPlan::create(tridiagonal_covariance(3)), spec);
  core::ValidationOptions options;
  options.samples = 60000;
  options.chunk_size = 2048;
  options.ks_samples_per_branch = 15000;
  const auto report = validate_suzuki(generator, options, /*stride=*/32);
  EXPECT_LT(report.max_mean_rel_error, 0.02);
  EXPECT_LT(report.max_second_moment_rel_error, 0.05);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(Suzuki, KeyedBlockIndexOverflowIsAContractViolation) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  scenario::composite::SuzukiOptions options;
  options.block_size = 64;
  const SuzukiGenerator generator(
      ColoringPlan::create(tridiagonal_covariance(2)), fast_shadowing(),
      options);
  // Block b covers instants [64 b, 64 b + 63]: the last one ends at kMax.
  const std::uint64_t last = kMax / 64;
  const CMatrix z = generator.sample_block(64, 11, last);
  for (std::size_t i = 0; i < z.size(); ++i) {
    EXPECT_TRUE(std::isfinite(std::abs(z.data()[i])));
  }
  EXPECT_THROW((void)generator.sample_block(64, 11, last + 1),
               ContractViolation);
  EXPECT_THROW((void)generator.sample_block(65, 11, last), ContractViolation);
}

TEST(Suzuki, MomentsHoldUnderPhysicalSlowShadowing) {
  // A physically-paced configuration (decorrelation over thousands of
  // samples, coarse node grid): the mean/second-moment columns stay
  // consistent even though consecutive samples are strongly dependent.
  ShadowingSpec spec;
  spec.sigma_db = 4.0;
  spec.decorrelation_samples = 1024.0;
  spec.spacing = 64;
  const SuzukiGenerator generator(
      ColoringPlan::create(tridiagonal_covariance(2)), spec);
  core::ValidationOptions options;
  options.samples = 400000;
  options.seed = 0x5A;
  const auto report = validate_suzuki(generator, options, /*stride=*/16);
  // ~25 shadowing decorrelation lengths in the thinned trace: moments
  // converge slowly, so the tolerances are loose.
  EXPECT_LT(report.max_mean_rel_error, 0.08);
  EXPECT_LT(report.max_second_moment_rel_error, 0.2);
}

TEST(Suzuki, StreamingMatchesKeyedBlocksAndSeeks) {
  // Acceptance: streaming Suzuki next_block()/seek() == keyed
  // generate_block on every backend.
  ShadowingSpec spec;
  spec.sigma_db = 5.0;
  spec.decorrelation_samples = 256.0;
  spec.spacing = 16;
  const SuzukiGenerator generator(
      ColoringPlan::create(tridiagonal_covariance(3)), spec);
  for (const doppler::StreamBackend backend :
       {doppler::StreamBackend::IndependentBlock,
        doppler::StreamBackend::WindowedOverlapAdd,
        doppler::StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = 256;
    options.seed = 0x5EED + static_cast<int>(backend);
    FadingStream stream = generator.make_stream(options);
    std::vector<CMatrix> blocks;
    for (int b = 0; b < 3; ++b) {
      blocks.push_back(stream.next_block());
    }
    for (int b = 0; b < 3; ++b) {
      EXPECT_EQ(blocks[b], stream.generate_block(options.seed, b))
          << doppler::stream_backend_name(backend) << " block " << b;
    }
    stream.seek(1);
    EXPECT_EQ(stream.next_block(), blocks[1])
        << doppler::stream_backend_name(backend) << " after seek";
  }
}

TEST(Suzuki, StreamGainIsContinuousAcrossBlockBoundaries) {
  // The shadowing trajectory is indexed by absolute instant, so the
  // per-sample envelope gain ratio across a block seam must move slowly
  // (no restart): compare the shadowing gains straddling the boundary.
  ShadowingSpec spec;
  spec.sigma_db = 6.0;
  spec.decorrelation_samples = 4096.0;
  spec.spacing = 32;
  const ShadowingProcess process(1, spec, 0xBEEF);
  const std::size_t block = 512;
  std::vector<double> gains(2 * block);
  process.gains_for_rows(0, 2 * block, gains);
  // Ratio across the seam stays within a few percent at D = 4096.
  const double before = gains[block - 1];
  const double after = gains[block];
  EXPECT_NEAR(after / before, 1.0, 0.05);
}

TEST(Suzuki, StreamAcfFollowsJ0TimesGudmundsonProductLaw) {
  // The PR-5 leftover: the composite stream's normalised complex ACF is
  // the Rayleigh core's J0(2 pi fm d) times the lognormal-gain factor
  // exp(sigma_n^2 (e^{-d/D} - 1)), sigma_n = sigma_dB ln(10)/20 — the
  // "J0 x Gudmundson-exponential" product law — measured here with the
  // streaming metrics::AcfAccumulator over real Suzuki blocks.
  ShadowingSpec spec;
  spec.sigma_db = 8.0;
  spec.decorrelation_samples = 32.0;
  spec.spacing = 1;  // exact per-sample synthesis: no interpolation bias
  const double fm = 0.02;
  const SuzukiGenerator generator(ColoringPlan::create(CMatrix::identity(1)),
                                  spec);

  // Two estimator traps handled here: (a) at fm = 0.02 the Jakes
  // spectrum occupies only a handful of bins of a small IDFT grid, so
  // the core's own ACF tracks J0 at lags 16-24 only for idft_size >=
  // 1024; (b) the lognormal gain (sigma_n ~ 0.92) inflates the ACF
  // estimator variance by its fourth-moment ratio e^{4 sigma_n^2} ~
  // 30x.  Shard over four independent seeds and merge — the production
  // pattern the accumulator's merge() exists for.
  const std::vector<std::size_t> lags{4, 8, 16, 24};
  metrics::AcfAccumulator accumulator(1, lags);
  for (std::uint64_t seed : {0x5A2u, 0x5A3u, 0x5A4u, 0x5A5u}) {
    FadingStreamOptions options;
    options.backend = doppler::StreamBackend::OverlapSaveFir;
    options.idft_size = 1024;
    options.normalized_doppler = fm;
    options.seed = seed;
    FadingStream stream = generator.make_stream(options);
    metrics::AcfAccumulator shard(1, lags);
    for (int b = 0; b < 1500; ++b) {
      shard.accumulate(stream.next_block());
    }
    accumulator.merge(shard);
  }

  metrics::AnalyticReference reference;
  reference.normalized_doppler = fm;
  reference.branch_power = {1.0};
  reference.rayleigh = true;
  reference.shadowing =
      metrics::ShadowingReference{spec.sigma_db, spec.decorrelation_samples};

  for (const std::size_t lag : lags) {
    const double product_law = metrics::expected_acf(reference, lag);
    const double bare_j0 = special::bessel_j0(
        2.0 * 3.141592653589793 * fm * static_cast<double>(lag));
    const double measured = accumulator.autocorrelation(0, lag).real();
    EXPECT_NEAR(measured, product_law, 0.07) << "lag " << lag;
    // The shadowing factor is what closes the gap: the product law must
    // fit strictly better than the bare Rayleigh J0 reference.
    EXPECT_LT(std::abs(measured - product_law),
              std::abs(measured - bare_j0))
        << "lag " << lag;
  }

  // And the drift gate agrees: a Suzuki reference evaluates the ACF
  // family against the product law, within the default tolerance.
  for (const auto& report :
       metrics::evaluate_health(accumulator, reference, {})) {
    EXPECT_TRUE(report.ok) << "lag " << report.parameter << " drift "
                           << report.drift;
  }
}

TEST(Suzuki, RejectsNullPlan) {
  EXPECT_THROW(
      (void)SuzukiGenerator(std::shared_ptr<const ColoringPlan>(nullptr),
                            ShadowingSpec{}),
      ContractViolation);
  core::ValidationOptions options;
  const SuzukiGenerator generator(
      ColoringPlan::create(tridiagonal_covariance(2)), fast_shadowing());
  EXPECT_THROW((void)validate_suzuki(generator, options, 0),
               ContractViolation);
}

// --- Copula marginal transform -----------------------------------------------

TEST(Copula, RayleighPairMatchesExactHypergeometricLaw) {
  // The Laguerre/Downton machinery must reproduce the closed-form 2F1
  // envelope-correlation law for Rayleigh marginals — the pre-distortion
  // anchor tying the copula layer to core/envelope_correlation.hpp.
  RMatrix target(2, 2, 0.0);
  target(0, 0) = target(1, 1) = 1.0;
  const CopulaMarginalTransform transform(
      target, {CopulaMarginal::rayleigh(1.0), CopulaMarginal::rayleigh(2.0)});
  for (double lambda : {0.0, 0.1, 0.3, 0.6, 0.85}) {
    const double expected = core::envelope_correlation_from_gaussian(
        cdouble(std::sqrt(lambda), 0.0), 1.0, 1.0);
    EXPECT_NEAR(transform.pair_envelope_correlation(0, 1, lambda), expected,
                2e-3)
        << "lambda " << lambda;
  }
  // Identical marginals at full power correlation approach rho_env = 1.
  EXPECT_NEAR(transform.pair_envelope_correlation(0, 0, 1.0), 1.0, 2e-3);
}

TEST(Copula, PredistortionHitsTargetForNakagami) {
  // Pre-distorted lambda differs from the naive target and the forward
  // map sends it back to the requested envelope correlation.
  RMatrix target(2, 2, 0.0);
  target(0, 0) = target(1, 1) = 1.0;
  target(0, 1) = target(1, 0) = 0.6;
  const CopulaMarginalTransform transform(
      target,
      {CopulaMarginal::nakagami(2.5, 1.0), CopulaMarginal::nakagami(4.0, 2.0)});
  const double lambda = transform.predistorted_power_correlation(0, 1);
  EXPECT_GT(lambda, 0.0);
  EXPECT_LT(lambda, 1.0);
  EXPECT_NEAR(transform.pair_envelope_correlation(0, 1, lambda), 0.6, 1e-6);
  // The realised prediction under the effective covariance matches too
  // (no PSD forcing needed for a 2x2 with lambda < 1).
  const RMatrix predicted = transform.predicted_envelope_correlation();
  EXPECT_NEAR(predicted(0, 1), 0.6, 1e-6);
}

TEST(Copula, NakagamiMarginalsPassKs) {
  // Acceptance: KS for m in {0.5, 1, 2.5, 4} with a correlated core.
  RMatrix target(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    target(i, i) = 1.0;
  }
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    target(i, i + 1) = target(i + 1, i) = 0.5;
  }
  const CopulaMarginalTransform transform(
      target,
      {CopulaMarginal::nakagami(0.5, 1.0), CopulaMarginal::nakagami(1.0, 2.0),
       CopulaMarginal::nakagami(2.5, 1.5),
       CopulaMarginal::nakagami(4.0, 0.8)});
  core::ValidationOptions options;
  options.samples = 60000;
  options.ks_samples_per_branch = 15000;
  const auto report = validate_copula(transform, options);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_LT(report.max_variance_rel_error, 0.05);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(Copula, WeibullMarginalsPassKs) {
  RMatrix target(2, 2, 0.0);
  target(0, 0) = target(1, 1) = 1.0;
  target(0, 1) = target(1, 0) = 0.4;
  const CopulaMarginalTransform transform(
      target,
      {CopulaMarginal::weibull(1.5, 1.0), CopulaMarginal::weibull(3.0, 2.0)});
  core::ValidationOptions options;
  options.samples = 60000;
  options.ks_samples_per_branch = 15000;
  const auto report = validate_copula(transform, options);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(Copula, RealizedEnvelopeCorrelationMatchesSpec) {
  // Acceptance: the measured Pearson correlation of the transformed
  // envelopes hits the envelope-domain spec (through the pre-distortion)
  // within Monte-Carlo tolerance.
  RMatrix target(3, 3, 0.0);
  for (std::size_t i = 0; i < 3; ++i) {
    target(i, i) = 1.0;
  }
  target(0, 1) = target(1, 0) = 0.7;
  target(0, 2) = target(2, 0) = 0.3;
  target(1, 2) = target(2, 1) = 0.5;
  const CopulaMarginalTransform transform(
      target,
      {CopulaMarginal::nakagami(0.5, 1.0), CopulaMarginal::nakagami(2.5, 1.0),
       CopulaMarginal::weibull(3.0, 1.0)});
  const std::size_t count = 300000;
  const RMatrix r = transform.sample_envelope_stream(count, 0xC0A);
  std::vector<stats::RunningStats> stats_per_branch(3);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < 3; ++j) {
      stats_per_branch[j].add(r(t, j));
    }
  }
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = i + 1; j < 3; ++j) {
      double cross = 0.0;
      for (std::size_t t = 0; t < count; ++t) {
        cross += (r(t, i) - stats_per_branch[i].mean()) *
                 (r(t, j) - stats_per_branch[j].mean());
      }
      const double rho =
          cross / (static_cast<double>(count) *
                   std::sqrt(stats_per_branch[i].variance() *
                             stats_per_branch[j].variance()));
      EXPECT_NEAR(rho, target(i, j), 0.015) << "pair " << i << "," << j;
    }
  }
}

TEST(Copula, ForcedCoreStillMatchesItsPrediction) {
  // A chain of strong targets over dissimilar marginals demands a
  // non-PSD Gaussian core; the plan forces it (paper Sec. 4.2) and
  // predicted_envelope_correlation() reports the realisable correlation
  // — the measured envelopes must match the prediction, not the
  // original (infeasible) spec.
  RMatrix target(4, 4, 0.0);
  for (std::size_t i = 0; i < 4; ++i) {
    target(i, i) = 1.0;
  }
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    target(i, i + 1) = target(i + 1, i) = 0.6;
  }
  const CopulaMarginalTransform transform(
      target,
      {CopulaMarginal::nakagami(0.5, 1.0), CopulaMarginal::nakagami(1.0, 1.5),
       CopulaMarginal::nakagami(2.5, 2.0),
       CopulaMarginal::nakagami(4.0, 2.5)});
  const RMatrix predicted = transform.predicted_envelope_correlation();
  // Forcing moved the chain correlations down from the spec.
  EXPECT_LT(predicted(0, 1), 0.6);
  const std::size_t count = 200000;
  const RMatrix r = transform.sample_envelope_stream(count, 0xF0);
  std::vector<stats::RunningStats> branch_stats(4);
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < 4; ++j) {
      branch_stats[j].add(r(t, j));
    }
  }
  for (std::size_t i = 0; i + 1 < 4; ++i) {
    double cross = 0.0;
    for (std::size_t t = 0; t < count; ++t) {
      cross += (r(t, i) - branch_stats[i].mean()) *
               (r(t, i + 1) - branch_stats[i + 1].mean());
    }
    const double measured =
        cross / (static_cast<double>(count) *
                 std::sqrt(branch_stats[i].variance() *
                           branch_stats[i + 1].variance()));
    EXPECT_NEAR(measured, predicted(i, i + 1), 0.02) << "pair " << i;
  }
}

TEST(Copula, KeyedBlocksArePureAndStreamIsThreadCountFree) {
  RMatrix target(2, 2, 0.0);
  target(0, 0) = target(1, 1) = 1.0;
  target(0, 1) = target(1, 0) = 0.5;
  scenario::composite::CopulaOptions serial;
  serial.block_size = 512;
  serial.parallel = false;
  const CopulaMarginalTransform a(
      target,
      {CopulaMarginal::nakagami(2.5, 1.0), CopulaMarginal::weibull(2.0, 1.0)},
      serial);
  scenario::composite::CopulaOptions parallel = serial;
  parallel.parallel = true;
  const CopulaMarginalTransform b(
      target,
      {CopulaMarginal::nakagami(2.5, 1.0), CopulaMarginal::weibull(2.0, 1.0)},
      parallel);
  EXPECT_EQ(a.sample_envelope_stream(3000, 9),
            b.sample_envelope_stream(3000, 9));
  EXPECT_EQ(a.sample_envelope_block(100, 3, 7),
            b.sample_envelope_block(100, 3, 7));
}

TEST(Copula, RejectsBadTargetsAndUnreachableCorrelation) {
  RMatrix target(2, 2, 0.0);
  target(0, 0) = target(1, 1) = 1.0;
  const std::vector<CopulaMarginal> marginals = {
      CopulaMarginal::nakagami(0.5, 1.0), CopulaMarginal::weibull(8.0, 1.0)};
  // Negative / unit / asymmetric / bad-diagonal targets.
  target(0, 1) = target(1, 0) = -0.2;
  EXPECT_THROW((void)CopulaMarginalTransform(target, marginals),
               ContractViolation);
  target(0, 1) = target(1, 0) = 1.0;
  EXPECT_THROW((void)CopulaMarginalTransform(target, marginals),
               ContractViolation);
  target(0, 1) = 0.3;
  target(1, 0) = 0.6;
  EXPECT_THROW((void)CopulaMarginalTransform(target, marginals),
               ContractViolation);
  target(0, 1) = target(1, 0) = 0.3;
  target(1, 1) = 0.9;
  EXPECT_THROW((void)CopulaMarginalTransform(target, marginals),
               ContractViolation);
  target(1, 1) = 1.0;
  // Reachability: the maximum envelope correlation of this dissimilar
  // pair is < 1; ask for more than the forward map can deliver.
  target(0, 1) = target(1, 0) = 0.0;
  const CopulaMarginalTransform probe(target, marginals);
  const double rho_max = probe.pair_envelope_correlation(0, 1, 1.0);
  ASSERT_LT(rho_max, 0.999);
  target(0, 1) = target(1, 0) = 0.5 * (rho_max + 1.0);
  EXPECT_THROW((void)CopulaMarginalTransform(target, marginals),
               ContractViolation);
  // Nakagami m = 1 is Rayleigh: the transform's m = 1 marginal and the
  // rayleigh anchor agree on the realised correlation map.
  RMatrix pair(2, 2, 0.0);
  pair(0, 0) = pair(1, 1) = 1.0;
  const CopulaMarginalTransform nakagami_one(
      pair,
      {CopulaMarginal::nakagami(1.0, 1.0), CopulaMarginal::nakagami(1.0, 1.0)});
  const CopulaMarginalTransform rayleigh(
      pair, {CopulaMarginal::rayleigh(1.0), CopulaMarginal::rayleigh(1.0)});
  for (double lambda : {0.2, 0.7}) {
    EXPECT_NEAR(nakagami_one.pair_envelope_correlation(0, 1, lambda),
                rayleigh.pair_envelope_correlation(0, 1, lambda), 1e-9);
  }
}

}  // namespace
