// Tests for the float32 emission pipeline (core::Precision::Float32):
// keyed/cursor/seek bit-identity on all three stream backends (the float
// path is its own bit-reference), float-vs-double agreement of the
// colored covariance through the narrowed coloring operator (including a
// forced-PSD target), KS acceptance of the Rayleigh/Rician/TWDP envelope
// marginals in float, shard-merge exactness of the accumulators over
// float blocks, and the ChannelSpec precision knob (hash participation
// plus canonicalization where no float path exists).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/metrics/accumulators.hpp"
#include "rfade/metrics/health.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/service/accumulators.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/ks_test.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::FadingStream;
using core::FadingStreamOptions;
using core::Precision;
using doppler::StreamBackend;
using numeric::cdouble;
using numeric::CMatrix;
using numeric::CMatrixF;
using service::ChannelSpec;
using service::EmissionMode;

CMatrix paper_covariance() {
  return channel::spectral_covariance_matrix(
      channel::paper_spectral_scenario());
}

FadingStreamOptions float_options(StreamBackend backend) {
  FadingStreamOptions options;
  options.backend = backend;
  options.idft_size = 128;
  options.normalized_doppler = 0.1;
  options.overlap = backend == StreamBackend::WindowedOverlapAdd ? 32 : 0;
  options.seed = 0xF10A7;
  options.precision = Precision::Float32;
  return options;
}

/// Thinned branch-0 envelope subsequence of `blocks` consecutive blocks
/// (samples inside a block are temporally correlated; KS needs
/// approximately independent draws).
numeric::RVector thinned_envelopes(FadingStream& stream, int blocks,
                                   std::size_t stride) {
  numeric::RVector samples;
  for (int b = 0; b < blocks; ++b) {
    const CMatrix block = stream.next_block();
    for (std::size_t t = 0; t < block.rows(); t += stride) {
      samples.push_back(std::abs(block(t, 0)));
    }
  }
  return samples;
}

// --- keyed / cursor / seek bit-identity -------------------------------------

TEST(Float32Stream, KeyedBlocksEqualCursorAndSurviveSeeksAllBackends) {
  const CMatrix k = paper_covariance();
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    const FadingStreamOptions options = float_options(backend);
    FadingStream cursor(k, options);
    FadingStream keyed(k, options);
    FadingStream seeker(k, options);
    EXPECT_EQ(cursor.precision(), Precision::Float32);

    std::vector<CMatrixF> blocks;
    for (std::uint64_t b = 0; b < 5; ++b) {
      blocks.push_back(cursor.next_block_f32());
    }
    for (std::uint64_t b = 0; b < 5; ++b) {
      EXPECT_EQ(keyed.generate_block_f32(options.seed, b), blocks[b])
          << doppler::stream_backend_name(backend) << " block " << b;
    }
    // Seeking backward and forward reproduces the same float
    // realisation, including stateful backends (history replay).
    seeker.seek(3);
    EXPECT_EQ(seeker.next_block_f32(), blocks[3])
        << doppler::stream_backend_name(backend);
    seeker.seek(1);
    EXPECT_EQ(seeker.next_block_f32(), blocks[1])
        << doppler::stream_backend_name(backend);
    EXPECT_EQ(seeker.next_block_f32(), blocks[2])
        << doppler::stream_backend_name(backend);
  }
}

TEST(Float32Stream, WidenedFacadeMatchesNativeFloatBlocks) {
  // next_block()/generate_block() on a Float32 stream are exact widenings
  // of the float blocks — one realisation per stream, two read widths.
  const CMatrix k = paper_covariance();
  const FadingStreamOptions options =
      float_options(StreamBackend::OverlapSaveFir);
  FadingStream wide(k, options);
  FadingStream narrow(k, options);
  for (std::uint64_t b = 0; b < 3; ++b) {
    const CMatrix w = wide.next_block();
    const CMatrixF f = narrow.next_block_f32();
    ASSERT_EQ(w.rows(), f.rows());
    for (std::size_t i = 0; i < w.size(); ++i) {
      EXPECT_EQ(w.data()[i].real(),
                static_cast<double>(f.data()[i].real()));
      EXPECT_EQ(w.data()[i].imag(),
                static_cast<double>(f.data()[i].imag()));
    }
  }
}

// --- coloring operator accuracy ---------------------------------------------

/// Relative Frobenius error between L_f L_f^H (widened float coloring,
/// double arithmetic) and the plan's double effective covariance.
double narrowed_coloring_error(const ColoringPlan& plan) {
  const auto& clone = plan.coloring_f32();
  const std::size_t n = clone.transposed.rows();
  CMatrix khat(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      cdouble acc(0.0, 0.0);
      for (std::size_t l = 0; l < n; ++l) {
        // clone.transposed is L^T: L(i, l) = transposed(l, i).
        const cdouble li(clone.transposed(l, i).real(),
                         clone.transposed(l, i).imag());
        const cdouble lj(clone.transposed(l, j).real(),
                         clone.transposed(l, j).imag());
        acc += li * std::conj(lj);
      }
      khat(i, j) = acc;
    }
  }
  return stats::relative_frobenius_error(khat, plan.effective_covariance());
}

TEST(Float32Plan, NarrowedColoringReproducesCovariance) {
  const auto plan = ColoringPlan::create(paper_covariance());
  EXPECT_LT(narrowed_coloring_error(*plan), 1e-4);
}

TEST(Float32Plan, NarrowedColoringReproducesForcedPsdCovariance) {
  // Indefinite Hermitian target (eigenvalues 3.1, -0.05, -0.05): PSD
  // forcing clips, and the narrowed operator must reproduce the *forced*
  // covariance to float accuracy.
  CMatrix k(3, 3);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      k(i, j) = cdouble(i == j ? 1.0 : 1.05, 0.0);
    }
  }
  const auto plan = ColoringPlan::create(k);
  EXPECT_GT(stats::relative_frobenius_error(plan->effective_covariance(), k),
            1e-3);  // forcing actually moved the target
  EXPECT_LT(narrowed_coloring_error(*plan), 1e-4);
}

// --- envelope marginals in float --------------------------------------------

TEST(Float32Envelopes, RayleighKsPasses) {
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(paper_covariance())
                               .backend(StreamBackend::OverlapSaveFir)
                               .idft_size(256)
                               .doppler(0.1)
                               .precision(Precision::Float32)
                               .build();
  const auto channel = spec.compile();
  FadingStream stream = channel->make_stream(0xBEEF);
  ASSERT_EQ(stream.precision(), Precision::Float32);
  const numeric::RVector samples = thinned_envelopes(stream, 60, 32);
  const double power = channel->plan()->effective_covariance()(0, 0).real();
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(power);
  const auto ks =
      stats::ks_test(samples, [&](double r) { return rayleigh.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(Float32Envelopes, RicianKsPasses) {
  const double k_factor = 4.0;
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rician(paper_covariance(), k_factor)
                               .backend(StreamBackend::WindowedOverlapAdd)
                               .overlap(64)
                               .idft_size(256)
                               .doppler(0.1)
                               .precision(Precision::Float32)
                               .build();
  const auto channel = spec.compile();
  FadingStream stream = channel->make_stream(0x51C32);
  ASSERT_EQ(stream.precision(), Precision::Float32);
  const numeric::RVector samples = thinned_envelopes(stream, 60, 32);
  const double power = channel->plan()->effective_covariance()(0, 0).real();
  const auto rician =
      stats::RicianDistribution::from_k_factor(k_factor, power);
  const auto ks =
      stats::ks_test(samples, [&](double r) { return rician.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(Float32Envelopes, TwdpKsPasses) {
  const double k_factor = 5.0;
  const double delta = 0.6;
  // Incommensurate wave Dopplers: the marginal is TWDP only once the
  // deterministic specular phase difference sweeps the circle.
  const ChannelSpec spec = ChannelSpec::Builder()
                               .twdp(paper_covariance(), k_factor, delta)
                               .idft_size(256)
                               .doppler(0.1)
                               .wave_dopplers(0.04, -0.025)
                               .precision(Precision::Float32)
                               .build();
  const auto channel = spec.compile();
  FadingStream stream = channel->make_stream(0x7D0);
  ASSERT_EQ(stream.precision(), Precision::Float32);
  const numeric::RVector samples = thinned_envelopes(stream, 60, 32);
  const double power = channel->plan()->effective_covariance()(0, 0).real();
  const auto twdp =
      stats::TwdpDistribution::from_parameters(k_factor, delta, power);
  const auto ks =
      stats::ks_test(samples, [&](double r) { return twdp.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
}

// --- accumulator shard merges over float blocks -----------------------------

TEST(Float32Accumulators, ShardMergeIsExactOverFloatBlocks) {
  const CMatrix k = paper_covariance();
  const FadingStreamOptions options =
      float_options(StreamBackend::OverlapSaveFir);
  FadingStream stream(k, options);
  const std::size_t n = k.rows();

  std::vector<CMatrixF> blocks;
  for (std::uint64_t b = 0; b < 6; ++b) {
    blocks.push_back(stream.generate_block_f32(options.seed, b));
  }

  service::EnvelopeMomentAccumulator moments_all(n);
  service::EnvelopeMomentAccumulator moments_even(n);
  service::EnvelopeMomentAccumulator moments_odd(n);
  service::ComplexCovarianceAccumulator cov_all(n);
  service::ComplexCovarianceAccumulator cov_even(n);
  service::ComplexCovarianceAccumulator cov_odd(n);
  for (std::size_t b = 0; b < blocks.size(); ++b) {
    moments_all.accumulate(blocks[b]);
    cov_all.accumulate(blocks[b]);
    (b % 2 == 0 ? moments_even : moments_odd).accumulate(blocks[b]);
    (b % 2 == 0 ? cov_even : cov_odd).accumulate(blocks[b]);
  }
  moments_even.merge(moments_odd);
  cov_even.merge(cov_odd);

  EXPECT_EQ(moments_even.count(), moments_all.count());
  for (std::size_t j = 0; j < n; ++j) {
    const auto merged = moments_even.finalize(j);
    const auto single = moments_all.finalize(j);
    EXPECT_EQ(merged.mean, single.mean) << "branch " << j;
    EXPECT_EQ(merged.second_moment, single.second_moment) << "branch " << j;
    EXPECT_EQ(merged.fourth_moment, single.fourth_moment) << "branch " << j;
    EXPECT_EQ(merged.variance, single.variance) << "branch " << j;
    EXPECT_EQ(merged.amount_of_fading, single.amount_of_fading)
        << "branch " << j;
  }
  EXPECT_EQ(cov_even.finalize(), cov_all.finalize());
}

// --- link-level metrics over float blocks -----------------------------------

CMatrix widened(const CMatrixF& block) {
  CMatrix out(block.rows(), block.cols());
  for (std::size_t i = 0; i < block.size(); ++i) {
    out.data()[i] = cdouble(static_cast<double>(block.data()[i].real()),
                            static_cast<double>(block.data()[i].imag()));
  }
  return out;
}

TEST(Float32Metrics, FloatObserveEqualsWidenedObserveBitForBit) {
  // The f32 accumulate overloads are exact widenings: folding a float
  // block and folding its double widening are the same multiset, so
  // every read-out matches EXPECT_EQ-exactly.
  const CMatrix k = paper_covariance();
  const FadingStreamOptions options =
      float_options(StreamBackend::OverlapSaveFir);
  FadingStream stream(k, options);
  const std::size_t n = k.rows();
  const std::vector<double> thresholds{0.5, 1.0};
  const std::vector<std::size_t> lags{1, 2, 4};
  std::vector<double> rms(n);
  std::vector<double> omega(n);
  for (std::size_t j = 0; j < n; ++j) {
    omega[j] = k(j, j).real();
    rms[j] = std::sqrt(omega[j]);
  }

  metrics::LevelCrossingAccumulator lcr_f(n, thresholds, rms);
  metrics::LevelCrossingAccumulator lcr_d(n, thresholds, rms);
  metrics::AcfAccumulator acf_f(n, lags);
  metrics::AcfAccumulator acf_d(n, lags);
  metrics::MutualInformationAccumulator mi_f(n, 10.0, omega, lags);
  metrics::MutualInformationAccumulator mi_d(n, 10.0, omega, lags);
  for (std::uint64_t b = 0; b < 6; ++b) {
    const CMatrixF block = stream.generate_block_f32(options.seed, b);
    const CMatrix wide = widened(block);
    lcr_f.accumulate(block);
    lcr_d.accumulate(wide);
    acf_f.accumulate(block);
    acf_d.accumulate(wide);
    mi_f.accumulate(block);
    mi_d.accumulate(wide);
  }

  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = 0; t < thresholds.size(); ++t) {
      const auto from_float = lcr_f.finalize(j, t);
      const auto from_double = lcr_d.finalize(j, t);
      EXPECT_EQ(from_float.up_crossings, from_double.up_crossings);
      EXPECT_EQ(from_float.samples_below, from_double.samples_below);
      EXPECT_EQ(from_float.longest_fade, from_double.longest_fade);
    }
    for (const std::size_t lag : lags) {
      EXPECT_EQ(acf_f.correlation_sum(j, lag), acf_d.correlation_sum(j, lag));
      EXPECT_EQ(mi_f.lag_product_sum(j, lag), mi_d.lag_product_sum(j, lag));
    }
    EXPECT_EQ(mi_f.sum(j), mi_d.sum(j));
    EXPECT_EQ(mi_f.sum_squares(j), mi_d.sum_squares(j));
  }
}

TEST(Float32Metrics, TapShardMergeIsExactOverFloatBlocks) {
  // Two taps splitting a float timeline merge into the single-pass tap
  // bit-for-bit — the cross-shard boundary state (fade runs, lag rings)
  // stitches float-fed segments exactly as double-fed ones.
  const CMatrix k = paper_covariance();
  const FadingStreamOptions options =
      float_options(StreamBackend::OverlapSaveFir);
  FadingStream stream(k, options);
  const std::size_t n = k.rows();

  metrics::AnalyticReference reference;
  reference.normalized_doppler = options.normalized_doppler;
  reference.branch_power.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    reference.branch_power[j] = k(j, j).real();
  }
  reference.rayleigh = false;  // colored branches: publish, don't gate

  metrics::MetricsTapConfig config;
  config.publish_every_blocks = 0;  // manual publish only
  metrics::MetricsTap single(reference, config);
  metrics::MetricsTap left(reference, config);
  metrics::MetricsTap right(reference, config);
  for (std::uint64_t b = 0; b < 9; ++b) {
    const CMatrixF block = stream.generate_block_f32(options.seed, b);
    single.observe(block);
    (b < 4 ? left : right).observe(block);
  }
  left.merge(right);

  EXPECT_EQ(left.samples_observed(), single.samples_observed());
  ASSERT_NE(left.level_crossings(), nullptr);
  ASSERT_NE(left.autocorrelation(), nullptr);
  ASSERT_NE(left.mutual_information(), nullptr);
  for (std::size_t j = 0; j < n; ++j) {
    for (std::size_t t = 0; t < config.thresholds.size(); ++t) {
      const auto merged = left.level_crossings()->finalize(j, t);
      const auto one_pass = single.level_crossings()->finalize(j, t);
      EXPECT_EQ(merged.up_crossings, one_pass.up_crossings);
      EXPECT_EQ(merged.samples_below, one_pass.samples_below);
      EXPECT_EQ(merged.longest_fade, one_pass.longest_fade);
      EXPECT_EQ(merged.lcr_per_sample, one_pass.lcr_per_sample);
      EXPECT_EQ(merged.afd_samples, one_pass.afd_samples);
    }
    for (const std::size_t lag : config.lags) {
      EXPECT_EQ(left.autocorrelation()->correlation_sum(j, lag),
                single.autocorrelation()->correlation_sum(j, lag));
      EXPECT_EQ(left.mutual_information()->lag_product_sum(j, lag),
                single.mutual_information()->lag_product_sum(j, lag));
    }
    EXPECT_EQ(left.mutual_information()->sum(j),
              single.mutual_information()->sum(j));
  }
}

TEST(Float32Metrics, RiceGatesPassOnFloatStream) {
  // The Rice LCR/AFD laws hold for the float emission path too: float
  // rounding (~1e-7 relative) is far below the statistical tolerance.
  const double fm = 0.05;
  const std::vector<double> thresholds{0.5, 1.0};
  FadingStreamOptions options;
  options.backend = StreamBackend::OverlapSaveFir;
  options.idft_size = 512;
  options.normalized_doppler = fm;
  options.seed = 0xF32C;
  options.precision = Precision::Float32;
  FadingStream stream(CMatrix::identity(1), options);
  ASSERT_EQ(stream.precision(), Precision::Float32);

  metrics::LevelCrossingAccumulator accumulator(1, thresholds, {1.0});
  for (int b = 0; b < 400; ++b) {
    accumulator.accumulate(stream.next_block_f32());
  }
  for (std::size_t t = 0; t < thresholds.size(); ++t) {
    const double rho = thresholds[t];
    const auto measured = accumulator.finalize(0, t);
    const double lcr_expected = stats::theoretical_lcr(rho, fm);
    const double afd_expected = stats::theoretical_afd(rho, fm);
    EXPECT_NEAR(measured.lcr_per_sample, lcr_expected, 0.10 * lcr_expected)
        << "rho " << rho;
    EXPECT_NEAR(measured.afd_samples, afd_expected, 0.10 * afd_expected)
        << "rho " << rho;
  }

  metrics::AnalyticReference reference;
  reference.normalized_doppler = fm;
  reference.branch_power = {1.0};
  reference.rayleigh = true;
  for (const auto& report :
       metrics::evaluate_health(accumulator, reference, {})) {
    EXPECT_TRUE(report.ok) << report.metric << " " << report.parameter
                           << " drift " << report.drift;
  }
}

// --- ChannelSpec precision knob ---------------------------------------------

TEST(ChannelSpecPrecision, ParticipatesInHashForStreamSpecs) {
  const CMatrix k = paper_covariance();
  const ChannelSpec f64 = ChannelSpec::Builder().rayleigh(k).build();
  const ChannelSpec f32 = ChannelSpec::Builder()
                              .rayleigh(k)
                              .precision(Precision::Float32)
                              .build();
  EXPECT_EQ(f64.precision(), Precision::Float64);
  EXPECT_EQ(f32.precision(), Precision::Float32);
  EXPECT_NE(f64.content_hash(), f32.content_hash());
  EXPECT_FALSE(f64 == f32);
}

TEST(ChannelSpecPrecision, CanonicalizedWhereNoFloatPathExists) {
  const CMatrix k = paper_covariance();
  // Instant emission has no float pipeline: the knob is inert and must
  // collapse so equal specs hash (and cache) equal.
  const ChannelSpec instant_f64 =
      ChannelSpec::Builder().rayleigh(k).instant().build();
  const ChannelSpec instant_f32 = ChannelSpec::Builder()
                                      .rayleigh(k)
                                      .instant()
                                      .precision(Precision::Float32)
                                      .build();
  EXPECT_EQ(instant_f32.precision(), Precision::Float64);
  EXPECT_EQ(instant_f64.content_hash(), instant_f32.content_hash());
  EXPECT_TRUE(instant_f64 == instant_f32);

  // A cascaded stream's product stage runs in the stream's own
  // precision, so there the knob is live and keeps the specs apart.
  const ChannelSpec cascaded_f64 =
      ChannelSpec::Builder().cascaded(k, k).build();
  const ChannelSpec cascaded_f32 = ChannelSpec::Builder()
                                       .cascaded(k, k)
                                       .precision(Precision::Float32)
                                       .build();
  EXPECT_EQ(cascaded_f32.precision(), Precision::Float32);
  EXPECT_NE(cascaded_f64.content_hash(), cascaded_f32.content_hash());
  EXPECT_FALSE(cascaded_f64 == cascaded_f32);
}

TEST(ChannelSpecPrecision, PrecisionNamesAreStableLabels) {
  EXPECT_STREQ(core::precision_name(Precision::Float64), "f64");
  EXPECT_STREQ(core::precision_name(Precision::Float32), "f32");
}

}  // namespace
