// Tests for the time-varying scenario subsystem: the MeanSource
// generalization of the pipeline mean hook (constant / Doppler-phasor /
// block forms, with the zero and constant fast paths bit-identical to
// the PR-2 behaviour), TWDP fading in instant and real-time modes
// (degeneracies: Delta = 0 -> Rician, K = 0 -> bit-identical Rayleigh),
// the instant cascade's double-Rayleigh KS, and the real-time cascaded
// product stream (product autocorrelation, double-Rayleigh KS, Hadamard
// covariance).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/mean_source.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/doppler/filter.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/scenario_spec.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/stats/autocorrelation.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::MeanSource;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;
using numeric::CVector;
using scenario::TwdpSpec;
using service::ChannelSpec;

constexpr double kTwoPi = 6.283185307179586476925286766559;

CMatrix paper_k() {
  return channel::spectral_covariance_matrix(
      channel::paper_spectral_scenario());
}

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

// --- MeanSource --------------------------------------------------------------

TEST(MeanSource, ClassifiesZeroConstantAndTimeVarying) {
  EXPECT_TRUE(MeanSource().is_zero());
  EXPECT_TRUE(MeanSource(CVector{}).is_zero());
  EXPECT_TRUE(MeanSource(CVector(3, cdouble{})).is_zero());
  // A phasor with all-zero amplitudes is zero regardless of frequency.
  EXPECT_TRUE(
      MeanSource::doppler_phasor(CVector(3, cdouble{}), 0.1).is_zero());

  const MeanSource constant(CVector{cdouble(1.0, 0.5), cdouble{}});
  EXPECT_FALSE(constant.is_zero());
  EXPECT_TRUE(constant.is_constant());
  EXPECT_EQ(constant.dimension(), 2u);

  // Frequency 0 phasors are constant; several static terms collapse to
  // one summed vector.
  const MeanSource static_sum = MeanSource::phasor_sum(
      {core::MeanPhasorTerm{CVector(2, cdouble(0.5, 0.0)), 0.0},
       core::MeanPhasorTerm{CVector(2, cdouble(0.25, 1.0)), 0.0}});
  EXPECT_TRUE(static_sum.is_constant());
  ASSERT_EQ(static_sum.terms().size(), 1u);
  EXPECT_EQ(static_sum.terms().front().amplitudes[0], cdouble(0.75, 1.0));

  const MeanSource moving =
      MeanSource::doppler_phasor(CVector(2, cdouble(1.0, 0.0)), 0.02);
  EXPECT_TRUE(moving.is_time_varying());
  EXPECT_FALSE(moving.is_constant());

  // Individually non-zero static terms that cancel exactly collapse to
  // the zero mean (fast path + -0.0 bit-compatibility preserved).
  const MeanSource cancelling = MeanSource::phasor_sum(
      {core::MeanPhasorTerm{CVector(2, cdouble(0.5, -1.0)), 0.0},
       core::MeanPhasorTerm{CVector(2, cdouble(-0.5, 1.0)), 0.0}});
  EXPECT_TRUE(cancelling.is_zero());
}

TEST(MeanSource, PhasorEvaluationMatchesClosedForm) {
  const CVector amplitude{cdouble(0.8, -0.3), cdouble(0.0, 1.2)};
  const double f = 0.037;
  const MeanSource mean = MeanSource::doppler_phasor(amplitude, f);
  for (const std::uint64_t l : {0ULL, 1ULL, 17ULL, 4096ULL, 1000003ULL}) {
    const CVector m = mean.mean_at_instant(l, 2);
    const cdouble rot = std::polar(
        1.0, kTwoPi * std::fmod(f * static_cast<double>(l), 1.0));
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(std::abs(m[j] - amplitude[j] * rot), 0.0, 1e-12)
          << "l=" << l << " j=" << j;
    }
  }
}

TEST(MeanSource, BlockFormIsPeriodic) {
  CMatrix block(3, 2);
  for (std::size_t l = 0; l < 3; ++l) {
    block(l, 0) = cdouble(double(l), 0.0);
    block(l, 1) = cdouble(0.0, double(l) + 1.0);
  }
  const MeanSource mean = MeanSource::block(block);
  EXPECT_TRUE(mean.is_time_varying());
  EXPECT_EQ(mean.dimension(), 2u);
  for (const std::uint64_t l : {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 300ULL}) {
    const CVector m = mean.mean_at_instant(l, 2);
    EXPECT_EQ(m[0], block(l % 3, 0)) << "l=" << l;
    EXPECT_EQ(m[1], block(l % 3, 1)) << "l=" << l;
  }
}

TEST(MeanSource, RejectsInvalidInput) {
  // Frequency out of the normalised band or non-finite.
  EXPECT_THROW((void)MeanSource::doppler_phasor(CVector(2, cdouble(1, 0)),
                                                0.6),
               ContractViolation);
  EXPECT_THROW((void)MeanSource::doppler_phasor(
                   CVector(2, cdouble(1, 0)),
                   std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  // Empty term amplitudes and mismatched dimensions across terms.
  EXPECT_THROW(
      (void)MeanSource::phasor_sum({core::MeanPhasorTerm{CVector{}, 0.0}}),
      ContractViolation);
  EXPECT_THROW((void)MeanSource::phasor_sum(
                   {core::MeanPhasorTerm{CVector(2, cdouble(1, 0)), 0.0},
                    core::MeanPhasorTerm{CVector(3, cdouble(1, 0)), 0.1}}),
               ContractViolation);
  // Empty or non-finite block.
  EXPECT_THROW((void)MeanSource::block(CMatrix{}), ContractViolation);
  CMatrix bad(2, 2);
  bad(1, 1) = cdouble(std::numeric_limits<double>::infinity(), 0.0);
  EXPECT_THROW((void)MeanSource::block(bad), ContractViolation);
  // Pipeline-level dimension contract: a 2-branch mean on a 3-branch plan.
  const auto plan = ColoringPlan::create(paper_k());
  core::PipelineOptions options;
  options.mean_offset =
      MeanSource::doppler_phasor(CVector(2, cdouble(1.0, 0.0)), 0.01);
  EXPECT_THROW(SamplePipeline(plan, options), ContractViolation);
}

// --- Doppler-shifted LOS through the pipeline hot paths ----------------------

TEST(DopplerLos, StreamRowsCarryTheRotatedMeanExactly) {
  const auto plan = ColoringPlan::create(paper_k());
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::rician(paper_k(), 4.0, 0.6);
  const double f_los = 0.013;

  core::PipelineOptions zero_options;
  zero_options.block_size = 512;
  const SamplePipeline plain(plan, zero_options);

  core::PipelineOptions los_options = zero_options;
  los_options.mean_offset = spec.doppler_los_mean(*plan, f_los);
  const SamplePipeline moving(plan, los_options);
  ASSERT_TRUE(moving.has_time_varying_mean());

  // The diffuse bits are untouched; row t is shifted by exactly
  // m e^{i 2 pi f t} with t the absolute stream row — across block
  // boundaries (block_size 512) and identically for the standalone
  // block path.
  const CVector base = spec.los_mean(*plan);
  const CMatrix z0 = plain.sample_stream(1500, 0xD0BB);
  const CMatrix z1 = moving.sample_stream(1500, 0xD0BB);
  for (std::size_t t = 0; t < z0.rows(); ++t) {
    const cdouble rot = std::polar(
        1.0, kTwoPi * std::fmod(f_los * static_cast<double>(t), 1.0));
    for (std::size_t j = 0; j < z0.cols(); ++j) {
      EXPECT_NEAR(std::abs(z1(t, j) - (z0(t, j) + base[j] * rot)), 0.0,
                  1e-13)
          << "t=" << t << " j=" << j;
    }
  }

  // Serial == parallel on the time-varying path too.
  core::PipelineOptions serial = los_options;
  serial.parallel = false;
  EXPECT_EQ(SamplePipeline(plan, serial).sample_stream(3000, 9),
            moving.sample_stream(3000, 9));

  // Standalone blocks line up with the stream rows they correspond to.
  const CMatrix block1 = moving.sample_block(512, 0xD0BB, 1);
  for (std::size_t t = 0; t < 512; ++t) {
    for (std::size_t j = 0; j < block1.cols(); ++j) {
      EXPECT_EQ(block1(t, j), z1(512 + t, j));
    }
  }
}

TEST(DopplerLos, EnvelopesStayRicianUnderRotation) {
  // |m e^{i 2 pi f l}| is constant, so the envelope marginal of every
  // time instant is the same Rician law — the envelope validator must
  // pass against the static-scenario marginals.
  const auto plan = ColoringPlan::create(paper_k());
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::rician(paper_k(), 2.0, 0.3);
  core::PipelineOptions options;
  options.mean_offset = spec.doppler_los_mean(*plan, 0.031);
  const SamplePipeline pipeline(plan, options);

  core::ValidationOptions validation;
  validation.samples = 60000;
  validation.seed = 0x10C0;
  validation.ks_samples_per_branch = 4000;
  const auto report = core::validate_envelopes(
      pipeline, spec.marginals(*plan), validation);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(DopplerLos, RealTimeAutocorrelationGainsTheSpectralLine) {
  // With a Doppler-shifted LOS the branch autocorrelation is
  // K_bar rho(d) + |m|^2 e^{i 2 pi f_LOS d}: the diffuse J0-like decay
  // plus an undamped rotating line.  Measure it over many blocks.
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::rician(k, 3.0, 0.8);

  core::FadingStreamOptions options;
  options.idft_size = 512;
  options.normalized_doppler = 0.08;
  options.los_mean = spec.doppler_los_mean(*plan, 0.02);
  const core::FadingStream generator(plan, options);

  const std::size_t max_lag = 40;
  const int blocks = 60;
  const std::size_t m = options.idft_size;
  random::Rng rng(0x10D);
  CVector accumulated(max_lag + 1);
  for (int b = 0; b < blocks; ++b) {
    // Continue the LOS trajectory across blocks so every block sees the
    // same relative rotation structure.
    const CMatrix block = generator.generate_block_from(rng, b * m);
    CVector series(m);
    for (std::size_t l = 0; l < m; ++l) {
      series[l] = block(l, 0);
    }
    const CVector rho =
        stats::autocorrelation(series, max_lag, stats::AutocorrMode::Unbiased);
    for (std::size_t d = 0; d <= max_lag; ++d) {
      accumulated[d] += rho[d] / double(blocks);
    }
  }

  const double diffuse_power = plan->effective_covariance()(0, 0).real();
  const double los_power = std::norm(spec.los_mean(*plan)[0]);
  const numeric::RVector rho_theory =
      doppler::theoretical_normalized_autocorrelation(
          generator.branch().filter(), max_lag);
  const double scale = diffuse_power + los_power;
  for (std::size_t d = 0; d <= max_lag; d += 4) {
    const cdouble line = std::polar(los_power, kTwoPi * 0.02 * double(d));
    const cdouble theory = diffuse_power * rho_theory[d] + line;
    EXPECT_NEAR(std::abs(accumulated[d] - theory) / scale, 0.0, 0.08)
        << "lag " << d;
  }
}

// --- TWDP --------------------------------------------------------------------

/// The instant TWDP channel of \p spec, \p block_size rows per block.
std::shared_ptr<const service::CompiledChannel> instant_twdp(
    const TwdpSpec& spec, std::size_t block_size) {
  return ChannelSpec::Builder()
      .twdp(spec.diffuse_covariance(), spec.branches())
      .instant()
      .block_size(block_size)
      .build()
      .compile();
}

/// Envelope-domain validation of an instant channel against
/// \p marginals, over its keyed blocks (one block per validation chunk).
core::EnvelopeValidationReport validate_instant(
    const service::CompiledChannel& channel,
    const std::vector<core::EnvelopeMarginal>& marginals,
    const core::ValidationOptions& options) {
  return core::validate_envelope_source(
      channel.dimension(),
      [&channel](std::size_t count, std::uint64_t seed, std::uint64_t block) {
        return numeric::elementwise_abs(
            channel.instant_block(count, seed, block));
      },
      marginals, options);
}

TEST(Twdp, KZeroIsBitIdenticalToPlainRayleigh) {
  const auto plan = ColoringPlan::create(paper_k());
  const TwdpSpec spec = TwdpSpec::uniform(paper_k(), 0.0, 0.9);
  EXPECT_FALSE(spec.has_specular());
  const SamplePipeline plain(plan);
  const CMatrix diffuse = plain.sample_block(5000, 0xCAFE, 0);
  CMatrix block = diffuse;
  scenario::add_twdp_waves(spec.specular_waves(*plan), 0xCAFE, 0, block);
  EXPECT_EQ(block, diffuse);
  // The instant K = 0 spec canonicalizes to the Rayleigh family.
  const auto channel = instant_twdp(spec, 4096);
  EXPECT_EQ(channel->family(), service::FadingFamily::Rayleigh);
  EXPECT_EQ(channel->instant_block(5000, 0xCAFE, 0), diffuse);
  // realtime_mean of a K = 0 spec is the zero MeanSource.
  EXPECT_TRUE(spec.realtime_mean(*plan, 0.01, 0.02).is_zero());
}

TEST(Twdp, DeltaZeroReproducesTheRicianScenario) {
  // Delta = 0 leaves a single wave of power K K_bar_jj: the marginal is
  // the exact Rician law of the Rician scenario with the same K.
  const auto plan = ColoringPlan::create(paper_k());
  const TwdpSpec twdp = TwdpSpec::uniform(paper_k(), 2.5, 0.0);
  const scenario::ScenarioSpec rician =
      scenario::ScenarioSpec::rician(paper_k(), 2.5, 0.0);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto twdp_marginal = twdp.branch_marginal(*plan, j);
    const auto rician_marginal = rician.branch_marginal(*plan, j);
    EXPECT_DOUBLE_EQ(twdp_marginal.v2(), 0.0);
    EXPECT_EQ(twdp_marginal.mean(), rician_marginal.mean());
    for (double r = 0.2; r < 4.0; r += 0.6) {
      EXPECT_EQ(twdp_marginal.cdf(r), rician_marginal.cdf(r)) << "r=" << r;
    }
  }
  // And the generated envelopes pass validation against those marginals.
  core::ValidationOptions options;
  options.samples = 50000;
  options.seed = 0x0D;
  options.ks_samples_per_branch = 3000;
  const auto channel = instant_twdp(twdp, options.chunk_size);
  const auto report =
      validate_instant(*channel, twdp.marginals(*channel->plan()), options);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(Twdp, KsSweepAgainstExactMarginals) {
  const auto plan = ColoringPlan::create(paper_k());
  for (const auto& [k_factor, delta] :
       {std::pair{1.0, 1.0}, std::pair{3.0, 0.5}, std::pair{5.0, 0.9}}) {
    const TwdpSpec spec = TwdpSpec::uniform(paper_k(), k_factor, delta);
    core::ValidationOptions options;
    options.samples = 60000;
    options.seed = 0x7DDB;
    options.ks_samples_per_branch = 3000;
    const auto channel = instant_twdp(spec, options.chunk_size);
    const auto report =
        validate_instant(*channel, spec.marginals(*plan), options);
    EXPECT_LT(report.max_mean_rel_error, 0.01)
        << "K=" << k_factor << " Delta=" << delta;
    EXPECT_LT(report.max_second_moment_rel_error, 0.02)
        << "K=" << k_factor << " Delta=" << delta;
    EXPECT_GT(report.worst_ks_p_value, 1e-3)
        << "K=" << k_factor << " Delta=" << delta;
  }
}

TEST(Twdp, StreamDeterministicAndBlockwiseRegenerable) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(4));
  const TwdpSpec spec = TwdpSpec::uniform(tridiagonal_covariance(4), 2.0, 0.7);
  const auto channel = instant_twdp(spec, 700);
  const service::Session session(channel, 99);

  // The batcher's pool sweep equals the blocks regenerated one at a time,
  // in reverse order.
  std::vector<service::BlockRequest> requests;
  for (std::uint64_t block = 0; block < 5; ++block) {
    requests.push_back({&session, block});
  }
  const std::vector<CMatrix> swept =
      service::ChannelService::generate_blocks(requests);
  for (std::uint64_t block = 5; block-- > 0;) {
    EXPECT_EQ(swept[block], session.generate_block(block)) << block;
  }

  // The wave-phase stream is disjoint from the diffuse stream: adding
  // the waves does not perturb the diffuse bits.
  const CMatrix& a = swept[0];
  const CMatrix diffuse = SamplePipeline(plan).sample_block(700, 99, 0);
  const TwdpSpec::SpecularWaves waves = spec.specular_waves(*plan);
  // Each row's specular addition has modulus within the wave triangle
  // bounds for every branch.
  for (std::size_t t = 0; t < 40; ++t) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double s = std::abs(a(t, j) - diffuse(t, j));
      const double v1 = std::abs(waves.first[j]);
      const double v2 = std::abs(waves.second[j]);
      EXPECT_LE(s, v1 + v2 + 1e-9);
      EXPECT_GE(s, v1 - v2 - 1e-9);
    }
  }
}

TEST(Twdp, RealTimeMeanAddsDeterministicWaveTrajectories) {
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);
  const TwdpSpec spec = TwdpSpec::per_branch(
      k, {scenario::TwdpBranch{3.0, 0.6, 0.2, -0.9},
          scenario::TwdpBranch{1.0, 1.0, 0.0, 1.1},
          scenario::TwdpBranch{0.0, 0.0, 0.0, 0.0}});
  const double f1 = 0.04;
  const double f2 = -0.025;

  core::FadingStreamOptions plain_options;
  plain_options.idft_size = 256;
  const core::FadingStream plain(plan, plain_options);

  core::FadingStreamOptions twdp_options = plain_options;
  twdp_options.los_mean = spec.realtime_mean(*plan, f1, f2);
  const core::FadingStream generator(plan, twdp_options);

  random::Rng rng_a(11);
  random::Rng rng_b(11);
  const CMatrix z0 = plain.generate_block_from(rng_a);
  const CMatrix z1 = generator.generate_block_from(rng_b);
  const TwdpSpec::SpecularWaves waves = spec.specular_waves(*plan);
  for (std::size_t l = 0; l < z0.rows(); ++l) {
    const cdouble rot1 = std::polar(
        1.0, kTwoPi * std::fmod(f1 * static_cast<double>(l), 1.0));
    const cdouble rot2 = std::polar(
        1.0, kTwoPi * std::fmod(f2 * static_cast<double>(l), 1.0));
    for (std::size_t j = 0; j < z0.cols(); ++j) {
      const cdouble expected =
          z0(l, j) + waves.first[j] * rot1 + waves.second[j] * rot2;
      EXPECT_NEAR(std::abs(z1(l, j) - expected), 0.0, 1e-12)
          << "l=" << l << " j=" << j;
    }
  }
  // Branch 3 has K = 0: its wave amplitudes vanish, so its samples match
  // the plain generator bit-for-bit... up to the shared mean pass, which
  // adds exact zeros for it.
  for (std::size_t l = 0; l < z0.rows(); ++l) {
    EXPECT_EQ(z1(l, 2), z0(l, 2));
  }
}

TEST(Twdp, RejectsInvalidParameters) {
  EXPECT_THROW((void)TwdpSpec::uniform(paper_k(), -1.0, 0.5),
               ContractViolation);
  EXPECT_THROW((void)TwdpSpec::uniform(paper_k(), 1.0, -0.1),
               ContractViolation);
  EXPECT_THROW((void)TwdpSpec::uniform(paper_k(), 1.0, 1.5),
               ContractViolation);
  EXPECT_THROW((void)TwdpSpec::per_branch(
                   paper_k(), std::vector<scenario::TwdpBranch>(2)),
               ContractViolation);
  const TwdpSpec spec = TwdpSpec::uniform(paper_k(), 1.0, 0.5);
  const auto wrong_plan = ColoringPlan::create(tridiagonal_covariance(5));
  EXPECT_THROW((void)spec.specular_waves(*wrong_plan), ContractViolation);
  EXPECT_THROW((void)spec.branch_marginal(*wrong_plan, 0),
               ContractViolation);
  EXPECT_THROW((void)spec.realtime_mean(*wrong_plan, 0.01, 0.02),
               ContractViolation);
  CMatrix wrong_block(4, 5);
  EXPECT_THROW(scenario::add_twdp_waves(
                   spec.specular_waves(*ColoringPlan::create(paper_k())), 1,
                   0, wrong_block),
               ContractViolation);
  // Wave Doppler outside the normalised band — rejected even on a K = 0
  // scenario whose mean would vanish (fail where the bad value appears).
  const auto plan = ColoringPlan::create(paper_k());
  EXPECT_THROW((void)spec.realtime_mean(*plan, 0.7, 0.0),
               ContractViolation);
  const TwdpSpec rayleigh_spec = TwdpSpec::uniform(paper_k(), 0.0, 0.0);
  EXPECT_THROW((void)rayleigh_spec.realtime_mean(*plan, 0.0, 0.9),
               ContractViolation);
  const scenario::ScenarioSpec zero_k =
      scenario::ScenarioSpec::rician(paper_k(), 0.0);
  EXPECT_THROW((void)zero_k.doppler_los_mean(*plan, 0.6), ContractViolation);
  // MeanSource::add_to_rows rejects a mismatched row width up front.
  const MeanSource mean =
      MeanSource::doppler_phasor(CVector(2, cdouble(1.0, 0.0)), 0.01);
  std::vector<cdouble> row(4);
  EXPECT_THROW(mean.add_to_rows(0, 1, 4, row.data()), ContractViolation);
}

// --- cascaded real-time ------------------------------------------------------

/// Stage options of the real-time cascade tests: independent blocks of M
/// samples at stage-1 Doppler \p fm1.
core::FadingStreamOptions stage_options(std::size_t m, double fm1) {
  core::FadingStreamOptions options;
  options.idft_size = m;
  options.normalized_doppler = fm1;
  return options;
}

/// The real-time cascade of stage covariances \p k1, \p k2.
core::FadingStream cascaded_stream(const CMatrix& k1, const CMatrix& k2,
                                   double fm2,
                                   const core::FadingStreamOptions& options) {
  return scenario::cascaded_fading_stream(ColoringPlan::create(k1),
                                          ColoringPlan::create(k2), fm2,
                                          options);
}

TEST(CascadedStream, BlocksAreDeterministicAndStagesIndependent) {
  const core::FadingStreamOptions options = stage_options(256, 0.05);
  const core::FadingStream gen =
      cascaded_stream(paper_k(), tridiagonal_covariance(3), 0.11, options);
  EXPECT_EQ(gen.dimension(), 3u);
  EXPECT_EQ(gen.block_size(), 256u);

  // Pure function of (seed, block): regenerating gives identical bits;
  // different blocks and different seeds differ.
  const CMatrix a = gen.generate_block(42, 7);
  EXPECT_EQ(a, gen.generate_block(42, 7));
  EXPECT_NE(a, gen.generate_block(42, 8));
  EXPECT_NE(a, gen.generate_block(43, 7));

  // The product block is exactly stage1 (.) stage2 drawn from the
  // disjoint stage streams.
  core::FadingStreamOptions stage2 = options;
  stage2.normalized_doppler = 0.11;
  const core::FadingStream first_stage(paper_k(), options);
  const core::FadingStream second_stage(tridiagonal_covariance(3), stage2);
  random::Rng rng1(core::FadingStream::stage_seed(42, 0), 8);
  random::Rng rng2(core::FadingStream::stage_seed(42, 1), 8);
  const CMatrix z1 = first_stage.generate_block_from(rng1);
  const CMatrix z2 = second_stage.generate_block_from(rng2);
  const CMatrix product = gen.generate_block(42, 7);
  for (std::size_t i = 0; i < product.size(); ++i) {
    EXPECT_EQ(product.data()[i], z1.data()[i] * z2.data()[i]);
  }

  // Hadamard covariance accounting.
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(gen.effective_covariance()(i, j),
                gen.plan()->effective_covariance()(i, j) *
                    gen.second_stage()->effective_covariance()(i, j));
    }
  }

  // Dimension mismatch between the stages is rejected up front.
  EXPECT_THROW((void)cascaded_stream(paper_k(), tridiagonal_covariance(5),
                                     0.11, options),
               ContractViolation);
}

TEST(CascadedStream, AutocorrelationIsTheProductOfStageLaws) {
  // The acceptance claim: the cascaded autocorrelation matches
  // K1_jj K2_jj rho1(d) rho2(d) — the product of the two stages'
  // analytic Eq. (17) laws with their *different* Dopplers.
  const core::FadingStream gen =
      cascaded_stream(paper_k(), paper_k(), 0.13, stage_options(512, 0.06));

  const std::size_t max_lag = 40;
  const int blocks = 80;
  CVector accumulated(max_lag + 1);
  for (int b = 0; b < blocks; ++b) {
    const CMatrix block = gen.generate_block(0xACC, b);
    CVector series(block.rows());
    for (std::size_t l = 0; l < block.rows(); ++l) {
      series[l] = block(l, 0);
    }
    const CVector rho =
        stats::autocorrelation(series, max_lag, stats::AutocorrMode::Unbiased);
    for (std::size_t d = 0; d <= max_lag; ++d) {
      accumulated[d] += rho[d] / double(blocks);
    }
  }

  const numeric::RVector rho_product =
      scenario::cascaded_normalized_autocorrelation(gen, max_lag);
  const double power = gen.effective_covariance()(0, 0).real();
  EXPECT_NEAR(accumulated[0].real(), power, 0.12 * power);
  for (std::size_t d = 0; d <= max_lag; d += 4) {
    EXPECT_NEAR(std::abs(accumulated[d] - power * rho_product[d]) / power,
                0.0, 0.12)
        << "lag " << d;
  }
  // The product decays strictly faster than either stage alone at the
  // first few lags (both factors < 1).
  const numeric::RVector rho1 =
      doppler::theoretical_normalized_autocorrelation(
          gen.branch().filter(), max_lag);
  for (std::size_t d = 2; d <= 8; ++d) {
    EXPECT_LT(rho_product[d], std::abs(rho1[d]) + 1e-12);
  }
}

TEST(CascadedStream, EnvelopeMarginalIsDoubleRayleigh) {
  // Marginal check on the Doppler-faded cascade: the per-instant law is
  // the closed-form Bessel-K double-Rayleigh.  Samples within a block
  // are temporally correlated, so KS needs decorrelated draws: take a
  // thinned subsequence across many blocks.
  const core::FadingStream gen = cascaded_stream(
      paper_k(), tridiagonal_covariance(3), 0.17, stage_options(256, 0.1));

  const auto marginal = scenario::cascaded_branch_marginal(
      *gen.plan(), *gen.second_stage()->plan(), 0);
  numeric::RVector thinned;
  stats::RunningStats moments;
  const std::size_t stride = 32;  // ~3 Doppler periods at fm = 0.1
  for (int b = 0; b < 40; ++b) {
    const numeric::RMatrix envelopes = gen.generate_envelope_block(0x5EA, b);
    for (std::size_t l = 0; l < envelopes.rows(); l += stride) {
      thinned.push_back(envelopes(l, 0));
    }
    for (std::size_t l = 0; l < envelopes.rows(); ++l) {
      moments.add(envelopes(l, 0));
    }
  }
  const auto ks = stats::ks_test(
      thinned, [&marginal](double r) { return marginal.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
  EXPECT_NEAR(moments.mean(), marginal.mean(), 0.05 * marginal.mean());
  const double m2 = moments.variance() + moments.mean() * moments.mean();
  EXPECT_NEAR(m2, marginal.second_moment(),
              0.08 * marginal.second_moment());
}

// --- instant-mode cascade: KS upgrade ---------------------------------------

TEST(Cascaded, ValidatorRunsKsAgainstDoubleRayleigh) {
  core::ValidationOptions options;
  options.samples = 60000;
  options.seed = 0xDB1;
  options.ks_samples_per_branch = 4000;
  const auto channel = ChannelSpec::Builder()
                           .cascaded(paper_k(), tridiagonal_covariance(3))
                           .instant()
                           .block_size(options.chunk_size)
                           .build()
                           .compile();
  const auto marginals = core::make_marginals(3, [&](std::size_t j) {
    return scenario::cascaded_branch_marginal(*channel->plan(),
                                              *channel->second_plan(), j);
  });
  const auto report = validate_instant(*channel, marginals, options);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_LT(report.max_second_moment_rel_error, 0.02);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

}  // namespace
