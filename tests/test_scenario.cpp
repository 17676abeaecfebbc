// Tests for the scenario subsystem (scenario/): Rician/LOS mean offsets
// threaded through the SamplePipeline hot paths (K = 0 degenerates to the
// plain Rayleigh path bit-for-bit; batched == per-draw with a mean), the
// Rician K-factor sweep against the analytic envelope marginals, and the
// instant cascaded-Rayleigh channel against product-channel theory
// (second moments, Hadamard effective covariance, amount of fading ~ 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/scenario_spec.hpp"
#include "rfade/service/accumulators.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;
using scenario::ScenarioSpec;
using service::ChannelSpec;

CMatrix paper_k() {
  return channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
}

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

// --- Rician / LOS ------------------------------------------------------------

TEST(ScenarioSpec, KZeroIsBitIdenticalToPlainRayleighPipeline) {
  // The acceptance contract: a K = 0 Rician scenario must reproduce the
  // existing Rayleigh batched output bit-for-bit, because the all-zero
  // mean never enters the pipeline.
  const auto plan = ColoringPlan::create(paper_k());
  const ScenarioSpec spec = ScenarioSpec::rician(paper_k(), 0.0, 1.3);
  const SamplePipeline scenario_pipeline = spec.make_pipeline(plan);
  const SamplePipeline plain_pipeline(plan);

  EXPECT_FALSE(spec.has_los());
  EXPECT_FALSE(scenario_pipeline.has_mean_offset());
  EXPECT_EQ(scenario_pipeline.sample_stream(5000, 0xCAFE),
            plain_pipeline.sample_stream(5000, 0xCAFE));

  random::Rng a(7);
  random::Rng b(7);
  EXPECT_EQ(scenario_pipeline.sample_block(257, a),
            plain_pipeline.sample_block(257, b));
}

TEST(ScenarioSpec, MeanThreadedBatchedMatchesPerDraw) {
  // With a LOS mean the batched rng-compatible path must still be
  // bit-identical to per-draw sampling (same GEMM order, mean added last).
  const auto plan = ColoringPlan::create(tridiagonal_covariance(6));
  const ScenarioSpec spec =
      ScenarioSpec::rician(tridiagonal_covariance(6), 4.0, 0.7);
  const SamplePipeline pipeline = spec.make_pipeline(plan);
  ASSERT_TRUE(pipeline.has_mean_offset());

  random::Rng rng_block(31);
  random::Rng rng_draw(31);
  const CMatrix block = pipeline.sample_block(200, rng_block);
  numeric::CVector z(pipeline.dimension());
  for (std::size_t t = 0; t < block.rows(); ++t) {
    pipeline.sample_into(rng_draw, z);
    for (std::size_t j = 0; j < z.size(); ++j) {
      EXPECT_EQ(block(t, j), z[j]) << "row " << t << " col " << j;
    }
  }

  // And the stream path is deterministic for any thread count.
  core::PipelineOptions serial;
  serial.block_size = 512;
  serial.parallel = false;
  const SamplePipeline serial_pipeline = spec.make_pipeline(plan, serial);
  core::PipelineOptions parallel = serial;
  parallel.parallel = true;
  const SamplePipeline parallel_pipeline = spec.make_pipeline(plan, parallel);
  EXPECT_EQ(serial_pipeline.sample_stream(3000, 5),
            parallel_pipeline.sample_stream(3000, 5));
}

TEST(ScenarioSpec, LosMeanShiftsSampleMeanNotCovariance) {
  // The LOS offset moves E[Z] to m but leaves the *centered* covariance
  // at K_bar: the mean must survive normalization and coloring untouched.
  const auto plan = ColoringPlan::create(paper_k());
  const ScenarioSpec spec = ScenarioSpec::rician(paper_k(), 2.5, 0.4);
  const SamplePipeline pipeline = spec.make_pipeline(plan);
  const numeric::CVector mean = spec.los_mean(*plan);

  const CMatrix z = pipeline.sample_stream(200000, 0xA11CE);
  stats::CovarianceAccumulator acc(pipeline.dimension());
  numeric::CVector row(pipeline.dimension());
  for (std::size_t t = 0; t < z.rows(); ++t) {
    row.assign(z.data() + t * z.cols(), z.data() + (t + 1) * z.cols());
    acc.add(row);
  }
  const numeric::CVector sample_mean = acc.mean();
  for (std::size_t j = 0; j < mean.size(); ++j) {
    EXPECT_NEAR(std::abs(sample_mean[j] - mean[j]), 0.0, 0.02)
        << "branch " << j;
  }
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance_centered(),
                                            plan->effective_covariance()),
            0.02);
}

TEST(ScenarioSpec, RicianKFactorSweepMatchesTheoreticalMoments) {
  // K-factor sweep: measured envelope mean/variance against the exact
  // Rician marginals, plus the KS test on the full distribution.
  const auto plan = ColoringPlan::create(paper_k());
  for (const double k_factor : {0.0, 0.5, 2.0, 8.0}) {
    const ScenarioSpec spec = ScenarioSpec::rician(paper_k(), k_factor, 0.9);
    core::ValidationOptions options;
    options.samples = 60000;
    options.seed = 0x51C;
    options.ks_samples_per_branch = 4000;
    const auto report = scenario::validate_scenario(spec, plan, options);
    EXPECT_LT(report.max_mean_rel_error, 0.01) << "K=" << k_factor;
    EXPECT_LT(report.max_variance_rel_error, 0.05) << "K=" << k_factor;
    EXPECT_GT(report.worst_ks_p_value, 1e-3) << "K=" << k_factor;
  }
}

TEST(ScenarioSpec, PerBranchKFactors) {
  // Mixed scenario: one pure-Rayleigh branch among LOS branches keeps its
  // Rayleigh marginal while the others go Rician.
  std::vector<scenario::RicianBranch> branches = {
      {0.0, 0.0}, {1.0, 0.5}, {9.0, -1.1}};
  const ScenarioSpec spec = ScenarioSpec::rician(paper_k(), branches);
  EXPECT_TRUE(spec.has_los());
  const auto plan = spec.build_plan();
  const numeric::CVector mean = spec.los_mean(*plan);
  ASSERT_EQ(mean.size(), 3u);
  EXPECT_EQ(mean[0], cdouble{});
  // |m_j|^2 = K_j * K_bar_jj.
  const double p1 = plan->effective_covariance()(1, 1).real();
  const double p2 = plan->effective_covariance()(2, 2).real();
  EXPECT_NEAR(std::norm(mean[1]), 1.0 * p1, 1e-12);
  EXPECT_NEAR(std::norm(mean[2]), 9.0 * p2, 1e-12);

  core::ValidationOptions options;
  options.samples = 60000;
  options.seed = 0x5EED5;
  options.ks_samples_per_branch = 4000;
  const auto report = scenario::validate_scenario(spec, plan, options);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_GT(report.worst_ks_p_value, 1e-3);
}

TEST(ScenarioSpec, RealTimeLosMeanProducesRicianEnvelopes) {
  // The same mean threads through the real-time Doppler path: the block
  // mean shifts to m while the K = 0 configuration stays bit-identical to
  // a generator without any mean.
  const CMatrix k = paper_k();
  const ScenarioSpec spec = ScenarioSpec::rician(k, 6.0, 0.25);
  const auto plan = ColoringPlan::create(k);

  core::FadingStreamOptions plain_options;
  plain_options.idft_size = 512;
  const core::FadingStream plain(plan, plain_options);

  const numeric::CVector mean = spec.los_mean(*plan);
  core::FadingStreamOptions los_options = plain_options;
  los_options.los_mean = mean;
  const core::FadingStream rician(plan, los_options);

  random::Rng rng_a(3);
  random::Rng rng_b(3);
  const CMatrix block_plain = plain.generate_block_from(rng_a);
  const CMatrix block_rician = rician.generate_block_from(rng_b);
  // Same diffuse bits, shifted by exactly m (the add is the last pass, so
  // the shift is exact in floating point).
  for (std::size_t t = 0; t < block_plain.rows(); ++t) {
    for (std::size_t j = 0; j < block_plain.cols(); ++j) {
      EXPECT_EQ(block_rician(t, j), block_plain(t, j) + mean[j]);
    }
  }

  // Empty mean == no-op: bit-identical to the pre-scenario generator.
  core::FadingStreamOptions zero_options = plain_options;
  zero_options.los_mean = numeric::CVector(k.rows(), cdouble{});
  const core::FadingStream zero(plan, zero_options);
  random::Rng rng_c(3);
  EXPECT_EQ(zero.generate_block_from(rng_c), block_plain);
}

TEST(ScenarioSpec, RejectsInvalidInput) {
  EXPECT_THROW((void)ScenarioSpec::rician(paper_k(), -0.5), ContractViolation);
  EXPECT_THROW((void)ScenarioSpec::rician(
                   paper_k(), std::vector<scenario::RicianBranch>(2)),
               ContractViolation);
  const ScenarioSpec spec = ScenarioSpec::rician(paper_k(), 1.0);
  const auto wrong_plan = ColoringPlan::create(tridiagonal_covariance(5));
  EXPECT_THROW((void)spec.los_mean(*wrong_plan), ContractViolation);
  EXPECT_THROW((void)spec.make_pipeline(nullptr), ContractViolation);

  // Pipeline-level mean contract: wrong size rejected.
  core::PipelineOptions bad;
  bad.mean_offset = numeric::CVector(2, cdouble{1.0, 0.0});
  const auto plan = ColoringPlan::create(paper_k());
  EXPECT_THROW(SamplePipeline(plan, bad), ContractViolation);
}

// --- cascaded Rayleigh -------------------------------------------------------

/// An instant cascade on stage covariances \p k1 and \p k2.
ChannelSpec instant_cascade(CMatrix k1, CMatrix k2,
                            std::size_t block_size = 4096) {
  return ChannelSpec::Builder()
      .cascaded(std::move(k1), std::move(k2))
      .instant()
      .block_size(block_size)
      .build();
}

/// Envelope moments and sample covariance of at least \p samples
/// instants: the keyed session blocks 0, 1, ... of seed \p seed folded
/// into the exact shard-mergeable accumulators.
struct CascadedMoments {
  explicit CascadedMoments(std::size_t n) : envelope(n), covariance(n) {}
  service::EnvelopeMomentAccumulator envelope;
  service::ComplexCovarianceAccumulator covariance;
};

CascadedMoments fold_session_blocks(const ChannelSpec& spec,
                                    std::size_t samples, std::uint64_t seed) {
  service::Session session(spec.compile(), seed);
  CascadedMoments moments(spec.dimension());
  while (moments.covariance.count() < samples) {
    const CMatrix block = session.next_block();
    moments.envelope.accumulate(block);
    moments.covariance.accumulate(block);
  }
  return moments;
}

TEST(Cascaded, SecondMomentsMatchProductChannelTheory) {
  const ChannelSpec spec =
      instant_cascade(paper_k(), tridiagonal_covariance(3));
  const auto channel = spec.compile();
  const CascadedMoments measured =
      fold_session_blocks(spec, 200000, 0xCA5CADE);
  for (std::size_t j = 0; j < 3; ++j) {
    const auto theory = scenario::cascaded_branch_marginal(
        *channel->plan(), *channel->second_plan(), j);
    const service::EnvelopeMoments m = measured.envelope.finalize(j);
    EXPECT_LT(std::abs(m.mean - theory.mean()) / theory.mean(), 0.01)
        << "branch " << j;
    EXPECT_LT(std::abs(m.second_moment - theory.second_moment()) /
                  theory.second_moment(),
              0.02)
        << "branch " << j;
    // Amount of fading E[r^4]/E[r^2]^2 - 1 = 3 for the cascade (vs 1 for
    // Rayleigh) — the fourth moment converges slowly, hence the loose band.
    EXPECT_NEAR(m.amount_of_fading, 3.0, 0.35) << "branch " << j;
  }
}

TEST(Cascaded, EffectiveCovarianceIsHadamardProduct) {
  const CMatrix k1 = paper_k();
  const CMatrix k2 = tridiagonal_covariance(3);
  const ChannelSpec spec = instant_cascade(k1, k2);
  const auto channel = spec.compile();
  CMatrix hadamard = channel->plan()->effective_covariance();
  numeric::multiply_elementwise(hadamard,
                                channel->second_plan()->effective_covariance());
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(hadamard(i, j), k1(i, j) * k2(i, j));
    }
  }
  const CascadedMoments measured = fold_session_blocks(spec, 200000, 0xFACADE);
  EXPECT_LT(stats::relative_frobenius_error(measured.covariance.finalize(),
                                            hadamard),
            0.02);
}

TEST(Cascaded, TheoreticalMomentFormulas) {
  const auto plan = ColoringPlan::create(paper_k());
  for (std::size_t j = 0; j < plan->dimension(); ++j) {
    const double s = plan->effective_covariance()(j, j).real();
    const auto marginal = scenario::cascaded_branch_marginal(*plan, *plan, j);
    EXPECT_NEAR(marginal.mean(), 0.25 * 3.14159265358979324 * s, 1e-12);
    EXPECT_NEAR(marginal.second_moment(), s * s, 1e-12);
    EXPECT_NEAR(marginal.variance(),
                marginal.second_moment() - marginal.mean() * marginal.mean(),
                1e-12);
  }
  const auto other = ColoringPlan::create(tridiagonal_covariance(4));
  EXPECT_THROW((void)scenario::cascaded_branch_marginal(*plan, *other, 0),
               ContractViolation);
  EXPECT_THROW((void)scenario::cascaded_branch_marginal(*plan, *plan, 3),
               ContractViolation);
}

TEST(Cascaded, StreamDeterministicAndBlockwiseRegenerable) {
  const ChannelSpec spec = instant_cascade(tridiagonal_covariance(4),
                                           tridiagonal_covariance(4), 700);
  const auto channel = spec.compile();
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

  // The product is stage 1 (.) stage 2, drawn from disjoint Philox keys:
  // equal plans must still give different (independent) stage samples.
  const SamplePipeline stage(channel->plan());
  const CMatrix z1 =
      stage.sample_block(16, core::FadingStream::stage_seed(99, 0), 0);
  const CMatrix z2 =
      stage.sample_block(16, core::FadingStream::stage_seed(99, 1), 0);
  EXPECT_NE(z1, z2);
  CMatrix product = z1;
  numeric::multiply_elementwise(product, z2);
  EXPECT_EQ(channel->instant_block(16, 99, 0), product);

  EXPECT_THROW((void)instant_cascade(tridiagonal_covariance(4), paper_k()),
               InvalidSpecError);
}

// --- envelope-domain validator contracts ------------------------------------

TEST(EnvelopeValidation, RejectsBadMarginals) {
  const auto plan = ColoringPlan::create(paper_k());
  const SamplePipeline pipeline(plan);
  std::vector<core::EnvelopeMarginal> short_marginals(2);
  EXPECT_THROW(
      (void)core::validate_envelopes(pipeline, short_marginals, {}),
      ContractViolation);
  std::vector<core::EnvelopeMarginal> bad(3);
  EXPECT_THROW((void)core::validate_envelopes(pipeline, bad, {}),
               ContractViolation);
  // Moments set but cdf left empty: must be rejected up front, not fail
  // with bad_function_call deep inside the KS pass.
  std::vector<core::EnvelopeMarginal> no_cdf(
      3, core::EnvelopeMarginal{1.0, 0.2, nullptr});
  EXPECT_THROW((void)core::validate_envelopes(pipeline, no_cdf, {}),
               ContractViolation);
}

}  // namespace
