// Tests for the scenario subsystem (scenario/): Rician/LOS mean offsets
// threaded through the SamplePipeline hot paths (K = 0 degenerates to the
// plain Rayleigh path bit-for-bit; batched == per-draw with a mean), the
// Rician K-factor sweep against the analytic envelope marginals, and the
// cascaded Rayleigh generator against product-channel theory (second
// moments, Hadamard effective covariance, amount of fading ~ 3).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/scenario_spec.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;
using scenario::CascadedRayleighGenerator;
using scenario::ScenarioSpec;

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

TEST(Cascaded, SecondMomentsMatchProductChannelTheory) {
  const CascadedRayleighGenerator gen(paper_k(), tridiagonal_covariance(3));
  const auto report = gen.envelope_moment_diagnostics(200000, 0xCA5CADE);
  EXPECT_LT(report.max_mean_rel_error, 0.01);
  EXPECT_LT(report.max_second_moment_rel_error, 0.02);
  for (std::size_t j = 0; j < gen.dimension(); ++j) {
    // Amount of fading E[r^4]/E[r^2]^2 - 1 = 3 for the cascade (vs 1 for
    // Rayleigh) — the fourth moment converges slowly, hence the loose band.
    EXPECT_NEAR(report.measured_amount_of_fading[j], 3.0, 0.35)
        << "branch " << j;
  }
}

TEST(Cascaded, EffectiveCovarianceIsHadamardProduct) {
  const CMatrix k1 = paper_k();
  const CMatrix k2 = tridiagonal_covariance(3);
  const CascadedRayleighGenerator gen(k1, k2);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      EXPECT_EQ(gen.effective_covariance()(i, j), k1(i, j) * k2(i, j));
    }
  }
  const auto report = gen.envelope_moment_diagnostics(200000, 0xFACADE);
  EXPECT_LT(report.covariance_rel_error, 0.02);
}

TEST(Cascaded, TheoreticalMomentFormulas) {
  const CascadedRayleighGenerator gen(paper_k(), paper_k());
  for (std::size_t j = 0; j < gen.dimension(); ++j) {
    const double s1 = gen.first_stage().plan().effective_covariance()(j, j).real();
    const double s2 =
        gen.second_stage().plan().effective_covariance()(j, j).real();
    EXPECT_NEAR(gen.envelope_mean(j),
                0.25 * 3.14159265358979324 * std::sqrt(s1 * s2), 1e-12);
    EXPECT_NEAR(gen.envelope_second_moment(j), s1 * s2, 1e-12);
    EXPECT_NEAR(gen.envelope_fourth_moment(j), 4.0 * s1 * s2 * s1 * s2, 1e-12);
    EXPECT_NEAR(gen.envelope_variance(j),
                gen.envelope_second_moment(j) -
                    gen.envelope_mean(j) * gen.envelope_mean(j),
                1e-12);
  }
}

TEST(Cascaded, StreamDeterministicAndBlockwiseRegenerable) {
  scenario::CascadedOptions serial;
  serial.block_size = 700;
  serial.parallel = false;
  scenario::CascadedOptions parallel = serial;
  parallel.parallel = true;
  const auto plan1 = ColoringPlan::create(tridiagonal_covariance(4));
  const auto plan2 = ColoringPlan::create(paper_k());
  const CascadedRayleighGenerator serial_gen(plan1, plan1, serial);
  const CascadedRayleighGenerator parallel_gen(plan1, plan1, parallel);
  const CMatrix a = serial_gen.sample_stream(3000, 99);
  const CMatrix b = parallel_gen.sample_stream(3000, 99);
  EXPECT_EQ(a, b);

  // Blocks regenerate independently, in any order.
  CMatrix rebuilt(3000, serial_gen.dimension());
  for (std::size_t block = 5; block-- > 0;) {
    const std::size_t begin = block * serial.block_size;
    const std::size_t rows = std::min(serial.block_size, 3000 - begin);
    if (begin >= 3000) {
      continue;
    }
    const CMatrix piece = serial_gen.sample_block(rows, 99, block);
    std::copy(piece.data(), piece.data() + piece.size(),
              rebuilt.data() + begin * rebuilt.cols());
  }
  EXPECT_EQ(a, rebuilt);

  // The two stages draw from disjoint Philox keys: equal plans must still
  // give different (independent) stage samples.
  const CMatrix z1 = serial_gen.first_stage().sample_block(
      16, CascadedRayleighGenerator::stage_seed(99, 0), 0);
  const CMatrix z2 = serial_gen.second_stage().sample_block(
      16, CascadedRayleighGenerator::stage_seed(99, 1), 0);
  EXPECT_NE(z1, z2);

  EXPECT_THROW(CascadedRayleighGenerator(plan1, plan2), ContractViolation);
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
