#include "rfade/scenario/cascaded.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "rfade/doppler/filter.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/parallel.hpp"

namespace rfade::scenario {

namespace {

constexpr double kPi = 3.141592653589793238462643383279502884;

core::PipelineOptions stage_pipeline_options(const CascadedOptions& options) {
  core::PipelineOptions pipeline;
  pipeline.block_size = options.block_size;
  pipeline.parallel = options.parallel;
  return pipeline;
}

}  // namespace

std::uint64_t CascadedRayleighGenerator::stage_seed(std::uint64_t seed,
                                                    std::uint64_t stage) {
  return core::FadingStream::stage_seed(seed, stage);
}

CascadedRayleighGenerator::CascadedRayleighGenerator(
    std::shared_ptr<const core::ColoringPlan> first,
    std::shared_ptr<const core::ColoringPlan> second, CascadedOptions options)
    : first_(std::move(first), stage_pipeline_options(options)),
      second_(std::move(second), stage_pipeline_options(options)),
      options_(options) {
  RFADE_EXPECTS(first_.dimension() == second_.dimension(),
                "CascadedRayleighGenerator: stage dimensions must match");
  effective_ = first_.plan().effective_covariance();
  numeric::multiply_elementwise(effective_,
                                second_.plan().effective_covariance());
}

CascadedRayleighGenerator::CascadedRayleighGenerator(
    numeric::CMatrix first_covariance, numeric::CMatrix second_covariance,
    CascadedOptions options)
    : CascadedRayleighGenerator(
          core::ColoringPlan::create(std::move(first_covariance),
                                     options.coloring),
          core::ColoringPlan::create(std::move(second_covariance),
                                     options.coloring),
          options) {}

stats::DoubleRayleighDistribution CascadedRayleighGenerator::branch_marginal(
    std::size_t j) const {
  RFADE_EXPECTS(j < dimension(), "branch_marginal: branch out of range");
  return stats::DoubleRayleighDistribution::from_gaussian_powers(
      first_.plan().effective_covariance()(j, j).real(),
      second_.plan().effective_covariance()(j, j).real());
}

std::vector<core::EnvelopeMarginal> CascadedRayleighGenerator::marginals()
    const {
  return core::make_marginals(
      dimension(), [this](std::size_t j) { return branch_marginal(j); });
}

double CascadedRayleighGenerator::envelope_mean(std::size_t j) const {
  RFADE_EXPECTS(j < dimension(), "envelope_mean: branch out of range");
  const double s1 = first_.plan().effective_covariance()(j, j).real();
  const double s2 = second_.plan().effective_covariance()(j, j).real();
  return 0.25 * kPi * std::sqrt(s1 * s2);
}

double CascadedRayleighGenerator::envelope_second_moment(std::size_t j) const {
  RFADE_EXPECTS(j < dimension(), "envelope_second_moment: branch out of range");
  return effective_(j, j).real();
}

double CascadedRayleighGenerator::envelope_variance(std::size_t j) const {
  const double mean = envelope_mean(j);
  return envelope_second_moment(j) - mean * mean;
}

double CascadedRayleighGenerator::envelope_fourth_moment(std::size_t j) const {
  const double m2 = envelope_second_moment(j);
  return 4.0 * m2 * m2;
}

numeric::CMatrix CascadedRayleighGenerator::sample_block(
    std::size_t count, std::uint64_t seed, std::uint64_t block_index) const {
  numeric::CMatrix z =
      first_.sample_block(count, stage_seed(seed, 0), block_index);
  numeric::multiply_elementwise(
      z, second_.sample_block(count, stage_seed(seed, 1), block_index));
  return z;
}

numeric::CMatrix CascadedRayleighGenerator::sample_stream(
    std::size_t count, std::uint64_t seed) const {
  const std::size_t n = dimension();
  numeric::CMatrix out(count, n);
  const support::ChunkingOptions chunking{options_.block_size,
                                          !options_.parallel};
  support::parallel_for_chunked(
      count,
      [&](std::size_t begin, std::size_t end, std::size_t block) {
        const numeric::CMatrix piece = sample_block(end - begin, seed, block);
        std::copy(piece.data(), piece.data() + piece.size(),
                  out.data() + begin * n);
      },
      chunking);
  return out;
}

numeric::RMatrix CascadedRayleighGenerator::sample_envelope_stream(
    std::size_t count, std::uint64_t seed) const {
  return numeric::elementwise_abs(sample_stream(count, seed));
}

namespace {

/// Per-chunk accumulation for envelope_moment_diagnostics, merged in
/// chunk order.
struct CascadedChunkState {
  explicit CascadedChunkState(std::size_t dim)
      : covariance(dim), envelope(dim), envelope_power(dim) {}

  stats::CovarianceAccumulator covariance;
  std::vector<stats::RunningStats> envelope;
  /// Stats of r^2 — variance(r^2) + mean(r^2)^2 gives E[r^4] for the
  /// amount-of-fading diagnostic.
  std::vector<stats::RunningStats> envelope_power;
};

}  // namespace

CascadedMomentReport CascadedRayleighGenerator::envelope_moment_diagnostics(
    std::size_t samples, std::uint64_t seed) const {
  RFADE_EXPECTS(samples > 0,
                "envelope_moment_diagnostics: samples must be positive");
  const std::size_t n = dimension();
  const support::ChunkingOptions chunking{options_.block_size,
                                          !options_.parallel};
  const std::size_t chunks = support::chunk_count(samples, chunking);

  std::vector<CascadedChunkState> states;
  states.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    states.emplace_back(n);
  }

  support::parallel_for_chunked(
      samples,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        const numeric::CMatrix block = sample_block(end - begin, seed, chunk);
        CascadedChunkState& state = states[chunk];
        numeric::CVector z(n);
        for (std::size_t t = 0; t < block.rows(); ++t) {
          const numeric::cdouble* row = block.data() + t * n;
          z.assign(row, row + n);
          state.covariance.add(z);
          for (std::size_t j = 0; j < n; ++j) {
            const double r = std::abs(z[j]);
            state.envelope[j].add(r);
            state.envelope_power[j].add(r * r);
          }
        }
      },
      chunking);

  CascadedChunkState total(n);
  for (const CascadedChunkState& state : states) {
    total.covariance.merge(state.covariance);
    for (std::size_t j = 0; j < n; ++j) {
      total.envelope[j].merge(state.envelope[j]);
      total.envelope_power[j].merge(state.envelope_power[j]);
    }
  }

  CascadedMomentReport report;
  report.samples = samples;
  report.measured_mean.resize(n);
  report.expected_mean.resize(n);
  report.mean_rel_error.resize(n);
  report.measured_second_moment.resize(n);
  report.expected_second_moment.resize(n);
  report.second_moment_rel_error.resize(n);
  report.measured_amount_of_fading.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    report.measured_mean[j] = total.envelope[j].mean();
    report.expected_mean[j] = envelope_mean(j);
    report.mean_rel_error[j] =
        std::abs(report.measured_mean[j] - report.expected_mean[j]) /
        report.expected_mean[j];
    const double m2 = total.envelope_power[j].mean();
    const double m4 = total.envelope_power[j].variance() + m2 * m2;
    report.measured_second_moment[j] = m2;
    report.expected_second_moment[j] = envelope_second_moment(j);
    report.second_moment_rel_error[j] =
        std::abs(m2 - report.expected_second_moment[j]) /
        report.expected_second_moment[j];
    report.measured_amount_of_fading[j] = m4 / (m2 * m2) - 1.0;
    report.max_mean_rel_error =
        std::max(report.max_mean_rel_error, report.mean_rel_error[j]);
    report.max_second_moment_rel_error =
        std::max(report.max_second_moment_rel_error,
                 report.second_moment_rel_error[j]);
  }
  report.covariance_rel_error = stats::relative_frobenius_error(
      total.covariance.covariance(), effective_);
  return report;
}

core::EnvelopeValidationReport validate_cascaded(
    const CascadedRayleighGenerator& generator,
    const core::ValidationOptions& options) {
  return core::validate_envelope_source(
      generator.dimension(),
      [&generator](std::size_t count, std::uint64_t seed,
                   std::uint64_t block_index) {
        return numeric::elementwise_abs(
            generator.sample_block(count, seed, block_index));
      },
      generator.marginals(), options);
}

core::FadingStream cascaded_fading_stream(
    std::shared_ptr<const core::ColoringPlan> first,
    std::shared_ptr<const core::ColoringPlan> second, double second_doppler,
    core::FadingStreamOptions options,
    std::shared_ptr<const doppler::BranchSourceDesign> first_design,
    std::shared_ptr<const doppler::BranchSourceDesign> second_design) {
  const std::uint64_t seed = options.seed;
  core::FadingStreamOptions stage2 = options;
  stage2.normalized_doppler = second_doppler;
  stage2.los_mean = {};
  stage2.gain = {};
  stage2.seed = core::FadingStream::stage_seed(seed, 1);
  options.seed = core::FadingStream::stage_seed(seed, 0);
  return core::FadingStream::product(
      core::FadingStream(std::move(first), std::move(options),
                         std::move(first_design)),
      core::FadingStream(std::move(second), std::move(stage2),
                         std::move(second_design)),
      seed);
}

namespace {

const core::FadingStream& second_stage_of(const core::FadingStream& stream) {
  RFADE_EXPECTS(stream.second_stage() != nullptr,
                "cascaded theory needs a cascaded product stream");
  return *stream.second_stage();
}

}  // namespace

numeric::RVector cascaded_normalized_autocorrelation(
    const core::FadingStream& stream, std::size_t max_lag) {
  numeric::RVector product = doppler::theoretical_normalized_autocorrelation(
      stream.branch().filter(), max_lag);
  const numeric::RVector rho2 = doppler::theoretical_normalized_autocorrelation(
      second_stage_of(stream).branch().filter(), max_lag);
  for (std::size_t d = 0; d <= max_lag; ++d) {
    product[d] *= rho2[d];
  }
  return product;
}

stats::DoubleRayleighDistribution cascaded_branch_marginal(
    const core::FadingStream& stream, std::size_t j) {
  const core::FadingStream& second = second_stage_of(stream);
  RFADE_EXPECTS(j < stream.dimension(),
                "cascaded_branch_marginal: branch out of range");
  return stats::DoubleRayleighDistribution::from_gaussian_powers(
      stream.plan()->effective_covariance()(j, j).real(),
      second.effective_covariance()(j, j).real());
}

}  // namespace rfade::scenario
