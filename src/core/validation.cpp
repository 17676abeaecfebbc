#include "rfade/core/validation.hpp"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <vector>

#include "rfade/core/power.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/parallel.hpp"

namespace rfade::core {

namespace {

/// Per-chunk accumulation state, merged deterministically in chunk order.
struct ChunkState {
  explicit ChunkState(std::size_t dim)
      : covariance(dim), envelope_stats(dim), ks_reservoir(dim) {}

  stats::CovarianceAccumulator covariance;
  std::vector<stats::RunningStats> envelope_stats;
  std::vector<numeric::RVector> ks_reservoir;
};

}  // namespace

ValidationReport validate_generator(const SamplePipeline& pipeline,
                                    const ValidationOptions& options) {
  const std::size_t n = pipeline.dimension();
  const numeric::CMatrix& effective = pipeline.plan().effective_covariance();
  const support::ChunkingOptions chunking{options.chunk_size,
                                          !options.parallel};
  const std::size_t chunks = support::chunk_count(options.samples, chunking);
  const std::size_t ks_per_chunk =
      chunks == 0 ? 0
                  : (options.ks_samples_per_branch + chunks - 1) / chunks;

  std::vector<ChunkState> states;
  states.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    states.emplace_back(n);
  }

  const random::Rng root(options.seed);
  support::parallel_for_chunked(
      options.samples,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        random::Rng rng = root.fork_stream(chunk + 1);
        ChunkState& state = states[chunk];
        // Draw the whole chunk through the batched pipeline path — one
        // blocked GEMM instead of per-draw matvecs, bit-identical to the
        // per-draw loop (same rng order, same accumulation order).
        const numeric::CMatrix block =
            pipeline.sample_block(end - begin, rng);
        numeric::CVector z(n);
        for (std::size_t t = begin; t < end; ++t) {
          const numeric::cdouble* row = block.data() + (t - begin) * n;
          z.assign(row, row + n);
          state.covariance.add(z);
          const bool keep_for_ks = (t - begin) < ks_per_chunk;
          for (std::size_t j = 0; j < n; ++j) {
            const double r = std::abs(z[j]);
            state.envelope_stats[j].add(r);
            if (keep_for_ks) {
              state.ks_reservoir[j].push_back(r);
            }
          }
        }
      },
      chunking);

  // Deterministic merge in chunk order.
  ChunkState total(n);
  for (const ChunkState& state : states) {
    total.covariance.merge(state.covariance);
    for (std::size_t j = 0; j < n; ++j) {
      total.envelope_stats[j].merge(state.envelope_stats[j]);
      total.ks_reservoir[j].insert(total.ks_reservoir[j].end(),
                                   state.ks_reservoir[j].begin(),
                                   state.ks_reservoir[j].end());
    }
  }

  ValidationReport report;
  report.samples = options.samples;
  report.sample_covariance = total.covariance.covariance();
  report.covariance_rel_error = stats::relative_frobenius_error(
      report.sample_covariance, effective);

  report.envelope_mean_rel_error.resize(n);
  report.envelope_variance_rel_error.resize(n);
  report.ks_p_values.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double power = effective(j, j).real();
    const double expected_mean = envelope_mean_from_gaussian_power(power);
    const double expected_var = envelope_power_from_gaussian_power(power);
    report.envelope_mean_rel_error[j] =
        std::abs(total.envelope_stats[j].mean() - expected_mean) /
        expected_mean;
    report.envelope_variance_rel_error[j] =
        std::abs(total.envelope_stats[j].variance() - expected_var) /
        expected_var;
    const stats::RayleighDistribution rayleigh =
        stats::RayleighDistribution::from_gaussian_power(power);
    const stats::KsResult ks = stats::ks_test(
        total.ks_reservoir[j],
        [&rayleigh](double r) { return rayleigh.cdf(r); });
    report.ks_p_values[j] = ks.p_value;
  }
  report.worst_ks_p_value =
      *std::min_element(report.ks_p_values.begin(), report.ks_p_values.end());
  return report;
}

namespace {

/// Per-chunk accumulation for the envelope-domain validator.
struct EnvelopeChunkState {
  explicit EnvelopeChunkState(std::size_t dim)
      : envelope_stats(dim), ks_reservoir(dim) {}

  std::vector<stats::RunningStats> envelope_stats;
  std::vector<numeric::RVector> ks_reservoir;
};

}  // namespace

EnvelopeValidationReport validate_envelope_source(
    std::size_t dimension, const EnvelopeBlockSource& source,
    std::span<const EnvelopeMarginal> marginals,
    const ValidationOptions& options) {
  RFADE_EXPECTS(dimension > 0, "validate_envelope_source: dimension == 0");
  RFADE_EXPECTS(marginals.size() == dimension,
                "validate_envelope_source: one marginal per branch required");
  for (const EnvelopeMarginal& marginal : marginals) {
    RFADE_EXPECTS(marginal.mean > 0.0 && marginal.variance > 0.0,
                  "validate_envelope_source: marginal moments must be "
                  "positive");
    RFADE_EXPECTS(static_cast<bool>(marginal.cdf),
                  "validate_envelope_source: marginal cdf must be set");
  }
  const support::ChunkingOptions chunking{options.chunk_size,
                                          !options.parallel};
  const std::size_t chunks = support::chunk_count(options.samples, chunking);
  const std::size_t ks_per_chunk =
      chunks == 0 ? 0
                  : (options.ks_samples_per_branch + chunks - 1) / chunks;

  std::vector<EnvelopeChunkState> states;
  states.reserve(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    states.emplace_back(dimension);
  }

  support::parallel_for_chunked(
      options.samples,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        const numeric::RMatrix block = source(end - begin, options.seed, chunk);
        RFADE_EXPECTS(block.rows() == end - begin &&
                          block.cols() == dimension,
                      "validate_envelope_source: block shape mismatch");
        EnvelopeChunkState& state = states[chunk];
        for (std::size_t t = 0; t < block.rows(); ++t) {
          const bool keep_for_ks = t < ks_per_chunk;
          for (std::size_t j = 0; j < dimension; ++j) {
            const double r = block(t, j);
            state.envelope_stats[j].add(r);
            if (keep_for_ks) {
              state.ks_reservoir[j].push_back(r);
            }
          }
        }
      },
      chunking);

  // Deterministic merge in chunk order.
  EnvelopeChunkState total(dimension);
  for (const EnvelopeChunkState& state : states) {
    for (std::size_t j = 0; j < dimension; ++j) {
      total.envelope_stats[j].merge(state.envelope_stats[j]);
      total.ks_reservoir[j].insert(total.ks_reservoir[j].end(),
                                   state.ks_reservoir[j].begin(),
                                   state.ks_reservoir[j].end());
    }
  }

  EnvelopeValidationReport report;
  report.samples = options.samples;
  report.measured_mean.resize(dimension);
  report.measured_variance.resize(dimension);
  report.mean_rel_error.resize(dimension);
  report.variance_rel_error.resize(dimension);
  report.second_moment_rel_error.resize(dimension);
  report.ks_p_values.resize(dimension);
  for (std::size_t j = 0; j < dimension; ++j) {
    const EnvelopeMarginal& expected = marginals[j];
    const stats::RunningStats& measured = total.envelope_stats[j];
    const double expected_m2 =
        expected.mean * expected.mean + expected.variance;
    const double measured_m2 =
        measured.variance() + measured.mean() * measured.mean();
    report.measured_mean[j] = measured.mean();
    report.measured_variance[j] = measured.variance();
    report.mean_rel_error[j] =
        std::abs(measured.mean() - expected.mean) / expected.mean;
    report.variance_rel_error[j] =
        std::abs(measured.variance() - expected.variance) / expected.variance;
    report.second_moment_rel_error[j] =
        std::abs(measured_m2 - expected_m2) / expected_m2;
    const stats::KsResult ks =
        stats::ks_test(total.ks_reservoir[j], expected.cdf);
    report.ks_p_values[j] = ks.p_value;
    report.max_mean_rel_error =
        std::max(report.max_mean_rel_error, report.mean_rel_error[j]);
    report.max_variance_rel_error =
        std::max(report.max_variance_rel_error, report.variance_rel_error[j]);
    report.max_second_moment_rel_error =
        std::max(report.max_second_moment_rel_error,
                 report.second_moment_rel_error[j]);
  }
  report.worst_ks_p_value =
      *std::min_element(report.ks_p_values.begin(), report.ks_p_values.end());
  return report;
}

EnvelopeValidationReport validate_envelopes(
    const SamplePipeline& pipeline, std::span<const EnvelopeMarginal> marginals,
    const ValidationOptions& options) {
  return validate_envelope_source(
      pipeline.dimension(),
      [&pipeline](std::size_t count, std::uint64_t seed,
                  std::uint64_t block_index) {
        return numeric::elementwise_abs(
            pipeline.sample_block(count, seed, block_index));
      },
      marginals, options);
}

}  // namespace rfade::core
