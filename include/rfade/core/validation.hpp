#pragma once

/// \file validation.hpp
/// \brief Monte-Carlo verification of the generator's statistical claims
///        (paper Sec. 4.5), with deterministic parallel execution.
///
/// Draws n samples from a SamplePipeline (the paper's steps 6-7 over a
/// ColoringPlan), fanned over the global thread pool in fixed-size chunks
/// with per-chunk Philox streams, and reports:
///   * relative Frobenius error between the sample covariance and the
///     effective covariance K_bar,
///   * per-branch envelope mean/variance against Eqs. (14)-(15),
///   * KS p-values of each envelope against the analytic Rayleigh CDF.
/// Results are bit-identical for any thread count (streams are keyed by
/// chunk index, not thread id).

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix.hpp"

namespace rfade::core {

/// Validation configuration.
struct ValidationOptions {
  std::size_t samples = 100000;
  std::uint64_t seed = 0xC0FFEE;
  bool parallel = true;
  /// Per-chunk draw count (chunk boundaries define RNG streams).
  std::size_t chunk_size = 8192;
  /// Envelope samples retained per branch for the KS test (subsampled
  /// deterministically from the first draws of each chunk).
  std::size_t ks_samples_per_branch = 20000;
};

/// Measured-vs-expected statistics report.
struct ValidationReport {
  std::size_t samples = 0;
  /// ||K_hat - K_bar||_F / ||K_bar||_F.
  double covariance_rel_error = 0.0;
  /// The sample covariance itself.
  numeric::CMatrix sample_covariance;
  /// Per-branch relative error of the envelope mean vs Eq. (14).
  numeric::RVector envelope_mean_rel_error;
  /// Per-branch relative error of the envelope variance vs Eq. (15).
  numeric::RVector envelope_variance_rel_error;
  /// Per-branch KS p-value against the Rayleigh CDF.
  numeric::RVector ks_p_values;
  /// Smallest of ks_p_values.
  double worst_ks_p_value = 1.0;
};

/// Run the validation Monte-Carlo against \p pipeline's effective
/// covariance (a zero-mean, unit-gain pipeline: the Rayleigh claims).
[[nodiscard]] ValidationReport validate_generator(
    const SamplePipeline& pipeline, const ValidationOptions& options = {});

// --- envelope-domain validation (scenario extensions) ------------------------
//
// The Rayleigh-only validator above hardcodes Eqs. (14)-(15) and the
// Rayleigh CDF.  The scenario layer (Rician/LOS, cascaded Rayleigh) brings
// other marginal laws, so the envelope-domain machinery is factored out:
// callers supply one analytic marginal per branch and any deterministic
// block source of envelopes.

/// Expected marginal law of one envelope branch: analytic mean/variance
/// plus the CDF for the KS test.
struct EnvelopeMarginal {
  double mean = 0.0;
  double variance = 0.0;
  std::function<double(double)> cdf;
};

/// Build the per-branch marginal list from any analytic distribution
/// family: \p branch_marginal(j) must return a copyable object exposing
/// mean(), variance() and cdf(double) — RicianDistribution,
/// DoubleRayleighDistribution, TwdpDistribution, ...  Shared by every
/// scenario's marginals() so the EnvelopeMarginal wiring lives in one
/// place.
template <typename BranchMarginalFn>
[[nodiscard]] std::vector<EnvelopeMarginal> make_marginals(
    std::size_t dimension, BranchMarginalFn&& branch_marginal) {
  std::vector<EnvelopeMarginal> result;
  result.reserve(dimension);
  for (std::size_t j = 0; j < dimension; ++j) {
    auto marginal = branch_marginal(j);
    const double mean = marginal.mean();
    const double variance = marginal.variance();
    result.push_back(EnvelopeMarginal{
        mean, variance,
        [marginal = std::move(marginal)](double r) {
          return marginal.cdf(r);
        }});
  }
  return result;
}

/// Measured-vs-expected envelope statistics, one entry per branch.
struct EnvelopeValidationReport {
  std::size_t samples = 0;
  /// Measured per-branch envelope mean / variance (the absolute values
  /// behind the relative errors below).
  numeric::RVector measured_mean;
  numeric::RVector measured_variance;
  numeric::RVector mean_rel_error;
  numeric::RVector variance_rel_error;
  /// Relative error of E[r^2] vs (mean^2 + variance) — the moment the
  /// cascaded-channel theory pins down exactly.
  numeric::RVector second_moment_rel_error;
  numeric::RVector ks_p_values;
  double worst_ks_p_value = 1.0;
  double max_mean_rel_error = 0.0;
  double max_variance_rel_error = 0.0;
  double max_second_moment_rel_error = 0.0;
};

/// Deterministic envelope-block source: the `count` x dimension envelope
/// matrix of logical block \p block_index of the stream keyed by \p seed.
/// Must be a pure function of its arguments (the validator fans blocks
/// over the thread pool and merges in block order).
using EnvelopeBlockSource = std::function<numeric::RMatrix(
    std::size_t count, std::uint64_t seed, std::uint64_t block_index)>;

/// Envelope-domain Monte-Carlo against per-branch analytic marginals.
/// Chunk boundaries come from options.chunk_size; bit-identical for any
/// thread count.  \pre marginals.size() == dimension, all variances and
/// means positive.
[[nodiscard]] EnvelopeValidationReport validate_envelope_source(
    std::size_t dimension, const EnvelopeBlockSource& source,
    std::span<const EnvelopeMarginal> marginals,
    const ValidationOptions& options = {});

/// Convenience overload drawing envelopes through the pipeline's bulk
/// batched path (LOS mean offsets included).
[[nodiscard]] EnvelopeValidationReport validate_envelopes(
    const SamplePipeline& pipeline,
    std::span<const EnvelopeMarginal> marginals,
    const ValidationOptions& options = {});

}  // namespace rfade::core
