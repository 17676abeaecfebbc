#include "rfade/scenario/cascaded.hpp"

#include <utility>

#include "rfade/doppler/filter.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::scenario {

stats::DoubleRayleighDistribution cascaded_branch_marginal(
    const core::ColoringPlan& first, const core::ColoringPlan& second,
    std::size_t j) {
  RFADE_EXPECTS(first.dimension() == second.dimension(),
                "cascaded_branch_marginal: stage dimensions must match");
  RFADE_EXPECTS(j < first.dimension(),
                "cascaded_branch_marginal: branch out of range");
  return stats::DoubleRayleighDistribution::from_gaussian_powers(
      first.effective_covariance()(j, j).real(),
      second.effective_covariance()(j, j).real());
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

numeric::RVector cascaded_normalized_autocorrelation(
    const core::FadingStream& stream, std::size_t max_lag) {
  RFADE_EXPECTS(stream.second_stage() != nullptr,
                "cascaded theory needs a cascaded product stream");
  numeric::RVector product = doppler::theoretical_normalized_autocorrelation(
      stream.branch().filter(), max_lag);
  const numeric::RVector rho2 = doppler::theoretical_normalized_autocorrelation(
      stream.second_stage()->branch().filter(), max_lag);
  for (std::size_t d = 0; d <= max_lag; ++d) {
    product[d] *= rho2[d];
  }
  return product;
}

}  // namespace rfade::scenario
