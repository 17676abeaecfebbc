#include "rfade/scenario/composite/suzuki.hpp"

#include <cmath>
#include <utility>

#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::scenario::composite {

namespace {

std::shared_ptr<const ShadowingDesign> make_design(
    const std::shared_ptr<const core::ColoringPlan>& plan,
    ShadowingSpec spec) {
  RFADE_EXPECTS(plan != nullptr, "SuzukiGenerator: plan must not be null");
  return std::make_shared<const ShadowingDesign>(plan->dimension(),
                                                 std::move(spec));
}

}  // namespace

// Covariance entry point: a thin wrapper over the canonical ChannelSpec
// path — the compiled channel carries the exact generator this
// constructor used to hand-assemble (same plan, same shadowing design,
// same options), so the copy is bit-identical to the historical path.
SuzukiGenerator::SuzukiGenerator(numeric::CMatrix diffuse_covariance,
                                 ShadowingSpec shadowing,
                                 SuzukiOptions options)
    : SuzukiGenerator(service::ChannelSpec::Builder()
                          .suzuki(std::move(diffuse_covariance),
                                  std::move(shadowing))
                          .coloring(options.coloring)
                          .block_size(options.block_size)
                          .parallel(options.parallel)
                          .instant()
                          .build()
                          .compile()
                          ->suzuki_generator()) {}

SuzukiGenerator::SuzukiGenerator(std::shared_ptr<const core::ColoringPlan> plan,
                                 ShadowingSpec shadowing,
                                 SuzukiOptions options)
    : plan_(std::move(plan)),
      shadowing_(make_design(plan_, std::move(shadowing))),
      options_(options) {}

core::GainSource SuzukiGenerator::shadowing_gain(std::uint64_t seed) const {
  return core::GainSource::dynamic(
      std::make_shared<const ShadowingProcess>(shadowing_, seed));
}

core::SamplePipeline SuzukiGenerator::make_pipeline(
    std::uint64_t seed) const {
  core::PipelineOptions pipeline;
  pipeline.block_size = options_.block_size;
  pipeline.parallel = options_.parallel;
  pipeline.gain = shadowing_gain(seed);
  return core::SamplePipeline(plan_, pipeline);
}

numeric::CMatrix SuzukiGenerator::sample_block(
    std::size_t count, std::uint64_t seed, std::uint64_t block_index) const {
  return make_pipeline(seed).sample_block(count, seed, block_index);
}

numeric::CMatrix SuzukiGenerator::sample_stream(std::size_t count,
                                                std::uint64_t seed) const {
  return make_pipeline(seed).sample_stream(count, seed);
}

numeric::RMatrix SuzukiGenerator::sample_envelope_stream(
    std::size_t count, std::uint64_t seed) const {
  return numeric::elementwise_abs(sample_stream(count, seed));
}

core::FadingStream SuzukiGenerator::make_stream(
    core::FadingStreamOptions options,
    std::shared_ptr<const doppler::BranchSourceDesign> design) const {
  options.gain = shadowing_gain(options.seed);
  return core::FadingStream(plan_, options, std::move(design));
}

stats::SuzukiDistribution SuzukiGenerator::branch_marginal(
    std::size_t j) const {
  RFADE_EXPECTS(j < dimension(), "SuzukiGenerator: branch index out of range");
  const double power = plan_->effective_covariance()(j, j).real();
  return stats::SuzukiDistribution::from_gaussian_power(
      power, shadowing_->spec().mean_db, shadowing_->effective_sigma_db(j));
}

std::vector<core::EnvelopeMarginal> SuzukiGenerator::marginals() const {
  return core::make_marginals(
      dimension(), [this](std::size_t j) { return branch_marginal(j); });
}

core::EnvelopeValidationReport validate_suzuki(
    const SuzukiGenerator& generator, const core::ValidationOptions& options,
    std::size_t instant_stride) {
  RFADE_EXPECTS(instant_stride >= 1,
                "validate_suzuki: instant_stride must be >= 1");
  const std::vector<core::EnvelopeMarginal> marginals = generator.marginals();
  if (instant_stride == 1) {
    return core::validate_envelope_source(
        generator.dimension(),
        [&generator](std::size_t count, std::uint64_t seed,
                     std::uint64_t block_index) {
          return numeric::elementwise_abs(
              generator.sample_block(count, seed, block_index));
        },
        marginals, options);
  }
  // Thinned source: draw count * stride rows at the chunk's absolute
  // instant offset and keep every stride-th — still a pure function of
  // (seed, block index), but retained samples sit `stride` instants
  // apart so the shadowing between them has decayed.
  const std::size_t chunk = options.chunk_size;
  return core::validate_envelope_source(
      generator.dimension(),
      [&generator, instant_stride, chunk](std::size_t count,
                                          std::uint64_t seed,
                                          std::uint64_t block_index) {
        const std::size_t dense = count * instant_stride;
        // block_index * chunk * instant_stride, checked like every keyed
        // entry point: the dense block's last row instant must fit.
        const std::uint64_t first = core::checked_first_instant(
            core::checked_first_instant(block_index, chunk, 1),
            instant_stride, dense);
        const numeric::CMatrix z =
            generator.make_pipeline(seed).sample_block(dense, seed,
                                                       block_index, first);
        numeric::RMatrix envelopes(count, z.cols());
        for (std::size_t t = 0; t < count; ++t) {
          for (std::size_t j = 0; j < z.cols(); ++j) {
            envelopes(t, j) = std::abs(z(t * instant_stride, j));
          }
        }
        return envelopes;
      },
      marginals, options);
}

}  // namespace rfade::scenario::composite
