#include "rfade/scenario/timevarying/twdp.hpp"

#include <cmath>
#include <complex>
#include <utility>

#include "rfade/random/xoshiro.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::scenario {

namespace {

constexpr double kTwoPi = 6.283185307179586476925286766559;

/// The Philox seed of the instant wave-phase substreams.  splitmix64 over
/// a fixed tweak keeps these keys disjoint from the diffuse draw keys (the
/// raw seed) and from the cascade's stage seeds (splitmix of seed + stage
/// * golden).
std::uint64_t phase_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x7D0B5ED4A11CE5ULL;
  return random::splitmix64(state);
}

bool all_zero(const numeric::CVector& wave) {
  for (const numeric::cdouble& v : wave) {
    if (v != numeric::cdouble{}) {
      return false;
    }
  }
  return true;
}

}  // namespace

TwdpSpec::TwdpSpec(numeric::CMatrix diffuse, std::vector<TwdpBranch> branches)
    : diffuse_(std::move(diffuse)), branches_(std::move(branches)) {
  RFADE_EXPECTS(diffuse_.is_square() && diffuse_.rows() > 0,
                "TwdpSpec: diffuse covariance must be square, non-empty");
  RFADE_EXPECTS(branches_.size() == diffuse_.rows(),
                "TwdpSpec: one TwdpBranch per envelope required");
  for (const TwdpBranch& branch : branches_) {
    RFADE_EXPECTS(std::isfinite(branch.k_factor) && branch.k_factor >= 0.0,
                  "TwdpSpec: K-factor must be finite and non-negative");
    RFADE_EXPECTS(std::isfinite(branch.delta) && branch.delta >= 0.0 &&
                      branch.delta <= 1.0,
                  "TwdpSpec: Delta must be in [0, 1]");
    RFADE_EXPECTS(std::isfinite(branch.phase1) && std::isfinite(branch.phase2),
                  "TwdpSpec: wave phases must be finite");
    if (branch.k_factor > 0.0) {
      has_specular_ = true;
    }
  }
}

TwdpSpec TwdpSpec::uniform(numeric::CMatrix diffuse_covariance,
                           double k_factor, double delta) {
  const std::size_t n = diffuse_covariance.rows();
  return TwdpSpec(
      std::move(diffuse_covariance),
      std::vector<TwdpBranch>(n, TwdpBranch{k_factor, delta, 0.0, 0.0}));
}

TwdpSpec TwdpSpec::per_branch(numeric::CMatrix diffuse_covariance,
                              std::vector<TwdpBranch> branches) {
  return TwdpSpec(std::move(diffuse_covariance), std::move(branches));
}

std::shared_ptr<const core::ColoringPlan> TwdpSpec::build_plan(
    core::ColoringOptions options) const {
  return core::ColoringPlan::create(diffuse_, options);
}

TwdpSpec::SpecularWaves TwdpSpec::specular_waves(
    const core::ColoringPlan& plan) const {
  RFADE_EXPECTS(plan.dimension() == dimension(),
                "TwdpSpec: plan dimension mismatch");
  SpecularWaves waves;
  waves.first.resize(dimension());
  waves.second.resize(dimension());
  for (std::size_t j = 0; j < dimension(); ++j) {
    const TwdpBranch& branch = branches_[j];
    const double diffuse_power = plan.effective_covariance()(j, j).real();
    // v_{1,2}^2 = (K K_bar_jj / 2)(1 +- sqrt(1 - Delta^2)).
    const double specular_power = branch.k_factor * diffuse_power;
    const double split =
        std::sqrt(std::max(0.0, 1.0 - branch.delta * branch.delta));
    const double v1 = std::sqrt(0.5 * specular_power * (1.0 + split));
    const double v2 = std::sqrt(0.5 * specular_power * (1.0 - split));
    waves.first[j] = std::polar(v1, branch.phase1);
    waves.second[j] = std::polar(v2, branch.phase2);
  }
  return waves;
}

core::MeanSource TwdpSpec::realtime_mean(const core::ColoringPlan& plan,
                                         double first_wave_doppler,
                                         double second_wave_doppler) const {
  // Documented preconditions hold on every branch, including K = 0 where
  // the mean vanishes — a unit mix-up in a wave Doppler must fail here.
  for (const double f : {first_wave_doppler, second_wave_doppler}) {
    RFADE_EXPECTS(std::isfinite(f) && std::abs(f) <= 0.5,
                  "TwdpSpec: wave Doppler must be finite with |f| <= 0.5");
  }
  RFADE_EXPECTS(plan.dimension() == dimension(),
                "TwdpSpec: plan dimension mismatch");
  if (!has_specular_) {
    return {};
  }
  SpecularWaves waves = specular_waves(plan);
  return core::MeanSource::phasor_sum(
      {core::MeanPhasorTerm{std::move(waves.first), first_wave_doppler},
       core::MeanPhasorTerm{std::move(waves.second), second_wave_doppler}});
}

stats::TwdpDistribution TwdpSpec::branch_marginal(
    const core::ColoringPlan& plan, std::size_t j) const {
  RFADE_EXPECTS(plan.dimension() == dimension(),
                "TwdpSpec: plan dimension mismatch");
  RFADE_EXPECTS(j < dimension(), "TwdpSpec: branch index out of range");
  const double diffuse_power = plan.effective_covariance()(j, j).real();
  return stats::TwdpDistribution::from_parameters(
      branches_[j].k_factor, branches_[j].delta, diffuse_power);
}

std::vector<core::EnvelopeMarginal> TwdpSpec::marginals(
    const core::ColoringPlan& plan) const {
  return core::make_marginals(
      dimension(),
      [&](std::size_t j) { return branch_marginal(plan, j); });
}

void add_twdp_waves(const TwdpSpec::SpecularWaves& waves, std::uint64_t seed,
                    std::uint64_t block_index, numeric::CMatrix& block) {
  const std::size_t n = block.cols();
  RFADE_EXPECTS(waves.first.size() == n && waves.second.size() == n,
                "add_twdp_waves: one wave amplitude per branch required");
  const bool second_active = !all_zero(waves.second);
  if (!second_active && all_zero(waves.first)) {
    // K = 0: no wave pass, no phase stream — bit-identical to the plain
    // Rayleigh batched path.
    return;
  }
  random::Rng phases = random::block_substream(phase_seed(seed), block_index);
  for (std::size_t t = 0; t < block.rows(); ++t) {
    numeric::cdouble* row = block.data() + t * n;
    const numeric::cdouble rot1 = std::polar(1.0, kTwoPi * phases.uniform01());
    if (!second_active) {
      // Delta = 0 everywhere: a single wave per row (random-phase
      // Rician); no second rotation and no add-zeros pass.
      for (std::size_t j = 0; j < n; ++j) {
        row[j] += waves.first[j] * rot1;
      }
      continue;
    }
    const numeric::cdouble rot2 = std::polar(1.0, kTwoPi * phases.uniform01());
    for (std::size_t j = 0; j < n; ++j) {
      row[j] += waves.first[j] * rot1 + waves.second[j] * rot2;
    }
  }
}

core::FadingStream twdp_fading_stream(
    std::shared_ptr<const core::ColoringPlan> plan, const TwdpSpec& spec,
    double first_wave_doppler, double second_wave_doppler,
    core::FadingStreamOptions options,
    std::shared_ptr<const doppler::BranchSourceDesign> design) {
  RFADE_EXPECTS(plan != nullptr, "twdp_fading_stream: plan must not be null");
  RFADE_EXPECTS(plan->dimension() == spec.dimension(),
                "twdp_fading_stream: plan dimension must match the spec");
  // The wave pair rides the stream's mean hook; realtime_mean validates
  // the wave Dopplers and collapses to the zero mean when K = 0, so a
  // pure-Rayleigh spec takes the meanless fast path bit-for-bit.
  options.los_mean =
      spec.realtime_mean(*plan, first_wave_doppler, second_wave_doppler);
  return core::FadingStream(std::move(plan), std::move(options),
                            std::move(design));
}

}  // namespace rfade::scenario
