// TWDP (two-wave with diffuse power) fading — Maric & Njemcevic's model
// on the paper's correlated diffuse field: two specular waves per branch
// over the Eq. (22) spectral covariance, in both generation modes.
//
//   build/examples/twdp_fading [--samples 100000] [--k 4.0] [--seed 21]
//
// Instant mode draws uniformly-random wave phases per realisation and
// verifies the envelopes against the exact TWDP marginal (KS p-values);
// a Delta sweep shows the defining TWDP behaviour: for Delta -> 1 the
// two waves can cancel, so deep fades become *more* likely than Rayleigh
// even at high K.  Real-time mode gives each wave a deterministic
// Doppler trajectory through the MeanSource phasor pair.

#include <cmath>
#include <cstdio>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  const std::size_t samples = args.get_size("samples", 100000);
  const double k_factor = args.get_double("k", 4.0);
  const std::uint64_t seed = args.get_size("seed", 21);

  const numeric::CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const auto plan = core::ColoringPlan::create(k);

  // Delta sweep at fixed K: marginal validation + deep-fade probability.
  support::TablePrinter sweep("TWDP Delta sweep at K = " +
                              std::to_string(k_factor));
  sweep.set_header({"Delta", "E[r] theory", "E[r] meas", "worst KS p",
                    "P[deep fade]", "vs Rayleigh"});
  for (const double delta : {0.0, 0.5, 0.9, 1.0}) {
    const scenario::TwdpSpec spec =
        scenario::TwdpSpec::uniform(k, k_factor, delta);
    const auto channel = service::ChannelSpec::Builder()
                             .twdp(k, k_factor, delta)
                             .instant()
                             .build()
                             .compile();

    // Envelope-domain validation over the channel's keyed blocks (one per
    // validation chunk) against the exact TWDP marginals.
    core::ValidationOptions validation;
    validation.samples = samples;
    validation.seed = seed;
    validation.ks_samples_per_branch = 4000;
    const auto report = core::validate_envelope_source(
        channel->dimension(),
        [&channel](std::size_t count, std::uint64_t key, std::uint64_t b) {
          return numeric::elementwise_abs(
              channel->instant_block(count, key, b));
        },
        spec.marginals(*plan), validation);

    // Deep fades on branch 1 over the first `samples` instants of a
    // session: envelope below 10% of its RMS.
    const auto marginal = spec.branch_marginal(*plan, 0);
    const double rms = std::sqrt(marginal.second_moment());
    service::Session session(channel, seed);
    std::size_t deep = 0;
    std::size_t drawn = 0;
    while (drawn < samples) {
      const numeric::CMatrix block = session.next_block();
      for (std::size_t t = 0; t < block.rows() && drawn < samples;
           ++t, ++drawn) {
        if (std::abs(block(t, 0)) < 0.1 * rms) {
          ++deep;
        }
      }
    }
    const double p_deep = double(deep) / double(samples);
    // A Rayleigh branch with the same total power 2 sigma^2 (1 + K).
    const double p_rayleigh = 1.0 - std::exp(-0.01);
    sweep.add_row({support::fixed(delta, 2),
                   support::fixed(marginal.mean(), 4),
                   support::fixed(report.measured_mean[0], 4),
                   support::fixed(report.worst_ks_p_value, 3),
                   support::fixed(p_deep, 5),
                   support::fixed(p_deep / p_rayleigh, 2) + "x"});
  }
  sweep.print();
  std::printf(
      "\n(Delta -> 1 lets the two waves cancel: deep fades grow even though "
      "K = %.1f\n specular power would make a single-wave Rician channel "
      "nearly fade-free.)\n",
      k_factor);

  // Real-time mode: deterministic per-wave Doppler trajectories on top of
  // the Doppler-faded diffuse field.
  const scenario::TwdpSpec spec = scenario::TwdpSpec::uniform(k, k_factor, 0.9);
  core::FadingStreamOptions realtime;
  realtime.idft_size = 2048;
  realtime.normalized_doppler = 0.05;
  realtime.los_mean = spec.realtime_mean(*plan, 0.04, -0.017);
  const core::FadingStream generator(plan, realtime);
  random::Rng rng(seed);
  const numeric::RMatrix trace =
      numeric::elementwise_abs(generator.generate_block_from(rng));
  double min_env = trace(0, 0);
  double max_env = trace(0, 0);
  double sum_sq = 0.0;
  for (std::size_t l = 0; l < trace.rows(); ++l) {
    min_env = std::min(min_env, trace(l, 0));
    max_env = std::max(max_env, trace(l, 0));
    sum_sq += trace(l, 0) * trace(l, 0);
  }
  const auto marginal = spec.branch_marginal(*plan, 0);
  std::printf(
      "\nreal-time TWDP block (M = %zu, fm = %.3f, wave Dopplers %.3f / "
      "%.3f):\n  branch-1 envelope RMS %.4f (theory %.4f), range [%.4f, "
      "%.4f]\n",
      generator.block_size(), realtime.normalized_doppler, 0.04, -0.017,
      std::sqrt(sum_sq / double(trace.rows())),
      std::sqrt(marginal.second_moment()), min_env, max_env);
  return 0;
}
