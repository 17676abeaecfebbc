// Quickstart: generate three correlated Rayleigh fading envelopes with the
// paper's algorithm in ~30 lines of user code.
//
//   build/examples/quickstart [--samples 100000] [--seed 42]
//
// Steps (paper Sec. 4.4):
//   1. describe the desired covariance matrix K of the complex Gaussians,
//   2. build the ColoringPlan once (PSD forcing + eigen-coloring, steps
//      1-5) and hand it to a SamplePipeline (steps 6-7) — the same plan
//      can feed any number of pipelines and streams,
//   3. draw samples; the moduli are the correlated Rayleigh envelopes.
//      Per-draw calls suit callbacks; the batched sample_stream path is
//      the thread-pool throughput route.

#include <cstdio>

#include "rfade/core/covariance_spec.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  const std::size_t samples = args.get_size("samples", 100000);
  const std::uint64_t seed = args.get_size("seed", 42);

  // 1. Desired covariance: unit powers, moderate complex cross-correlation.
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 1.0)
      .set_gaussian_power(1, 1.0)
      .set_gaussian_power(2, 1.0);
  builder.set_cross_entry(0, 1, {0.5, 0.3});
  builder.set_cross_entry(1, 2, {0.4, -0.2});
  builder.set_cross_entry(0, 2, {0.1, 0.1});
  const numeric::CMatrix k = builder.build();

  // 2. Build the coloring plan once; share it with the draw pipeline.
  // (ChannelSpec::Builder().rayleigh(k).instant() compiles the same plan
  // for served sessions — building it explicitly lets many pipelines and
  // streams reuse it.)
  const auto plan = core::ColoringPlan::create(k);
  const core::SamplePipeline generator(plan);

  // 3. A few draws.
  random::Rng rng(seed);
  support::TablePrinter draws("first five correlated envelope draws");
  draws.set_header({"draw", "r1", "r2", "r3"});
  for (int t = 0; t < 5; ++t) {
    const auto r = generator.sample_envelopes(rng);
    draws.add_row({std::to_string(t), support::fixed(r[0], 4),
                   support::fixed(r[1], 4), support::fixed(r[2], 4)});
  }
  draws.print();

  // Verify the statistics match the request (paper Sec. 4.5).
  const auto report = core::validate_generator(
      generator, {.samples = samples, .seed = seed, .parallel = true,
                  .chunk_size = 8192, .ks_samples_per_branch = 20000});
  std::printf("\nvalidation over %zu samples:\n", report.samples);
  std::printf("  covariance rel. error : %.4f\n", report.covariance_rel_error);
  std::printf("  worst Rayleigh KS p   : %.4f\n", report.worst_ks_p_value);
  std::printf("  envelope mean errors  : %.4f %.4f %.4f\n",
              report.envelope_mean_rel_error[0],
              report.envelope_mean_rel_error[1],
              report.envelope_mean_rel_error[2]);

  // Throughput route: the same statistics drawn as one batched stream,
  // fanned over the thread pool with per-block Philox substreams
  // (bit-identical result for any thread count).
  const numeric::CMatrix burst = generator.sample_stream(samples, seed + 1);
  std::printf("\nsample_stream drew %zu x %zu correlated Gaussians "
              "block-parallel\n",
              burst.rows(), burst.cols());
  return 0;
}
