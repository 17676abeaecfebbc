// Suzuki composite fading: correlated lognormal shadowing multiplying the
// paper's correlated Rayleigh core (scenario/composite/).  The shadowing
// gain is a Gudmundson-correlated Gaussian-in-dB process on its own
// coloring plan and seekable Philox tape, threaded through the shared
// pipeline's GainSource hook — so the batched keyed blocks, the parallel
// stream, and the continuous FadingStream modes all shadow the same way.
//
//   build/examples/suzuki_shadowed_fading [--samples 60000] [--seed 7]
//       [--sigma-db 6.0] [--decorrelation 4.0] [--stride 32]
//       [--idft 512] [--blocks 4]
//
// Part 1 sweeps sigma_dB and validates envelope mean / second moment / KS
// against the exact lognormal-mixture marginal (stats::SuzukiDistribution).
// Part 2 runs the continuous stream mode on every backend and checks
// next_block() against the keyed generate_block() replay.

#include <cstdio>

#include "rfade/core/fading_stream.hpp"
#include "rfade/scenario/composite/suzuki.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;
using scenario::composite::ShadowingSpec;
using scenario::composite::SuzukiGenerator;

namespace {

numeric::CMatrix tridiagonal_covariance(std::size_t n) {
  numeric::CMatrix k = numeric::CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = numeric::cdouble(0.4, 0.2);
    k(i + 1, i) = numeric::cdouble(0.4, -0.2);
  }
  return k;
}

}  // namespace

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  const std::size_t samples = args.get_size("samples", 60000);
  const std::uint64_t seed = args.get_size("seed", 7);
  const double sigma_db = args.get_double("sigma-db", 6.0);
  const double decorrelation = args.get_double("decorrelation", 4.0);
  const std::size_t stride = args.get_size("stride", 32);
  const std::size_t idft = args.get_size("idft", 512);
  const std::size_t blocks = args.get_size("blocks", 4);

  const auto plan = core::ColoringPlan::create(tridiagonal_covariance(3));

  support::TablePrinter table(
      "Suzuki composite envelopes (branch 0; lognormal x Rayleigh)");
  table.set_header({"sigma_dB", "E[r] theory", "E[r] measured", "E[r^2] err",
                    "worst KS p"});
  for (const double sweep_sigma : {2.0, sigma_db, 10.0}) {
    ShadowingSpec shadowing;
    shadowing.sigma_db = sweep_sigma;
    shadowing.decorrelation_samples = decorrelation;
    shadowing.spacing = 1;
    const SuzukiGenerator generator(plan, shadowing);
    core::ValidationOptions options;
    options.samples = samples;
    options.seed = seed;
    options.ks_samples_per_branch = 10000;
    options.chunk_size = 2048;
    const auto report =
        scenario::composite::validate_suzuki(generator, options, stride);
    const stats::SuzukiDistribution marginal = generator.branch_marginal(0);
    table.add_row({support::fixed(sweep_sigma, 1),
                   support::fixed(marginal.mean(), 4),
                   support::fixed(report.measured_mean[0], 4),
                   support::scientific(report.max_second_moment_rel_error),
                   support::fixed(report.worst_ks_p_value, 4)});
  }
  table.print();

  // Continuous mode: the same shadowing trajectory rides every temporal
  // backend; the stateful cursor equals the keyed pure-function path.
  ShadowingSpec shadowing;
  shadowing.sigma_db = sigma_db;
  shadowing.decorrelation_samples = 8.0 * static_cast<double>(idft);
  shadowing.spacing = 64;
  const SuzukiGenerator generator(plan, shadowing);
  std::printf("\nContinuous Suzuki streams (M = %zu, %zu blocks):\n", idft,
              blocks);
  for (const doppler::StreamBackend backend :
       {doppler::StreamBackend::IndependentBlock,
        doppler::StreamBackend::WindowedOverlapAdd,
        doppler::StreamBackend::OverlapSaveFir}) {
    core::FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = idft;
    options.seed = seed;
    core::FadingStream stream = generator.make_stream(options);
    double power = 0.0;
    bool keyed_matches = true;
    for (std::size_t b = 0; b < blocks; ++b) {
      const numeric::CMatrix z = stream.next_block();
      keyed_matches =
          keyed_matches && z == stream.generate_block(seed, b);
      for (std::size_t i = 0; i < z.size(); ++i) {
        power += std::norm(z.data()[i]);
      }
    }
    power /= static_cast<double>(blocks * stream.block_size() *
                                 stream.dimension());
    std::printf("  %-22s mean |z|^2 = %.3f   next_block == keyed: %s\n",
                doppler::stream_backend_name(backend), power,
                keyed_matches ? "yes" : "NO");
    if (!keyed_matches) {
      return 1;
    }
  }
  std::printf(
      "\nShadowing multiplies after coloring, so the diffuse covariance is\n"
      "untouched; E[|z|^2] is inflated by the lognormal second moment\n"
      "E[A^2] = e^{2 (sigma_dB ln10/20)^2} per branch.\n");
  return 0;
}
