// Experiment E7 — the paper's headline fix (Sec. 5): Doppler filtering
// changes the branch variance, so the coloring step must divide by the
// analytic Eq. (19) value.  This harness quantifies:
//   * the post-filter variance sigma_g^2 across (M, fm), analytic vs
//     empirical — validating Eq. (19) itself;
//   * the achieved/desired envelope power ratio for the proposed algorithm
//     (with correction) vs the Sorooshyari-Daut combination [6] (without),
//     reproducing the failure the paper describes in Sec. 1 and Sec. 5.

#include <cmath>
#include <cstdio>

#include "rfade/baselines/sorooshyari_daut.hpp"
#include "rfade/channel/spatial.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/doppler/filter.hpp"
#include "rfade/doppler/idft_generator.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;
using numeric::CMatrix;

namespace {

double empirical_branch_variance(const doppler::IdftRayleighBranch& branch,
                                 int blocks, std::uint64_t seed) {
  random::Rng rng(seed);
  double power = 0.0;
  std::size_t count = 0;
  for (int b = 0; b < blocks; ++b) {
    const auto block = branch.generate_block(rng);
    for (const auto& v : block) {
      power += std::norm(v);
    }
    count += block.size();
  }
  return power / double(count);
}

double mean_output_power(const CMatrix& block) {
  double power = 0.0;
  for (std::size_t l = 0; l < block.rows(); ++l) {
    power += std::norm(block(l, 0));
  }
  return power / double(block.rows());
}

}  // namespace

int main() {
  const double sigma_orig2 = 0.5;

  support::TablePrinter eq19(
      "E7a: Eq. (19) post-filter variance sigma_g^2 (sigma_orig^2 = 1/2)");
  eq19.set_header({"M", "fm", "km", "analytic", "empirical", "ratio",
                   "input 2*sigma_orig^2"});
  for (const std::size_t m :
       {std::size_t{1024}, std::size_t{4096}, std::size_t{16384}}) {
    for (const double fm : {0.01, 0.05, 0.2}) {
      if (fm * double(m) < 1.0) {
        continue;
      }
      const doppler::IdftRayleighBranch branch(m, fm, sigma_orig2);
      const double analytic = branch.output_variance();
      const double empirical =
          empirical_branch_variance(branch, m >= 16384 ? 6 : 24, 0xE7);
      eq19.add_row({std::to_string(m), support::fixed(fm, 3),
                    std::to_string(branch.filter().km),
                    support::scientific(analytic),
                    support::scientific(empirical),
                    support::fixed(empirical / analytic, 3),
                    support::fixed(2.0 * sigma_orig2, 3)});
    }
  }
  eq19.print();

  // Achieved power: proposed (Eq. 19 correction) vs Sorooshyari-Daut [6].
  const CMatrix k =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  support::TablePrinter power(
      "E7b: achieved/desired power ratio — proposed vs variance-unaware [6]");
  power.set_header({"M", "fm", "proposed", "ref [6]",
                    "predicted [6] ratio = sigma_g^2 / (2 sigma_orig^2)"});
  for (const std::size_t m : {std::size_t{1024}, std::size_t{4096}}) {
    for (const double fm : {0.02, 0.05, 0.1}) {
      core::FadingStreamOptions options;
      options.idft_size = m;
      options.normalized_doppler = fm;
      options.input_variance_per_dim = sigma_orig2;
      const core::FadingStream proposed(k, options);
      const baselines::SorooshyariDautRealTime flawed(k, m, fm, sigma_orig2);

      random::Rng rng_a(0xE7B);
      random::Rng rng_b(0xE7C);
      double power_good = 0.0;
      double power_flawed = 0.0;
      const int blocks = 12;
      for (int b = 0; b < blocks; ++b) {
        power_good +=
            mean_output_power(proposed.generate_block_from(rng_a)) / blocks;
        power_flawed += mean_output_power(flawed.generate_block(rng_b)) / blocks;
      }
      const double desired = k(0, 0).real();
      power.add_row(
          {std::to_string(m), support::fixed(fm, 3),
           support::fixed(power_good / desired, 4),
           support::scientific(power_flawed / desired),
           support::scientific(proposed.branch_output_variance() /
                               (2.0 * sigma_orig2))});
    }
  }
  std::printf("\n");
  power.print();

  std::printf(
      "\npaper claim (Sec. 5): '[6] fails to generate Rayleigh fading\n"
      "envelopes corresponding to a desired covariance matrix in a real-time\n"
      "scenario' — the proposed ratio stays ~1.0000 while [6] is off by the\n"
      "filter gain (orders of magnitude, e.g. ~1.9e-5 at M=4096, fm=0.05).\n");
  return 0;
}
