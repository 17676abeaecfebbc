// Experiment E8 — temporal statistics of the real-time generator
// (Sec. 5 / Eq. 20): each colored branch must keep the normalised
// autocorrelation J0(2 pi fm d), while the lag-0 cross-covariance across
// branches equals the desired K.  A sum-of-sinusoids Clarke generator is
// included as an independent reference construction.

#include <cmath>
#include <cstdio>

#include "rfade/baselines/sum_of_sinusoids.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/doppler/filter.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/stats/autocorrelation.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/support/csv.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;
using numeric::CMatrix;

int main() {
  const double fm = 0.05;
  const std::size_t m = 4096;
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());

  core::FadingStreamOptions options;
  options.idft_size = m;
  options.normalized_doppler = fm;
  options.input_variance_per_dim = 0.5;
  const core::FadingStream generator(k, options);

  // Measured branch autocorrelation, averaged over blocks.
  const std::size_t max_lag = 80;
  numeric::RVector measured(max_lag + 1, 0.0);
  stats::CovarianceAccumulator lag0(3);
  random::Rng rng(0xE8);
  const int blocks = 24;
  for (int b = 0; b < blocks; ++b) {
    const CMatrix block = generator.generate_block_from(rng);
    numeric::CVector series(block.rows());
    numeric::CVector z(3);
    for (std::size_t l = 0; l < block.rows(); ++l) {
      series[l] = block(l, 0);
      for (std::size_t j = 0; j < 3; ++j) {
        z[j] = block(l, j);
      }
      lag0.add(z);
    }
    const auto rho = stats::normalized_autocorrelation(series, max_lag);
    for (std::size_t d = 0; d <= max_lag; ++d) {
      measured[d] += rho[d] / blocks;
    }
  }

  // Sum-of-sinusoids reference.
  const baselines::SumOfSinusoidsGenerator sos(64, fm);
  numeric::RVector sos_measured(max_lag + 1, 0.0);
  random::Rng rng_sos(0xE85);
  const int sos_blocks = 60;
  for (int b = 0; b < sos_blocks; ++b) {
    const auto block = sos.generate_block(m, rng_sos);
    const auto rho = stats::normalized_autocorrelation(block, max_lag);
    for (std::size_t d = 0; d <= max_lag; ++d) {
      sos_measured[d] += rho[d] / sos_blocks;
    }
  }

  const auto filter_theory = doppler::theoretical_normalized_autocorrelation(
      doppler::young_beaulieu_filter(m, fm), max_lag);

  support::TablePrinter table(
      "E8: normalised autocorrelation, fm = 0.05 (paper Eq. 20 target: J0)");
  table.set_header({"lag d", "J0(2 pi fm d)", "filter g[d]/g[0]",
                    "measured (proposed)", "measured (sum-of-sinusoids)"});
  support::CsvWriter csv("autocorrelation_match.csv");
  csv.write_row({"lag", "j0", "filter_theory", "proposed", "sos"});
  for (std::size_t d = 0; d <= max_lag; ++d) {
    const double j0 = special::bessel_j0(2.0 * M_PI * fm * double(d));
    csv.write_numeric_row({double(d), j0, filter_theory[d], measured[d],
                           sos_measured[d]});
    if (d % 8 == 0) {
      table.add_row({std::to_string(d), support::fixed(j0, 4),
                     support::fixed(filter_theory[d], 4),
                     support::fixed(measured[d], 4),
                     support::fixed(sos_measured[d], 4)});
    }
  }
  table.print();

  const CMatrix khat = lag0.covariance();
  std::printf("\nlag-0 cross-covariance check: ||K_hat - K||_F / ||K||_F = %.4f"
              " (over %d blocks of %zu samples)\n",
              stats::relative_frobenius_error(khat, k), blocks, m);
  std::printf("wrote full series to autocorrelation_match.csv\n");
  std::printf("expected shape: all three curves track J0 through its first "
              "zeros near d=7.65 and d=17.6.\n");
  return 0;
}
