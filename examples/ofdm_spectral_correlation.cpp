// OFDM scenario (paper Secs. 2 and 6, Fig. 4a): envelopes on neighbouring
// carriers are *spectrally* correlated through the channel's delay spread
// and the arrival-time differences.  This example builds the paper's exact
// GSM-900 configuration, prints the covariance matrix (Eq. 22), generates a
// real-time faded trace, and dumps it to CSV for plotting.
//
//   build/examples/ofdm_spectral_correlation [--spacing-khz 200]
//       [--delay-spread-us 1] [--doppler-hz 50] [--csv ofdm_trace.csv]

#include <cmath>
#include <cstdio>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/csv.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  const double spacing_khz = args.get_double("spacing-khz", 200.0);
  const double delay_spread_us = args.get_double("delay-spread-us", 1.0);
  const double doppler_hz = args.get_double("doppler-hz", 50.0);
  const std::string csv_path = args.get("csv", "ofdm_trace.csv");

  channel::SpectralScenario scenario = channel::paper_spectral_scenario();
  const double f1 = scenario.carrier_hz[0];
  scenario.carrier_hz = {f1, f1 - spacing_khz * 1e3, f1 - 2 * spacing_khz * 1e3};
  scenario.rms_delay_spread_s = delay_spread_us * 1e-6;
  scenario.max_doppler_hz = doppler_hz;

  const numeric::CMatrix k = channel::spectral_covariance_matrix(scenario);
  support::TablePrinter cov("spectral covariance matrix K (cf. Eq. 22)");
  cov.set_header({"", "carrier 1", "carrier 2", "carrier 3"});
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<std::string> row = {"carrier " + std::to_string(i + 1)};
    for (std::size_t j = 0; j < 3; ++j) {
      row.push_back(support::CsvWriter::format(k(i, j), 4));
    }
    cov.add_row(row);
  }
  cov.print();

  // Real-time generation with the paper's Doppler parameters.
  core::FadingStreamOptions options;
  options.idft_size = 4096;
  options.normalized_doppler = doppler_hz / 1000.0;  // Fs = 1 kHz
  options.input_variance_per_dim = 0.5;
  const core::FadingStream generator(k, options);
  random::Rng rng(0x0FD);
  const numeric::RMatrix envelopes =
      numeric::elementwise_abs(generator.generate_block_from(rng));

  support::CsvWriter csv(csv_path);
  csv.write_row({"sample", "carrier1", "carrier2", "carrier3"});
  for (std::size_t l = 0; l < envelopes.rows(); ++l) {
    csv.write_numeric_row({double(l), envelopes(l, 0), envelopes(l, 1),
                           envelopes(l, 2)});
  }

  // Fade statistics per carrier.
  support::TablePrinter fades("per-carrier fade statistics (Fs = 1 kHz)");
  fades.set_header({"carrier", "RMS", "LCR@-3dB [1/s]", "AFD@-3dB [ms]",
                    "theory LCR", "theory AFD"});
  const double rho = std::pow(10.0, -3.0 / 20.0);
  for (std::size_t j = 0; j < 3; ++j) {
    numeric::RVector series(envelopes.rows());
    for (std::size_t l = 0; l < envelopes.rows(); ++l) {
      series[l] = envelopes(l, j);
    }
    const double rms_value = stats::rms(series);
    const auto metrics =
        stats::measure_fading_metrics(series, rho * rms_value, 1000.0);
    fades.add_row(
        {std::to_string(j + 1), support::fixed(rms_value, 3),
         support::fixed(metrics.level_crossing_rate, 1),
         support::fixed(metrics.average_fade_duration * 1e3, 2),
         support::fixed(stats::theoretical_lcr(rho, doppler_hz), 1),
         support::fixed(stats::theoretical_afd(rho, doppler_hz) * 1e3, 2)});
  }
  std::printf("\n");
  fades.print();
  std::printf("\nwrote %zu faded samples per carrier to %s\n",
              envelopes.rows(), csv_path.c_str());
  return 0;
}
