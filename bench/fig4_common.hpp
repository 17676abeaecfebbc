#pragma once

// Shared harness for the Fig. 4(a)/4(b) envelope reproductions: runs the
// real-time generator with the paper's Sec. 6 Doppler parameters, converts
// the first 200 samples to dB around the RMS value (the paper's y-axis),
// prints trace statistics, and dumps the full series to CSV.

#include <cmath>
#include <cstdio>
#include <string>

#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/fading_metrics.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/csv.hpp"
#include "rfade/support/table.hpp"

namespace fig4 {

using namespace rfade;

inline int run(const std::string& title, const numeric::CMatrix& k,
               const std::string& csv_path, std::uint64_t seed) {
  // Paper Sec. 6 parameters: M=4096 IDFT points, sigma_orig^2 = 1/2,
  // Fs=1 kHz, Fm=50 Hz => fm=0.05, km=204.
  core::FadingStreamOptions options;
  options.idft_size = 4096;
  options.normalized_doppler = 0.05;
  options.input_variance_per_dim = 0.5;
  const core::FadingStream generator(k, options);
  const std::size_t n = generator.dimension();

  random::Rng rng(seed);
  const numeric::RMatrix envelopes =
      numeric::elementwise_abs(generator.generate_block_from(rng));

  // dB around the RMS value, exactly the paper's y-axis.
  const std::size_t plot_samples = 200;
  std::vector<numeric::RVector> db(n);
  std::vector<double> rms_values(n);
  for (std::size_t j = 0; j < n; ++j) {
    numeric::RVector column(envelopes.rows());
    for (std::size_t l = 0; l < envelopes.rows(); ++l) {
      column[l] = envelopes(l, j);
    }
    rms_values[j] = stats::rms(column);
    db[j].resize(plot_samples);
    for (std::size_t l = 0; l < plot_samples; ++l) {
      db[j][l] = 20.0 * std::log10(column[l] / rms_values[j]);
    }
  }

  support::CsvWriter csv(csv_path);
  std::vector<std::string> header = {"sample"};
  for (std::size_t j = 0; j < n; ++j) {
    header.push_back("envelope" + std::to_string(j + 1) + "_db");
  }
  csv.write_row(header);
  for (std::size_t l = 0; l < plot_samples; ++l) {
    std::vector<double> row = {static_cast<double>(l)};
    for (std::size_t j = 0; j < n; ++j) {
      row.push_back(db[j][l]);
    }
    csv.write_numeric_row(row);
  }

  support::TablePrinter table(title);
  table.set_header({"envelope", "RMS", "min dB", "max dB", "deep fades < -10 dB",
                    "mean dB"});
  for (std::size_t j = 0; j < n; ++j) {
    double lo = 1e9;
    double hi = -1e9;
    int deep = 0;
    double mean_db = 0.0;
    for (const double value : db[j]) {
      lo = std::min(lo, value);
      hi = std::max(hi, value);
      deep += value < -10.0 ? 1 : 0;
      mean_db += value / double(plot_samples);
    }
    table.add_row({std::to_string(j + 1), support::fixed(rms_values[j], 3),
                   support::fixed(lo, 1), support::fixed(hi, 1),
                   std::to_string(deep), support::fixed(mean_db, 2)});
  }
  table.print();

  // Pairwise envelope correlation over the full block (fade alignment).
  support::TablePrinter corr("pairwise envelope correlation (full block)");
  corr.set_header({"pair", "pearson rho", "|K_kj| (Gaussian)"});
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      numeric::RVector ea(envelopes.rows());
      numeric::RVector eb(envelopes.rows());
      for (std::size_t l = 0; l < envelopes.rows(); ++l) {
        ea[l] = envelopes(l, a);
        eb[l] = envelopes(l, b);
      }
      corr.add_row({std::to_string(a + 1) + "-" + std::to_string(b + 1),
                    support::fixed(stats::pearson_correlation(ea, eb), 3),
                    support::fixed(std::abs(k(a, b)), 3)});
    }
  }
  std::printf("\n");
  corr.print();

  std::printf("\nwrote %zu-sample dB traces to %s\n", plot_samples,
              csv_path.c_str());
  std::printf("expected shape: Rayleigh fades spanning roughly -30..+10 dB "
              "with correlated deep fades\n");
  return 0;
}

}  // namespace fig4
