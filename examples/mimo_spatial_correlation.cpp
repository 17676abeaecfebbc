// MIMO scenario (paper Secs. 3 and 6, Fig. 4b): transmit antennas in a
// uniform linear array see *spatially* correlated fading governed by the
// element spacing D/lambda, the angular spread Delta and the mean arrival
// angle Phi (Salz-Winters series, Eqs. 5-7).  This example reproduces the
// paper's three-antenna configuration and then sweeps the geometry to show
// how correlation — and with it, effective MIMO rank — changes.
//
//   build/examples/mimo_spatial_correlation [--antennas 3]
//       [--spacing 1.0] [--spread-deg 10] [--angle-deg 0]

#include <cmath>
#include <cstdio>

#include "rfade/channel/spatial.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/numeric/eigen_hermitian.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/moments.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/csv.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;

namespace {

/// Effective degrees of freedom of the array: (sum lambda)^2 / sum lambda^2.
double effective_rank(const numeric::CMatrix& k) {
  const auto eig = numeric::eigen_hermitian(k);
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const double lambda : eig.values) {
    sum += lambda;
    sum_sq += lambda * lambda;
  }
  return sum * sum / sum_sq;
}

}  // namespace

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  channel::SpatialScenario scenario = channel::paper_spatial_scenario();
  scenario.antenna_count = args.get_size("antennas", 3);
  scenario.spacing_wavelengths = args.get_double("spacing", 1.0);
  scenario.angle_spread_rad =
      args.get_double("spread-deg", 10.0) * M_PI / 180.0;
  scenario.mean_angle_rad = args.get_double("angle-deg", 0.0) * M_PI / 180.0;

  const numeric::CMatrix k = channel::spatial_covariance_matrix(scenario);
  const std::size_t n = scenario.antenna_count;

  support::TablePrinter cov("spatial covariance matrix K (cf. Eq. 23)");
  std::vector<std::string> header = {""};
  for (std::size_t j = 0; j < n; ++j) {
    header.push_back("ant " + std::to_string(j + 1));
  }
  cov.set_header(header);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::string> row = {"ant " + std::to_string(i + 1)};
    for (std::size_t j = 0; j < n; ++j) {
      row.push_back(support::CsvWriter::format(k(i, j), 4));
    }
    cov.add_row(row);
  }
  cov.print();
  std::printf("\neffective rank of K: %.2f of %zu\n", effective_rank(k), n);

  // Correlated envelope draws + measured envelope correlation.
  const core::SamplePipeline generator(core::ColoringPlan::create(k));
  random::Rng rng(0x3130);
  const std::size_t draws = 50000;
  std::vector<numeric::RVector> envelopes(n, numeric::RVector(draws));
  for (std::size_t t = 0; t < draws; ++t) {
    const auto r = generator.sample_envelopes(rng);
    for (std::size_t j = 0; j < n; ++j) {
      envelopes[j][t] = r[j];
    }
  }
  support::TablePrinter corr("measured envelope correlation (50k draws)");
  corr.set_header({"pair", "pearson rho", "|K_kj|"});
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      corr.add_row({std::to_string(a + 1) + "-" + std::to_string(b + 1),
                    support::fixed(
                        stats::pearson_correlation(envelopes[a], envelopes[b]),
                        3),
                    support::fixed(std::abs(k(a, b)), 3)});
    }
  }
  std::printf("\n");
  corr.print();

  // Geometry sweep: what decorrelates an array fastest?
  support::TablePrinter sweep(
      "geometry sweep: adjacent correlation and effective rank");
  sweep.set_header({"D/lambda", "spread", "|K(1,2)|", "eff. rank"});
  for (const double spacing : {0.25, 0.5, 1.0, 2.0}) {
    for (const double spread_deg : {5.0, 10.0, 30.0, 90.0}) {
      channel::SpatialScenario s = scenario;
      s.spacing_wavelengths = spacing;
      s.angle_spread_rad = spread_deg * M_PI / 180.0;
      const auto ks = channel::spatial_covariance_matrix(s);
      sweep.add_row({support::fixed(spacing, 2),
                     support::fixed(spread_deg, 0) + " deg",
                     support::fixed(std::abs(ks(0, 1)), 3),
                     support::fixed(effective_rank(ks), 2)});
    }
  }
  std::printf("\n");
  sweep.print();
  std::printf("\nwider spacing and wider angular spread both decorrelate the "
              "array,\nraising the effective rank toward %zu.\n", n);
  return 0;
}
