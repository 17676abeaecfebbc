// Application study: why correlated-envelope generation matters.
//
// Selection combining (SC) over N antenna branches picks the strongest
// envelope.  Its outage probability depends critically on branch
// *correlation* — assuming independence when branches are correlated
// overstates the diversity gain.  This example uses the paper's generator
// to quantify the gap on the Sec. 6 spatial scenario:
//   * outage of SC with the true (Eq. 23) correlation,
//   * outage of SC under the independence assumption,
//   * the analytic single-branch outage as an anchor.
//
//   build/examples/diversity_combining [--samples 300000]

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "rfade/channel/spatial.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/support/cli.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;

namespace {

/// Empirical P[max_j r_j < threshold] under a given covariance, computed
/// over one deterministic batched envelope stream (thread-pool parallel,
/// bit-identical for any thread count).
double sc_outage(const numeric::RMatrix& envelopes, double threshold) {
  std::size_t outages = 0;
  for (std::size_t t = 0; t < envelopes.rows(); ++t) {
    double best = 0.0;
    for (std::size_t j = 0; j < envelopes.cols(); ++j) {
      best = std::max(best, envelopes(t, j));
    }
    if (best < threshold) {
      ++outages;
    }
  }
  return double(outages) / double(envelopes.rows());
}

}  // namespace

int main(int argc, char** argv) {
  const support::ArgParser args(argc, argv);
  const std::size_t samples = args.get_size("samples", 300000);

  // True spatial correlation (Eq. 23) vs independent branches.
  const numeric::CMatrix k_corr =
      channel::spatial_covariance_matrix(channel::paper_spatial_scenario());
  const numeric::CMatrix k_indep = numeric::CMatrix::identity(3);
  const core::SamplePipeline correlated(core::ColoringPlan::create(k_corr));
  const core::SamplePipeline independent(core::ColoringPlan::create(k_indep));
  const numeric::RMatrix env_corr =
      correlated.sample_envelope_stream(samples, 0xD100);
  const numeric::RMatrix env_indep =
      independent.sample_envelope_stream(samples, 0xD101);

  support::TablePrinter table(
      "selection-combining outage: correlated (Eq. 23) vs independent");
  table.set_header({"threshold [dB rel RMS]", "1 branch (analytic)",
                    "SC correlated", "SC independent", "indep/corr"});
  for (const double db : {-20.0, -15.0, -10.0, -5.0, 0.0}) {
    const double threshold = std::pow(10.0, db / 20.0);  // RMS = sigma_g = 1
    // Single branch: P[r < t] = 1 - exp(-t^2) for sigma_g^2 = 1.
    const double single = 1.0 - std::exp(-threshold * threshold);
    const double corr = sc_outage(env_corr, threshold);
    const double indep = sc_outage(env_indep, threshold);
    table.add_row({support::fixed(db, 0), support::scientific(single),
                   support::scientific(corr), support::scientific(indep),
                   corr > 0 ? support::fixed(indep / corr, 3) : "n/a"});
  }
  table.print();

  std::printf(
      "\ncorrelation (|K_12| = 0.81) erodes the diversity gain: at deep\n"
      "thresholds the correlated outage sits well above the independent\n"
      "prediction — exactly the effect accurate correlated-envelope\n"
      "generation exists to capture.\n");
  return 0;
}
