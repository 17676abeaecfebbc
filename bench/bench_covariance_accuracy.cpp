// Experiment E5 — the Sec. 4.5 statistical claims, quantified:
//   * sample covariance converges to the desired K at the Monte-Carlo
//     1/sqrt(n) rate, for equal and unequal powers, PSD and non-PSD K;
//   * envelope means/variances match Eqs. (14)-(15);
//   * envelopes pass the Rayleigh KS test.
//
// Exit status is the accuracy gate CI runs unconditionally: nonzero when
// any case misses the convergence rate, the moment bands, or the KS
// threshold — statistical drift fails the build, not just the table.

#include <cstdio>
#include <cstdlib>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/support/table.hpp"
#include "rfade/support/timer.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

namespace {

struct Case {
  std::string name;
  CMatrix k;
};

CMatrix unequal_power_matrix(std::size_t n) {
  core::CovarianceBuilder builder(n);
  for (std::size_t j = 0; j < n; ++j) {
    builder.set_gaussian_power(j, 0.5 + static_cast<double>(j));
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = a + 1; b < n; ++b) {
      const double scale =
          0.3 * std::sqrt((0.5 + double(a)) * (0.5 + double(b)));
      builder.set_cross_entry(a, b, cdouble(scale, 0.5 * scale / double(b + 1)));
    }
  }
  return builder.build();
}

CMatrix non_psd_matrix() {
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 1.0)
      .set_gaussian_power(1, 1.0)
      .set_gaussian_power(2, 1.0);
  builder.set_cross_entry(0, 1, cdouble(0.9, 0.0));
  builder.set_cross_entry(1, 2, cdouble(0.9, 0.0));
  builder.set_cross_entry(0, 2, cdouble(-0.5, 0.0));
  return builder.build();
}

}  // namespace

int main() {
  bool ok = true;
  std::vector<Case> cases;
  cases.push_back({"eq-power PD (Eq.22), N=3",
                   channel::spectral_covariance_matrix(
                       channel::paper_spectral_scenario())});
  cases.push_back({"unequal power PD, N=4", unequal_power_matrix(4)});
  cases.push_back({"unequal power PD, N=8", unequal_power_matrix(8)});
  cases.push_back({"eq-power NON-PSD, N=3", non_psd_matrix()});

  support::TablePrinter convergence(
      "E5a: covariance convergence ||K_hat - K_bar||_F / ||K_bar||_F");
  convergence.set_header(
      {"case", "n=1e3", "n=1e4", "n=1e5", "n=1e6", "~1/sqrt(10) steps?"});

  for (const Case& c : cases) {
    const core::SamplePipeline gen(core::ColoringPlan::create(c.k));
    std::vector<std::string> row = {c.name};
    numeric::RVector errors;
    for (const std::size_t n :
         {std::size_t{1000}, std::size_t{10000}, std::size_t{100000},
          std::size_t{1000000}}) {
      const auto report = core::validate_generator(
          gen, {.samples = n, .seed = 0xE5, .parallel = true,
                .chunk_size = 8192, .ks_samples_per_branch = 1000});
      errors.push_back(report.covariance_rel_error);
      row.push_back(support::scientific(report.covariance_rel_error));
    }
    // Each decade of samples should shrink the error by ~sqrt(10)=3.16.
    const double overall_ratio = errors.front() / errors.back();
    row.push_back(overall_ratio > 8.0 ? "yes" : "weak");
    if (overall_ratio <= 8.0) {
      ok = false;
    }
    convergence.add_row(row);
  }
  convergence.print();

  support::TablePrinter moments(
      "E5b: envelope moments vs Eqs. (14)-(15) and Rayleigh KS (n = 4e5)");
  moments.set_header({"case", "max |mean err|", "max |var err|",
                      "worst KS p-value", "Rayleigh?"});
  for (const Case& c : cases) {
    const core::SamplePipeline gen(core::ColoringPlan::create(c.k));
    const auto report = core::validate_generator(
        gen, {.samples = 400000, .seed = 0xE5B, .parallel = true,
              .chunk_size = 8192, .ks_samples_per_branch = 50000});
    double mean_err = 0.0;
    double var_err = 0.0;
    for (std::size_t j = 0; j < gen.dimension(); ++j) {
      mean_err = std::max(mean_err, report.envelope_mean_rel_error[j]);
      var_err = std::max(var_err, report.envelope_variance_rel_error[j]);
    }
    moments.add_row({c.name, support::scientific(mean_err),
                     support::scientific(var_err),
                     support::fixed(report.worst_ks_p_value, 4),
                     report.worst_ks_p_value > 1e-3 ? "yes" : "NO"});
    if (report.worst_ks_p_value <= 1e-3 || mean_err > 0.01 ||
        var_err > 0.05) {
      ok = false;
    }
  }
  std::printf("\n");
  moments.print();

  std::printf("\npaper claim (Sec. 4.5): E{r} = 0.8862 sigma_g, "
              "Var{r} = 0.2146 sigma_g^2, E[ZZ^H] = K_bar — all measured.\n");
  std::printf("accuracy gate: %s\n", ok ? "PASS" : "FAIL");
  return ok ? EXIT_SUCCESS : EXIT_FAILURE;
}
