// Experiment E9 — every shortcoming the paper's Sec. 1 attributes to the
// conventional methods, demonstrated on concrete covariance specifications:
//
//   scenario A: equal-power, positive-definite, complex K   (Eq. 22)
//   scenario B: unequal powers, positive definite
//   scenario C: equal-power, NOT positive semi-definite
//   scenario D: rank-deficient (PSD but singular)
//
// For each (method, scenario) pair the harness reports OK + measured
// covariance error, a BIASED result (method runs but realises a different
// covariance), or the exception class it failed with.

#include <cmath>
#include <cstdio>
#include <functional>

#include "rfade/baselines/beaulieu_merani.hpp"
#include "rfade/baselines/natarajan.hpp"
#include "rfade/baselines/salz_winters.hpp"
#include "rfade/baselines/sorooshyari_daut.hpp"
#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

namespace {

constexpr std::size_t kSamples = 60000;

/// Measured relative covariance error of a sampling closure.
double measure(std::size_t dim,
               const std::function<numeric::CVector(random::Rng&)>& draw,
               const CMatrix& target) {
  random::Rng rng(0xE9);
  stats::CovarianceAccumulator acc(dim);
  for (std::size_t i = 0; i < kSamples; ++i) {
    acc.add(draw(rng));
  }
  return stats::relative_frobenius_error(acc.covariance(), target);
}

std::string run_method(const std::string& label, const CMatrix& k,
                       const std::function<std::function<numeric::CVector(
                           random::Rng&)>(const CMatrix&)>& build) {
  (void)label;
  try {
    const auto draw = build(k);
    const double err = measure(k.rows(), draw, k);
    if (err > 0.1) {
      return "BIASED (err vs K = " + support::fixed(err, 3) + ")";
    }
    return "OK (err " + support::scientific(err, 1) + ")";
  } catch (const NotPositiveDefiniteError&) {
    return "FAIL: not positive definite";
  } catch (const ValueError& e) {
    std::string what = e.what();
    if (what.find("equal power") != std::string::npos) {
      return "FAIL: equal powers only";
    }
    if (what.find("N = 2") != std::string::npos) {
      return "FAIL: N = 2 only";
    }
    return "FAIL: " + what;
  }
}

CMatrix unequal_power_pd() {
  core::CovarianceBuilder builder(3);
  builder.set_gaussian_power(0, 0.5)
      .set_gaussian_power(1, 2.0)
      .set_gaussian_power(2, 4.0);
  builder.set_cross_entry(0, 1, cdouble(0.4, 0.2));
  builder.set_cross_entry(1, 2, cdouble(1.0, -0.5));
  builder.set_cross_entry(0, 2, cdouble(0.3, 0.1));
  return builder.build();
}

CMatrix equal_power_non_psd() {
  core::CovarianceBuilder builder(3);
  for (std::size_t j = 0; j < 3; ++j) {
    builder.set_gaussian_power(j, 1.0);
  }
  builder.set_cross_entry(0, 1, cdouble(0.9, 0.0));
  builder.set_cross_entry(1, 2, cdouble(0.9, 0.0));
  builder.set_cross_entry(0, 2, cdouble(-0.5, 0.0));
  return builder.build();
}

CMatrix rank_deficient_psd() {
  // K = v v^H + small full-rank part only on one branch pair => singular.
  CMatrix k(2, 2, cdouble{});
  const numeric::CVector v = {cdouble(1, 0), cdouble(0.6, 0.8)};
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      k(i, j) = v[i] * std::conj(v[j]);
    }
  }
  return k;
}

}  // namespace

int main() {
  const std::vector<std::pair<std::string, CMatrix>> scenarios = {
      {"A: eq-power PD complex (Eq.22)",
       channel::spectral_covariance_matrix(channel::paper_spectral_scenario())},
      {"B: unequal power PD", unequal_power_pd()},
      {"C: eq-power non-PSD", equal_power_non_psd()},
      {"D: rank-deficient PSD", rank_deficient_psd()},
  };

  // Method adapters returning a draw closure.
  using Builder = std::function<std::function<numeric::CVector(random::Rng&)>(
      const CMatrix&)>;
  const std::vector<std::pair<std::string, Builder>> methods = {
      {"proposed (this paper)",
       [](const CMatrix& k) {
         auto gen = std::make_shared<core::SamplePipeline>(
             core::ColoringPlan::create(k));
         // Non-PSD K is *approximated*: measure against the effective one.
         return [gen](random::Rng& rng) { return gen->sample(rng); };
       }},
      {"Salz-Winters [1]",
       [](const CMatrix& k) {
         auto gen = std::make_shared<baselines::SalzWintersGenerator>(k);
         return [gen](random::Rng& rng) { return gen->sample(rng); };
       }},
      {"Beaulieu-Merani [4]",
       [](const CMatrix& k) {
         auto gen = std::make_shared<baselines::BeaulieuMeraniGenerator>(k);
         return [gen](random::Rng& rng) { return gen->sample(rng); };
       }},
      {"Natarajan [5]",
       [](const CMatrix& k) {
         auto gen = std::make_shared<baselines::NatarajanGenerator>(k);
         return [gen](random::Rng& rng) { return gen->sample(rng); };
       }},
      {"Sorooshyari-Daut [6]",
       [](const CMatrix& k) {
         auto gen = std::make_shared<baselines::SorooshyariDautGenerator>(k);
         return [gen](random::Rng& rng) { return gen->sample(rng); };
       }},
  };

  support::TablePrinter table(
      "E9: conventional-method shortcomings (paper Sec. 1), measured");
  table.set_header({"method", "A eq-pow PD", "B unequal", "C non-PSD",
                    "D rank-def"});
  for (const auto& [name, builder] : methods) {
    std::vector<std::string> row = {name};
    for (const auto& [sname, k] : scenarios) {
      if (name.rfind("proposed", 0) == 0) {
        // For the proposed method, measure against the effective (forced)
        // covariance — it approximates non-PSD K by the nearest PSD matrix.
        try {
          const core::SamplePipeline gen(core::ColoringPlan::create(k));
          const double err =
              measure(k.rows(),
                      [&gen](random::Rng& rng) { return gen.sample(rng); },
                      gen.plan().effective_covariance());
          std::string cell = "OK (err " + support::scientific(err, 1) + ")";
          if (!gen.plan().coloring().psd.was_psd) {
            cell += " [forced PSD]";
          }
          row.push_back(cell);
        } catch (const Error& e) {
          row.push_back(std::string("FAIL: ") + e.what());
        }
      } else {
        row.push_back(run_method(name, k, builder));
      }
    }
    table.add_row(row);
  }
  table.print();

  std::printf(
      "\nexpected shape (paper Sec. 1):\n"
      "  proposed          : OK everywhere (non-PSD via nearest-PSD forcing)\n"
      "  Salz-Winters [1]  : equal powers only; fails on non-PSD\n"
      "  Beaulieu-Merani[4]: Cholesky => fails on non-PSD and rank-deficient\n"
      "  Natarajan [5]     : BIASED on complex K (real-forced covariances)\n"
      "  Sorooshyari-Daut  : equal powers only; eps-forcing lets non-PSD run;\n"
      "                      on the rank-deficient case an eigenvalue computed\n"
      "                      as +1e-17 escapes the 'lambda <= 0 -> eps' rule\n"
      "                      and Cholesky still fails — the round-off\n"
      "                      fragility the paper reports for [6].\n");
  return 0;
}
