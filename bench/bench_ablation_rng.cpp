// Ablation A2 — the stochastic substrate: Philox vs xoshiro engines and
// Box-Muller vs polar Gaussian transforms.  Prints an end-to-end envelope
// quality table (KS distance against the analytic Rayleigh CDF for every
// combination), then times raw u64, Gaussian, complex-Gaussian and
// full-generator sampling.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/support/table.hpp"

using namespace rfade;
using random::EngineKind;
using random::GaussianAlgorithm;
using random::Rng;

namespace {

const char* kind_name(EngineKind k) {
  return k == EngineKind::Philox ? "philox" : "xoshiro";
}
const char* algo_name(GaussianAlgorithm a) {
  return a == GaussianAlgorithm::BoxMuller ? "box-muller" : "polar";
}

void quality_table() {
  support::TablePrinter table(
      "A2: end-to-end envelope quality (KS distance vs Rayleigh, n = 50k)");
  table.set_header({"engine", "gaussian", "KS distance", "KS p-value"});
  const auto k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const core::SamplePipeline gen(core::ColoringPlan::create(k));
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(1.0);
  for (const EngineKind engine : {EngineKind::Philox, EngineKind::Xoshiro}) {
    for (const GaussianAlgorithm algorithm :
         {GaussianAlgorithm::BoxMuller, GaussianAlgorithm::Polar}) {
      Rng rng(engine, 0xA2, 0, algorithm);
      numeric::RVector samples(50000);
      for (auto& s : samples) {
        s = gen.sample_envelopes(rng)[0];
      }
      const auto ks =
          stats::ks_test(samples, [&](double r) { return rayleigh.cdf(r); });
      table.add_row({kind_name(engine), algo_name(algorithm),
                     support::scientific(ks.statistic),
                     support::fixed(ks.p_value, 4)});
    }
  }
  table.print();
  std::printf("\n");
}

void RawU64(benchmark::State& state) {
  Rng rng(static_cast<EngineKind>(state.range(0)), 0xA2A, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.next_u64());
  }
  state.SetLabel(kind_name(static_cast<EngineKind>(state.range(0))));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(RawU64)->Arg(0)->Arg(1);

void GaussianSample(benchmark::State& state) {
  Rng rng(static_cast<EngineKind>(state.range(0)), 0xA2B, 0,
          static_cast<GaussianAlgorithm>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.gaussian());
  }
  state.SetLabel(std::string(kind_name(static_cast<EngineKind>(state.range(0)))) +
                 "/" +
                 algo_name(static_cast<GaussianAlgorithm>(state.range(1))));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(GaussianSample)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

void ComplexGaussianSample(benchmark::State& state) {
  Rng rng(static_cast<EngineKind>(state.range(0)), 0xA2C, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.complex_gaussian(1.0));
  }
  state.SetLabel(kind_name(static_cast<EngineKind>(state.range(0))));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(ComplexGaussianSample)->Arg(0)->Arg(1);

void EndToEndEnvelopes(benchmark::State& state) {
  const auto k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const core::SamplePipeline gen(core::ColoringPlan::create(k));
  Rng rng(static_cast<EngineKind>(state.range(0)), 0xA2D, 0,
          static_cast<GaussianAlgorithm>(state.range(1)));
  numeric::CVector z(3);
  for (auto _ : state) {
    gen.sample_into(rng, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetLabel(std::string(kind_name(static_cast<EngineKind>(state.range(0)))) +
                 "/" +
                 algo_name(static_cast<GaussianAlgorithm>(state.range(1))));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(EndToEndEnvelopes)
    ->Args({0, 0})
    ->Args({0, 1})
    ->Args({1, 0})
    ->Args({1, 1});

}  // namespace

int main(int argc, char** argv) {
  quality_table();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
