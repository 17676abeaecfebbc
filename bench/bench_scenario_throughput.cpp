// Scenario-layer throughput: the Rician LOS mean-add on top of the batched
// stream path (overhead must stay marginal — one add pass over the colored
// block), and the instant cascade (two stage draws + one Hadamard
// product, so ~2x the single-stage cost).  Same (N, block) grid as
// bench_throughput_scaling so the CI regression gate can relate them.
//
// Smoke mode for CI: --benchmark_min_time=0.05.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "rfade/core/plan.hpp"
#include "rfade/scenario/scenario_spec.hpp"
#include "rfade/service/accumulators.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

namespace {

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

/// The first \p rows keyed rows of \p channel for \p seed, as its blocks
/// 0, 1, ... drawn in one thread-pool sweep.
std::vector<CMatrix> instant_rows(
    const std::shared_ptr<const service::CompiledChannel>& channel,
    std::size_t rows, std::uint64_t seed) {
  const service::Session session(channel, seed);
  std::vector<service::BlockRequest> requests;
  for (std::uint64_t b = 0; b * channel->block_size() < rows; ++b) {
    requests.push_back({&session, b});
  }
  return service::ChannelService::generate_blocks(requests);
}

std::shared_ptr<const service::CompiledChannel> instant_cascade(
    std::size_t n) {
  const CMatrix k = tridiagonal_covariance(n);
  return service::ChannelSpec::Builder()
      .cascaded(k, k)
      .instant()
      .build()
      .compile();
}

void RicianStreamParallel(benchmark::State& state) {
  // The LOS path through the same bulk pipeline: RNG + planar GEMM + mean
  // add.  Compare against BatchedStreamParallel in
  // bench_throughput_scaling at matched args for the overhead.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::rician(tridiagonal_covariance(n), 4.0, 0.3);
  const auto plan = spec.build_plan();
  const core::SamplePipeline pipeline = spec.make_pipeline(plan);
  std::uint64_t seed = 0x51C1A;
  for (auto _ : state) {
    const CMatrix z = pipeline.sample_stream(block, seed++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("batched + LOS mean");
}
BENCHMARK(RicianStreamParallel)
    ->ArgsProduct({{8, 32}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void CascadedStreamParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const auto channel = instant_cascade(n);
  std::uint64_t seed = 0xCA5C;
  for (auto _ : state) {
    const std::vector<CMatrix> z = instant_rows(channel, block, seed++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("two stages + Hadamard");
}
BENCHMARK(CascadedStreamParallel)
    ->ArgsProduct({{8, 32}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void CascadedMomentDiagnostics(benchmark::State& state) {
  // The cascade's moment check: keyed blocks folded into the exact
  // envelope-moment and covariance accumulators.
  const auto channel = instant_cascade(8);
  for (auto _ : state) {
    service::EnvelopeMomentAccumulator moments(8);
    service::ComplexCovarianceAccumulator covariance(8);
    for (const CMatrix& block : instant_rows(channel, 100000, 0xD1A6)) {
      moments.accumulate(block);
      covariance.accumulate(block);
    }
    benchmark::DoNotOptimize(moments.finalize(0).amount_of_fading);
    benchmark::DoNotOptimize(covariance.finalize().data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          100000);
}
BENCHMARK(CascadedMomentDiagnostics)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
