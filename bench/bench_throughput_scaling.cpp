// Experiment E10 — generation throughput and parallel scaling (the IPDPS
// context of the venue): instant-mode draws/s vs N, the seed per-sample
// path vs the batched SamplePipeline paths at matched (N, block) configs
// (PerSampleBlockBaseline vs BatchedBlockSerial vs BatchedStreamParallel),
// real-time block generation vs M, and strong scaling of the deterministic
// parallel Monte-Carlo validation harness (serial baseline vs the chunked
// thread-pool fan-out).
//
// Smoke mode for CI: pass --benchmark_min_time=0.05 (and optionally
// --benchmark_filter) to keep the run short while still exercising every
// path.

#include <benchmark/benchmark.h>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/validation.hpp"
#include "rfade/random/rng.hpp"
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

void InstantModeSample(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const core::SamplePipeline gen(
      core::ColoringPlan::create(tridiagonal_covariance(n)));
  random::Rng rng(0xE10);
  numeric::CVector z(n);
  for (auto _ : state) {
    gen.sample_into(rng, z);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(InstantModeSample)->RangeMultiplier(2)->Range(2, 64);

// --- the headline comparison: seed per-sample path vs the batched +
// multi-threaded SamplePipeline paths, at matched (N, block) configs.
// Throughput is items/s where one item is one N-vector draw; compare
// PerSampleBlockBaseline vs BatchedStreamParallel at the same arguments.

void PerSampleBlockBaseline(benchmark::State& state) {
  // The seed hot loop: one streaming matvec per draw, serial.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const core::SamplePipeline gen(
      core::ColoringPlan::create(tridiagonal_covariance(n)));
  random::Rng rng(0xE10A);
  numeric::CVector z(n);
  for (auto _ : state) {
    for (std::size_t t = 0; t < block; ++t) {
      gen.sample_into(rng, z);
    }
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("seed per-sample");
}
BENCHMARK(PerSampleBlockBaseline)
    ->ArgsProduct({{8, 16, 32, 64}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond);

void BatchedBlockSerial(benchmark::State& state) {
  // Batched draw + blocked GEMM, single thread, per-draw-compatible rng.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const core::SamplePipeline gen(
      core::ColoringPlan::create(tridiagonal_covariance(n)));
  random::Rng rng(0xE10A);
  for (auto _ : state) {
    const CMatrix z = gen.sample_block(block, rng);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("batched, rng-compatible");
}
BENCHMARK(BatchedBlockSerial)
    ->ArgsProduct({{8, 16, 32, 64}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond);

void BatchedStreamParallel(benchmark::State& state) {
  // The throughput path: bulk Philox substreams + planar GEMM, blocks
  // fanned over the global thread pool (deterministic for any count).
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const core::SamplePipeline gen(
      core::ColoringPlan::create(tridiagonal_covariance(n)));
  std::uint64_t seed = 0xE10B;
  for (auto _ : state) {
    const CMatrix z = gen.sample_stream(block, seed++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("batched + thread pool");
}
BENCHMARK(BatchedStreamParallel)
    ->ArgsProduct({{8, 16, 32, 64}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void GeneratorConstruction(benchmark::State& state) {
  // Coloring cost (eigendecomposition) as N grows.
  const auto n = static_cast<std::size_t>(state.range(0));
  const CMatrix k = tridiagonal_covariance(n);
  for (auto _ : state) {
    const auto channel =
        service::ChannelSpec::Builder().rayleigh(k).instant().build().compile();
    benchmark::DoNotOptimize(channel.get());
  }
}
BENCHMARK(GeneratorConstruction)
    ->RangeMultiplier(4)
    ->Range(4, 256)
    ->Unit(benchmark::kMicrosecond);

void RealTimeBlock(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  core::FadingStreamOptions options;
  options.idft_size = m;
  options.normalized_doppler = 0.05;
  options.input_variance_per_dim = 0.5;
  const core::FadingStream gen(k, options);
  random::Rng rng(0xE10B);
  for (auto _ : state) {
    const CMatrix block = gen.generate_block_from(rng);
    benchmark::DoNotOptimize(block.data());
  }
  // Samples per second = M x N per block.
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m) * 3);
}
BENCHMARK(RealTimeBlock)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Unit(benchmark::kMillisecond);

void MonteCarloValidation(benchmark::State& state) {
  // Strong scaling: serial (arg 0) vs thread-pool chunks (arg 1).
  const bool parallel = state.range(0) != 0;
  const CMatrix k =
      channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
  const core::SamplePipeline gen(core::ColoringPlan::create(k));
  core::ValidationOptions options;
  options.samples = 200000;
  options.seed = 0xE10C;
  options.parallel = parallel;
  options.chunk_size = 8192;
  options.ks_samples_per_branch = 1000;
  for (auto _ : state) {
    const auto report = core::validate_generator(gen, options);
    benchmark::DoNotOptimize(report.covariance_rel_error);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(options.samples));
  state.SetLabel(parallel ? "parallel(chunked pool)" : "serial");
}
BENCHMARK(MonteCarloValidation)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
