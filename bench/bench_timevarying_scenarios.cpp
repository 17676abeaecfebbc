// Time-varying scenario throughput: the cost of each MeanSource form on
// the bulk batched path (zero / constant / Doppler phasor / TWDP phasor
// pair / periodic block — the time-varying forms pay one sin/cos per
// row per term on top of the constant add), TWDP instant-mode draws
// (diffuse block + per-row phase pair from the dedicated Philox
// substream), and the real-time cascade (two IDFT stage blocks + one
// Hadamard product per instant).
//
// Smoke mode for CI: --benchmark_min_time=0.05.

#include <benchmark/benchmark.h>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/mean_source.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;
using numeric::CVector;

namespace {

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

core::MeanSource mean_source_form(int form, std::size_t n) {
  const CVector amplitude(n, cdouble(0.9, 0.4));
  switch (form) {
    case 0:
      return {};
    case 1:
      return core::MeanSource::constant(amplitude);
    case 2:
      return core::MeanSource::doppler_phasor(amplitude, 0.021);
    case 3:
      return core::MeanSource::phasor_sum(
          {core::MeanPhasorTerm{amplitude, 0.021},
           core::MeanPhasorTerm{amplitude, -0.013}});
    default: {
      CMatrix block(1024, n);
      for (std::size_t i = 0; i < block.size(); ++i) {
        block.data()[i] = cdouble(0.5, -0.25);
      }
      return core::MeanSource::block(std::move(block));
    }
  }
}

/// Bulk stream throughput under each mean form.  Form: 0 zero, 1
/// constant, 2 one phasor, 3 two phasors, 4 periodic block.
void MeanSourceStream(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const auto form = static_cast<int>(state.range(2));
  const auto plan = core::ColoringPlan::create(tridiagonal_covariance(n));
  core::PipelineOptions options;
  options.mean_offset = mean_source_form(form, n);
  const core::SamplePipeline pipeline(plan, options);
  std::uint64_t seed = 0x7E4A;
  for (auto _ : state) {
    const CMatrix z = pipeline.sample_stream(block, seed++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  static const char* kLabels[] = {"zero mean", "constant mean", "one phasor",
                                  "two phasors", "periodic block"};
  state.SetLabel(kLabels[form]);
}
BENCHMARK(MeanSourceStream)
    ->ArgsProduct({{8}, {16384}, {0, 1, 2, 3, 4}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void TwdpStreamParallel(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto block = static_cast<std::size_t>(state.range(1));
  const scenario::TwdpSpec spec =
      scenario::TwdpSpec::uniform(tridiagonal_covariance(n), 4.0, 0.8);
  const scenario::TwdpGenerator generator(spec.build_plan(), spec);
  std::uint64_t seed = 0x7DD;
  for (auto _ : state) {
    const CMatrix z = generator.sample_stream(block, seed++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block));
  state.SetLabel("diffuse + random-phase waves");
}
BENCHMARK(TwdpStreamParallel)
    ->ArgsProduct({{8, 32}, {4096, 16384}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void CascadedRealTimeBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  core::FadingStreamOptions options;
  options.idft_size = m;
  options.normalized_doppler = 0.05;
  const core::FadingStream generator = scenario::cascaded_fading_stream(
      core::ColoringPlan::create(tridiagonal_covariance(n)),
      core::ColoringPlan::create(tridiagonal_covariance(n)), 0.11, options);
  std::uint64_t block_index = 0;
  for (auto _ : state) {
    const CMatrix z = generator.generate_block(0xCA5C, block_index++);
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(m));
  state.SetLabel("two Doppler stages + Hadamard");
}
BENCHMARK(CascadedRealTimeBlock)
    ->ArgsProduct({{4, 8}, {2048, 8192}})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
