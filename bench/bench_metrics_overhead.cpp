// Cost of the link-level MetricsTap on the streaming hot path
// (core::FadingStream, overlap-save FIR backend, N = 4) at
// M in {1024, 4096}:
//
//   MetricsNoTap     no tap attached — one never-taken pointer test per
//                    block (the reference the gate normalizes by);
//   MetricsTapIdle   tap attached but disabled — the reference plus one
//                    relaxed atomic load per block.  Gated by
//                    check_regression.py on its items/s ratio to
//                    MetricsNoTap at matched M (baseline 1.0x): the
//                    opt-out path must stay within noise;
//   MetricsTapActive tap enabled, no automatic publish — the price of
//                    streaming LCR (2 thresholds) + complex ACF and MI
//                    autocovariance (lags 1/2/4/8) accumulation with
//                    exact superaccumulator sums.  Gated on its items/s
//                    ratio to MetricsNoTap at matched M: the enabled
//                    tap's fold cost must not grow back;
//   MetricsTapPublish as MetricsTapActive plus a gauge publish every 16
//                    blocks — informational, steady state.  A tap's first
//                    health() evaluates its analytic references once (the
//                    Wang & Abdi MI autocovariance series, ≈15 ms per
//                    lag); this entry runs that before its timed loop, so
//                    every timed publish reuses them.
//
// Smoke mode for CI: --benchmark_min_time=0.05.

#include <benchmark/benchmark.h>

#include <memory>

#include "rfade/core/fading_stream.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix.hpp"
#include "rfade/telemetry/telemetry.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;

namespace {

constexpr std::size_t kBranches = 4;

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

enum class TapMode { None, Idle, Active, Publish };

void run_tap(benchmark::State& state, TapMode mode) {
  const auto m = static_cast<std::size_t>(state.range(0));
  core::FadingStreamOptions options;
  options.backend = doppler::StreamBackend::OverlapSaveFir;
  options.idft_size = m;
  options.normalized_doppler = 0.05;
  options.seed = 0x57E2;
  core::FadingStream stream(tridiagonal_covariance(kBranches), options);
  // Publishes intern into a bench-local registry so runs do not grow the
  // global one; the analytic reference mirrors what Session::
  // enable_metrics derives from a Rayleigh spec.
  telemetry::Registry registry;
  std::shared_ptr<metrics::MetricsTap> tap;
  if (mode != TapMode::None) {
    metrics::AnalyticReference reference;
    reference.normalized_doppler = options.normalized_doppler;
    reference.branch_power.assign(kBranches, 1.0);
    reference.rayleigh = true;
    metrics::MetricsTapConfig config;
    config.registry = &registry;
    config.enabled = mode != TapMode::Idle;
    config.publish_every_blocks = mode == TapMode::Publish ? 16 : 0;
    tap = std::make_shared<metrics::MetricsTap>(reference, config);
    stream.set_metrics_tap(tap);
    if (mode == TapMode::Publish) {
      (void)tap->health();
    }
  }
  for (auto _ : state) {
    const CMatrix z = stream.next_block();
    benchmark::DoNotOptimize(z.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(stream.block_size()) *
                          static_cast<std::int64_t>(kBranches));
  state.SetLabel(mode == TapMode::None     ? "no tap"
                 : mode == TapMode::Idle   ? "tap disabled"
                 : mode == TapMode::Active ? "tap enabled"
                                           : "tap enabled, publishing");
}

void MetricsNoTap(benchmark::State& state) {
  run_tap(state, TapMode::None);
}
BENCHMARK(MetricsNoTap)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void MetricsTapIdle(benchmark::State& state) {
  run_tap(state, TapMode::Idle);
}
BENCHMARK(MetricsTapIdle)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void MetricsTapActive(benchmark::State& state) {
  run_tap(state, TapMode::Active);
}
BENCHMARK(MetricsTapActive)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void MetricsTapPublish(benchmark::State& state) {
  run_tap(state, TapMode::Publish);
}
BENCHMARK(MetricsTapPublish)
    ->Arg(1024)
    ->Arg(4096)
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

}  // namespace

BENCHMARK_MAIN();
