// Serving-layer throughput: concurrent tenants x blocks/sec (wall-clock)
// through ChannelService::pull_blocks at tenant counts {1, 4, 16, 64} —
// each tenant's pull rides its own stream cursor, one tenant per pool
// task — the plan-cache hit ratio those sweeps run at, and the
// cold-compile vs warm-cache session-setup cost (the acceptance lever:
// warm setup rides one cache hit + one per-seed engine build, so at
// N = 64 tenants per scenario the amortised setup must be >= 10x cheaper
// than compiling per tenant).
//
// Serving parity: ServiceSessionNextBlock and StreamCursorNextBlock pull
// the same overlap-save f64 realisation (N = 16, M = 4096, one seed,
// serial branches) through Session::next_block and through a bare
// FadingStream cursor.  Sessions ride their stream's cursor, so the
// session-over-cursor cost ratio is ~1.0x; CI gates it with the cursor as
// the reference (check_regression.py --reference StreamCursorNextBlock).
//
// Smoke mode for CI: --benchmark_min_time=0.05.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/service/plan_cache.hpp"

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;
using service::ChannelSpec;
using service::ChannelService;
using service::Session;

namespace {

constexpr std::size_t kBranches = 4;
constexpr std::size_t kIdftSize = 1024;

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

ChannelSpec stream_spec() {
  return ChannelSpec::Builder()
      .rayleigh(tridiagonal_covariance(kBranches))
      .backend(doppler::StreamBackend::OverlapSaveFir)
      .idft_size(kIdftSize)
      .doppler(0.05)
      .build();
}

/// tenants x blocks/sec through the batcher: every iteration is one
/// coalesced sweep advancing all tenants by one block.
void ServiceTenantSweep(benchmark::State& state) {
  const auto tenants = static_cast<std::size_t>(state.range(0));
  ChannelService service;
  const ChannelSpec spec = stream_spec();
  std::vector<Session> sessions;
  sessions.reserve(tenants);
  for (std::size_t t = 0; t < tenants; ++t) {
    sessions.push_back(service.open_session(spec, 0xBEEF + t));
  }
  std::vector<Session*> pointers;
  pointers.reserve(tenants);
  for (Session& session : sessions) {
    pointers.push_back(&session);
  }
  for (auto _ : state) {
    const auto blocks = ChannelService::pull_blocks(pointers);
    benchmark::DoNotOptimize(blocks.data());
  }
  const auto stats = service.cache_stats();
  state.counters["tenants"] = static_cast<double>(tenants);
  state.counters["blocks_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * tenants),
      benchmark::Counter::kIsRate);
  state.counters["samples_per_s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * tenants *
                          sessions[0].block_size() * kBranches),
      benchmark::Counter::kIsRate);
  state.counters["cache_hit_ratio"] = stats.hit_ratio();
}
BENCHMARK(ServiceTenantSweep)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The serving-parity shape: overlap-save f64 at (N, M) with serial
/// branch fills, so both sides of the ratio do identical single-thread
/// work.
constexpr std::uint64_t kParitySeed = 0x5E55;

ChannelSpec parity_spec(std::size_t n, std::size_t m) {
  return ChannelSpec::Builder()
      .rayleigh(tridiagonal_covariance(n))
      .backend(doppler::StreamBackend::OverlapSaveFir)
      .idft_size(m)
      .doppler(0.05)
      .parallel(false)
      .build();
}

void ServiceSessionNextBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  ChannelService service;
  Session session = service.open_session(
      parity_spec(n, static_cast<std::size_t>(state.range(1))), kParitySeed);
  for (auto _ : state) {
    const CMatrix block = session.next_block();
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(session.block_size() * n));
}
BENCHMARK(ServiceSessionNextBlock)->Args({16, 4096})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void StreamCursorNextBlock(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  core::FadingStream stream =
      parity_spec(n, static_cast<std::size_t>(state.range(1)))
          .compile()
          ->make_stream(kParitySeed);
  for (auto _ : state) {
    const CMatrix block = stream.next_block();
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(stream.block_size() * n));
}
BENCHMARK(StreamCursorNextBlock)->Args({16, 4096})->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// The setup pair measures tenant arrival cost at covariance dimension
/// N = 64 (instant emission: sessions ride the shared pipeline, so the
/// per-tenant state is just the handle + seed + cursor).
ChannelSpec instant_spec_n64() {
  return ChannelSpec::Builder()
      .rayleigh(tridiagonal_covariance(64))
      .instant()
      .block_size(256)
      .build();
}

/// Cold setup: every arriving tenant compiles the spec from scratch
/// (PSD forcing + the O(N^3) eigendecomposition at N = 64) — the
/// pre-serving-layer cost of standing up a tenant.
void ServiceSessionSetupCold(benchmark::State& state) {
  const ChannelSpec spec = instant_spec_n64();
  for (auto _ : state) {
    Session session(spec.compile(), 0xC01D);
    benchmark::DoNotOptimize(&session);
  }
  state.counters["setups_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
}
BENCHMARK(ServiceSessionSetupCold)->Unit(benchmark::kMicrosecond);

/// Warm setup: one resident compile serves every arriving tenant; a
/// session is one cache hit + a refcount bump.  setups_per_s here over
/// setups_per_s cold is the >= 10x acceptance ratio.
void ServiceSessionSetupWarm(benchmark::State& state) {
  ChannelService service;
  const ChannelSpec spec = instant_spec_n64();
  (void)service.compile(spec);  // warm the cache
  for (auto _ : state) {
    Session session = service.open_session(spec, 0xAA44);
    benchmark::DoNotOptimize(&session);
  }
  const auto stats = service.cache_stats();
  state.counters["setups_per_s"] =
      benchmark::Counter(static_cast<double>(state.iterations()),
                         benchmark::Counter::kIsRate);
  state.counters["cache_hit_ratio"] = stats.hit_ratio();
}
BENCHMARK(ServiceSessionSetupWarm)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
