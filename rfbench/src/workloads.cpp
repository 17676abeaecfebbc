#include "workloads.hpp"

#include <cmath>
#include <memory>
#include <numbers>
#include <stdexcept>
#include <vector>

#include "replay.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/support/parallel.hpp"
#include "rfade/support/thread_pool.hpp"

namespace rfbench {

namespace rf = rfade;
using rf::numeric::CMatrix;
using rf::service::ChannelService;
using rf::service::ChannelSpec;
using rf::service::CompiledChannel;
using rf::service::Session;

namespace {

constexpr int kSetupRepeats = 9;

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// One tenant arrival on \p spec: open a session, seek to a seed-chosen
/// block, first block in hand.  Arrivals are interleaved with the timed
/// loop (their time kept out of its wall) so they sample the same
/// machine conditions as the blocks.
void arrive(ChannelService& service, const ChannelSpec& spec,
            SeedStream& rng, std::uint64_t index_range, TimedLoop& loop,
            Result& result) {
  const std::uint64_t seed = rng.next();
  const std::uint64_t target = rng.below(index_range);
  result.ops.attempted += 2;
  const std::int64_t t0 = now_ns();
  try {
    Session session = service.open_session(spec, seed);
    session.seek(target);
    const CMatrix first = session.next_block();
    result.ttfb_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  } catch (const std::exception& e) {
    result.ops.fail(std::string("arrival: ") + e.what(), 2);
  }
  loop.exclude_since(t0);
}

/// Kac-Murdock-Szego covariance with a phase ramp, K_ij = rho^|i-j|
/// e^{i theta (i-j)}: Hermitian, positive definite for rho < 1.
CMatrix kms_covariance(std::size_t n, double rho, double theta) {
  CMatrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = std::pow(rho, std::abs(d)) * std::polar(1.0, theta * d);
    }
  }
  return k;
}

CMatrix seeded_covariance(std::size_t n, SeedStream& rng) {
  const double rho = rng.uniform(0.3, 0.9);
  const double theta = rng.uniform(-std::numbers::pi, std::numbers::pi);
  return kms_covariance(n, rho, theta);
}

/// Eq. (19) power gate on sampled Rayleigh blocks: every branch's mean
/// |z_j|^2 must match diag(K_bar) within 6 standard errors.  The error of
/// a mean over n samples of |z|^2 (exponential, variance P^2) is
/// P sqrt(tau / n), with tau the integrated autocorrelation time of |z|^2
/// inside one block (1 for white rows; J0^2 lags for a Doppler stream).
class PowerGate {
 public:
  PowerGate(const CMatrix& effective_covariance, double tau)
      : power_(effective_covariance.rows()),
        sum_(effective_covariance.rows(), 0.0),
        tau_(tau) {
    for (std::size_t j = 0; j < power_.size(); ++j) {
      power_[j] = effective_covariance(j, j).real();
    }
  }

  /// tau of M consecutive samples with normalised correlation J0(2 pi fm d).
  static double doppler_tau(double fm, std::size_t m) {
    double tau = 1.0;
    for (std::size_t d = 1; d < m; ++d) {
      const double rho = std::cyl_bessel_j(
          0.0, 2.0 * std::numbers::pi * fm * static_cast<double>(d));
      tau += 2.0 * (1.0 - static_cast<double>(d) / static_cast<double>(m)) *
             rho * rho;
    }
    return tau;
  }

  void add(const CMatrix& z) {
    for (std::size_t t = 0; t < z.rows(); ++t) {
      for (std::size_t j = 0; j < z.cols(); ++j) {
        sum_[j] += std::norm(z(t, j));
      }
    }
    rows_ += static_cast<double>(z.rows());
  }

  void finish(Ops& ops) const {
    if (rows_ == 0) return;
    for (std::size_t j = 0; j < power_.size(); ++j) {
      ++ops.attempted;
      const double mean = sum_[j] / rows_;
      const double tolerance = 6.0 * power_[j] * std::sqrt(tau_ / rows_);
      if (!(std::abs(mean - power_[j]) <= tolerance)) {
        ops.fail("power gate: branch " + std::to_string(j) + " mean |z|^2 " +
                 std::to_string(mean) + " vs diag(K_bar) " +
                 std::to_string(power_[j]));
      }
    }
  }

 private:
  std::vector<double> power_;
  std::vector<double> sum_;
  double rows_ = 0;
  double tau_;
};

/// Output-correctness gate: delivery d of a run is re-checked when d == 0
/// or its seed-keyed hash falls in 1/rate; callers keep the recompute out
/// of the timed loop's wall.
struct BitGate {
  std::uint64_t seed;
  std::uint64_t rate;
  std::uint64_t delivered = 0;

  [[nodiscard]] bool sample() {
    const std::uint64_t d = delivered++;
    return d == 0 || mix(seed, d) % rate == 0;
  }
};

/// Recompute \p session's block \p index through the keyed path and
/// compare bits with what the timed path delivered.
void check_block(const Session& session, std::uint64_t index,
                 const CMatrix& delivered, Ops& ops) {
  try {
    if (!same_bits(session.generate_block(index), delivered)) {
      ops.fail("bit gate: block " + std::to_string(index) +
               " differs from Session::generate_block");
    }
  } catch (const std::exception& e) {
    ops.fail(std::string("bit gate: ") + e.what());
  }
}

/// Per-layer accumulators of one traced run.
struct LayerAcc {
  Mean pull_sweep_ns;
  double busy_ns = 0;
  double capacity_ns = 0;
  Mean open_ns;
  Mean design_ns;
  Mean compile_ns;
  double hits = 0;
  double misses = 0;
  double evictions = 0;
  double opens = 0;
  Mean cursor_block_ns;
  Mean keyed_block_ns;
  Mean sample_block_ns;
  Mean seek_ns;
  std::map<std::string, double> self_ns;
  Work work;
  double blackbox_ns = 0;
  double traced_ns = 0;
  double untraced_ns = 0;

  void cache(const rf::service::PlanCacheStats& before,
             const rf::service::PlanCacheStats& after) {
    hits += static_cast<double>(after.hits - before.hits);
    misses += static_cast<double>(after.misses - before.misses);
    evictions += static_cast<double>(after.evictions - before.evictions);
  }

  [[nodiscard]] double self(const char* name) const {
    const auto it = self_ns.find(name);
    return it == self_ns.end() ? 0.0 : it->second;
  }

  [[nodiscard]] std::map<std::string, double> metrics() const {
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    const double blocks = work.blocks;
    const double per_block_ms = blocks > 0 ? 1e-6 / blocks : 0.0;
    double replayed_self = 0;
    for (const auto& [name, ns] : self_ns) replayed_self += ns;
    const double gemm = self("numeric.gemm");
    const double color = self("core.color_block");
    std::map<std::string, double> m;
    m["service.session_over_cursor"] =
        ratio(keyed_block_ns.value(), cursor_block_ns.count > 0
                                          ? cursor_block_ns.value()
                                          : sample_block_ns.value());
    m["service.pull_sweep_ms"] = pull_sweep_ns.value() * 1e-6;
    m["service.pool_busy_frac"] = ratio(busy_ns, capacity_ns);
    m["service.open_session_ms"] = open_ns.value() * 1e-6;
    m["doppler.design_ms"] = design_ns.value() * 1e-6;
    m["service.compile_ms"] = compile_ns.value() * 1e-6;
    m["service.cache_hit_ratio"] = ratio(hits, hits + misses);
    m["service.cache_evictions"] = ratio(evictions, opens);
    m["core.cursor_block_ms"] = cursor_block_ns.value() * 1e-6;
    m["core.keyed_block_ms"] = keyed_block_ns.value() * 1e-6;
    m["core.sample_block_ms"] = sample_block_ns.value() * 1e-6;
    m["doppler.fill_ms"] =
        (self("doppler.fill") + self("doppler.history")) * per_block_ms;
    m["doppler.synth_per_emit"] =
        ratio(work.synth_samples, work.emitted_samples);
    m["fft.transforms_per_block"] = ratio(work.fft_transforms, blocks);
    m["fft.transform_us"] =
        ratio(self("fft.convolve"), work.fft_transforms) * 1e-3;
    m["fft.gflops"] = ratio(work.fft_flops, self("fft.convolve"));
    m["random.fill_ns_per_sample"] =
        ratio(self("random.fill"), work.rng_samples);
    m["random.samples_per_block"] = ratio(work.rng_samples, blocks);
    m["numeric.gemm_ms"] = gemm * per_block_ms;
    m["numeric.gemm_gflops"] = ratio(work.gemm_flops, gemm);
    m["numeric.gemm_flop_per_byte"] = ratio(work.gemm_flops, work.gemm_bytes);
    m["numeric.interleave_ms"] = self("numeric.interleave") * per_block_ms;
    // color_block's own span already excludes the GEMM probe: its self
    // time is the tail (mean/gain pass, output allocation).
    m["core.color_block_ms"] = color > 0 ? (color + gemm) * per_block_ms : 0;
    m["core.tail_ms"] = color * per_block_ms;
    m["core.seek_ms"] = seek_ns.value() * 1e-6;
    m["metrics.observe_ms"] = self("metrics.observe") * per_block_ms;
    m["trace.coverage"] = ratio(replayed_self, blackbox_ns);
    m["telemetry.trace_overhead_frac"] =
        untraced_ns > 0 ? (traced_ns - work.probe_ns) / untraced_ns - 1.0
                        : 0.0;
    return m;
  }
};

/// Replay one block twice, traced and untraced, check the traced replay
/// against the black-box block's fingerprint, and fold the timings into
/// \p acc.  \p replay(trace, work) returns the replayed block.  Callers
/// free their black-box blocks first, so the replay allocates from the
/// heap state the black-box call saw.
template <typename ReplayFn>
void replay_and_check(std::uint64_t blackbox, double blackbox_ns,
                      LayerAcc& acc, SpanTrace& trace, Ops& ops,
                      ReplayFn&& replay) {
  ++ops.attempted;
  trace.set_enabled(true);
  std::int64_t t0 = now_ns();
  CMatrix traced = replay(trace, acc.work);
  acc.traced_ns += static_cast<double>(now_ns() - t0);
  trace.drain(acc.self_ns);
  acc.blackbox_ns += blackbox_ns;
  if (fingerprint(traced) != blackbox) {
    ops.fail("stage replay differs from the black-box block");
  }
  traced = CMatrix();
  trace.set_enabled(false);
  Work discard;
  t0 = now_ns();
  traced = replay(trace, discard);
  acc.untraced_ns += static_cast<double>(now_ns() - t0);
}

// --- serve_ols16 -------------------------------------------------------------

constexpr std::size_t kServeTenants = 4;
constexpr std::size_t kServeN = 16;
constexpr std::size_t kServeM = 4096;
constexpr double kServeFm = 0.05;

struct ServeState {
  std::unique_ptr<ChannelService> service;
  std::vector<Session> sessions;
  std::vector<Session*> pointers;
};

}  // namespace

Result run_serve_ols16(const Args& args) {
  SeedStream rng(args.seed);
  const ChannelSpec spec =
      ChannelSpec::Builder()
          .rayleigh(seeded_covariance(kServeN, rng))
          .streaming()
          .backend(rf::doppler::StreamBackend::OverlapSaveFir)
          .idft_size(kServeM)
          .doppler(kServeFm)
          .build();
  std::vector<std::uint64_t> tenant_seeds(kServeTenants);
  std::vector<std::uint64_t> start(kServeTenants);
  for (std::size_t i = 0; i < kServeTenants; ++i) {
    tenant_seeds[i] = rng.next();
    start[i] = rng.below(1u << 20);
  }

  Result result;
  ServeState state;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    state = ServeState{};
    state.service = std::make_unique<ChannelService>(64);
    for (std::size_t i = 0; i < kServeTenants; ++i) {
      state.sessions.push_back(
          state.service->open_session(spec, tenant_seeds[i]));
      state.sessions.back().seek(start[i]);
    }
    for (Session& session : state.sessions) {
      state.pointers.push_back(&session);
    }
    for (int warm = 0; warm < 2; ++warm) {
      (void)ChannelService::pull_blocks(state.pointers);
    }
    result.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const std::shared_ptr<const CompiledChannel> channel =
      state.service->compile(spec);

  if (!args.trace) {
    PowerGate power(channel->plan()->effective_covariance(),
                    PowerGate::doppler_tau(kServeFm, kServeM));
    BitGate gate{args.seed, 32};
    SeedStream arrivals(args.seed ^ 0xA7713);
    std::vector<std::uint64_t> index(kServeTenants);
    std::size_t sweeps = 0;
    TimedLoop loop(args.seconds);
    while (loop.running()) {
      for (std::size_t i = 0; i < kServeTenants; ++i) {
        index[i] = state.sessions[i].next_block_index();
      }
      result.ops.attempted += kServeTenants;
      std::vector<CMatrix> blocks;
      const std::int64_t t0 = now_ns();
      try {
        blocks = ChannelService::pull_blocks(state.pointers);
      } catch (const std::exception& e) {
        result.ops.fail(std::string("pull_blocks: ") + e.what(),
                        kServeTenants);
        continue;
      }
      // Every block of a sweep lands at once, so the sweep is the one
      // independent latency observation the percentile rule counts.
      result.block_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      double samples = 0;
      for (const CMatrix& block : blocks) {
        samples += static_cast<double>(block.size());
      }
      loop.delivered(samples);
      const std::int64_t g0 = now_ns();
      for (std::size_t i = 0; i < kServeTenants; ++i) {
        if (gate.sample()) {
          check_block(state.sessions[i], index[i], blocks[i], result.ops);
          power.add(blocks[i]);
        }
      }
      loop.exclude_since(g0);
      if (++sweeps % 4 == 0) {
        arrive(*state.service, spec, arrivals, 1u << 20, loop, result);
      }
    }
    result.finish(loop);
    power.finish(result.ops);
    return result;
  }

  // Traced run.
  LayerAcc acc;
  {
    // The compile and open costs of this workload's set-up, on a fresh
    // service so the compile is a miss.
    ChannelService fresh(64);
    const auto before = fresh.cache_stats();
    std::int64_t t0 = now_ns();
    const auto compiled = fresh.compile(spec);
    acc.compile_ns.add(static_cast<double>(now_ns() - t0));
    for (std::size_t i = 0; i < kServeTenants; ++i) {
      t0 = now_ns();
      Session session = fresh.open_session(spec, tenant_seeds[i]);
      acc.open_ns.add(static_cast<double>(now_ns() - t0));
      acc.opens += 1;
    }
    acc.cache(before, fresh.cache_stats());
  }
  std::vector<std::unique_ptr<StreamReplayer>> replayers;
  for (std::size_t i = 0; i < kServeTenants; ++i) {
    replayers.push_back(
        std::make_unique<StreamReplayer>(*channel, tenant_seeds[i]));
    acc.design_ns.add(replayers.back()->design_ns());
  }
  Session compare = ChannelService::open_session(channel, tenant_seeds[0]);
  rf::core::FadingStream cursor = channel->make_stream(tenant_seeds[0]);
  const double workers =
      static_cast<double>(rf::support::ThreadPool::global().size());
  SpanTrace trace;
  std::vector<std::uint64_t> index(kServeTenants);
  std::vector<CMatrix> replica(kServeTenants);
  std::vector<std::int64_t> request_ns(kServeTenants);
  std::vector<std::uint64_t> expected(kServeTenants);
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < deadline) {
    for (std::size_t i = 0; i < kServeTenants; ++i) {
      index[i] = state.sessions[i].next_block_index();
    }
    result.ops.attempted += kServeTenants;
    std::int64_t t0 = now_ns();
    std::vector<CMatrix> blocks = ChannelService::pull_blocks(state.pointers);
    acc.pull_sweep_ns.add(static_cast<double>(now_ns() - t0));

    // The batcher's sweep, re-run with a clock around every request: the
    // same chunk-1 fan-out of Session::generate_block over the pool.
    t0 = now_ns();
    rf::support::parallel_for_chunked(
        kServeTenants,
        [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
          for (std::size_t i = begin; i < end; ++i) {
            const std::int64_t r0 = now_ns();
            replica[i] = state.sessions[i].generate_block(index[i]);
            request_ns[i] = now_ns() - r0;
          }
        },
        {.chunk_size = 1});
    const double sweep_ns = static_cast<double>(now_ns() - t0);
    acc.capacity_ns += workers * sweep_ns;
    for (std::size_t i = 0; i < kServeTenants; ++i) {
      acc.busy_ns += static_cast<double>(request_ns[i]);
      if (!same_bits(replica[i], blocks[i])) {
        result.ops.fail("replica sweep differs from pull_blocks");
      }
      expected[i] = fingerprint(blocks[i]);
      replica[i] = CMatrix();
    }
    blocks.clear();
    for (std::size_t i = 0; i < kServeTenants; ++i) {
      replay_and_check(expected[i], static_cast<double>(request_ns[i]), acc,
                       trace, result.ops, [&](SpanTrace& tr, Work& work) {
                         return replayers[i]->replay(index[i], tr, work);
                       });
    }

    result.ops.attempted += 1;
    t0 = now_ns();
    const CMatrix keyed = compare.next_block();
    const double keyed_ns = static_cast<double>(now_ns() - t0);
    t0 = now_ns();
    const CMatrix streamed = cursor.next_block();
    const double cursor_ns = static_cast<double>(now_ns() - t0);
    acc.keyed_block_ns.add(keyed_ns);
    acc.cursor_block_ns.add(cursor_ns);
    if (!same_bits(keyed, streamed)) {
      result.ops.fail("Session::next_block differs from the stream cursor");
    }
  }
  result.layers = acc.metrics();
  return result;
}

// --- instant_n64 -------------------------------------------------------------

namespace {

constexpr std::size_t kInstantTenants = 4;
constexpr std::size_t kInstantN = 64;
constexpr std::size_t kInstantRows = 4096;

}  // namespace

Result run_instant_n64(const Args& args) {
  SeedStream rng(args.seed);
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(seeded_covariance(kInstantN, rng))
                               .instant()
                               .block_size(kInstantRows)
                               .parallel(false)
                               .build();
  std::vector<std::uint64_t> tenant_seeds(kInstantTenants);
  for (std::uint64_t& seed : tenant_seeds) seed = rng.next();

  Result result;
  std::unique_ptr<ChannelService> service;
  std::vector<Session> sessions;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    sessions.clear();
    service = std::make_unique<ChannelService>(64);
    for (std::uint64_t seed : tenant_seeds) {
      sessions.push_back(service->open_session(spec, seed));
    }
    for (const Session& session : sessions) {
      (void)session.generate_block(0);
    }
    result.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  const std::shared_ptr<const CompiledChannel> channel = service->compile(spec);
  const std::uint64_t index_range = std::uint64_t{1} << 24;

  if (!args.trace) {
    PowerGate power(channel->plan()->effective_covariance(), 1.0);
    BitGate gate{args.seed, 32};
    SeedStream arrivals(args.seed ^ 0xA7713);
    std::size_t step = 0;
    TimedLoop loop(args.seconds);
    while (loop.running()) {
      const Session& session = sessions[step++ % kInstantTenants];
      const std::uint64_t b = rng.below(index_range);
      ++result.ops.attempted;
      CMatrix block;
      const std::int64_t t0 = now_ns();
      try {
        block = session.generate_block(b);
      } catch (const std::exception& e) {
        result.ops.fail(std::string("generate_block: ") + e.what());
        continue;
      }
      result.block_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
      loop.delivered(static_cast<double>(block.size()));
      if (gate.sample()) {
        const std::int64_t g0 = now_ns();
        check_block(session, b, block, result.ops);
        power.add(block);
        loop.exclude_since(g0);
      }
      if (step % 8 == 0) {
        arrive(*service, spec, arrivals, index_range, loop, result);
      }
    }
    result.finish(loop);
    power.finish(result.ops);
    return result;
  }

  LayerAcc acc;
  {
    ChannelService fresh(64);
    const auto before = fresh.cache_stats();
    std::int64_t t0 = now_ns();
    const auto compiled = fresh.compile(spec);
    acc.compile_ns.add(static_cast<double>(now_ns() - t0));
    for (std::uint64_t seed : tenant_seeds) {
      t0 = now_ns();
      Session session = fresh.open_session(spec, seed);
      acc.open_ns.add(static_cast<double>(now_ns() - t0));
      acc.opens += 1;
    }
    acc.cache(before, fresh.cache_stats());
  }
  InstantReplayer replayer(*channel);
  SpanTrace trace;
  std::size_t step = 0;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < deadline) {
    const std::size_t tenant = step++ % kInstantTenants;
    const std::uint64_t b = rng.below(index_range);
    ++result.ops.attempted;
    // Each call allocates its block from the same heap state: the one
    // before is fingerprinted and freed first.
    std::int64_t t0 = now_ns();
    CMatrix block = sessions[tenant].generate_block(b);
    const double keyed_ns = static_cast<double>(now_ns() - t0);
    const std::uint64_t expected = fingerprint(block);
    block = CMatrix();
    t0 = now_ns();
    block = channel->pipeline().sample_block(kInstantRows,
                                             tenant_seeds[tenant], b);
    const double engine_ns = static_cast<double>(now_ns() - t0);
    if (fingerprint(block) != expected) {
      result.ops.fail("Session::generate_block differs from sample_block");
    }
    block = CMatrix();
    acc.keyed_block_ns.add(keyed_ns);
    acc.sample_block_ns.add(engine_ns);
    replay_and_check(expected, keyed_ns, acc, trace, result.ops,
                     [&](SpanTrace& tr, Work& work) {
                       return replayer.replay(tenant_seeds[tenant], b, tr,
                                              work);
                     });
  }
  result.layers = acc.metrics();
  return result;
}

// --- churn_mixed -------------------------------------------------------------

namespace {

constexpr std::size_t kChurnCapacity = 8;
constexpr std::size_t kChurnM = 1024;
constexpr std::size_t kChurnBlocks = 8;
constexpr std::size_t kTappedPerCycle = 3;

/// The 12-spec pool: per family two N = 4 and two N = 8 specs; the seed
/// chooses every value, never a shape, so all seeds do the same work.
std::vector<ChannelSpec> churn_specs(std::uint64_t seed) {
  SeedStream rng(seed ^ 0x5EC5);
  std::vector<ChannelSpec> specs;
  for (std::size_t s = 0; s < 12; ++s) {
    const std::size_t family = s / 4;
    const std::size_t n = (s % 2 == 0) ? 4 : 8;
    ChannelSpec::Builder builder;
    const CMatrix k = seeded_covariance(n, rng);
    const double fm = rng.uniform(0.02, 0.08);
    // Serial branch fills: a per-block pool fan-out at M = 1024 waits on
    // the slowest of all vCPUs and doubled this workload's slowdowns on a
    // host with CPU steal (serve's arrivals still fan out per block).
    builder.streaming().idft_size(kChurnM).doppler(fm).parallel(false);
    if (family == 0) {
      builder.rician(k, rng.uniform(1.0, 8.0), rng.uniform(-3.0, 3.0))
          .los_doppler(rng.uniform(-0.04, 0.04))
          .backend(rf::doppler::StreamBackend::OverlapSaveFir)
          .precision(rf::core::Precision::Float32);
    } else if (family == 1) {
      rf::scenario::composite::ShadowingSpec shadowing;
      shadowing.sigma_db = rng.uniform(4.0, 8.0);
      builder.suzuki(k, shadowing)
          .backend(rf::doppler::StreamBackend::WindowedOverlapAdd);
    } else {
      builder.twdp(k, rng.uniform(1.0, 10.0), rng.uniform(0.2, 0.9))
          .wave_dopplers(rng.uniform(-0.04, 0.04), rng.uniform(-0.04, 0.04))
          .backend(rf::doppler::StreamBackend::IndependentBlock)
          .precision(rf::core::Precision::Float32);
    }
    specs.push_back(builder.build());
  }
  return specs;
}

/// One tenant visit: which spec, its seed, where it seeks, and whether
/// it carries a MetricsTap.  Visits come in cycles of 12 that touch every
/// spec once in a seed-shuffled order with exactly 3 tapped.
struct Visit {
  std::size_t spec = 0;
  std::uint64_t seed = 0;
  std::uint64_t target = 0;
  bool tapped = false;
};

class VisitPlan {
 public:
  explicit VisitPlan(std::uint64_t seed) : rng_(seed ^ 0x7151) {}

  Visit next() {
    if (position_ == order_.size()) {
      order_.resize(12);
      for (std::size_t i = 0; i < 12; ++i) order_[i] = i;
      for (std::size_t i = 11; i > 0; --i) {
        std::swap(order_[i], order_[rng_.below(i + 1)]);
      }
      tapped_.assign(12, false);
      for (std::size_t t = 0; t < kTappedPerCycle;) {
        const std::size_t i = rng_.below(12);
        if (!tapped_[i]) {
          tapped_[i] = true;
          ++t;
        }
      }
      position_ = 0;
    }
    Visit visit;
    visit.spec = order_[position_];
    visit.tapped = tapped_[position_];
    ++position_;
    visit.seed = rng_.next();
    visit.target = rng_.below(1u << 20);
    return visit;
  }

 private:
  SeedStream rng_;
  std::vector<std::size_t> order_;
  std::vector<bool> tapped_;
  std::size_t position_ = 0;
};

}  // namespace

Result run_churn_mixed(const Args& args) {
  const rf::metrics::MetricsTapConfig tap_config;
  Result result;
  std::unique_ptr<ChannelService> service;
  std::vector<ChannelSpec> specs;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    const std::int64_t t0 = now_ns();
    service = std::make_unique<ChannelService>(kChurnCapacity);
    specs = churn_specs(args.seed);
    // Warm-up: one visit per spec (12 compiles through the 8-entry cache).
    for (std::size_t s = 0; s < specs.size(); ++s) {
      Session session = service->open_session(specs[s], s);
      (void)session.next_block();
    }
    result.setup_s.push_back(seconds_between(t0, now_ns()));
  }
  VisitPlan plan(args.seed);

  if (!args.trace) {
    BitGate gate{args.seed, 256};
    TimedLoop loop(args.seconds);
    while (loop.running()) {
      const Visit visit = plan.next();
      ++result.ops.attempted;
      try {
        const std::int64_t arrival = now_ns();
        Session session = service->open_session(specs[visit.spec], visit.seed);
        if (visit.tapped) (void)session.enable_metrics(tap_config);
        session.seek(visit.target);
        for (std::size_t k = 0; k < kChurnBlocks; ++k) {
          ++result.ops.attempted;
          const std::int64_t t0 = now_ns();
          const CMatrix block = session.next_block();
          const std::int64_t t1 = now_ns();
          if (k == 0) {
            result.ttfb_us.push_back(static_cast<double>(t1 - arrival) * 1e-3);
          }
          result.block_us.push_back(static_cast<double>(t1 - t0) * 1e-3);
          loop.delivered(static_cast<double>(block.size()));
          if (gate.sample()) {
            const std::int64_t g0 = now_ns();
            check_block(session, visit.target + k, block, result.ops);
            loop.exclude_since(g0);
          }
        }
      } catch (const std::exception& e) {
        result.ops.fail(std::string("visit: ") + e.what());
      }
    }
    result.finish(loop);
    return result;
  }

  LayerAcc acc;
  SpanTrace trace;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * 1e9);
  while (now_ns() < deadline) {
    const Visit visit = plan.next();
    const ChannelSpec& spec = specs[visit.spec];
    ++result.ops.attempted;
    const auto before = service->cache_stats();
    std::int64_t t0 = now_ns();
    const std::shared_ptr<const CompiledChannel> channel =
        service->compile(spec);
    const double compile_ns = static_cast<double>(now_ns() - t0);
    const auto after = service->cache_stats();
    if (after.misses > before.misses) acc.compile_ns.add(compile_ns);
    acc.cache(before, after);
    t0 = now_ns();
    Session session = ChannelService::open_session(channel, visit.seed);
    acc.open_ns.add(compile_ns + static_cast<double>(now_ns() - t0));
    acc.opens += 1;

    StreamReplayer replayer(*channel, visit.seed);
    acc.design_ns.add(replayer.design_ns());
    rf::core::FadingStream cursor = channel->make_stream(visit.seed);
    std::shared_ptr<rf::metrics::MetricsTap> replay_tap;
    if (visit.tapped) {
      const auto& tap = session.enable_metrics(tap_config);
      replay_tap =
          std::make_shared<rf::metrics::MetricsTap>(tap->reference(), tap_config);
      cursor.set_metrics_tap(std::make_shared<rf::metrics::MetricsTap>(
          tap->reference(), tap_config));
    }
    session.seek(visit.target);
    t0 = now_ns();
    cursor.seek(visit.target);
    acc.seek_ns.add(static_cast<double>(now_ns() - t0));

    for (std::size_t k = 0; k < kChurnBlocks; ++k) {
      const std::uint64_t b = visit.target + k;
      ++result.ops.attempted;
      t0 = now_ns();
      const CMatrix block = session.next_block();
      const double keyed_ns = static_cast<double>(now_ns() - t0);
      t0 = now_ns();
      const CMatrix streamed = cursor.next_block();
      const double cursor_ns = static_cast<double>(now_ns() - t0);
      acc.keyed_block_ns.add(keyed_ns);
      acc.cursor_block_ns.add(cursor_ns);
      if (!same_bits(block, streamed)) {
        result.ops.fail("Session::next_block differs from the stream cursor");
      }
      replay_and_check(fingerprint(block), keyed_ns, acc, trace, result.ops,
                       [&](SpanTrace& tr, Work& work) {
                         CMatrix z = replayer.replay(b, tr, work);
                         if (replay_tap) {
                           const ScopedSpan observe(tr, "metrics.observe");
                           replay_tap->observe(z);
                         }
                         return z;
                       });
    }
  }
  result.layers = acc.metrics();
  return result;
}

}  // namespace rfbench
