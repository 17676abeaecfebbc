// Golden output fingerprints: FNV-1a-64 hashes of the raw output bytes of
// representative ChannelSpec-built channels, pinned so a refactor of the
// emission kernels (FFT, GEMM, bulk Philox fill, branch sources, stream
// engine) cannot change a single output bit unnoticed.
//
// The bulk Box-Muller fill runs libmvec vector transcendentals, and the
// per-draw paths call glibc's ifunc'd libm; both may differ in the last
// ulp between ISA tiers.  The expected table is therefore keyed by the
// tier the target_clones resolve to on the running machine (avx512f /
// avx2 / default), plus a separate "sanitized" tier for ASan/TSan builds,
// which drop the clones and the relaxed-FP flags of the bulk fill.  The
// relaxed-FP vectorisation of that fill is compiler-specific and libmvec
// is glibc-specific, so each table also names the compiler and glibc it
// was recorded with.  A tier with no recorded table prints the hashes it
// computed (the recording procedure for a new tier) and skips.
//
// A second table pins the link-level MetricsTap's accumulator state over
// 64 streamed blocks: every level-crossing cell, every ACF correlation
// sum and every mutual-information sum, so a change to the accumulator
// folds (ExactSum deposits, lag rings, the level test) cannot move a bit
// of what the tap reads out.  It hashes stream output too, so it is keyed
// by the same toolchain + tier.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rfade/core/fading_stream.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/metrics/tap.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/support/simd.hpp"
#include "rfade/telemetry/registry.hpp"

namespace {

using namespace rfade;
using core::Precision;
using doppler::StreamBackend;
using numeric::cdouble;
using numeric::CMatrix;
using service::ChannelSpec;

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

/// FNV-1a-64 over the raw bytes of a matrix's storage, continuing \p h.
template <typename M>
std::uint64_t fnv1a(const M& z, std::uint64_t h = kFnvOffset) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(z.data());
  const std::size_t count = z.size() * sizeof(*z.data());
  for (std::size_t i = 0; i < count; ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// FNV-1a-64 over the raw bytes of one value, continuing \p h.
template <typename V>
std::uint64_t fnv1a_value(const V& value, std::uint64_t h) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(&value);
  for (std::size_t i = 0; i < sizeof(V); ++i) {
    h ^= bytes[i];
    h *= kFnvPrime;
  }
  return h;
}

/// The ISA tier the RFADE_TARGET_CLONES_WIDE ifunc resolves to here.
std::string clone_tier() {
#if defined(RFADE_DETAIL_SANITIZED)
  return "sanitized";
#elif defined(__x86_64__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__))
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return "avx512f";
  if (__builtin_cpu_supports("avx2")) return "avx2";
  return "default";
#else
  return "unversioned";
#endif
}

/// Compiler family + major version and glibc version of this build.
std::string toolchain() {
#if defined(__clang__)
  std::string name = "clang-" + std::to_string(__clang_major__);
#elif defined(__GNUC__)
  std::string name = "gcc-" + std::to_string(__GNUC__);
#else
  std::string name = "unknown";
#endif
#if defined(__GLIBC__)
  name += "/glibc-" + std::to_string(__GLIBC__) + "." +
          std::to_string(__GLIBC_MINOR__);
#endif
  return name;
}

/// Kac-Murdock-Szego correlation with a per-lag phase: K(i, j) =
/// rho^|i-j| e^{i phi (i-j)} — Hermitian positive definite for every n.
CMatrix kms_covariance(std::size_t n, double rho, double phi) {
  CMatrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double lag = static_cast<double>(i) - static_cast<double>(j);
      k(i, j) = std::pow(rho, std::abs(lag)) * std::polar(1.0, phi * lag);
    }
  }
  return k;
}

/// Cursor block (seek + next_block) followed by the keyed block of the
/// same index, hashed in the stream's own precision.
std::uint64_t stream_fingerprint(const ChannelSpec& spec, std::uint64_t seed,
                                 std::uint64_t block) {
  const auto channel = spec.compile();
  core::FadingStream cursor = channel->make_stream(seed);
  const core::FadingStream keyed = channel->make_stream(seed);
  cursor.seek(block);
  if (spec.precision() == Precision::Float32) {
    return fnv1a(keyed.generate_block_f32(seed, block),
                 fnv1a(cursor.next_block_f32()));
  }
  return fnv1a(keyed.generate_block(seed, block), fnv1a(cursor.next_block()));
}

/// Session cursor block (seek + next_block) followed by the session's
/// keyed block of the same index.
std::uint64_t session_fingerprint(const ChannelSpec& spec, std::uint64_t seed,
                                  std::uint64_t block) {
  service::Session session(spec.compile(), seed);
  session.seek(block);
  const CMatrix cursor = session.next_block();
  return fnv1a(session.generate_block(block), fnv1a(cursor));
}

const char* short_name(StreamBackend backend) {
  switch (backend) {
    case StreamBackend::IndependentBlock:
      return "independent";
    case StreamBackend::WindowedOverlapAdd:
      return "wola";
    case StreamBackend::OverlapSaveFir:
      return "ols";
  }
  return "?";
}

struct Fingerprint {
  std::string name;
  std::uint64_t hash;
};

std::vector<Fingerprint> compute_fingerprints() {
  std::vector<Fingerprint> out;
  // N = 17: two full 8-lane double groups plus a 1-lane tail, and one
  // full 16-lane float group plus a 1-lane tail in the batched sweep.
  const CMatrix k17 = kms_covariance(17, 0.7, 0.3);
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    for (const Precision precision : {Precision::Float64, Precision::Float32}) {
      const ChannelSpec spec =
          ChannelSpec::Builder()
              .rayleigh(k17)
              .backend(backend)
              .idft_size(256)
              .doppler(0.05)
              .overlap(backend == StreamBackend::WindowedOverlapAdd ? 32 : 0)
              .precision(precision)
              .build();
      for (const std::uint64_t seed : {0x5EEDull, 0xF1A9E2ull}) {
        for (const std::uint64_t block : {0ull, 1000ull}) {
          char name[64];
          std::snprintf(name, sizeof(name), "rayleigh/%s/%s/0x%llX/b%llu",
                        short_name(backend), core::precision_name(precision),
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(block));
          out.push_back({name, stream_fingerprint(spec, seed, block)});
        }
      }
    }
  }

  // Rician float32 overlap-save with a Doppler-shifted LOS phasor: the
  // float mean tail on top of the batched float sweep.
  const ChannelSpec rician = ChannelSpec::Builder()
                                 .rician(kms_covariance(5, 0.5, -0.2), 4.0)
                                 .los_doppler(0.02)
                                 .backend(StreamBackend::OverlapSaveFir)
                                 .idft_size(256)
                                 .doppler(0.05)
                                 .precision(Precision::Float32)
                                 .build();
  out.push_back({"rician/ols/f32/7/b3",
                 stream_fingerprint(rician, 7, 3)});

  // Instant mode, N = 64: the keyed bulk Philox fill + planar GEMM.
  const ChannelSpec instant = ChannelSpec::Builder()
                                  .rayleigh(kms_covariance(64, 0.8, 0.1))
                                  .instant()
                                  .block_size(256)
                                  .build();
  const auto channel = instant.compile();
  out.push_back({"instant/n=64/11/b5",
                 fnv1a(channel->pipeline().sample_block(256, 11, 5))});

  // Cascaded (double) Rayleigh streams through Session, N = 17: a
  // stage-2 covariance with an unequal, non-unit diagonal and a stage-2
  // Doppler unlike stage 1's, so both stage keys, both filters and the
  // elementwise product all reach the hash.
  CMatrix k2 = kms_covariance(17, 0.4, -0.5);
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 17; ++j) {
      k2(i, j) *= std::sqrt((1.5 + 0.25 * double(i % 3)) *
                            (1.5 + 0.25 * double(j % 3)));
    }
  }
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    const ChannelSpec spec =
        ChannelSpec::Builder()
            .cascaded(k17, k2)
            .backend(backend)
            .idft_size(256)
            .doppler(0.05)
            .second_doppler(0.08)
            .overlap(backend == StreamBackend::WindowedOverlapAdd ? 32 : 0)
            .build();
    for (const std::uint64_t seed : {0x5EEDull, 0xF1A9E2ull}) {
      for (const std::uint64_t block : {0ull, 1000ull}) {
        char name[64];
        std::snprintf(name, sizeof(name), "cascaded/%s/f64/0x%llX/b%llu",
                      short_name(backend),
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(block));
        out.push_back({name, session_fingerprint(spec, seed, block)});
      }
    }
  }

  // The cascaded product stage in float32 on the batched overlap-save
  // sweep of both stages (recorded after the cascade became a
  // FadingStream product stage).
  const ChannelSpec cascaded_f32 = ChannelSpec::Builder()
                                       .cascaded(k17, k2)
                                       .backend(StreamBackend::OverlapSaveFir)
                                       .idft_size(256)
                                       .doppler(0.05)
                                       .second_doppler(0.08)
                                       .precision(Precision::Float32)
                                       .build();
  out.push_back({"cascaded/ols/f32/0x5EED/b1000",
                 stream_fingerprint(cascaded_f32, 0x5EED, 1000)});

  // Instant sessions of every family, N = 17 (recorded before the
  // instant families became keyed pipeline stages of CompiledChannel):
  // TWDP with both waves active, the cascade with the unequal stage-2
  // diagonal above, and Suzuki shadowing over the keyed diffuse draw.
  std::vector<scenario::TwdpBranch> twdp_branches;
  for (std::size_t j = 0; j < 17; ++j) {
    twdp_branches.push_back({2.0 + 0.5 * double(j % 4),
                             0.3 + 0.2 * double(j % 3), 0.1 * double(j),
                             -0.2 * double(j)});
  }
  scenario::composite::ShadowingSpec shadowing;
  shadowing.sigma_db = 6.0;
  shadowing.mean_db = 1.5;
  shadowing.decorrelation_samples = 300.0;
  shadowing.spacing = 8;
  const std::pair<const char*, ChannelSpec> instant_families[] = {
      {"twdp", ChannelSpec::Builder()
                   .twdp(k17, twdp_branches)
                   .instant()
                   .block_size(256)
                   .build()},
      {"cascaded", ChannelSpec::Builder()
                       .cascaded(k17, k2)
                       .instant()
                       .block_size(256)
                       .build()},
      {"suzuki", ChannelSpec::Builder()
                     .suzuki(k17, shadowing)
                     .instant()
                     .block_size(256)
                     .build()},
  };
  for (const auto& [family, spec] : instant_families) {
    for (const std::uint64_t seed : {0x5EEDull, 0xF1A9E2ull}) {
      for (const std::uint64_t block : {0ull, 1000ull}) {
        char name[64];
        std::snprintf(name, sizeof(name), "instant/%s/0x%llX/b%llu", family,
                      static_cast<unsigned long long>(seed),
                      static_cast<unsigned long long>(block));
        out.push_back({name, session_fingerprint(spec, seed, block)});
      }
    }
  }

  // One case each: Rician with K = 4 and a LOS phase, Rayleigh with a
  // constant mean, TWDP with every Delta = 0 (the single-wave pass) and
  // a copula channel's envelope block.
  numeric::CVector mean(17);
  for (std::size_t j = 0; j < 17; ++j) {
    mean[j] = std::polar(0.5 + 0.1 * double(j), 0.4 * double(j));
  }
  const std::pair<const char*, ChannelSpec> instant_singles[] = {
      {"instant/rician/0x5EED/b1000", ChannelSpec::Builder()
                                          .rician(k17, 4.0, 0.7)
                                          .instant()
                                          .block_size(256)
                                          .build()},
      {"instant/rayleigh-mean/0x5EED/b1000", ChannelSpec::Builder()
                                                 .rayleigh(k17)
                                                 .constant_mean(mean)
                                                 .instant()
                                                 .block_size(256)
                                                 .build()},
      {"instant/twdp-delta0/0x5EED/b1000", ChannelSpec::Builder()
                                               .twdp(k17, 3.0, 0.0)
                                               .instant()
                                               .block_size(256)
                                               .build()},
  };
  for (const auto& [name, spec] : instant_singles) {
    out.push_back({name, session_fingerprint(spec, 0x5EED, 1000)});
  }
  numeric::RMatrix envelope_target(17, 17);
  std::vector<service::MarginalSpec> marginals;
  for (std::size_t i = 0; i < 17; ++i) {
    for (std::size_t j = 0; j < 17; ++j) {
      envelope_target(i, j) = std::pow(0.6, std::abs(double(i) - double(j)));
    }
    marginals.push_back(i % 2 == 0 ? service::MarginalSpec::nakagami(
                                         1.5 + 0.25 * double(i % 3), 1.2)
                                   : service::MarginalSpec::weibull(2.5, 1.1));
  }
  service::Session copula(ChannelSpec::Builder()
                              .copula(envelope_target, marginals)
                              .block_size(256)
                              .build()
                              .compile(),
                          0x5EED);
  copula.seek(1000);
  const numeric::RMatrix copula_cursor = copula.next_envelope_block();
  out.push_back({"instant/copula/0x5EED/b1000",
                 fnv1a(copula.generate_envelope_block(1000),
                       fnv1a(copula_cursor))});

  // Stream sessions through the mean/gain tail (recorded before the tail
  // kernels were rewritten): TWDP with both waves moving, TWDP with the
  // waves at f = +-0.25 (every cycle count an exact quarter, so the mod-1
  // reduction meets +-0), Rician with a LOS Doppler, Suzuki unmixed and
  // Suzuki with a branch correlation, each in both precisions.  Block
  // 2^24 + 5 of a 256-row block puts the instants past 2^32, where the
  // phasor's high-word partial product is nonzero.
  std::vector<scenario::TwdpBranch> wave_branches;
  for (std::size_t j = 0; j < 6; ++j) {
    wave_branches.push_back({1.5 + 0.75 * double(j % 3),
                             0.4 + 0.1 * double(j % 4), 0.3 * double(j),
                             -0.7 + 0.2 * double(j)});
  }
  scenario::composite::ShadowingSpec mixed_shadowing = shadowing;
  mixed_shadowing.branch_correlation = numeric::RMatrix(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      mixed_shadowing.branch_correlation(i, j) =
          std::pow(0.6, std::abs(double(i) - double(j)));
    }
  }
  const CMatrix k6 = kms_covariance(6, 0.6, 0.25);
  const CMatrix k8 = kms_covariance(8, 0.7, -0.35);
  const std::pair<const char*, ChannelSpec::Builder> tail_streams[] = {
      {"stream/twdp-moving/independent",
       ChannelSpec::Builder()
           .twdp(k6, wave_branches)
           .wave_dopplers(0.013, -0.037)
           .backend(StreamBackend::IndependentBlock)},
      {"stream/twdp-quarter/ols",
       ChannelSpec::Builder()
           .twdp(k6, wave_branches)
           .wave_dopplers(0.25, -0.25)
           .backend(StreamBackend::OverlapSaveFir)},
      {"stream/rician-los/ols",
       ChannelSpec::Builder()
           .rician(kms_covariance(5, 0.5, -0.2), 4.0, 0.6)
           .los_doppler(0.02)
           .backend(StreamBackend::OverlapSaveFir)},
      {"stream/suzuki/wola",
       ChannelSpec::Builder()
           .suzuki(k8, shadowing)
           .backend(StreamBackend::WindowedOverlapAdd)
           .overlap(32)},
      {"stream/suzuki-mixed/independent",
       ChannelSpec::Builder()
           .suzuki(k8, mixed_shadowing)
           .backend(StreamBackend::IndependentBlock)},
  };
  for (const auto& [family, builder] : tail_streams) {
    for (const Precision precision : {Precision::Float64, Precision::Float32}) {
      ChannelSpec::Builder b = builder;
      const ChannelSpec spec =
          b.idft_size(256).doppler(0.05).precision(precision).build();
      for (const std::uint64_t block : {0ull, 1000ull, (1ull << 24) + 5}) {
        char name[96];
        std::snprintf(name, sizeof(name), "%s/%s/0x5EED/b%llu", family,
                      core::precision_name(precision),
                      static_cast<unsigned long long>(block));
        out.push_back({name, session_fingerprint(spec, 0x5EED, block)});
      }
    }
  }
  return out;
}

struct TierTable {
  const char* toolchain;
  const char* tier;
  std::vector<std::uint64_t> hashes;  ///< in compute_fingerprints() order
};

// Recorded before the float/double kernel fold; later cases are appended
// — the cascaded f64 sessions recorded before the cascade moved onto the
// FadingStream product stage, the cascaded f32 stream after, the instant
// sessions of every family before they became keyed pipeline stages of
// CompiledChannel, and the mean/gain-tail stream sessions before the
// tail kernels were rewritten.  Re-recorded once, on purpose, when the
// coloring GEMM became an explicit fused multiply-add chain (every
// colored output bit changed; the old -> new list is in CHANGES.md).
// Otherwise never re-recorded: a mismatch means output bits changed.
const std::vector<TierTable>& recorded_tables() {
  static const std::vector<TierTable> tables = {
      {"gcc-12/glibc-2.36", "avx512f",
       {
           0x2B4C9C274B14B705ULL,  // rayleigh/independent/f64/0x5EED/b0
           0x648623CACE519551ULL,  // rayleigh/independent/f64/0x5EED/b1000
           0x5DA3A6F9FB049231ULL,  // rayleigh/independent/f64/0xF1A9E2/b0
           0xBAF85FDB4B2A7A55ULL,  // rayleigh/independent/f64/0xF1A9E2/b1000
           0x9CDFD475F3165EF1ULL,  // rayleigh/independent/f32/0x5EED/b0
           0x16C758B0EE17A295ULL,  // rayleigh/independent/f32/0x5EED/b1000
           0x8A8483640D8BA0E5ULL,  // rayleigh/independent/f32/0xF1A9E2/b0
           0xDE824ACA5D5D9705ULL,  // rayleigh/independent/f32/0xF1A9E2/b1000
           0xA62B0CF050B785FDULL,  // rayleigh/wola/f64/0x5EED/b0
           0x125E3EE210C6F4B5ULL,  // rayleigh/wola/f64/0x5EED/b1000
           0xD4EEB9ACE5520AF1ULL,  // rayleigh/wola/f64/0xF1A9E2/b0
           0x09A1589B9F5022D9ULL,  // rayleigh/wola/f64/0xF1A9E2/b1000
           0x4A96836F08557599ULL,  // rayleigh/wola/f32/0x5EED/b0
           0x22FA0EB92C2DF68DULL,  // rayleigh/wola/f32/0x5EED/b1000
           0x32D1773AC95CAB3DULL,  // rayleigh/wola/f32/0xF1A9E2/b0
           0xDC914F64D49EEE79ULL,  // rayleigh/wola/f32/0xF1A9E2/b1000
           0xC9F182A2F184095DULL,  // rayleigh/ols/f64/0x5EED/b0
           0x45AFA9E09C532AF9ULL,  // rayleigh/ols/f64/0x5EED/b1000
           0x65FCEA42354D33DDULL,  // rayleigh/ols/f64/0xF1A9E2/b0
           0x664B22034ED543C9ULL,  // rayleigh/ols/f64/0xF1A9E2/b1000
           0xD1C49506AB7D958DULL,  // rayleigh/ols/f32/0x5EED/b0
           0x18B97EF6F0F5700DULL,  // rayleigh/ols/f32/0x5EED/b1000
           0x916AD6928F2C0461ULL,  // rayleigh/ols/f32/0xF1A9E2/b0
           0x31377F45B2A6A4E5ULL,  // rayleigh/ols/f32/0xF1A9E2/b1000
           0xC67886453B497C4DULL,  // rician/ols/f32/7/b3
           0x428C79ACE15EFD04ULL,  // instant/n=64/11/b5
           0x64B24BE492F44289ULL,  // cascaded/independent/f64/0x5EED/b0
           0x8D086EE412FEEF11ULL,  // cascaded/independent/f64/0x5EED/b1000
           0x6AA20800C1B9196DULL,  // cascaded/independent/f64/0xF1A9E2/b0
           0xD9D7F7CA030F3A75ULL,  // cascaded/independent/f64/0xF1A9E2/b1000
           0x917D32F36E34B2B1ULL,  // cascaded/wola/f64/0x5EED/b0
           0x1FEDD282A2D5D1FDULL,  // cascaded/wola/f64/0x5EED/b1000
           0x2B7C4F26EDA84F29ULL,  // cascaded/wola/f64/0xF1A9E2/b0
           0x26A2F8B6CF69B879ULL,  // cascaded/wola/f64/0xF1A9E2/b1000
           0x33E2F3D47A109D6DULL,  // cascaded/ols/f64/0x5EED/b0
           0x688F24218A1F545DULL,  // cascaded/ols/f64/0x5EED/b1000
           0xC1CF0C61178B89E9ULL,  // cascaded/ols/f64/0xF1A9E2/b0
           0x8361794268DB379DULL,  // cascaded/ols/f64/0xF1A9E2/b1000
           0xDDE26A9DA2213B95ULL,  // cascaded/ols/f32/0x5EED/b1000
           0xA35160703979F1F5ULL,  // instant/twdp/0x5EED/b0
           0xF99DECD29636D79DULL,  // instant/twdp/0x5EED/b1000
           0xF2D487FE554EC4C1ULL,  // instant/twdp/0xF1A9E2/b0
           0x37250F7C28795485ULL,  // instant/twdp/0xF1A9E2/b1000
           0x762E0857F9EB3E99ULL,  // instant/cascaded/0x5EED/b0
           0xB9D1B0643DE7E0F5ULL,  // instant/cascaded/0x5EED/b1000
           0x199F72B7A97CC5DDULL,  // instant/cascaded/0xF1A9E2/b0
           0x8E34CF3EBBE07169ULL,  // instant/cascaded/0xF1A9E2/b1000
           0xE9C4D91A69F40C9DULL,  // instant/suzuki/0x5EED/b0
           0x562D4DC57F17B7B9ULL,  // instant/suzuki/0x5EED/b1000
           0x4AD53A8BE1C6A9FDULL,  // instant/suzuki/0xF1A9E2/b0
           0x943D8E4039D01471ULL,  // instant/suzuki/0xF1A9E2/b1000
           0x7268EF581D782E5DULL,  // instant/rician/0x5EED/b1000
           0xEF429E549DE673C5ULL,  // instant/rayleigh-mean/0x5EED/b1000
           0x3556CB3A62DB18A5ULL,  // instant/twdp-delta0/0x5EED/b1000
           0xD604296238218B45ULL,  // instant/copula/0x5EED/b1000
           0x731A31CB6B715B15ULL,  // stream/twdp-moving/independent/f64/0x5EED/b0
           0xAE7E923C9C458CF1ULL,  // stream/twdp-moving/independent/f64/0x5EED/b1000
           0xC680788A9E4139BDULL,  // stream/twdp-moving/independent/f64/0x5EED/b16777221
           0xB66525FEDBE32301ULL,  // stream/twdp-moving/independent/f32/0x5EED/b0
           0xFD4AAC49BCC26B95ULL,  // stream/twdp-moving/independent/f32/0x5EED/b1000
           0x496AF335B961F075ULL,  // stream/twdp-moving/independent/f32/0x5EED/b16777221
           0xDB13A72CA38107DDULL,  // stream/twdp-quarter/ols/f64/0x5EED/b0
           0x47FA737B211B0865ULL,  // stream/twdp-quarter/ols/f64/0x5EED/b1000
           0x09B93056ED96FD39ULL,  // stream/twdp-quarter/ols/f64/0x5EED/b16777221
           0x310A8F9EFF930ED1ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b0
           0x1D9F3987B121B319ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b1000
           0xBF00774298AD3665ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b16777221
           0x99C29AE23CC32465ULL,  // stream/rician-los/ols/f64/0x5EED/b0
           0x7888D1A7196CDC89ULL,  // stream/rician-los/ols/f64/0x5EED/b1000
           0x60B7B551819AAC0DULL,  // stream/rician-los/ols/f64/0x5EED/b16777221
           0xEB3483F60045B7A5ULL,  // stream/rician-los/ols/f32/0x5EED/b0
           0x7265E586DBF67C31ULL,  // stream/rician-los/ols/f32/0x5EED/b1000
           0xCBABC4713113CF9DULL,  // stream/rician-los/ols/f32/0x5EED/b16777221
           0x22693184C0CB15DDULL,  // stream/suzuki/wola/f64/0x5EED/b0
           0xC8D0ACE439604C65ULL,  // stream/suzuki/wola/f64/0x5EED/b1000
           0xDCD9B30E90F6B74DULL,  // stream/suzuki/wola/f64/0x5EED/b16777221
           0x7910E63C1D820A29ULL,  // stream/suzuki/wola/f32/0x5EED/b0
           0x6DB34DD0DBD30D65ULL,  // stream/suzuki/wola/f32/0x5EED/b1000
           0xAB9CF858D1EE4419ULL,  // stream/suzuki/wola/f32/0x5EED/b16777221
           0x9CF32334AD9F07C5ULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b0
           0x6C1AE7E0641FB69DULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b1000
           0x9215965A3A58F195ULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b16777221
           0x05E3A4798EC4BE2DULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b0
           0x94E03495EBAD5401ULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b1000
           0x0B0E133E7FA13E29ULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b16777221
       }},
      {"gcc-12/glibc-2.36", "sanitized",
       {
           0x2B4C9C274B14B705ULL,  // rayleigh/independent/f64/0x5EED/b0
           0x648623CACE519551ULL,  // rayleigh/independent/f64/0x5EED/b1000
           0x5DA3A6F9FB049231ULL,  // rayleigh/independent/f64/0xF1A9E2/b0
           0xBAF85FDB4B2A7A55ULL,  // rayleigh/independent/f64/0xF1A9E2/b1000
           0x9CDFD475F3165EF1ULL,  // rayleigh/independent/f32/0x5EED/b0
           0x16C758B0EE17A295ULL,  // rayleigh/independent/f32/0x5EED/b1000
           0x8A8483640D8BA0E5ULL,  // rayleigh/independent/f32/0xF1A9E2/b0
           0xDE824ACA5D5D9705ULL,  // rayleigh/independent/f32/0xF1A9E2/b1000
           0xA62B0CF050B785FDULL,  // rayleigh/wola/f64/0x5EED/b0
           0x125E3EE210C6F4B5ULL,  // rayleigh/wola/f64/0x5EED/b1000
           0xD4EEB9ACE5520AF1ULL,  // rayleigh/wola/f64/0xF1A9E2/b0
           0x09A1589B9F5022D9ULL,  // rayleigh/wola/f64/0xF1A9E2/b1000
           0x4A96836F08557599ULL,  // rayleigh/wola/f32/0x5EED/b0
           0x22FA0EB92C2DF68DULL,  // rayleigh/wola/f32/0x5EED/b1000
           0x32D1773AC95CAB3DULL,  // rayleigh/wola/f32/0xF1A9E2/b0
           0xDC914F64D49EEE79ULL,  // rayleigh/wola/f32/0xF1A9E2/b1000
           0x839D4779C0E4DFB5ULL,  // rayleigh/ols/f64/0x5EED/b0
           0xB874EEB43B654375ULL,  // rayleigh/ols/f64/0x5EED/b1000
           0x8AE5C684CDE47135ULL,  // rayleigh/ols/f64/0xF1A9E2/b0
           0x23510877AADE746DULL,  // rayleigh/ols/f64/0xF1A9E2/b1000
           0x278488012A233C1DULL,  // rayleigh/ols/f32/0x5EED/b0
           0xC7B8E2ACB29CE9C1ULL,  // rayleigh/ols/f32/0x5EED/b1000
           0x3EAA19D94636B319ULL,  // rayleigh/ols/f32/0xF1A9E2/b0
           0x13E1BBAF39362615ULL,  // rayleigh/ols/f32/0xF1A9E2/b1000
           0x71E5AF61FC19ADE1ULL,  // rician/ols/f32/7/b3
           0x42F468C7BEC503DEULL,  // instant/n=64/11/b5
           0x64B24BE492F44289ULL,  // cascaded/independent/f64/0x5EED/b0
           0x8D086EE412FEEF11ULL,  // cascaded/independent/f64/0x5EED/b1000
           0x6AA20800C1B9196DULL,  // cascaded/independent/f64/0xF1A9E2/b0
           0xD9D7F7CA030F3A75ULL,  // cascaded/independent/f64/0xF1A9E2/b1000
           0x917D32F36E34B2B1ULL,  // cascaded/wola/f64/0x5EED/b0
           0x1FEDD282A2D5D1FDULL,  // cascaded/wola/f64/0x5EED/b1000
           0x2B7C4F26EDA84F29ULL,  // cascaded/wola/f64/0xF1A9E2/b0
           0x26A2F8B6CF69B879ULL,  // cascaded/wola/f64/0xF1A9E2/b1000
           0x8220CE34C0641DC9ULL,  // cascaded/ols/f64/0x5EED/b0
           0x827EDCE771F49FB9ULL,  // cascaded/ols/f64/0x5EED/b1000
           0xC60495F2DE4B454DULL,  // cascaded/ols/f64/0xF1A9E2/b0
           0x6D9A7574D3E29835ULL,  // cascaded/ols/f64/0xF1A9E2/b1000
           0x321B58B0B8F9C721ULL,  // cascaded/ols/f32/0x5EED/b1000
           0x5E89E049C796BF19ULL,  // instant/twdp/0x5EED/b0
           0x01CAE1EC76009D11ULL,  // instant/twdp/0x5EED/b1000
           0x18FDFF7CA044E3BDULL,  // instant/twdp/0xF1A9E2/b0
           0x6AE87B4D399DEDADULL,  // instant/twdp/0xF1A9E2/b1000
           0xC2BC719F21C592E5ULL,  // instant/cascaded/0x5EED/b0
           0xBD682391CD2D8B35ULL,  // instant/cascaded/0x5EED/b1000
           0x342B50843FBFAF89ULL,  // instant/cascaded/0xF1A9E2/b0
           0x98D32F354493C7CDULL,  // instant/cascaded/0xF1A9E2/b1000
           0x022B7679B9A6E131ULL,  // instant/suzuki/0x5EED/b0
           0x6E10CA771870E2C9ULL,  // instant/suzuki/0x5EED/b1000
           0xA185003F7F96A119ULL,  // instant/suzuki/0xF1A9E2/b0
           0xBC27687AEAD44B55ULL,  // instant/suzuki/0xF1A9E2/b1000
           0x352E7D444E80422DULL,  // instant/rician/0x5EED/b1000
           0x6CAFC5ED689DB82DULL,  // instant/rayleigh-mean/0x5EED/b1000
           0xC28901AD5E2ECDA9ULL,  // instant/twdp-delta0/0x5EED/b1000
           0xE78548157C6CC029ULL,  // instant/copula/0x5EED/b1000
           0x731A31CB6B715B15ULL,  // stream/twdp-moving/independent/f64/0x5EED/b0
           0xAE7E923C9C458CF1ULL,  // stream/twdp-moving/independent/f64/0x5EED/b1000
           0xC680788A9E4139BDULL,  // stream/twdp-moving/independent/f64/0x5EED/b16777221
           0xB66525FEDBE32301ULL,  // stream/twdp-moving/independent/f32/0x5EED/b0
           0xFD4AAC49BCC26B95ULL,  // stream/twdp-moving/independent/f32/0x5EED/b1000
           0x496AF335B961F075ULL,  // stream/twdp-moving/independent/f32/0x5EED/b16777221
           0xAEE1D26A32915725ULL,  // stream/twdp-quarter/ols/f64/0x5EED/b0
           0x6D76E1AD6AFAF1C5ULL,  // stream/twdp-quarter/ols/f64/0x5EED/b1000
           0x6C6E878EEA6EBF35ULL,  // stream/twdp-quarter/ols/f64/0x5EED/b16777221
           0x7494AA0816A2DB91ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b0
           0x5C15F3ABF6B91B25ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b1000
           0xE54F86B9376B93E9ULL,  // stream/twdp-quarter/ols/f32/0x5EED/b16777221
           0xC59CA045248AEF59ULL,  // stream/rician-los/ols/f64/0x5EED/b0
           0x42363490F2CD8075ULL,  // stream/rician-los/ols/f64/0x5EED/b1000
           0x8BB095AD4EC8C431ULL,  // stream/rician-los/ols/f64/0x5EED/b16777221
           0x6C976122E5757B29ULL,  // stream/rician-los/ols/f32/0x5EED/b0
           0xD8B8102C9E5713ADULL,  // stream/rician-los/ols/f32/0x5EED/b1000
           0x390094DCB128DD89ULL,  // stream/rician-los/ols/f32/0x5EED/b16777221
           0xEE00F8F75C567AE5ULL,  // stream/suzuki/wola/f64/0x5EED/b0
           0x9D0D27EEAA405DE5ULL,  // stream/suzuki/wola/f64/0x5EED/b1000
           0xB0B98FCD10D2E4E5ULL,  // stream/suzuki/wola/f64/0x5EED/b16777221
           0x7910E63C1D820A29ULL,  // stream/suzuki/wola/f32/0x5EED/b0
           0x6DB34DD0DBD30D65ULL,  // stream/suzuki/wola/f32/0x5EED/b1000
           0xAB9CF858D1EE4419ULL,  // stream/suzuki/wola/f32/0x5EED/b16777221
           0xB120EA881933DBB5ULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b0
           0x36AF5818DF866A25ULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b1000
           0x7664E34D5CFFAFA5ULL,  // stream/suzuki-mixed/independent/f64/0x5EED/b16777221
           0x05E3A4798EC4BE2DULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b0
           0x94E03495EBAD5401ULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b1000
           0x0B0E133E7FA13E29ULL,  // stream/suzuki-mixed/independent/f32/0x5EED/b16777221
       }},
  };
  return tables;
}

/// Compares \p actual against the table of this toolchain + tier, or
/// prints the table to record and skips when there is none.
void check_against(const std::vector<TierTable>& tables,
                   const std::vector<Fingerprint>& actual) {
  const std::string tier = toolchain() + " " + clone_tier();
  const TierTable* table = nullptr;
  for (const TierTable& candidate : tables) {
    if (tier == std::string(candidate.toolchain) + " " + candidate.tier) {
      table = &candidate;
    }
  }
  if (table == nullptr) {
    std::printf("      {\"%s\", \"%s\",\n       {\n", toolchain().c_str(),
                clone_tier().c_str());
    for (const Fingerprint& f : actual) {
      std::printf("           0x%016llXULL,  // %s\n",
                  static_cast<unsigned long long>(f.hash), f.name.c_str());
    }
    std::printf("       }},\n");
    GTEST_SKIP() << "no fingerprints recorded for clone tier '" << tier
                 << "'";
  }
  ASSERT_EQ(table->hashes.size(), actual.size()) << "tier " << tier;
  for (std::size_t i = 0; i < actual.size(); ++i) {
    EXPECT_EQ(actual[i].hash, table->hashes[i])
        << actual[i].name << " (tier " << tier << ")";
  }
}

TEST(Fingerprints, OutputBitsMatchRecordedTable) {
  check_against(recorded_tables(), compute_fingerprints());
}

// --- MetricsTap accumulator state -------------------------------------------

/// Tap configuration of the accumulator fingerprints: four thresholds
/// (one deep in the fade region, one above the rms) and lags up to 100,
/// so every ring slot wraps many times within one block.
metrics::MetricsTapConfig fingerprint_tap_config(
    telemetry::Registry& registry) {
  metrics::MetricsTapConfig config;
  config.thresholds = {0.1, 0.5, 1.0, 2.0};
  config.lags = {1, 2, 5, 16, 100};
  config.publish_every_blocks = 0;
  config.registry = &registry;
  return config;
}

/// FNV-1a-64 over every accumulator cell and exact sum a tap reads out:
/// per branch, each level-crossing cell (below, crossings, longest), each
/// ACF correlation sum (lag 0 included) and the MI sum, sum of squares
/// and lag product sums.
std::uint64_t tap_fingerprint(const metrics::MetricsTap& tap) {
  std::uint64_t h = kFnvOffset;
  const auto& lcr = *tap.level_crossings();
  const auto& acf = *tap.autocorrelation();
  const auto& mi = *tap.mutual_information();
  h = fnv1a_value(tap.samples_observed(), h);
  for (std::size_t j = 0; j < tap.dimension(); ++j) {
    for (std::size_t t = 0; t < lcr.thresholds().size(); ++t) {
      const metrics::LevelCrossingStats stats = lcr.finalize(j, t);
      h = fnv1a_value(stats.samples_below, h);
      h = fnv1a_value(stats.up_crossings, h);
      h = fnv1a_value(stats.longest_fade, h);
    }
    for (const std::size_t lag : acf.lags()) {
      h = fnv1a_value(acf.correlation_sum(j, lag), h);
    }
    h = fnv1a_value(mi.sum(j), h);
    h = fnv1a_value(mi.sum_squares(j), h);
    for (const std::size_t lag : mi.lags()) {
      h = fnv1a_value(mi.lag_product_sum(j, lag), h);
    }
  }
  return h;
}

constexpr int kTapBlocks = 64;

std::vector<Fingerprint> compute_tap_fingerprints() {
  std::vector<Fingerprint> out;
  telemetry::Registry registry;

  // (a) Rayleigh overlap-save f64, N = 8, M = 1024: the tap on the
  // stream cursor, complex double blocks.
  const ChannelSpec rayleigh = ChannelSpec::Builder()
                                   .rayleigh(kms_covariance(8, 0.7, 0.3))
                                   .backend(StreamBackend::OverlapSaveFir)
                                   .idft_size(1024)
                                   .doppler(0.05)
                                   .build();
  {
    core::FadingStream stream = rayleigh.compile()->make_stream(0x7A9);
    metrics::AnalyticReference reference;
    reference.normalized_doppler = 0.05;
    reference.branch_power.assign(8, 1.0);
    reference.rayleigh = true;
    const auto tap = std::make_shared<metrics::MetricsTap>(
        reference, fingerprint_tap_config(registry));
    stream.set_metrics_tap(tap);
    for (int b = 0; b < kTapBlocks; ++b) (void)stream.next_block();
    out.push_back({"tap/rayleigh/ols/f64/n=8/m=1024", tap_fingerprint(*tap)});
  }

  // (b) Rician f32 through Session::enable_metrics: the spec-derived
  // reference, widened float blocks.
  const ChannelSpec rician = ChannelSpec::Builder()
                                 .rician(kms_covariance(5, 0.5, -0.2), 4.0)
                                 .los_doppler(0.02)
                                 .backend(StreamBackend::OverlapSaveFir)
                                 .idft_size(512)
                                 .doppler(0.05)
                                 .precision(Precision::Float32)
                                 .build();
  {
    service::ChannelService service;
    service::Session session = service.open_session(rician, 0x51C);
    const auto tap = session.enable_metrics(fingerprint_tap_config(registry));
    for (int b = 0; b < kTapBlocks; ++b) (void)session.next_block();
    out.push_back({"tap/rician/ols/f32/session", tap_fingerprint(*tap)});
  }

  // (c) The same Rician spec on a bare f32 stream cursor: the tap folds
  // the float blocks themselves.  Widening is exact, so this hash equals
  // (b)'s.
  {
    core::FadingStream stream = rician.compile()->make_stream(0x51C);
    metrics::AnalyticReference reference;
    reference.normalized_doppler = 0.05;
    reference.branch_power.assign(5, 1.0);
    const auto tap = std::make_shared<metrics::MetricsTap>(
        reference, fingerprint_tap_config(registry));
    stream.set_metrics_tap(tap);
    for (int b = 0; b < kTapBlocks; ++b) (void)stream.next_block_f32();
    out.push_back({"tap/rician/ols/f32/stream", tap_fingerprint(*tap)});
  }
  return out;
}

// Recorded before the ExactSum deposit / lag ring / level-test rewrite
// of the accumulators, and re-recorded once, on purpose, with the output
// table when the coloring GEMM became a fused multiply-add chain (the
// tapped blocks changed, not the folds).  Otherwise never re-recorded: a
// mismatch means the tap's accumulated state changed.
const std::vector<TierTable>& recorded_tap_tables() {
  static const std::vector<TierTable> tables = {
      {"gcc-12/glibc-2.36", "avx512f",
       {
           0x8B498B32436AC1C9ULL,  // tap/rayleigh/ols/f64/n=8/m=1024
           0xBB1390C27A3223BBULL,  // tap/rician/ols/f32/session
           0xBB1390C27A3223BBULL,  // tap/rician/ols/f32/stream
       }},
      {"gcc-12/glibc-2.36", "sanitized",
       {
           0x356A1A54FDD11C6DULL,  // tap/rayleigh/ols/f64/n=8/m=1024
           0xCECCAC1BB1BD5F50ULL,  // tap/rician/ols/f32/session
           0xCECCAC1BB1BD5F50ULL,  // tap/rician/ols/f32/stream
       }},
  };
  return tables;
}

TEST(Fingerprints, TapAccumulatorBitsMatchRecordedTable) {
  check_against(recorded_tap_tables(), compute_tap_fingerprints());
}

}  // namespace
