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
  return out;
}

struct TierTable {
  const char* toolchain;
  const char* tier;
  std::vector<std::uint64_t> hashes;  ///< in compute_fingerprints() order
};

// Recorded once, before the float/double kernel fold, and never
// re-recorded: a mismatch means output bits changed.  Later cases are
// appended — the cascaded f64 sessions recorded before the cascade moved
// onto the FadingStream product stage, the cascaded f32 stream after,
// and the instant sessions of every family before they became keyed
// pipeline stages of CompiledChannel.
const std::vector<TierTable>& recorded_tables() {
  static const std::vector<TierTable> tables = {
      {"gcc-12/glibc-2.36", "avx512f",
       {
           0x388DF2F6A56B5B4DULL,  // rayleigh/independent/f64/0x5EED/b0
           0x2839D1648B43BF01ULL,  // rayleigh/independent/f64/0x5EED/b1000
           0x2D50EF175351EF85ULL,  // rayleigh/independent/f64/0xF1A9E2/b0
           0xCE7DB66D9F29A775ULL,  // rayleigh/independent/f64/0xF1A9E2/b1000
           0x5F3F399BCCE175A1ULL,  // rayleigh/independent/f32/0x5EED/b0
           0x2DB5DE185136917DULL,  // rayleigh/independent/f32/0x5EED/b1000
           0x8B17E566DDD304C1ULL,  // rayleigh/independent/f32/0xF1A9E2/b0
           0xB8A497B1C35569B5ULL,  // rayleigh/independent/f32/0xF1A9E2/b1000
           0xBCF8BF14EA999225ULL,  // rayleigh/wola/f64/0x5EED/b0
           0xA7DC6789962F9AD9ULL,  // rayleigh/wola/f64/0x5EED/b1000
           0x1D30DB50162F199DULL,  // rayleigh/wola/f64/0xF1A9E2/b0
           0xB2833C7DF2DE461DULL,  // rayleigh/wola/f64/0xF1A9E2/b1000
           0xE4DEAB4BFF822D11ULL,  // rayleigh/wola/f32/0x5EED/b0
           0x608DD4B1721A49F9ULL,  // rayleigh/wola/f32/0x5EED/b1000
           0xFE711E25CAAA58A9ULL,  // rayleigh/wola/f32/0xF1A9E2/b0
           0xBCEE74D026E3D60DULL,  // rayleigh/wola/f32/0xF1A9E2/b1000
           0x6A173B0748D5D819ULL,  // rayleigh/ols/f64/0x5EED/b0
           0x8FDBC36559F884E9ULL,  // rayleigh/ols/f64/0x5EED/b1000
           0xDB08EDDFC84D35B9ULL,  // rayleigh/ols/f64/0xF1A9E2/b0
           0xE38429C449AABAB5ULL,  // rayleigh/ols/f64/0xF1A9E2/b1000
           0xDF42D4B34BA38A1DULL,  // rayleigh/ols/f32/0x5EED/b0
           0x3A63742EA959A219ULL,  // rayleigh/ols/f32/0x5EED/b1000
           0xAF2D86192C3F245DULL,  // rayleigh/ols/f32/0xF1A9E2/b0
           0xE1A9E979BF46B9F1ULL,  // rayleigh/ols/f32/0xF1A9E2/b1000
           0x1CCBABE74E941479ULL,  // rician/ols/f32/7/b3
           0x1A7B57A1633D4FFAULL,  // instant/n=64/11/b5
           0x9979990FFCF12311ULL,  // cascaded/independent/f64/0x5EED/b0
           0x7A5EA99E70DEB941ULL,  // cascaded/independent/f64/0x5EED/b1000
           0xF1277C693185C431ULL,  // cascaded/independent/f64/0xF1A9E2/b0
           0xFC6641F00BC2FC6DULL,  // cascaded/independent/f64/0xF1A9E2/b1000
           0x8C1DB807A8E83825ULL,  // cascaded/wola/f64/0x5EED/b0
           0xF2C876D35770310DULL,  // cascaded/wola/f64/0x5EED/b1000
           0x12E91A11E7EADC7DULL,  // cascaded/wola/f64/0xF1A9E2/b0
           0xB3C990446CD394F1ULL,  // cascaded/wola/f64/0xF1A9E2/b1000
           0x54DF3D54200DC659ULL,  // cascaded/ols/f64/0x5EED/b0
           0x2B2C3D0002F40E51ULL,  // cascaded/ols/f64/0x5EED/b1000
           0x87D7C75A0BA8380DULL,  // cascaded/ols/f64/0xF1A9E2/b0
           0xF195B0F542D85825ULL,  // cascaded/ols/f64/0xF1A9E2/b1000
           0x7A07636C1CF7D539ULL,  // cascaded/ols/f32/0x5EED/b1000
           0x2891CBFBA39FA1D5ULL,  // instant/twdp/0x5EED/b0
           0x3479FABC3A725771ULL,  // instant/twdp/0x5EED/b1000
           0xD874F9A03C38FF95ULL,  // instant/twdp/0xF1A9E2/b0
           0x25BBE0E51E487871ULL,  // instant/twdp/0xF1A9E2/b1000
           0x0C68385D4B792695ULL,  // instant/cascaded/0x5EED/b0
           0x157DFAE8E8A38819ULL,  // instant/cascaded/0x5EED/b1000
           0x9AB16A29125A25A5ULL,  // instant/cascaded/0xF1A9E2/b0
           0x15793BED950A8D25ULL,  // instant/cascaded/0xF1A9E2/b1000
           0x7042C361380A4505ULL,  // instant/suzuki/0x5EED/b0
           0x132D490233BA25A5ULL,  // instant/suzuki/0x5EED/b1000
           0xE3E2092258D789D5ULL,  // instant/suzuki/0xF1A9E2/b0
           0xA83490C8AF5F1C35ULL,  // instant/suzuki/0xF1A9E2/b1000
           0x840F622C25BF94ADULL,  // instant/rician/0x5EED/b1000
           0xC342B911FD8845D5ULL,  // instant/rayleigh-mean/0x5EED/b1000
           0x2132E7C01B22DF95ULL,  // instant/twdp-delta0/0x5EED/b1000
           0xE78EE9C30A8EA2E5ULL,  // instant/copula/0x5EED/b1000
       }},
      {"gcc-12/glibc-2.36", "sanitized",
       {
           0x388DF2F6A56B5B4DULL,  // rayleigh/independent/f64/0x5EED/b0
           0x2839D1648B43BF01ULL,  // rayleigh/independent/f64/0x5EED/b1000
           0x2D50EF175351EF85ULL,  // rayleigh/independent/f64/0xF1A9E2/b0
           0xCE7DB66D9F29A775ULL,  // rayleigh/independent/f64/0xF1A9E2/b1000
           0x5F3F399BCCE175A1ULL,  // rayleigh/independent/f32/0x5EED/b0
           0x2DB5DE185136917DULL,  // rayleigh/independent/f32/0x5EED/b1000
           0x8B17E566DDD304C1ULL,  // rayleigh/independent/f32/0xF1A9E2/b0
           0xB8A497B1C35569B5ULL,  // rayleigh/independent/f32/0xF1A9E2/b1000
           0xBCF8BF14EA999225ULL,  // rayleigh/wola/f64/0x5EED/b0
           0xA7DC6789962F9AD9ULL,  // rayleigh/wola/f64/0x5EED/b1000
           0x1D30DB50162F199DULL,  // rayleigh/wola/f64/0xF1A9E2/b0
           0xB2833C7DF2DE461DULL,  // rayleigh/wola/f64/0xF1A9E2/b1000
           0xE4DEAB4BFF822D11ULL,  // rayleigh/wola/f32/0x5EED/b0
           0x608DD4B1721A49F9ULL,  // rayleigh/wola/f32/0x5EED/b1000
           0xFE711E25CAAA58A9ULL,  // rayleigh/wola/f32/0xF1A9E2/b0
           0xBCEE74D026E3D60DULL,  // rayleigh/wola/f32/0xF1A9E2/b1000
           0x05D8391785787889ULL,  // rayleigh/ols/f64/0x5EED/b0
           0xC873AA85F966A525ULL,  // rayleigh/ols/f64/0x5EED/b1000
           0x757BCA347C5CF401ULL,  // rayleigh/ols/f64/0xF1A9E2/b0
           0x91B5D7100A835C55ULL,  // rayleigh/ols/f64/0xF1A9E2/b1000
           0xB430F251F4C9FE85ULL,  // rayleigh/ols/f32/0x5EED/b0
           0x4F15ED395362D221ULL,  // rayleigh/ols/f32/0x5EED/b1000
           0x71D2C40C5C355051ULL,  // rayleigh/ols/f32/0xF1A9E2/b0
           0xC800D9EE787CB6D5ULL,  // rayleigh/ols/f32/0xF1A9E2/b1000
           0x2D2ACD11BB3DC985ULL,  // rician/ols/f32/7/b3
           0x7052AFD4BC38D59BULL,  // instant/n=64/11/b5
           0x9979990FFCF12311ULL,  // cascaded/independent/f64/0x5EED/b0
           0x7A5EA99E70DEB941ULL,  // cascaded/independent/f64/0x5EED/b1000
           0xF1277C693185C431ULL,  // cascaded/independent/f64/0xF1A9E2/b0
           0xFC6641F00BC2FC6DULL,  // cascaded/independent/f64/0xF1A9E2/b1000
           0x8C1DB807A8E83825ULL,  // cascaded/wola/f64/0x5EED/b0
           0xF2C876D35770310DULL,  // cascaded/wola/f64/0x5EED/b1000
           0x12E91A11E7EADC7DULL,  // cascaded/wola/f64/0xF1A9E2/b0
           0xB3C990446CD394F1ULL,  // cascaded/wola/f64/0xF1A9E2/b1000
           0x4498D1BC766D6F21ULL,  // cascaded/ols/f64/0x5EED/b0
           0x3D125F6273BA50D5ULL,  // cascaded/ols/f64/0x5EED/b1000
           0x1900BA8E6F079C69ULL,  // cascaded/ols/f64/0xF1A9E2/b0
           0x3417EE40A3AA93E5ULL,  // cascaded/ols/f64/0xF1A9E2/b1000
           0x0B082B0763F3FA95ULL,  // cascaded/ols/f32/0x5EED/b1000
           0xDAA4739915D55669ULL,  // instant/twdp/0x5EED/b0
           0x91B2442C6356E5F5ULL,  // instant/twdp/0x5EED/b1000
           0xE95B194FC14D1FD1ULL,  // instant/twdp/0xF1A9E2/b0
           0x88234FC0F2801EE5ULL,  // instant/twdp/0xF1A9E2/b1000
           0x69DA4932C744C165ULL,  // instant/cascaded/0x5EED/b0
           0x409D51289DFA120DULL,  // instant/cascaded/0x5EED/b1000
           0xB44D4313BEDDC3FDULL,  // instant/cascaded/0xF1A9E2/b0
           0x82A8654A3AA1C0C9ULL,  // instant/cascaded/0xF1A9E2/b1000
           0x16A371F3EDB14E59ULL,  // instant/suzuki/0x5EED/b0
           0xE5971AE339180D7DULL,  // instant/suzuki/0x5EED/b1000
           0xF485F6B1A7079D11ULL,  // instant/suzuki/0xF1A9E2/b0
           0x81BB8B6F4E059481ULL,  // instant/suzuki/0xF1A9E2/b1000
           0xE4D2D25ED246C275ULL,  // instant/rician/0x5EED/b1000
           0xADBCFD7A88E99DC9ULL,  // instant/rayleigh-mean/0x5EED/b1000
           0xF6BA90E71C51BC81ULL,  // instant/twdp-delta0/0x5EED/b1000
           0xB4A0C42062D95DE9ULL,  // instant/copula/0x5EED/b1000
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
// of the accumulators, and never re-recorded: a mismatch means the tap's
// accumulated state changed.
const std::vector<TierTable>& recorded_tap_tables() {
  static const std::vector<TierTable> tables = {
      {"gcc-12/glibc-2.36", "avx512f",
       {
           0x607E7DC25A0089FFULL,  // tap/rayleigh/ols/f64/n=8/m=1024
           0x9BA95A5582629EEEULL,  // tap/rician/ols/f32/session
           0x9BA95A5582629EEEULL,  // tap/rician/ols/f32/stream
       }},
      {"gcc-12/glibc-2.36", "sanitized",
       {
           0x09ABABF68F3D4730ULL,  // tap/rayleigh/ols/f64/n=8/m=1024
           0x3C26FAA9DC9F6AACULL,  // tap/rician/ols/f32/session
           0x3C26FAA9DC9F6AACULL,  // tap/rician/ols/f32/stream
       }},
  };
  return tables;
}

TEST(Fingerprints, TapAccumulatorBitsMatchRecordedTable) {
  check_against(recorded_tap_tables(), compute_tap_fingerprints());
}

}  // namespace
