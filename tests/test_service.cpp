// Tests for the serving layer: ChannelSpec canonical hashing and typed
// rejections, PlanCache hit/miss/eviction/collision behaviour, Session
// bit-identity against the keyed stream/instant engines (including
// interleaved cursor/seek/keyed walks), the batcher and its preconditions,
// keyed access concurrent with cursor pulls, sharded accumulator merges,
// and the legacy-wrapper equivalences.

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/scenario/composite/suzuki.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"
#include "rfade/service/accumulators.hpp"
#include "rfade/service/channel_service.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/service/plan_cache.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using numeric::cdouble;
using numeric::CMatrix;
using service::ChannelSpec;
using service::ChannelService;
using service::CompiledChannel;
using service::EmissionMode;
using service::FadingFamily;
using service::MarginalSpec;
using service::PlanCache;
using service::Session;

CMatrix paper_covariance() {
  return channel::spectral_covariance_matrix(
      channel::paper_spectral_scenario());
}

bool bit_equal(const CMatrix& a, const CMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return false;
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a.data()[i] != b.data()[i]) {
      return false;
    }
  }
  return true;
}

// --- error taxonomy ---------------------------------------------------------

TEST(ErrorTaxonomy, MachineReadableCodes) {
  EXPECT_EQ(ContractViolation("c").code(), ErrorCode::ContractViolation);
  EXPECT_EQ(DimensionError("d").code(), ErrorCode::DimensionMismatch);
  EXPECT_EQ(ValueError("v").code(), ErrorCode::DomainError);
  EXPECT_EQ(ConvergenceError("c").code(), ErrorCode::ConvergenceFailure);
  EXPECT_EQ(NotPositiveDefiniteError("n").code(),
            ErrorCode::NotPositiveDefinite);
  EXPECT_EQ(InvalidSpecError("i").code(), ErrorCode::InvalidSpec);
  EXPECT_EQ(UnsupportedOperationError("u").code(),
            ErrorCode::UnsupportedOperation);
  EXPECT_EQ(Error("e").code(), ErrorCode::Unknown);
  EXPECT_STREQ(InvalidSpecError("i").code_name(), "invalid_spec");
  EXPECT_STREQ(ContractViolation("c").code_name(), "contract_violation");
  EXPECT_STREQ(error_code_name(ErrorCode::UnsupportedOperation),
               "unsupported_operation");
}

TEST(ErrorTaxonomy, SpecErrorsDeriveFromError) {
  EXPECT_THROW(throw InvalidSpecError("i"), Error);
  EXPECT_THROW(throw UnsupportedOperationError("u"), Error);
}

// --- ChannelSpec ------------------------------------------------------------

TEST(ChannelSpec, HashStableAcrossBuilderOrderings) {
  const CMatrix k = paper_covariance();
  const ChannelSpec a = ChannelSpec::Builder()
                            .rician(k, 3.0, 0.25)
                            .doppler(0.08)
                            .idft_size(512)
                            .backend(doppler::StreamBackend::OverlapSaveFir)
                            .build();
  const ChannelSpec b = ChannelSpec::Builder()
                            .backend(doppler::StreamBackend::OverlapSaveFir)
                            .idft_size(512)
                            .doppler(0.08)
                            .rician(k, 3.0, 0.25)
                            .build();
  EXPECT_EQ(a.content_hash(), b.content_hash());
  EXPECT_TRUE(a == b);
  EXPECT_EQ(a.family(), FadingFamily::Rician);
  EXPECT_EQ(a.dimension(), 3u);
}

TEST(ChannelSpec, CanonicalizationCollapsesDegenerateSpecs) {
  const CMatrix k = paper_covariance();
  // All-K-zero Rician IS the Rayleigh core.
  const ChannelSpec rayleigh = ChannelSpec::Builder().rayleigh(k).build();
  const ChannelSpec zero_k = ChannelSpec::Builder().rician(k, 0.0).build();
  EXPECT_EQ(zero_k.family(), FadingFamily::Rayleigh);
  EXPECT_EQ(zero_k.content_hash(), rayleigh.content_hash());
  EXPECT_TRUE(zero_k == rayleigh);

  // An all-zero constant mean is no mean.
  const ChannelSpec zero_mean =
      ChannelSpec::Builder()
          .rayleigh(k)
          .constant_mean(numeric::CVector(3, cdouble(0.0, 0.0)))
          .build();
  EXPECT_EQ(zero_mean.content_hash(), rayleigh.content_hash());

  // Stream-only knobs are inert under instant emission.
  const ChannelSpec instant_a = ChannelSpec::Builder()
                                    .rayleigh(k)
                                    .instant()
                                    .doppler(0.2)
                                    .idft_size(1024)
                                    .build();
  const ChannelSpec instant_b =
      ChannelSpec::Builder().rayleigh(k).instant().build();
  EXPECT_EQ(instant_a.content_hash(), instant_b.content_hash());
  EXPECT_TRUE(instant_a == instant_b);
}

TEST(ChannelSpec, HashSeparatesDistinctScenarios) {
  const CMatrix k = paper_covariance();
  const auto base = ChannelSpec::Builder().rayleigh(k).build();
  const auto faster = ChannelSpec::Builder().rayleigh(k).doppler(0.1).build();
  const auto rician = ChannelSpec::Builder().rician(k, 2.0).build();
  EXPECT_NE(base.content_hash(), faster.content_hash());
  EXPECT_NE(base.content_hash(), rician.content_hash());
  EXPECT_FALSE(base == faster);
}

TEST(ChannelSpec, TypedSpecRejections) {
  const CMatrix k = paper_covariance();
  // No family picked.
  EXPECT_THROW((void)ChannelSpec::Builder().doppler(0.1).build(),
               InvalidSpecError);
  // Branch-count mismatch.
  EXPECT_THROW((void)ChannelSpec::Builder()
                   .rician(k, {scenario::RicianBranch{1.0, 0.0}})
                   .build(),
               InvalidSpecError);
  // TWDP Delta out of [0, 1].
  EXPECT_THROW((void)ChannelSpec::Builder().twdp(k, 2.0, 1.5).build(),
               InvalidSpecError);
  // Stream Doppler out of (0, 0.5).
  EXPECT_THROW((void)ChannelSpec::Builder().rayleigh(k).doppler(0.6).build(),
               InvalidSpecError);
  // Copula cannot stream.
  numeric::RMatrix target(2, 2);
  target(0, 0) = target(1, 1) = 1.0;
  target(0, 1) = target(1, 0) = 0.4;
  EXPECT_THROW((void)ChannelSpec::Builder()
                   .copula(target, {MarginalSpec::nakagami(2.0, 1.0),
                                    MarginalSpec::rayleigh(1.0)})
                   .streaming()
                   .build(),
               InvalidSpecError);
  // Copula marginal domain violations.
  EXPECT_THROW((void)ChannelSpec::Builder()
                   .copula(target, {MarginalSpec::nakagami(0.2, 1.0),
                                    MarginalSpec::rayleigh(1.0)})
                   .build(),
               InvalidSpecError);
  // Deep numeric validation stays with the compile layers.
  EXPECT_THROW(
      (void)ChannelSpec::Builder().rayleigh(CMatrix(2, 3)).build().compile(),
      ContractViolation);
}

// --- PlanCache --------------------------------------------------------------

TEST(PlanCache, HitMissEvictionCounters) {
  const CMatrix k = paper_covariance();
  PlanCache cache(2);
  const auto spec_a = ChannelSpec::Builder().rayleigh(k).build();
  const auto spec_b = ChannelSpec::Builder().rayleigh(k).doppler(0.1).build();
  const auto spec_c = ChannelSpec::Builder().rayleigh(k).doppler(0.2).build();

  const auto a1 = cache.get_or_compile(spec_a);  // miss
  const auto a2 = cache.get_or_compile(spec_a);  // hit, same bundle
  EXPECT_EQ(a1.get(), a2.get());
  const auto b1 = cache.get_or_compile(spec_b);  // miss, size 2
  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);

  // A touches spec_a, so spec_b is LRU and must be the eviction victim.
  (void)cache.get_or_compile(spec_a);
  (void)cache.get_or_compile(spec_c);  // miss + eviction of spec_b
  stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_NE(cache.peek(spec_a), nullptr);
  EXPECT_EQ(cache.peek(spec_b), nullptr);
  EXPECT_NE(cache.peek(spec_c), nullptr);

  // Evicted bundles stay valid for holders.
  EXPECT_EQ(b1->dimension(), 3u);
  EXPECT_THROW(PlanCache(0), ContractViolation);
}

TEST(PlanCache, ConcurrentSameSpecSharesOneBundle) {
  const CMatrix k = paper_covariance();
  PlanCache cache(4);
  const auto spec = ChannelSpec::Builder().rayleigh(k).build();
  std::vector<std::future<std::shared_ptr<const CompiledChannel>>> futures;
  futures.reserve(8);
  for (int i = 0; i < 8; ++i) {
    futures.push_back(std::async(std::launch::async,
                                 [&] { return cache.get_or_compile(spec); }));
  }
  std::vector<std::shared_ptr<const CompiledChannel>> bundles;
  bundles.reserve(8);
  for (auto& f : futures) {
    bundles.push_back(f.get());
  }
  // All callers got content-equal bundles, and the cache settled on one.
  for (const auto& bundle : bundles) {
    EXPECT_TRUE(bundle->spec() == spec);
  }
  EXPECT_EQ(cache.stats().size, 1u);
  EXPECT_EQ(cache.peek(spec)->content_hash(), spec.content_hash());
}

// --- Session bit-identity ---------------------------------------------------

TEST(Session, StreamWalkMatchesKeyedFadingStreamAllBackends) {
  const CMatrix k = paper_covariance();
  for (const auto backend : {doppler::StreamBackend::IndependentBlock,
                             doppler::StreamBackend::WindowedOverlapAdd,
                             doppler::StreamBackend::OverlapSaveFir}) {
    const ChannelSpec spec = ChannelSpec::Builder()
                                 .rayleigh(k)
                                 .backend(backend)
                                 .idft_size(256)
                                 .doppler(0.05)
                                 .build();
    ChannelService svc;
    Session session = svc.open_session(spec, /*seed=*/42);

    // The reference: a hand-assembled stateful FadingStream on the same
    // plan and options.
    const auto channel = svc.compile(spec);
    core::FadingStream reference(channel->plan(),
                                 channel->stream_options(42));
    for (int i = 0; i < 3; ++i) {
      EXPECT_TRUE(bit_equal(session.next_block(), reference.next_block()));
    }
    // seek() matches the keyed path at an arbitrary index.
    session.seek(7);
    EXPECT_EQ(session.next_block_index(), 7u);
    EXPECT_TRUE(
        bit_equal(session.next_block(), reference.generate_block(42, 7)));
    EXPECT_EQ(session.block_size(), channel->block_size());
  }
}

TEST(CompiledChannel, StreamsShareOneDopplerDesign) {
  // make_stream hands every stream the compiled channel's one immutable
  // backend design instead of rebuilding it per session open; the
  // StreamWalk tests above pin that the output bits are those of a
  // freshly designed stream.
  const CMatrix k = paper_covariance();
  scenario::composite::ShadowingSpec shadowing;
  shadowing.sigma_db = 3.0;
  shadowing.decorrelation_samples = 256.0;
  for (const ChannelSpec& spec :
       {ChannelSpec::Builder().rayleigh(k).idft_size(256).build(),
        ChannelSpec::Builder().suzuki(k, shadowing).idft_size(256).build(),
        ChannelSpec::Builder().twdp(k, 5.0, 0.6).idft_size(256).build()}) {
    const auto channel = CompiledChannel::create(spec);
    const core::FadingStream a = channel->make_stream(1);
    const core::FadingStream b = channel->make_stream(2);
    EXPECT_EQ(&a.design(), &b.design());
  }
  // A design that does not match the options is rejected.
  const auto channel =
      CompiledChannel::create(ChannelSpec::Builder().rayleigh(k).build());
  core::FadingStreamOptions options = channel->stream_options(3);
  const auto design = std::make_shared<const doppler::BranchSourceDesign>(
      options.backend, options.idft_size, options.normalized_doppler,
      options.input_variance_per_dim, options.overlap);
  EXPECT_NO_THROW(core::FadingStream(channel->plan(), options, design));
  options.normalized_doppler *= 0.5;
  EXPECT_THROW(core::FadingStream(channel->plan(), options, design),
               ContractViolation);
}

TEST(Session, RicianAndSuzukiStreamsMatchTheirEngines) {
  const CMatrix k = paper_covariance();
  ChannelService svc;

  const ChannelSpec rician = ChannelSpec::Builder()
                                 .rician(k, 4.0, 0.3)
                                 .los_doppler(0.02)
                                 .idft_size(256)
                                 .build();
  Session rician_session = svc.open_session(rician, 9);
  core::FadingStream rician_reference(
      svc.compile(rician)->plan(), svc.compile(rician)->stream_options(9));
  EXPECT_TRUE(
      bit_equal(rician_session.next_block(), rician_reference.next_block()));

  scenario::composite::ShadowingSpec shadowing;
  shadowing.sigma_db = 3.0;
  shadowing.decorrelation_samples = 256.0;
  const ChannelSpec suzuki =
      ChannelSpec::Builder().suzuki(k, shadowing).idft_size(256).build();
  Session suzuki_session = svc.open_session(suzuki, 11);
  core::FadingStream suzuki_reference =
      svc.compile(suzuki)->make_stream(11);
  EXPECT_TRUE(
      bit_equal(suzuki_session.next_block(), suzuki_reference.next_block()));
}

TEST(Session, CascadedStreamIsTheProductOfItsStageStreams) {
  const CMatrix k = paper_covariance();
  const ChannelSpec spec = ChannelSpec::Builder()
                               .cascaded(k, k)
                               .idft_size(256)
                               .doppler(0.05)
                               .second_doppler(0.02)
                               .build();
  ChannelService svc;
  Session session = svc.open_session(spec, 5);
  const auto channel = svc.compile(spec);
  // Stage s is a plain stream on the stage-s plan and Doppler, keyed by
  // stage_seed(5, s); the session block is their elementwise product.
  core::FadingStreamOptions first = channel->stream_options(5);
  first.seed = core::FadingStream::stage_seed(5, 0);
  core::FadingStreamOptions second = first;
  second.normalized_doppler = 0.02;
  second.seed = core::FadingStream::stage_seed(5, 1);
  const core::FadingStream stage1(channel->plan(), first);
  const core::FadingStream stage2(channel->second_plan(), second);
  for (std::uint64_t b = 0; b < 2; ++b) {
    CMatrix expected = stage1.generate_block(first.seed, b);
    numeric::multiply_elementwise(expected,
                                  stage2.generate_block(second.seed, b));
    EXPECT_TRUE(bit_equal(session.next_block(), expected));
  }
}

/// Interleaved walk over one session: cursor pulls, lazy seeks forward,
/// backward, to the current index and to 0, an envelope pull, and keyed
/// random access between pulls.  Every step must equal \p keyed(b).
template <typename KeyedFn>
void expect_walk_matches_keyed(Session& session, KeyedFn keyed,
                               const std::string& label) {
  auto pull = [&](std::uint64_t expected_index) {
    ASSERT_EQ(session.next_block_index(), expected_index) << label;
    EXPECT_TRUE(bit_equal(session.next_block(), keyed(expected_index)))
        << label << " block " << expected_index;
  };
  pull(0);
  pull(1);
  session.seek(6);  // forward
  pull(6);
  // Keyed access between pulls neither moves nor disturbs the cursor.
  EXPECT_TRUE(bit_equal(session.generate_block(2), keyed(2))) << label;
  EXPECT_EQ(session.next_block_index(), 7u) << label;
  pull(7);
  session.seek(3);  // backward
  session.seek(9);  // repeated seeks are free: only the last one counts
  session.seek(3);
  pull(3);
  session.seek(4);  // to the index the cursor already holds
  pull(4);
  session.seek(0);
  pull(0);
  const numeric::RMatrix envelopes = session.next_envelope_block();
  const CMatrix expected = keyed(1);
  ASSERT_EQ(envelopes.size(), expected.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(envelopes.data()[i], std::abs(expected.data()[i])) << label;
  }
  pull(2);
}

TEST(Session, InterleavedWalkMatchesKeyedEveryBackendAndPrecision) {
  const CMatrix k = paper_covariance();
  ChannelService svc;
  for (const auto precision :
       {core::Precision::Float64, core::Precision::Float32}) {
    for (const auto backend : {doppler::StreamBackend::IndependentBlock,
                               doppler::StreamBackend::WindowedOverlapAdd,
                               doppler::StreamBackend::OverlapSaveFir}) {
      const ChannelSpec spec = ChannelSpec::Builder()
                                   .rayleigh(k)
                                   .backend(backend)
                                   .precision(precision)
                                   .idft_size(256)
                                   .doppler(0.05)
                                   .build();
      Session session = svc.open_session(spec, 42);
      const core::FadingStream reference = svc.compile(spec)->make_stream(42);
      expect_walk_matches_keyed(
          session,
          [&](std::uint64_t b) { return reference.generate_block(42, b); },
          std::string(doppler::stream_backend_name(backend)) + " " +
              core::precision_name(precision));
    }
  }
}

TEST(Session, InterleavedWalkMatchesKeyedScenarioFamilies) {
  const CMatrix k = paper_covariance();
  ChannelService svc;
  scenario::composite::ShadowingSpec shadowing;
  shadowing.sigma_db = 3.0;
  shadowing.decorrelation_samples = 256.0;
  const std::vector<std::pair<std::string, ChannelSpec>> specs{
      {"rician", ChannelSpec::Builder()
                     .rician(k, 4.0, 0.3)
                     .los_doppler(0.02)
                     .backend(doppler::StreamBackend::OverlapSaveFir)
                     .idft_size(256)
                     .build()},
      {"suzuki", ChannelSpec::Builder()
                     .suzuki(k, shadowing)
                     .backend(doppler::StreamBackend::WindowedOverlapAdd)
                     .idft_size(256)
                     .build()},
      {"twdp", ChannelSpec::Builder()
                   .twdp(k, 5.0, 0.6)
                   .wave_dopplers(0.01, -0.02)
                   .precision(core::Precision::Float32)
                   .idft_size(256)
                   .build()},
      {"cascaded", ChannelSpec::Builder()
                       .cascaded(k, k)
                       .backend(doppler::StreamBackend::WindowedOverlapAdd)
                       .idft_size(256)
                       .doppler(0.05)
                       .second_doppler(0.02)
                       .build()}};
  for (const auto& [label, spec] : specs) {
    Session session = svc.open_session(spec, 9);
    const core::FadingStream reference = svc.compile(spec)->make_stream(9);
    expect_walk_matches_keyed(
        session,
        [&](std::uint64_t b) { return reference.generate_block(9, b); },
        label);
  }
}

TEST(Session, OutOfRangeSeekFailsOnThePullAndLeavesTheCursor) {
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(paper_covariance())
                               .backend(doppler::StreamBackend::OverlapSaveFir)
                               .idft_size(256)
                               .build();
  ChannelService svc;
  Session session = svc.open_session(spec, 3);
  const std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t last = kMax / session.block_size();
  session.seek(kMax);  // noexcept: the range check runs on the pull
  try {
    (void)session.next_block();
    ADD_FAILURE() << "pull past the 64-bit instant range did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::ContractViolation);
  }
  EXPECT_EQ(session.next_block_index(), kMax);
  session.seek(last);
  EXPECT_TRUE(bit_equal(session.next_block(), session.generate_block(last)));
  EXPECT_THROW((void)session.next_block(), ContractViolation);
  EXPECT_THROW((void)session.generate_block(last + 1), ContractViolation);
  session.seek(0);
  EXPECT_TRUE(bit_equal(session.next_block(), session.generate_block(0)));
}

TEST(Session, InstantWalkMatchesKeyedPipelines) {
  const CMatrix k = paper_covariance();
  ChannelService svc;

  const ChannelSpec rayleigh =
      ChannelSpec::Builder().rayleigh(k).instant().block_size(64).build();
  Session session = svc.open_session(rayleigh, 3);
  const auto channel = svc.compile(rayleigh);
  EXPECT_TRUE(bit_equal(session.next_block(),
                        channel->pipeline().sample_block(64, 3, 0)));
  session.seek(12);
  EXPECT_TRUE(bit_equal(session.next_block(),
                        channel->pipeline().sample_block(64, 3, 12)));

  const ChannelSpec twdp = ChannelSpec::Builder()
                               .twdp(k, 5.0, 0.6)
                               .instant()
                               .block_size(64)
                               .build();
  Session twdp_session = svc.open_session(twdp, 21);
  EXPECT_TRUE(bit_equal(twdp_session.next_block(),
                        svc.compile(twdp)->instant_block(64, 21, 0)));
}

TEST(Session, CopulaChannelsAreEnvelopeOnly) {
  numeric::RMatrix target(2, 2);
  target(0, 0) = target(1, 1) = 1.0;
  target(0, 1) = target(1, 0) = 0.5;
  const ChannelSpec spec =
      ChannelSpec::Builder()
          .copula(target, {MarginalSpec::nakagami(2.0, 1.5),
                           MarginalSpec::weibull(2.5, 1.0)})
          .block_size(32)
          .laguerre_terms(48)
          .quadrature_panels(512)
          .build();
  ChannelService svc;
  Session session = svc.open_session(spec, 17);
  EXPECT_TRUE(session.channel().envelope_only());
  EXPECT_THROW((void)session.next_block(), UnsupportedOperationError);
  const numeric::RMatrix envelopes = session.next_envelope_block();
  EXPECT_EQ(envelopes.rows(), 32u);
  EXPECT_EQ(envelopes.cols(), 2u);
  const numeric::RMatrix keyed =
      svc.compile(spec)->copula_transform().sample_envelope_block(32, 17, 0);
  for (std::size_t i = 0; i < keyed.size(); ++i) {
    EXPECT_EQ(envelopes.data()[i], keyed.data()[i]);
  }
}

// --- concurrency + batching -------------------------------------------------

TEST(ChannelService, ConcurrentSharedPlanSessionsMatchIsolatedSessions) {
  const CMatrix k = paper_covariance();
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(k)
                               .backend(doppler::StreamBackend::OverlapSaveFir)
                               .idft_size(256)
                               .build();
  ChannelService svc;
  constexpr int kTenants = 6;
  constexpr std::uint64_t kBlocks = 3;

  // Shared-plan tenants, all pulling concurrently.
  std::vector<Session> shared;
  shared.reserve(kTenants);
  const auto channel = svc.compile(spec);
  for (int t = 0; t < kTenants; ++t) {
    shared.push_back(ChannelService::open_session(channel, 1000 + t));
  }
  std::vector<std::vector<CMatrix>> concurrent(kTenants);
  {
    std::vector<std::thread> threads;
    threads.reserve(kTenants);
    for (int t = 0; t < kTenants; ++t) {
      threads.emplace_back([&, t] {
        for (std::uint64_t b = 0; b < kBlocks; ++b) {
          concurrent[t].push_back(shared[t].generate_block(b));
        }
      });
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }

  // Isolated tenants: each on its own freshly-compiled channel,
  // walking sequentially.
  for (int t = 0; t < kTenants; ++t) {
    Session isolated(spec.compile(), 1000 + t);
    for (std::uint64_t b = 0; b < kBlocks; ++b) {
      EXPECT_TRUE(bit_equal(concurrent[t][b], isolated.next_block()));
    }
  }
  // One compile served every shared tenant.
  EXPECT_EQ(svc.cache_stats().misses, 1u);
}

TEST(ChannelService, BatcherIsBitIdenticalToSequentialPulls) {
  const CMatrix k = paper_covariance();
  const ChannelSpec stream_spec =
      ChannelSpec::Builder().rayleigh(k).idft_size(256).build();
  const ChannelSpec instant_spec =
      ChannelSpec::Builder().rician(k, 2.0).instant().block_size(48).build();
  ChannelService svc;

  std::vector<Session> batched;
  batched.push_back(svc.open_session(stream_spec, 1));
  batched.push_back(svc.open_session(instant_spec, 2));
  batched.push_back(svc.open_session(stream_spec, 3));
  std::vector<Session*> pointers{&batched[0], &batched[1], &batched[2]};

  std::vector<Session> sequential;
  sequential.push_back(svc.open_session(stream_spec, 1));
  sequential.push_back(svc.open_session(instant_spec, 2));
  sequential.push_back(svc.open_session(stream_spec, 3));

  for (int round = 0; round < 2; ++round) {
    const auto blocks = ChannelService::pull_blocks(pointers);
    ASSERT_EQ(blocks.size(), 3u);
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_TRUE(bit_equal(blocks[i], sequential[i].next_block()));
      EXPECT_EQ(batched[i].next_block_index(),
                sequential[i].next_block_index());
    }
  }

  // Explicit request list: mixed sessions, repeated indices.
  const std::vector<service::BlockRequest> requests{
      {&batched[0], 5}, {&batched[1], 0}, {&batched[0], 5}};
  const auto blocks = ChannelService::generate_blocks(requests);
  EXPECT_TRUE(bit_equal(blocks[0], batched[0].generate_block(5)));
  EXPECT_TRUE(bit_equal(blocks[2], blocks[0]));
}

TEST(ChannelService, PullBlocksMatchesSequentialPullsAfterMixedSeeks) {
  const CMatrix k = paper_covariance();
  ChannelService svc;
  const std::vector<ChannelSpec> specs{
      ChannelSpec::Builder()
          .rayleigh(k)
          .backend(doppler::StreamBackend::OverlapSaveFir)
          .idft_size(256)
          .build(),
      ChannelSpec::Builder()
          .rayleigh(k)
          .backend(doppler::StreamBackend::WindowedOverlapAdd)
          .precision(core::Precision::Float32)
          .idft_size(256)
          .build(),
      ChannelSpec::Builder().cascaded(k, k).idft_size(256).build(),
      ChannelSpec::Builder().rician(k, 2.0).instant().block_size(48).build()};

  std::vector<Session> batched;
  std::vector<Session> sequential;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    batched.push_back(svc.open_session(specs[i], 100 + i));
    sequential.push_back(svc.open_session(specs[i], 100 + i));
  }
  std::vector<Session*> pointers;
  for (Session& session : batched) {
    pointers.push_back(&session);
  }
  // Per-round seeks: forward, backward, same index, none.
  const std::vector<std::vector<std::pair<std::size_t, std::uint64_t>>>
      seeks{{}, {{0, 5}, {2, 9}}, {{0, 1}, {1, 2}, {3, 7}}, {{2, 10}}, {}};
  for (const auto& round : seeks) {
    for (const auto& [i, index] : round) {
      batched[i].seek(index);
      sequential[i].seek(index);
    }
    const auto blocks = ChannelService::pull_blocks(pointers);
    ASSERT_EQ(blocks.size(), specs.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::uint64_t index = sequential[i].next_block_index();
      const CMatrix expected = sequential[i].next_block();
      EXPECT_TRUE(bit_equal(blocks[i], expected)) << "session " << i;
      EXPECT_TRUE(bit_equal(blocks[i], batched[i].generate_block(index)))
          << "session " << i;
      EXPECT_EQ(batched[i].next_block_index(),
                sequential[i].next_block_index());
    }
  }
}

TEST(ChannelService, PullBlocksRejectsRepeatedSessionsBeforeAnyPull) {
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(paper_covariance())
                               .idft_size(256)
                               .build();
  ChannelService svc;
  Session a = svc.open_session(spec, 1);
  Session b = svc.open_session(spec, 2);
  a.seek(4);
  for (const std::vector<Session*>& pointers :
       {std::vector<Session*>{&a, &b, &a}, std::vector<Session*>{&b, &b},
        std::vector<Session*>{&a, nullptr}}) {
    try {
      (void)ChannelService::pull_blocks(pointers);
      ADD_FAILURE() << "pull_blocks accepted an invalid session list";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::ContractViolation);
    }
    EXPECT_EQ(a.next_block_index(), 4u);
    EXPECT_EQ(b.next_block_index(), 0u);
  }
  EXPECT_TRUE(ChannelService::pull_blocks({}).empty());
  const auto blocks = ChannelService::pull_blocks({&a, &b});
  EXPECT_TRUE(bit_equal(blocks[0], a.generate_block(4)));
  EXPECT_TRUE(bit_equal(blocks[1], b.generate_block(0)));
}

TEST(ChannelService, KeyedAccessIsSafeWhileTheOwnerPulls) {
  const CMatrix k = paper_covariance();
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(k)
                               .backend(doppler::StreamBackend::OverlapSaveFir)
                               .idft_size(256)
                               .build();
  const ChannelSpec wola = ChannelSpec::Builder()
                               .rayleigh(k)
                               .backend(doppler::StreamBackend::WindowedOverlapAdd)
                               .idft_size(256)
                               .build();
  ChannelService svc;
  Session owned = svc.open_session(spec, 77);
  Session other = svc.open_session(wola, 78);
  constexpr std::uint64_t kRounds = 6;

  // Another thread reads owned's keyed path while this thread sweeps
  // pull_blocks over it: the keyed path must not touch cursor state.
  std::vector<CMatrix> keyed(kRounds);
  std::future<void> reader = std::async(std::launch::async, [&] {
    for (std::uint64_t b = kRounds; b-- > 0;) {
      keyed[b] = owned.generate_block(b);
    }
  });
  std::vector<CMatrix> pulled;
  for (std::uint64_t round = 0; round < kRounds; ++round) {
    auto blocks = ChannelService::pull_blocks({&owned, &other});
    pulled.push_back(std::move(blocks[0]));
  }
  reader.get();

  const core::FadingStream reference = svc.compile(spec)->make_stream(77);
  for (std::uint64_t b = 0; b < kRounds; ++b) {
    const CMatrix expected = reference.generate_block(77, b);
    EXPECT_TRUE(bit_equal(pulled[b], expected)) << "block " << b;
    EXPECT_TRUE(bit_equal(keyed[b], expected)) << "block " << b;
  }
}

TEST(ChannelService, TwoShardAccumulatorMergeEqualsSingleRun) {
  const CMatrix k = paper_covariance();
  const ChannelSpec spec = ChannelSpec::Builder()
                               .rayleigh(k)
                               .backend(doppler::StreamBackend::OverlapSaveFir)
                               .idft_size(256)
                               .build();
  ChannelService svc;
  Session session = svc.open_session(spec, 1234);
  constexpr std::uint64_t kBlocks = 4;

  service::EnvelopeMomentAccumulator single_moments(3);
  service::ComplexCovarianceAccumulator single_covariance(3);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    const CMatrix block = session.generate_block(b);
    single_moments.accumulate(block);
    single_covariance.accumulate(block);
  }

  // Shards split the block range and run through *separate* sessions on
  // the same (spec, seed): the keyed contract makes them the same blocks.
  service::EnvelopeMomentAccumulator moments_a(3);
  service::EnvelopeMomentAccumulator moments_b(3);
  service::ComplexCovarianceAccumulator covariance_a(3);
  service::ComplexCovarianceAccumulator covariance_b(3);
  Session shard_a = svc.open_session(spec, 1234);
  Session shard_b = svc.open_session(spec, 1234);
  for (std::uint64_t b = 0; b < kBlocks / 2; ++b) {
    const CMatrix block = shard_a.generate_block(b);
    moments_a.accumulate(block);
    covariance_a.accumulate(block);
  }
  for (std::uint64_t b = kBlocks / 2; b < kBlocks; ++b) {
    const CMatrix block = shard_b.generate_block(b);
    moments_b.accumulate(block);
    covariance_b.accumulate(block);
  }
  moments_a.merge(moments_b);
  covariance_a.merge(covariance_b);

  for (std::size_t j = 0; j < 3; ++j) {
    const auto merged = moments_a.finalize(j);
    const auto direct = single_moments.finalize(j);
    EXPECT_EQ(merged.mean, direct.mean);
    EXPECT_EQ(merged.second_moment, direct.second_moment);
    EXPECT_EQ(merged.fourth_moment, direct.fourth_moment);
    EXPECT_EQ(merged.variance, direct.variance);
    EXPECT_EQ(merged.amount_of_fading, direct.amount_of_fading);
  }
  const CMatrix merged_cov = covariance_a.finalize();
  const CMatrix direct_cov = single_covariance.finalize();
  EXPECT_TRUE(bit_equal(merged_cov, direct_cov));
}

}  // namespace
