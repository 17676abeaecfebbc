// Tests for the unified streaming layer (doppler/branch_source.hpp +
// core/fading_stream.hpp): bit-identity of the independent-block cursor
// with the caller-rng Sec. 5 block, keyed/cursor/seek equivalence for
// every backend, seam continuity of the autocorrelation for the
// windowed-overlap-add and overlap-save backends (and the demonstrable
// seam failure of independent blocks that motivates them), variance,
// covariance and marginal preservation, the TWDP mean stage and the
// cascaded product stage, and option contract rejection.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <limits>
#include <string>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/doppler/branch_source.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"
#include "rfade/special/bessel.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/stats/distributions.hpp"
#include "rfade/stats/ks_test.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using core::FadingStream;
using core::FadingStreamOptions;
using doppler::StreamBackend;
using numeric::cdouble;
using numeric::CMatrix;
using numeric::CVector;

constexpr double kTwoPi = 6.283185307179586476925286766559;

CMatrix paper_k() {
  return channel::spectral_covariance_matrix(
      channel::paper_spectral_scenario());
}

/// One-branch (N = 1, unit power) stream options: the colored output is
/// u / sigma_g itself, so trace statistics probe the backend directly.
FadingStreamOptions scalar_options(StreamBackend backend, std::size_t m,
                                   double fm, std::size_t overlap) {
  FadingStreamOptions options;
  options.backend = backend;
  options.idft_size = m;
  options.normalized_doppler = fm;
  options.overlap = backend == StreamBackend::WindowedOverlapAdd ? overlap : 0;
  options.seed = 0x5EA11;
  return options;
}

/// Concatenate `blocks` consecutive blocks of a one-branch stream.
CVector collect_trace(FadingStream& stream, std::size_t blocks) {
  CVector trace;
  trace.reserve(blocks * stream.block_size());
  for (std::size_t b = 0; b < blocks; ++b) {
    const CMatrix block = stream.next_block();
    for (std::size_t l = 0; l < block.rows(); ++l) {
      trace.push_back(block(l, 0));
    }
  }
  return trace;
}

double trace_power(const CVector& y) {
  double power = 0.0;
  for (const cdouble& v : y) {
    power += std::norm(v);
  }
  return power / static_cast<double>(y.size());
}

/// Whole-trace normalised autocorrelation at one lag (direct sum — cheap
/// for a handful of lags, no FFT length constraints).
double acf_at(const CVector& y, std::size_t d) {
  cdouble sum{};
  for (std::size_t t = 0; t + d < y.size(); ++t) {
    sum += y[t] * std::conj(y[t + d]);
  }
  return sum.real() /
         (static_cast<double>(y.size() - d) * trace_power(y));
}

/// Seam-restricted normalised autocorrelation: only pairs (t, t+d) that
/// straddle a block boundary (multiples of \p block_size) contribute, so
/// the estimate isolates exactly the cross-seam correlation the
/// independent-block backend destroys.
double seam_acf(const CVector& y, std::size_t block_size, std::size_t d) {
  cdouble sum{};
  std::size_t pairs = 0;
  for (std::size_t boundary = block_size; boundary + d < y.size();
       boundary += block_size) {
    for (std::size_t t = boundary - std::min(boundary, d); t < boundary;
         ++t) {
      sum += y[t] * std::conj(y[t + d]);
      ++pairs;
    }
  }
  return sum.real() / (static_cast<double>(pairs) * trace_power(y));
}

// --- bit-identity with the Sec. 5 generator ---------------------------------

TEST(FadingStream, IndependentBackendBitIdenticalToCallerRngBlocks) {
  const auto plan = core::ColoringPlan::create(paper_k());

  FadingStreamOptions streaming;
  streaming.idft_size = 512;
  streaming.normalized_doppler = 0.05;
  streaming.seed = 0xB17;
  FadingStream stream(plan, streaming);
  const FadingStream generator(plan, streaming);

  // The stream's block b is the Sec. 5 block drawn from the per-block
  // substream (seed, b + 1) — the keying the cascaded stages have always
  // used, so the anchor is the historical bit pattern.
  for (std::uint64_t b = 0; b < 3; ++b) {
    random::Rng rng(0xB17, b + 1);
    const CMatrix expected = generator.generate_block_from(rng, b * 512);
    EXPECT_EQ(stream.next_block(), expected) << "block " << b;
    EXPECT_EQ(stream.generate_block(0xB17, b), expected) << "block " << b;
  }
}

// --- keyed / cursor / seek equivalence --------------------------------------

TEST(FadingStream, KeyedBlocksEqualCursorAndSurviveSeeks) {
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options =
        scalar_options(backend, 128, 0.1, /*overlap=*/32);
    FadingStream cursor(CMatrix::identity(1), options);
    FadingStream keyed(CMatrix::identity(1), options);
    FadingStream seeker(CMatrix::identity(1), options);

    std::vector<CMatrix> blocks;
    for (std::uint64_t b = 0; b < 5; ++b) {
      blocks.push_back(cursor.next_block());
    }
    for (std::uint64_t b = 0; b < 5; ++b) {
      EXPECT_EQ(keyed.generate_block(options.seed, b), blocks[b])
          << doppler::stream_backend_name(backend) << " block " << b;
    }
    // Seeking backward and forward reproduces the same realisation,
    // including stateful backends (history replay).
    seeker.seek(3);
    EXPECT_EQ(seeker.next_block(), blocks[3])
        << doppler::stream_backend_name(backend);
    seeker.seek(1);
    EXPECT_EQ(seeker.next_block(), blocks[1])
        << doppler::stream_backend_name(backend);
    EXPECT_EQ(seeker.next_block(), blocks[2])
        << doppler::stream_backend_name(backend);
    EXPECT_EQ(seeker.next_block_index(), 3u);
  }
}

// --- 64-bit instant range at extreme block indices --------------------------

TEST(FadingStream, BlockIndexOverflowIsAContractViolation) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  for (const core::Precision precision :
       {core::Precision::Float64, core::Precision::Float32}) {
    for (const StreamBackend backend :
         {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
          StreamBackend::OverlapSaveFir}) {
      FadingStreamOptions options =
          scalar_options(backend, 128, 0.1, /*overlap=*/32);
      options.precision = precision;
      FadingStream cursor(CMatrix::identity(1), options);
      const FadingStream keyed(CMatrix::identity(1), options);
      const std::uint64_t m = cursor.block_size();
      // The last block whose every row instant fits in 64 bits; for a
      // power-of-two block size that is exactly UINT64_MAX / M.
      const std::uint64_t last = (kMax - (m - 1)) / m;
      if ((m & (m - 1)) == 0) {
        EXPECT_EQ(last, kMax / m);
      }
      const std::string label = std::string(doppler::stream_backend_name(
                                    backend)) +
                                " " + core::precision_name(precision);

      EXPECT_THROW((void)keyed.generate_block(options.seed, last + 1),
                   ContractViolation)
          << label;
      EXPECT_THROW((void)keyed.generate_block(options.seed, kMax),
                   ContractViolation)
          << label;
      if (precision == core::Precision::Float32) {
        EXPECT_THROW((void)keyed.generate_block_f32(options.seed, last + 1),
                     ContractViolation)
            << label;
      }

      // A rejected seek leaves the cursor (and its carried state) alone.
      cursor.seek(last - 1);
      EXPECT_THROW(cursor.seek(last + 1), ContractViolation) << label;
      EXPECT_EQ(cursor.next_block_index(), last - 1) << label;

      // Just below the limit and at it: cursor == keyed, then the cursor
      // refuses to step past the range instead of wrapping to instant 0.
      EXPECT_EQ(cursor.next_block(), keyed.generate_block(options.seed,
                                                          last - 1))
          << label;
      EXPECT_EQ(cursor.next_block(), keyed.generate_block(options.seed, last))
          << label;
      EXPECT_THROW((void)cursor.next_instant(), ContractViolation) << label;
      EXPECT_THROW((void)cursor.next_block(), ContractViolation) << label;
      if (precision == core::Precision::Float32) {
        EXPECT_THROW((void)cursor.next_block_f32(), ContractViolation)
            << label;
      }
      EXPECT_EQ(cursor.next_block_index(), last + 1) << label;

      // Seeking back into range recovers the realisation.
      cursor.seek(last);
      EXPECT_EQ(cursor.next_block(), keyed.generate_block(options.seed, last))
          << label;
    }
  }
}

TEST(FadingStream, ParallelAndSerialBranchesBitIdentical) {
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions parallel;
    parallel.backend = backend;
    parallel.idft_size = 128;
    parallel.normalized_doppler = 0.1;
    parallel.seed = 0x9A;
    FadingStreamOptions serial = parallel;
    serial.parallel_branches = false;

    FadingStream a(paper_k(), parallel);
    FadingStream b(paper_k(), serial);
    for (int block = 0; block < 3; ++block) {
      EXPECT_EQ(a.next_block(), b.next_block())
          << doppler::stream_backend_name(backend);
    }
  }
}

// --- variance / covariance preservation -------------------------------------

TEST(FadingStream, AllBackendsPreserveVarianceAndCovariance) {
  // The Eq. (19) normalisation must hold for every backend: WOLA's
  // crossfade is equal-power, and the overlap-save FIR's output variance
  // equals sigma_g^2 by Parseval — so the colored lag-0 covariance is the
  // desired K in all three cases.
  const CMatrix k = paper_k();
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options;
    options.backend = backend;
    options.idft_size = 512;
    options.normalized_doppler = 0.08;
    options.overlap =
        backend == StreamBackend::WindowedOverlapAdd ? 64 : 0;
    options.seed = 0xC0;
    FadingStream stream(k, options);
    EXPECT_DOUBLE_EQ(stream.assumed_variance(),
                     stream.branch_output_variance());

    stats::CovarianceAccumulator acc(3);
    CVector z(3);
    for (int b = 0; b < 120; ++b) {
      const CMatrix block = stream.next_block();
      for (std::size_t l = 0; l < block.rows(); ++l) {
        for (std::size_t j = 0; j < 3; ++j) {
          z[j] = block(l, j);
        }
        acc.add(z);
      }
    }
    EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.06)
        << doppler::stream_backend_name(backend);
  }
}

// --- seam continuity ---------------------------------------------------------

TEST(FadingStream, ContinuousBackendsKeepJ0AcrossSeams) {
  // The satellite claim: estimated over a trace spanning many block
  // boundaries — including the seam-restricted estimator, whose every
  // pair crosses a boundary — the autocorrelation matches J0(2 pi fm d)
  // within the same 0.1 tolerance as the within-block tests
  // (RealTime.BranchAutocorrelationTracksJ0), for both continuous
  // backends.
  const double fm = 0.05;
  const std::size_t m = 512;
  for (const StreamBackend backend :
       {StreamBackend::WindowedOverlapAdd, StreamBackend::OverlapSaveFir}) {
    FadingStream stream(CMatrix::identity(1),
                        scalar_options(backend, m, fm, /*overlap=*/128));
    const std::size_t bs = stream.block_size();
    const CVector trace = collect_trace(stream, 1200);

    EXPECT_NEAR(trace_power(trace), 1.0, 0.05)
        << doppler::stream_backend_name(backend);
    for (const std::size_t d : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 60u}) {
      const double j0 = special::bessel_j0(kTwoPi * fm * double(d));
      EXPECT_NEAR(acf_at(trace, d), j0, 0.1)
          << doppler::stream_backend_name(backend) << " whole-trace lag "
          << d;
      EXPECT_NEAR(seam_acf(trace, bs, d), j0, 0.1)
          << doppler::stream_backend_name(backend) << " seam lag " << d;
    }
  }
}

TEST(FadingStream, IndependentBackendFailsAtTheSeam) {
  // Regression-protects the motivation: concatenated independent blocks
  // have *zero* correlation across a boundary, so the seam-restricted
  // estimate misses J0 by far more than the tolerance the continuous
  // backends meet.  (The within-block law still holds — that is what the
  // historical tests check.)
  const double fm = 0.05;
  const std::size_t m = 512;
  FadingStream stream(
      CMatrix::identity(1),
      scalar_options(StreamBackend::IndependentBlock, m, fm, 0));
  const CVector trace = collect_trace(stream, 1200);
  for (const std::size_t d : {1u, 2u, 3u, 4u}) {
    const double j0 = special::bessel_j0(kTwoPi * fm * double(d));
    EXPECT_GT(std::abs(seam_acf(trace, m, d) - j0), 0.1) << "lag " << d;
  }
  EXPECT_GT(std::abs(seam_acf(trace, m, 1) -
                     special::bessel_j0(kTwoPi * fm)),
            0.5);
}

TEST(FadingStream, OverlapSaveIsStationaryAcrossManyBoundaries) {
  // Sharper than the J0 match: the overlap-save process is *exactly*
  // stationary, so the seam-restricted estimate agrees with the
  // whole-trace one (up to Monte-Carlo noise) at every lag — here over a
  // trace of 1200 blocks, i.e. pairs crossing over a thousand seams.
  const double fm = 0.08;
  const std::size_t m = 256;
  FadingStream stream(
      CMatrix::identity(1),
      scalar_options(StreamBackend::OverlapSaveFir, m, fm, 0));
  const CVector trace = collect_trace(stream, 1200);
  for (const std::size_t d : {1u, 4u, 16u, 48u}) {
    EXPECT_NEAR(seam_acf(trace, m, d), acf_at(trace, d), 0.06)
        << "lag " << d;
  }
}

/// Equicorrelated K (unit diagonal, rho off-diagonal) of dimension n.
CMatrix equicorrelated(std::size_t n, double rho) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        k(i, j) = cdouble(rho, 0.0);
      }
    }
  }
  return k;
}

/// The stateful cursor (the batched planar sweep on the overlap-save
/// backend) must reproduce the keyed generate_block path (always the
/// per-branch sources) bit for bit — in order, and after seeks, which
/// also reset the batch's cached input windows.
void expect_cursor_matches_keyed(const CMatrix& k,
                                 const FadingStreamOptions& options) {
  FadingStream cursor(k, options);
  const FadingStream keyed(k, options);
  const std::string label = std::string(doppler::stream_backend_name(
                                options.backend)) +
                            " " + core::precision_name(options.precision) +
                            " N=" + std::to_string(k.rows());
  const auto expect_block = [&](std::uint64_t b) {
    if (options.precision == core::Precision::Float32) {
      EXPECT_EQ(cursor.next_block_f32(),
                keyed.generate_block_f32(options.seed, b))
          << label << " block " << b;
    } else {
      EXPECT_EQ(cursor.next_block(), keyed.generate_block(options.seed, b))
          << label << " block " << b;
    }
  };
  for (std::uint64_t b = 0; b < 4; ++b) {
    expect_block(b);
  }
  cursor.seek(1);
  expect_block(1);
  cursor.seek(6);
  expect_block(6);
}

TEST(FadingStream, BatchedCursorBitIdenticalToKeyedForEveryBackend) {
  FadingStreamOptions options;
  options.idft_size = 64;
  options.normalized_doppler = 0.1;
  options.seed = 0xBA7C;
  // N = 3 on every backend: a partial lane group on overlap-save, and a
  // pure cursor-vs-keyed identity on the others.
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    options.backend = backend;
    options.overlap = backend == StreamBackend::WindowedOverlapAdd ? 16 : 0;
    expect_cursor_matches_keyed(paper_k(), options);
  }
  // Overlap-save N = 10: one full 8-lane double group plus a 2-lane tail.
  options.backend = StreamBackend::OverlapSaveFir;
  options.overlap = 0;
  options.seed = 0xBA7D;
  expect_cursor_matches_keyed(equicorrelated(10, 0.3), options);
  // Float32 N = 17: one full 16-lane float group plus a 1-lane tail.
  options.precision = core::Precision::Float32;
  expect_cursor_matches_keyed(equicorrelated(17, 0.3), options);
}

TEST(FadingStream, BatchedCursorBitIdenticalToKeyedAtServingShapes) {
  // The shapes the serving workloads run: overlap-save M = 4096, N = 16
  // in double (two full 8-lane groups of 8192-point transforms), and
  // M = 1024, N = 4 / 8 in float (one partial group each, on narrower
  // vectors than a full 16-lane group).  The keyed path convolves each
  // branch through the single interleaved transform, the cursor through
  // the planar batch.
  FadingStreamOptions options;
  options.backend = StreamBackend::OverlapSaveFir;
  options.normalized_doppler = 0.05;
  options.idft_size = 4096;
  options.seed = 0x5E7E;
  expect_cursor_matches_keyed(equicorrelated(16, 0.3), options);
  options.idft_size = 1024;
  options.precision = core::Precision::Float32;
  for (const std::size_t n : {4u, 8u}) {
    expect_cursor_matches_keyed(equicorrelated(n, 0.3), options);
  }
}

TEST(FadingStream, NonPowerOfTwoOverlapSaveKeyedEqualsCursorAndSeek) {
  // M = 12 makes 2M = 24 non-power-of-two: the overlap-save fallback runs
  // the design's preallocated Bluestein plan (the batched sweep opts
  // out), and the keyed / cursor / seek equivalence must hold exactly as
  // on the radix-2 path.
  FadingStreamOptions options =
      scalar_options(StreamBackend::OverlapSaveFir, 12, 0.1, 0);
  FadingStream cursor(CMatrix::identity(1), options);
  FadingStream keyed(CMatrix::identity(1), options);
  FadingStream seeker(CMatrix::identity(1), options);

  std::vector<CMatrix> blocks;
  for (std::uint64_t b = 0; b < 5; ++b) {
    blocks.push_back(cursor.next_block());
  }
  for (std::uint64_t b = 0; b < 5; ++b) {
    EXPECT_EQ(keyed.generate_block(options.seed, b), blocks[b])
        << "block " << b;
  }
  seeker.seek(4);
  EXPECT_EQ(seeker.next_block(), blocks[4]);
  seeker.seek(0);
  EXPECT_EQ(seeker.next_block(), blocks[0]);
  EXPECT_EQ(seeker.next_block(), blocks[1]);
}

TEST(FadingStream, SeekableBulkFillsAgreeOnOverlap) {
  // The seekable bulk substream underlying the overlap-save inputs:
  // sample t consumes counter block t regardless of the window asked
  // for, so overlapping windows agree bit-for-bit.
  std::vector<double> re_full(256), im_full(256);
  random::fill_complex_gaussians_planar(0xF00, 7, 1.3, 256, re_full.data(),
                                        im_full.data());
  std::vector<double> re_part(96), im_part(96);
  random::fill_complex_gaussians_planar(0xF00, 7, 1.3, /*first_sample=*/100,
                                        96, re_part.data(), im_part.data());
  for (std::size_t t = 0; t < 96; ++t) {
    EXPECT_EQ(re_part[t], re_full[100 + t]) << "t=" << t;
    EXPECT_EQ(im_part[t], im_full[100 + t]) << "t=" << t;
  }
}

// --- contracts ---------------------------------------------------------------

TEST(FadingStream, RejectsInvalidOptions) {
  const CMatrix k = CMatrix::identity(2);
  FadingStreamOptions bad;

  // WOLA overlap out of range (the M/2 bound keeps at most two blocks
  // alive per output sample).
  bad.backend = StreamBackend::WindowedOverlapAdd;
  bad.idft_size = 64;
  bad.normalized_doppler = 0.1;
  bad.overlap = 32;
  EXPECT_THROW((void)FadingStream(k, bad), ContractViolation);

  // Overlap is meaningless on the other backends — reject early rather
  // than silently ignore.
  bad = {};
  bad.overlap = 16;
  EXPECT_THROW((void)FadingStream(k, bad), ContractViolation);
  bad.backend = StreamBackend::OverlapSaveFir;
  EXPECT_THROW((void)FadingStream(k, bad), ContractViolation);

  // Doppler/filter contracts surface at construction for every backend.
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options;
    options.backend = backend;
    options.normalized_doppler = 0.9;  // above Nyquist
    EXPECT_THROW((void)FadingStream(k, options), ContractViolation);
    options = {};
    options.backend = backend;
    options.idft_size = 4;  // below the minimum IDFT size
    EXPECT_THROW((void)FadingStream(k, options), ContractViolation);
    options = {};
    options.backend = backend;
    options.input_variance_per_dim = 0.0;
    EXPECT_THROW((void)FadingStream(k, options), ContractViolation);
  }

  // Caller-rng blocks exist only for the independent-block backend.
  FadingStreamOptions continuous;
  continuous.backend = StreamBackend::OverlapSaveFir;
  continuous.idft_size = 64;
  continuous.normalized_doppler = 0.1;
  FadingStream stream(k, continuous);
  random::Rng rng(1);
  EXPECT_THROW((void)stream.generate_block_from(rng), ContractViolation);
}

// --- windowed overlap-add ----------------------------------------------------

TEST(FadingStream, WolaFirstChunkMatchesBranchBlock) {
  // The WOLA source's first M - overlap samples are the head of the
  // first Fig. 2 block, bit-for-bit: the crossfade only starts blending
  // once a second block exists.
  const doppler::BranchSourceDesign design(
      StreamBackend::WindowedOverlapAdd, 512, 0.05, 0.5, 64);
  const auto source = design.make_source(0);
  random::Rng rng_source(0x11F);
  random::Rng rng_branch(0x11F);
  const doppler::IdftRayleighBranch branch(512, 0.05, 0.5);
  source->advance(rng_source, 0);
  CVector chunk(design.block_size());
  source->fill(chunk);
  const CVector block = branch.generate_block(rng_branch);
  ASSERT_EQ(chunk.size(), 448u);
  for (std::size_t l = 0; l < 448; ++l) {
    EXPECT_EQ(chunk[l], block[l]) << "l=" << l;
  }
  EXPECT_EQ(design.continuity_horizon(), 64u);
}

TEST(FadingStream, WolaMarginalStaysRayleigh) {
  // The equal-power crossfade of independent Gaussian blocks stays
  // Gaussian, so the envelope stays Rayleigh with the Eq. (19) power.
  FadingStream stream(CMatrix::identity(1),
                      scalar_options(StreamBackend::WindowedOverlapAdd, 256,
                                     0.1, /*overlap=*/16));
  // Decimate to roughly independent samples (one per block).
  numeric::RVector samples;
  for (int b = 0; b < 3000; ++b) {
    samples.push_back(std::abs(stream.next_block()(0, 0)));
  }
  const auto rayleigh = stats::RayleighDistribution::from_gaussian_power(1.0);
  const auto ks =
      stats::ks_test(samples, [&](double r) { return rayleigh.cdf(r); });
  EXPECT_GT(ks.p_value, 1e-3);
}

TEST(FadingStream, WolaEmitsNoRepeatedSamplesAtSeams) {
  // No sample is emitted twice around a block boundary (the
  // double-emission bug guard): consecutive outputs are never
  // bit-identical.
  FadingStream stream(CMatrix::identity(1),
                      scalar_options(StreamBackend::WindowedOverlapAdd, 64,
                                     0.1, /*overlap=*/8));
  const CVector trace = collect_trace(stream, 6);
  std::size_t identical_neighbors = 0;
  for (std::size_t i = 1; i < trace.size(); ++i) {
    identical_neighbors += trace[i] == trace[i - 1] ? 1u : 0u;
  }
  EXPECT_EQ(identical_neighbors, 0u);
}

// --- TWDP on the stream layer ------------------------------------------------

TEST(TwdpStream, WaveTrajectoriesContinuousAcrossBlocks) {
  const CMatrix k = paper_k();
  const auto plan = core::ColoringPlan::create(k);
  const scenario::TwdpSpec spec = scenario::TwdpSpec::uniform(k, 3.0, 0.6);
  const double f1 = 0.04;
  const double f2 = -0.025;

  FadingStreamOptions options;
  options.backend = StreamBackend::OverlapSaveFir;
  options.idft_size = 256;
  options.normalized_doppler = 0.08;
  options.seed = 0xA1;

  FadingStream plain(plan, options);
  FadingStream twdp =
      scenario::twdp_fading_stream(plan, spec, f1, f2, options);
  const scenario::TwdpSpec::SpecularWaves waves = spec.specular_waves(*plan);

  // The diffuse bits are untouched; row l of block b is shifted by the
  // wave pair at the *absolute* instant 256 b + l, so the deterministic
  // trajectories never restart at a block seam.
  for (int b = 0; b < 2; ++b) {
    const CMatrix z0 = plain.next_block();
    const CMatrix z1 = twdp.next_block();
    for (std::size_t l = 0; l < z0.rows(); ++l) {
      const double instant = double(b) * 256.0 + double(l);
      const cdouble rot1 =
          std::polar(1.0, kTwoPi * std::fmod(f1 * instant, 1.0));
      const cdouble rot2 =
          std::polar(1.0, kTwoPi * std::fmod(f2 * instant, 1.0));
      for (std::size_t j = 0; j < z0.cols(); ++j) {
        const cdouble expected =
            z0(l, j) + waves.first[j] * rot1 + waves.second[j] * rot2;
        EXPECT_NEAR(std::abs(z1(l, j) - expected), 0.0, 1e-12)
            << "b=" << b << " l=" << l << " j=" << j;
      }
    }
  }
}

TEST(TwdpStream, RayleighSpecIsBitIdenticalToPlainStream) {
  const CMatrix k = paper_k();
  const auto plan = core::ColoringPlan::create(k);
  const scenario::TwdpSpec spec = scenario::TwdpSpec::uniform(k, 0.0, 0.9);

  FadingStreamOptions options;
  options.backend = StreamBackend::WindowedOverlapAdd;
  options.idft_size = 256;
  options.normalized_doppler = 0.08;
  options.overlap = 32;
  options.seed = 0xA2;

  FadingStream plain(plan, options);
  FadingStream twdp =
      scenario::twdp_fading_stream(plan, spec, 0.01, 0.02, options);
  for (int b = 0; b < 3; ++b) {
    EXPECT_EQ(twdp.next_block(), plain.next_block()) << "block " << b;
  }

  // And a mismatched plan is rejected up front.
  const auto wrong_plan = core::ColoringPlan::create(CMatrix::identity(5));
  EXPECT_THROW((void)scenario::twdp_fading_stream(wrong_plan, spec, 0.01,
                                                  0.02, options),
               ContractViolation);
}

// --- the cascaded product stage ----------------------------------------------

/// A cascaded product stream over stage covariances \p k1, \p k2.
FadingStream cascaded_stream(const CMatrix& k1, const CMatrix& k2,
                             double second_doppler,
                             const FadingStreamOptions& options) {
  return scenario::cascaded_fading_stream(core::ColoringPlan::create(k1),
                                          core::ColoringPlan::create(k2),
                                          second_doppler, options);
}

TEST(CascadedStream, NextBlockMatchesKeyedBlocks) {
  FadingStreamOptions options;
  options.idft_size = 256;
  options.normalized_doppler = 0.06;
  options.backend = StreamBackend::OverlapSaveFir;
  options.seed = 0xCA5;
  FadingStream gen =
      cascaded_stream(paper_k(), CMatrix::identity(3), 0.13, options);

  for (std::uint64_t b = 0; b < 3; ++b) {
    EXPECT_EQ(gen.next_block(), gen.generate_block(0xCA5, b))
        << "block " << b;
  }
  gen.seek(1);
  EXPECT_EQ(gen.next_block(), gen.generate_block(0xCA5, 1));
}

TEST(CascadedStream, ContinuousProductKeepsTheAkkiHaberLawAcrossSeams) {
  // Mobile-to-mobile continuity: with overlap-save stages, the *product*
  // process keeps the rho1(d) rho2(d) law across block boundaries — the
  // seam-restricted estimate matches the analytic product, which the
  // independent-block cascade zeroes at every seam.
  FadingStreamOptions options;
  options.idft_size = 256;
  options.normalized_doppler = 0.05;
  options.backend = StreamBackend::OverlapSaveFir;
  options.seed = 0x17;
  FadingStream gen =
      cascaded_stream(CMatrix::identity(1), CMatrix::identity(1), 0.11,
                      options);

  CVector trace;
  trace.reserve(1000 * 256);
  for (int b = 0; b < 1000; ++b) {
    const CMatrix block = gen.next_block();
    for (std::size_t l = 0; l < block.rows(); ++l) {
      trace.push_back(block(l, 0));
    }
  }
  const numeric::RVector rho =
      scenario::cascaded_normalized_autocorrelation(gen, 4);
  for (const std::size_t d : {1u, 2u, 3u, 4u}) {
    EXPECT_NEAR(seam_acf(trace, 256, d), rho[d], 0.15) << "lag " << d;
  }
}

TEST(CascadedStream, Float32KeyedEqualsCursorAndSeek) {
  // The product stage runs in the stream's own precision: the float
  // cursor, a float seek and the float keyed path give the same bits on
  // every backend, and the product's seed is the one both stage keys
  // derive from.
  CMatrix k2 = CMatrix::identity(3);
  k2(0, 0) = k2(1, 1) = k2(2, 2) = cdouble(2.0, 0.0);
  for (const StreamBackend backend :
       {StreamBackend::IndependentBlock, StreamBackend::WindowedOverlapAdd,
        StreamBackend::OverlapSaveFir}) {
    FadingStreamOptions options =
        scalar_options(backend, 128, 0.06, /*overlap=*/16);
    options.precision = core::Precision::Float32;
    FadingStream cursor =
        cascaded_stream(paper_k(), k2, 0.13, options);
    FadingStream seeker =
        cascaded_stream(paper_k(), k2, 0.13, options);
    EXPECT_EQ(cursor.seed(), options.seed);
    ASSERT_NE(cursor.second_stage(), nullptr);
    EXPECT_EQ(cursor.second_stage()->seed(),
              scenario::CascadedRayleighGenerator::stage_seed(options.seed,
                                                              1));

    std::vector<numeric::CMatrixF> blocks;
    for (std::uint64_t b = 0; b < 4; ++b) {
      blocks.push_back(cursor.next_block_f32());
      EXPECT_EQ(blocks.back(), cursor.generate_block_f32(options.seed, b))
          << doppler::stream_backend_name(backend) << " block " << b;
    }
    for (const std::uint64_t b : {2ull, 0ull, 3ull, 1ull}) {
      seeker.seek(b);
      EXPECT_EQ(seeker.next_block_f32(), blocks[b])
          << doppler::stream_backend_name(backend) << " seek " << b;
    }
  }
}

}  // namespace
