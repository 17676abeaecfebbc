// Tests for the shared plan layer (plan.hpp): ColoringPlan reuse across
// generators is bit-identical to the per-class construction paths, blocked
// draws agree with per-sample draws bit-for-bit, the bulk batched paths are
// deterministic and thread-count/order independent, and the blocked GEMM
// kernels reproduce the naive reference products exactly (this file is
// compiled with -ffp-contract=off so the scalar reference is unfused).

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "rfade/channel/spectral.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/core/fading_stream.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/philox.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/service/channel_spec.hpp"
#include "rfade/stats/covariance.hpp"
#include "rfade/support/error.hpp"
#include "rfade/support/parallel.hpp"

namespace {

using namespace rfade;
using core::ColoringPlan;
using core::SamplePipeline;
using numeric::cdouble;
using numeric::CMatrix;

CMatrix paper_k() {
  return channel::spectral_covariance_matrix(channel::paper_spectral_scenario());
}

CMatrix tridiagonal_covariance(std::size_t n) {
  CMatrix k = CMatrix::identity(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    k(i, i + 1) = cdouble(0.4, 0.2);
    k(i + 1, i) = cdouble(0.4, -0.2);
  }
  return k;
}

CMatrix random_matrix(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  random::Rng rng(seed);
  CMatrix a(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      a(i, j) = rng.complex_gaussian(1.0);
    }
  }
  return a;
}

TEST(ColoringPlan, SharedAcrossGeneratorsBitIdentical) {
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);

  // One plan, three consumers: the compiled instant channel's pipeline,
  // a fresh plan and plan reuse must produce the same bits with the same
  // seed.
  const auto channel =
      service::ChannelSpec::Builder().rayleigh(k).instant().build().compile();
  const SamplePipeline& from_matrix = channel->pipeline();
  const SamplePipeline from_plan(ColoringPlan::create(k));
  const SamplePipeline pipeline(plan);

  EXPECT_LT(numeric::max_abs_diff(from_matrix.plan().coloring_matrix(),
                                  from_plan.plan().coloring_matrix()),
            1e-300);
  random::Rng a(42);
  random::Rng b(42);
  random::Rng c(42);
  for (int i = 0; i < 50; ++i) {
    const auto za = from_matrix.sample(a);
    const auto zb = from_plan.sample(b);
    const auto zc = pipeline.sample(c);
    for (std::size_t j = 0; j < k.rows(); ++j) {
      EXPECT_EQ(za[j], zb[j]);
      EXPECT_EQ(za[j], zc[j]);
    }
  }
}

TEST(ColoringPlan, MatchesHandRolledSeedPath) {
  // The seed code's per-draw loop (streaming matvec over L), reproduced
  // verbatim, must match SamplePipeline::sample_into bit-for-bit.
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);
  const SamplePipeline pipeline(plan);
  const std::size_t n = plan->dimension();
  const CMatrix& l = plan->coloring_matrix();

  random::Rng rng_new(7);
  random::Rng rng_old(7);
  numeric::CVector z_new(n);
  for (int t = 0; t < 100; ++t) {
    pipeline.sample_into(rng_new, z_new);
    numeric::CVector z_old(n, cdouble{});
    for (std::size_t j = 0; j < n; ++j) {
      const cdouble w = rng_old.complex_gaussian(1.0);
      const cdouble scaled = w * 1.0;
      for (std::size_t i = 0; i < n; ++i) {
        z_old[i] += l(i, j) * scaled;
      }
    }
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(z_new[j], z_old[j]);
    }
  }
}

TEST(ColoringPlan, RealTimeSharedPlanBitIdentical) {
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);
  core::FadingStreamOptions options;
  options.idft_size = 256;
  options.normalized_doppler = 0.05;
  const core::FadingStream from_matrix(k, options);
  const core::FadingStream from_plan(plan, options);
  EXPECT_EQ(from_matrix.plan()->coloring_matrix(),
            from_plan.plan()->coloring_matrix());

  random::Rng a(11);
  random::Rng b(11);
  const CMatrix block_a = from_matrix.generate_block_from(a);
  const CMatrix block_b = from_plan.generate_block_from(b);
  EXPECT_EQ(block_a, block_b);
}

TEST(ColoringPlan, RealTimeMatchesHandRolledColoring) {
  // The seed real-time generator colored with a per-instant triple loop;
  // the stream's blocked coloring must reproduce it bit-for-bit.
  const CMatrix k = paper_k();
  core::FadingStreamOptions options;
  options.idft_size = 128;
  options.parallel_branches = true;
  const core::FadingStream gen(k, options);
  const std::size_t n = gen.dimension();
  const std::size_t m = gen.block_size();
  const CMatrix& l = gen.plan()->coloring_matrix();

  random::Rng rng_new(13);
  random::Rng rng_old(13);
  const CMatrix block_new = gen.generate_block_from(rng_new);

  CMatrix branch_outputs(n, m);
  for (std::size_t j = 0; j < n; ++j) {
    const numeric::CVector u = gen.branch().generate_block(rng_old);
    for (std::size_t t = 0; t < m; ++t) {
      branch_outputs(j, t) = u[t];
    }
  }
  const double inv_sigma = 1.0 / std::sqrt(gen.assumed_variance());
  CMatrix block_old(m, n, cdouble{});
  for (std::size_t t = 0; t < m; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      const cdouble w = branch_outputs(j, t) * inv_sigma;
      for (std::size_t i = 0; i < n; ++i) {
        block_old(t, i) += l(i, j) * w;
      }
    }
  }
  EXPECT_EQ(block_new, block_old);
}

TEST(SamplePipeline, BlockedMatchesPerSampleBitwise) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(12));
  const SamplePipeline pipeline(plan);
  const std::size_t n = pipeline.dimension();

  random::Rng rng_block(99);
  random::Rng rng_draw(99);
  const CMatrix block = pipeline.sample_block(257, rng_block);
  numeric::CVector z(n);
  for (std::size_t t = 0; t < block.rows(); ++t) {
    pipeline.sample_into(rng_draw, z);
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_EQ(block(t, j), z[j]) << "row " << t << " col " << j;
    }
  }
  // Both rngs must end in the same state: the blocked path consumed the
  // generator in exactly per-draw order.
  EXPECT_EQ(rng_block.next_u64(), rng_draw.next_u64());
}

TEST(SamplePipeline, StreamDeterministicForAnyThreadCount) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(6));
  core::PipelineOptions serial_options;
  serial_options.block_size = 512;
  serial_options.parallel = false;
  core::PipelineOptions parallel_options = serial_options;
  parallel_options.parallel = true;
  const SamplePipeline serial(plan, serial_options);
  const SamplePipeline parallel(plan, parallel_options);

  // 5000 samples = 10 blocks (one partial): serial vs thread-pool fan-out
  // must agree bit-for-bit, because every block's randomness is a pure
  // function of (seed, block index).
  const CMatrix a = serial.sample_stream(5000, 0xABCDEF);
  const CMatrix b = parallel.sample_stream(5000, 0xABCDEF);
  EXPECT_EQ(a, b);
}

TEST(SamplePipeline, StreamBlocksRegenerableInAnyOrder) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(5));
  core::PipelineOptions options;
  options.block_size = 300;
  const SamplePipeline pipeline(plan);
  const SamplePipeline pipeline_opts(plan, options);

  const std::size_t count = 1000;  // blocks of 300: 300/300/300/100
  const CMatrix stream = pipeline_opts.sample_stream(count, 5);
  // Reassemble from individual blocks requested in reverse order.
  const std::size_t n = plan->dimension();
  CMatrix rebuilt(count, n);
  for (std::size_t block = 4; block-- > 0;) {
    const std::size_t begin = block * options.block_size;
    const std::size_t rows = std::min(options.block_size, count - begin);
    const CMatrix piece = pipeline.sample_block(rows, 5, block);
    for (std::size_t t = 0; t < rows; ++t) {
      for (std::size_t j = 0; j < n; ++j) {
        rebuilt(begin + t, j) = piece(t, j);
      }
    }
  }
  EXPECT_EQ(stream, rebuilt);
}

TEST(SamplePipeline, BulkPathInvariantToSampleVariance) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(4));
  core::PipelineOptions big;
  big.sample_variance = 25.0;
  const SamplePipeline unit(plan);
  const SamplePipeline scaled(plan, big);
  // Step 6's sigma_w cancels exactly in the batched path.
  EXPECT_EQ(unit.sample_block(100, 3, 0), scaled.sample_block(100, 3, 0));
}

TEST(SamplePipeline, BulkPathAchievesDesiredCovariance) {
  const CMatrix k = paper_k();
  const auto plan = ColoringPlan::create(k);
  const SamplePipeline pipeline(plan);
  const CMatrix z = pipeline.sample_stream(200000, 0xBEEF);
  stats::CovarianceAccumulator acc(k.rows());
  numeric::CVector row(k.rows());
  for (std::size_t t = 0; t < z.rows(); ++t) {
    for (std::size_t j = 0; j < k.rows(); ++j) {
      row[j] = z(t, j);
    }
    acc.add(row);
  }
  EXPECT_LT(stats::relative_frobenius_error(acc.covariance(), k), 0.01);
}

TEST(SamplePipeline, ColorBlockMatchesManualLoop) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(7));
  const SamplePipeline pipeline(plan);
  const std::size_t n = plan->dimension();
  const CMatrix w = random_matrix(93, n, 21);
  const double variance = 0.37;

  const CMatrix colored = pipeline.color_block(w, variance);
  const double inv_sigma = 1.0 / std::sqrt(variance);
  const CMatrix& l = plan->coloring_matrix();
  CMatrix expected(w.rows(), n, cdouble{});
  for (std::size_t t = 0; t < w.rows(); ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      const cdouble scaled = w(t, j) * inv_sigma;
      for (std::size_t i = 0; i < n; ++i) {
        expected(t, i) += l(i, j) * scaled;
      }
    }
  }
  EXPECT_EQ(colored, expected);
}

TEST(SamplePipeline, RejectsInvalidArguments) {
  const auto plan = ColoringPlan::create(tridiagonal_covariance(3));
  EXPECT_THROW(SamplePipeline(nullptr), ContractViolation);
  core::PipelineOptions bad_variance;
  bad_variance.sample_variance = 0.0;
  EXPECT_THROW(SamplePipeline(plan, bad_variance), ContractViolation);
  core::PipelineOptions bad_block;
  bad_block.block_size = 0;
  EXPECT_THROW(SamplePipeline(plan, bad_block), ContractViolation);

  const SamplePipeline pipeline(plan);
  random::Rng rng(1);
  EXPECT_THROW((void)pipeline.sample_block(0, rng), ContractViolation);
  EXPECT_THROW((void)pipeline.sample_block(0, 1, 0), ContractViolation);
  EXPECT_THROW((void)pipeline.color_block(CMatrix(4, 2), 1.0),
               ContractViolation);
  EXPECT_THROW((void)pipeline.color_block(CMatrix(4, 3), 0.0),
               ContractViolation);
}

TEST(SamplePipeline, KeyedBlockIndexOverflowIsAContractViolation) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  core::PipelineOptions options;
  options.block_size = 4;
  const SamplePipeline pipeline(ColoringPlan::create(CMatrix::identity(2)),
                                options);
  // The last block whose every row instant fits in 64 bits: rows
  // [kMax - 3, kMax].  One block later wraps, and so does a block of the
  // same index that is longer than the block size.
  const std::uint64_t last = kMax / 4;
  const CMatrix z = pipeline.sample_block(4, 7, last);
  EXPECT_EQ(z.rows(), 4u);
  EXPECT_EQ(z, pipeline.sample_block(4, 7, last, last * 4));
  EXPECT_THROW((void)pipeline.sample_block(4, 7, last + 1), ContractViolation);
  EXPECT_THROW((void)pipeline.sample_block(5, 7, last), ContractViolation);
  EXPECT_THROW((void)pipeline.sample_block(4, 7, kMax), ContractViolation);
}

TEST(SamplePipeline, CheckedFirstInstantBoundsTheLastRow) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(core::checked_first_instant(3, 5, 5), 15u);
  EXPECT_EQ(core::checked_first_instant(0, kMax, kMax), 0u);
  EXPECT_EQ(core::checked_first_instant(kMax / 8, 8, 8), kMax - 7);
  EXPECT_THROW((void)core::checked_first_instant(kMax / 8, 8, 9),
               ContractViolation);
  EXPECT_THROW((void)core::checked_first_instant(kMax / 8 + 1, 8, 1),
               ContractViolation);
  // A chained product (block * chunk * stride, as the thinned Suzuki
  // validation source keys its dense blocks) overflows at either factor.
  const std::uint64_t chunk = std::uint64_t{1} << 40;
  const std::uint64_t last = (kMax >> 40) / 16;
  EXPECT_EQ(core::checked_first_instant(
                core::checked_first_instant(last, chunk, 1), 16, 16),
            last * chunk * 16);
  EXPECT_THROW((void)core::checked_first_instant(
                   core::checked_first_instant(last + 1, chunk, 1), 16, 16),
               ContractViolation);
  EXPECT_THROW((void)core::checked_first_instant(
                   core::checked_first_instant(kMax, chunk, 1), 16, 16),
               ContractViolation);
}

TEST(MatrixOps, MultiplyBlockBitIdenticalToNaive) {
  const CMatrix a = random_matrix(200, 17, 31);
  const CMatrix b = random_matrix(17, 9, 32);
  const CMatrix naive = numeric::multiply(a, b);
  const CMatrix blocked = numeric::multiply_block(a, b);
  EXPECT_EQ(naive, blocked);
}

/// GEMM operand entries: unit Gaussians with signed zeros and subnormals
/// mixed in, so the kernels' +0 accumulator start, sign handling and
/// subnormal arithmetic are pinned along with the ordinary values.
template <typename T>
std::vector<std::complex<T>> gemm_operand(std::size_t count,
                                          std::uint64_t seed) {
  random::Rng rng(seed);
  const T tiny = std::numeric_limits<T>::denorm_min();
  std::vector<std::complex<T>> v(count);
  for (std::size_t i = 0; i < count; ++i) {
    const cdouble g = rng.complex_gaussian(1.0);
    T re = static_cast<T>(g.real());
    T im = static_cast<T>(g.imag());
    switch (i % 9) {
      case 2:
        re = T(-0.0);
        break;
      case 4:
        im = T(0.0);
        break;
      case 5:
        re = T(-0.0);
        im = T(-0.0);
        break;
      case 7:
        re = tiny * static_cast<T>(1 + i % 5);
        im = -tiny * static_cast<T>(3 + i % 7);
        break;
      default:
        break;
    }
    v[i] = std::complex<T>(re, im);
  }
  return v;
}

/// Scalar reference: c(t, j) = sum over ascending kk of a(t, kk) * b(kk, j)
/// with std::complex arithmetic from a (+0, +0) start — the value
/// sequence both blocked GEMMs promise (this TU is built with
/// -ffp-contract=off, so the reference itself is never fused).
template <typename T>
std::vector<std::complex<T>> reference_gemm(
    const std::vector<std::complex<T>>& a, std::size_t m, std::size_t k,
    const std::vector<std::complex<T>>& b, std::size_t n) {
  std::vector<std::complex<T>> c(m * n);
  for (std::size_t t = 0; t < m; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      std::complex<T> acc{};
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[t * k + kk] * b[kk * n + j];
      }
      c[t * n + j] = acc;
    }
  }
  return c;
}

template <typename T>
void split_planes(const std::vector<std::complex<T>>& v, std::vector<T>& re,
                  std::vector<T>& im) {
  re.resize(v.size());
  im.resize(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    re[i] = v[i].real();
    im[i] = v[i].imag();
  }
}

/// Both GEMM entry points, bit for bit against the scalar reference, over
/// every column tail width of the register tile (n), single and long
/// inner loops (k), and a row count that leaves a partial row tile.
template <typename T>
void check_gemm_matrix() {
  const std::size_t m = 4 * 3 + 3;
  std::uint64_t seed = 100;
  for (const std::size_t k : {1u, 16u, 64u}) {
    for (const std::size_t n :
         {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 31u, 32u, 33u, 64u,
          65u}) {
      const auto a = gemm_operand<T>(m * k, ++seed);
      const auto b = gemm_operand<T>(k * n, ++seed);
      const auto expected = reference_gemm(a, m, k, b, n);
      const std::size_t bytes = expected.size() * sizeof(std::complex<T>);

      std::vector<std::complex<T>> raw(m * n, std::complex<T>(T(7), T(7)));
      numeric::multiply_block_raw(a.data(), m, k, b.data(), n, raw.data());
      EXPECT_EQ(std::memcmp(raw.data(), expected.data(), bytes), 0)
          << "multiply_block_raw k=" << k << " n=" << n;

      std::vector<T> a_re, a_im, b_re, b_im;
      split_planes(a, a_re, a_im);
      split_planes(b, b_re, b_im);
      std::vector<std::complex<T>> planar(m * n,
                                          std::complex<T>(T(7), T(7)));
      numeric::multiply_block_planar(a_re.data(), a_im.data(), m, k,
                                     b_re.data(), b_im.data(), n,
                                     planar.data());
      EXPECT_EQ(std::memcmp(planar.data(), expected.data(), bytes), 0)
          << "multiply_block_planar k=" << k << " n=" << n;
    }
  }
}

TEST(MatrixOps, BlockedGemmsBitIdenticalToScalarReferenceF64) {
  check_gemm_matrix<double>();
}

TEST(MatrixOps, BlockedGemmsBitIdenticalToScalarReferenceF32) {
  check_gemm_matrix<float>();
}

/// Philox counter block \p index of the bulk substream (seed, stream).
std::array<std::uint32_t, 4> bulk_block(std::uint64_t seed,
                                        std::uint64_t stream,
                                        std::uint64_t index) {
  return random::PhiloxEngine::block(
      {static_cast<std::uint32_t>(seed),
       static_cast<std::uint32_t>(seed >> 32)},
      {static_cast<std::uint32_t>(index),
       static_cast<std::uint32_t>(index >> 32),
       static_cast<std::uint32_t>(stream),
       static_cast<std::uint32_t>(stream >> 32)});
}

TEST(BulkGaussian, ConsumesExactPhiloxCounterBlocks) {
  // Sample t of substream (seed, stream) must be the Box-Muller image of
  // counter block t — the contract that makes ranges order-independent.
  // The second window straddles sample 2^32, where the counter carries
  // into word 1.
  const std::uint64_t seed = 0x5EED;
  const std::uint64_t stream = 9;
  const std::size_t count = 64;
  for (const std::uint64_t first : {std::uint64_t{0},
                                    (std::uint64_t{1} << 32) - 32}) {
    std::vector<double> re(count);
    std::vector<double> im(count);
    random::fill_complex_gaussians_planar(seed, stream, 1.0, first, count,
                                          re.data(), im.data());
    for (const std::size_t t : {0ul, 1ul, 31ul, 32ul, 33ul, 63ul}) {
      const auto words = bulk_block(seed, stream, first + t);
      const std::uint64_t bits01 =
          (static_cast<std::uint64_t>(words[1]) << 32) | words[0];
      const std::uint64_t bits23 =
          (static_cast<std::uint64_t>(words[3]) << 32) | words[2];
      const double u = 1.0 - random::to_unit_double(bits01);
      const double v = 6.283185307179586476925286766559 *
                       random::to_unit_double(bits23);
      const double radius = std::sqrt(0.5) * std::sqrt(-2.0 * std::log(u));
      // The bulk kernel may evaluate log/sin/cos through vectorized libm
      // variants; allow a few ulp.
      EXPECT_NEAR(re[t], radius * std::cos(v), 1e-10) << first + t;
      EXPECT_NEAR(im[t], radius * std::sin(v), 1e-10) << first + t;
    }

    // The float fill draws u = (words[0] + 1) 2^-32 and
    // v = 2 pi words[2] 2^-32, each rounded to float.
    std::vector<float> re_f(count);
    std::vector<float> im_f(count);
    random::fill_complex_gaussians_planar(seed, stream, 1.0, first, count,
                                          re_f.data(), im_f.data());
    for (const std::size_t t : {0ul, 1ul, 31ul, 32ul, 33ul, 63ul}) {
      const auto words = bulk_block(seed, stream, first + t);
      const float u =
          static_cast<float>(static_cast<std::uint64_t>(words[0]) + 1) *
          0x1p-32f;
      const float v = 6.28318530717958647692f *
                      (static_cast<float>(words[2]) * 0x1p-32f);
      const double radius =
          std::sqrt(0.5) * std::sqrt(-2.0 * std::log(double{u}));
      EXPECT_NEAR(re_f[t], radius * std::cos(double{v}), 1e-5) << first + t;
      EXPECT_NEAR(im_f[t], radius * std::sin(double{v}), 1e-5) << first + t;
    }
  }
  // And the fill itself is a pure function of its key.
  std::vector<double> re(count);
  std::vector<double> im(count);
  std::vector<double> re2(count);
  std::vector<double> im2(count);
  random::fill_complex_gaussians_planar(seed, stream, 1.0, count, re.data(),
                                        im.data());
  random::fill_complex_gaussians_planar(seed, stream, 1.0, count, re2.data(),
                                        im2.data());
  EXPECT_EQ(re, re2);
  EXPECT_EQ(im, im2);
}

/// Fills windows of the 64 samples origin..origin+63 and checks each
/// element against one fill of all 64, bit for bit.  The windows start
/// at every offset 0..15 with lengths 1..40, and also end at origin + 63
/// with lengths 1..40, so every sample is computed both in a vector lane
/// and in a scalar tail, at every vector width the fill may use.
template <typename T>
void expect_windows_match_one_fill(std::uint64_t origin) {
  const std::uint64_t seed = 0x0123456789ABCDEF;
  const std::uint64_t stream = 0x00C0FFEE0000000B;
  constexpr std::size_t kSpan = 64;
  constexpr std::size_t kMaxLength = 40;
  std::vector<T> ref_re(kSpan);
  std::vector<T> ref_im(kSpan);
  random::fill_complex_gaussians_planar(seed, stream, 1.3, origin, kSpan,
                                        ref_re.data(), ref_im.data());
  std::vector<T> re(kMaxLength);
  std::vector<T> im(kMaxLength);
  const auto check = [&](std::size_t offset, std::size_t length) {
    random::fill_complex_gaussians_planar(seed, stream, 1.3, origin + offset,
                                          length, re.data(), im.data());
    EXPECT_EQ(std::memcmp(re.data(), ref_re.data() + offset,
                          length * sizeof(T)),
              0)
        << "re, window [" << origin + offset << ", +" << length << ")";
    EXPECT_EQ(std::memcmp(im.data(), ref_im.data() + offset,
                          length * sizeof(T)),
              0)
        << "im, window [" << origin + offset << ", +" << length << ")";
  };
  for (std::size_t length = 1; length <= kMaxLength; ++length) {
    for (std::size_t offset = 0; offset < 16; ++offset) {
      check(offset, length);
    }
    check(kSpan - length, length);
  }
}

TEST(BulkGaussian, WindowsMatchOneFillAcrossSplitsAndCarriesF64) {
  expect_windows_match_one_fill<double>(0);
  expect_windows_match_one_fill<double>((std::uint64_t{1} << 32) - 32);
  expect_windows_match_one_fill<double>(std::uint64_t{0} - 64);
}

TEST(BulkGaussian, WindowsMatchOneFillAcrossSplitsAndCarriesF32) {
  expect_windows_match_one_fill<float>(0);
  expect_windows_match_one_fill<float>((std::uint64_t{1} << 32) - 32);
  expect_windows_match_one_fill<float>(std::uint64_t{0} - 64);
}

TEST(BulkGaussian, BlockSubstreamHelperMatchesPhiloxStream) {
  // block_substream(seed, b) must be the Philox engine on stream b + 1.
  random::Rng helper = random::block_substream(0x1234, 6);
  random::Rng manual(0x1234, 7);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(helper.next_u64(), manual.next_u64());
  }
}

TEST(SamplePipeline, StreamComposesWithOuterPoolWork) {
  // A pool task that itself calls sample_stream must not deadlock: the
  // distributor runs nested work inline on the worker, and the per-block
  // substreams make the result identical to the top-level call.
  const auto plan = ColoringPlan::create(tridiagonal_covariance(4));
  const SamplePipeline pipeline(plan);
  const CMatrix direct = pipeline.sample_stream(3000, 17);
  std::vector<CMatrix> nested(4);
  support::parallel_for_chunked(
      4,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t i = begin; i < end; ++i) {
          nested[i] = pipeline.sample_stream(3000, 17);
        }
      },
      {/*chunk_size=*/1, /*serial=*/false});
  for (const CMatrix& result : nested) {
    EXPECT_EQ(result, direct);
  }
}

}  // namespace
