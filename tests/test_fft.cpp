// Tests for the FFT module: known transforms, roundtrips, Parseval,
// cross-validation against the O(N^2) reference for both radix-2 and
// Bluestein paths.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "rfade/fft/fft.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/support/error.hpp"

namespace {

using namespace rfade;
using fft::Direction;
using numeric::cdouble;
using numeric::CVector;
using numeric::RVector;

constexpr double kPi = 3.141592653589793238462643383279502884;

CVector random_signal(std::size_t n, std::uint64_t seed) {
  random::Rng rng(seed);
  CVector x(n);
  for (auto& v : x) {
    v = cdouble(rng.gaussian(), rng.gaussian());
  }
  return x;
}

double max_diff(const CVector& a, const CVector& b) {
  EXPECT_EQ(a.size(), b.size());
  double m = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::abs(a[i] - b[i]));
  }
  return m;
}

TEST(Fft, PowerOfTwoDetection) {
  EXPECT_FALSE(fft::is_power_of_two(0));
  EXPECT_TRUE(fft::is_power_of_two(1));
  EXPECT_TRUE(fft::is_power_of_two(1024));
  EXPECT_FALSE(fft::is_power_of_two(3));
  EXPECT_FALSE(fft::is_power_of_two(1000));
}

TEST(Fft, ImpulseTransformsToConstant) {
  CVector x(8, cdouble{});
  x[0] = cdouble(1, 0);
  const CVector spectrum = fft::dft(x);
  for (const cdouble& value : spectrum) {
    EXPECT_NEAR(std::abs(value - cdouble(1, 0)), 0.0, 1e-14);
  }
}

TEST(Fft, ConstantTransformsToDelta) {
  const CVector x(16, cdouble(1, 0));
  const CVector spectrum = fft::dft(x);
  EXPECT_NEAR(std::abs(spectrum[0] - cdouble(16, 0)), 0.0, 1e-12);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(spectrum[k]), 0.0, 1e-12);
  }
}

TEST(Fft, SingleToneLandsInCorrectBin) {
  const std::size_t n = 64;
  const std::size_t bin = 5;
  CVector x(n);
  for (std::size_t l = 0; l < n; ++l) {
    x[l] = std::polar(1.0, 2.0 * kPi * double(bin) * double(l) / double(n));
  }
  const CVector spectrum = fft::dft(x);
  for (std::size_t k = 0; k < n; ++k) {
    const double expected = k == bin ? double(n) : 0.0;
    EXPECT_NEAR(std::abs(spectrum[k]), expected, 1e-10) << "k=" << k;
  }
}

TEST(Fft, IdftIncludesOneOverN) {
  // idft(dft(x)) must be the identity (the paper's 1/M convention).
  const CVector x = random_signal(256, 42);
  const CVector back = fft::idft(fft::dft(x));
  EXPECT_LT(max_diff(back, x), 1e-12);
}

TEST(Fft, EmptyAndSizeOne) {
  EXPECT_TRUE(fft::dft({}).empty());
  const CVector one = {cdouble(3, -2)};
  EXPECT_EQ(fft::dft(one)[0], cdouble(3, -2));
  EXPECT_EQ(fft::idft(one)[0], cdouble(3, -2));
}

TEST(Fft, InplaceRejectsNonPowerOfTwo) {
  CVector x(6);
  EXPECT_THROW((void)fft::fft_pow2_inplace(x, Direction::Forward),
               ContractViolation);
}

class FftSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, MatchesNaiveDft) {
  const std::size_t n = GetParam();
  const CVector x = random_signal(n, 1000 + n);
  const CVector fast = fft::dft(x);
  const CVector slow = fft::naive_dft(x, Direction::Forward);
  // Naive DFT error itself grows with n; tolerance scales accordingly.
  EXPECT_LT(max_diff(fast, slow), 1e-9 * std::max<double>(1.0, double(n)));
}

TEST_P(FftSizes, RoundTripIsIdentity) {
  const std::size_t n = GetParam();
  const CVector x = random_signal(n, 2000 + n);
  EXPECT_LT(max_diff(fft::idft(fft::dft(x)), x), 1e-10);
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  const CVector x = random_signal(n, 3000 + n);
  const CVector spectrum = fft::dft(x);
  double time_energy = 0.0;
  double freq_energy = 0.0;
  for (const auto& v : x) {
    time_energy += std::norm(v);
  }
  for (const auto& v : spectrum) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy / double(n), time_energy,
              1e-10 * std::max(1.0, time_energy));
}

INSTANTIATE_TEST_SUITE_P(
    PowersOfTwoAndNot, FftSizes,
    testing::Values(std::size_t{2}, std::size_t{3}, std::size_t{4},
                    std::size_t{5}, std::size_t{7}, std::size_t{8},
                    std::size_t{12}, std::size_t{16}, std::size_t{31},
                    std::size_t{64}, std::size_t{100}, std::size_t{128},
                    std::size_t{255}, std::size_t{257}, std::size_t{1000},
                    std::size_t{1024}),
    [](const auto& tinfo) { return "n" + std::to_string(tinfo.param); });

TEST(Fft, LinearityHolds) {
  const CVector x = random_signal(128, 7);
  const CVector y = random_signal(128, 8);
  const cdouble alpha(2.0, -1.0);
  CVector combo(128);
  for (std::size_t i = 0; i < 128; ++i) {
    combo[i] = alpha * x[i] + y[i];
  }
  const CVector lhs = fft::dft(combo);
  const CVector fx = fft::dft(x);
  const CVector fy = fft::dft(y);
  double m = 0.0;
  for (std::size_t k = 0; k < 128; ++k) {
    m = std::max(m, std::abs(lhs[k] - (alpha * fx[k] + fy[k])));
  }
  EXPECT_LT(m, 1e-11);
}

TEST(Fft, TimeShiftBecomesPhaseRamp) {
  const std::size_t n = 64;
  const std::size_t shift = 3;
  const CVector x = random_signal(n, 9);
  CVector shifted(n);
  for (std::size_t l = 0; l < n; ++l) {
    shifted[l] = x[(l + n - shift) % n];
  }
  const CVector fx = fft::dft(x);
  const CVector fs = fft::dft(shifted);
  for (std::size_t k = 0; k < n; ++k) {
    const cdouble ramp =
        std::polar(1.0, -2.0 * kPi * double(k) * double(shift) / double(n));
    EXPECT_NEAR(std::abs(fs[k] - ramp * fx[k]), 0.0, 1e-11);
  }
}

TEST(Fft, ForwardInverseAreConjugateTransforms) {
  // inverse(x) == conj(forward(conj(x))).
  const CVector x = random_signal(96, 10);  // Bluestein path
  CVector conj_x(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    conj_x[i] = std::conj(x[i]);
  }
  const CVector lhs = fft::transform(x, Direction::Inverse);
  const CVector rhs_raw = fft::transform(conj_x, Direction::Forward);
  double m = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    m = std::max(m, std::abs(lhs[i] - std::conj(rhs_raw[i])));
  }
  EXPECT_LT(m, 1e-11);
}

TEST(Fft, LargeTransformAccuracy) {
  // M = 4096 is the paper's IDFT size; verify roundtrip accuracy there.
  const CVector x = random_signal(4096, 11);
  EXPECT_LT(max_diff(fft::idft(fft::dft(x)), x), 1e-11);
}

TEST(Fft, Pow2PlanBitIdenticalToAdHocTransform) {
  // The plan caches the exact twiddle value sequence (incremental with
  // periodic resync) and the bit-reversal permutation, so its output
  // must match fft_pow2_inplace bit for bit — this is what lets the
  // overlap-save streaming backend swap the cached plan in without
  // changing a single output bit.
  for (std::size_t n : {1u, 2u, 8u, 256u, 2048u, 8192u}) {
    const fft::Pow2Plan plan(n);
    EXPECT_EQ(plan.size(), n);
    const CVector x = random_signal(n, 17 + n);
    for (const Direction direction :
         {Direction::Forward, Direction::Inverse}) {
      CVector ad_hoc = x;
      fft::fft_pow2_inplace(ad_hoc, direction);
      CVector planned = x;
      plan.transform(planned, direction);
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(planned[i].real(), ad_hoc[i].real()) << "n=" << n;
        EXPECT_EQ(planned[i].imag(), ad_hoc[i].imag()) << "n=" << n;
      }
    }
    // The dft/idft wrappers match the free functions bitwise too.
    const CVector spectrum = plan.dft(x);
    const CVector reference = fft::dft(x);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(spectrum[i], reference[i]);
    }
    const CVector back = plan.idft(spectrum);
    const CVector back_reference = fft::idft(spectrum);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(back[i], back_reference[i]);
    }
  }
}

TEST(Fft, Pow2PlanRejectsBadSizes) {
  EXPECT_THROW((void)fft::Pow2Plan(0), ContractViolation);
  EXPECT_THROW((void)fft::Pow2Plan(12), ContractViolation);
  const fft::Pow2Plan plan(8);
  CVector wrong(4);
  EXPECT_THROW(plan.transform(wrong, Direction::Forward), ContractViolation);
}

// --- real-input transforms ---------------------------------------------------

RVector random_real_signal(std::size_t n, std::uint64_t seed) {
  random::Rng rng(seed);
  RVector x(n);
  for (double& v : x) {
    v = rng.gaussian();
  }
  return x;
}

CVector complexify(const RVector& x) {
  CVector z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    z[i] = cdouble(x[i], 0.0);
  }
  return z;
}

TEST(FftReal, PairTransformMatchesNaiveDft) {
  // The pairing identity: DFTs of two real sequences out of one complex
  // transform, validated against the O(N^2) reference at the issue's
  // sizes (N = 1 is the degenerate pack: fx = x[0], fy = y[0]).
  for (std::size_t n : {1u, 2u, 4u, 4096u}) {
    const fft::Pow2Plan plan(n);
    const RVector x = random_real_signal(n, 100 + n);
    const RVector y = random_real_signal(n, 200 + n);
    CVector fx;
    CVector fy;
    plan.transform_real_pair(x, y, fx, fy);
    const CVector ref_x = fft::naive_dft(complexify(x), Direction::Forward);
    const CVector ref_y = fft::naive_dft(complexify(y), Direction::Forward);
    const double tol = 1e-9 * std::max<double>(1.0, double(n));
    EXPECT_LT(max_diff(fx, ref_x), tol) << "n=" << n;
    EXPECT_LT(max_diff(fy, ref_y), tol) << "n=" << n;
    // Real inputs give conjugate-symmetric spectra.
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t r = (n - k) % n;
      EXPECT_NEAR(std::abs(fx[k] - std::conj(fx[r])), 0.0, 1e-12);
      EXPECT_NEAR(std::abs(fy[k] - std::conj(fy[r])), 0.0, 1e-12);
    }
  }
}

TEST(FftReal, SplitTransformMatchesNaiveDft) {
  // The split identity: a length-2N real DFT from an N-point complex
  // transform (sequence lengths 2, 4, 8, 8192 — the N/2-plan sizes for
  // the issue's N list above 1).
  for (std::size_t half : {1u, 2u, 4u, 4096u}) {
    const fft::Pow2Plan plan(half);
    const RVector x = random_real_signal(2 * half, 300 + half);
    const CVector spectrum = plan.transform_real(x);
    ASSERT_EQ(spectrum.size(), 2 * half);
    const CVector reference =
        fft::naive_dft(complexify(x), Direction::Forward);
    EXPECT_LT(max_diff(spectrum, reference),
              1e-9 * std::max<double>(1.0, double(2 * half)))
        << "2n=" << 2 * half;
  }
}

TEST(FftReal, SplitRoundTripRecoversSignal) {
  for (std::size_t half : {1u, 2u, 4u, 64u, 4096u}) {
    const fft::Pow2Plan plan(half);
    const RVector x = random_real_signal(2 * half, 400 + half);
    const RVector back = plan.inverse_real(plan.transform_real(x));
    ASSERT_EQ(back.size(), x.size());
    double m = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      m = std::max(m, std::abs(back[i] - x[i]));
    }
    EXPECT_LT(m, 1e-11) << "2n=" << 2 * half;
  }
}

TEST(FftReal, TransformRealRejectsWrongLength) {
  const fft::Pow2Plan plan(8);
  EXPECT_THROW((void)plan.transform_real(RVector(8)), ContractViolation);
  EXPECT_THROW((void)plan.inverse_real(CVector(8)), ContractViolation);
  RVector x(4);
  RVector y(8);
  CVector fx;
  CVector fy;
  EXPECT_THROW(plan.transform_real_pair(x, y, fx, fy), ContractViolation);
}

// --- batched planar transforms -----------------------------------------------

/// The bit pattern of every component, so -0 != +0 in comparisons.
template <typename T>
auto bits(T x) {
  if constexpr (std::is_same_v<T, double>) {
    return std::bit_cast<std::uint64_t>(x);
  } else {
    return std::bit_cast<std::uint32_t>(x);
  }
}

/// Scalar std::complex reference in precision T: fft_pow2_inplace's
/// exact steps, with each stage's twiddles from its double recurrence
/// narrowed once (what a float plan's tables hold).  For T = double this
/// is fft_pow2_inplace itself (checked below).
template <typename T>
void reference_fft(std::vector<std::complex<T>>& data, Direction direction) {
  const std::size_t n = data.size();
  for (std::size_t i = 0, j = 0; i + 1 < n; ++i) {
    if (i < j) {
      std::swap(data[i], data[j]);
    }
    std::size_t mask = n >> 1;
    while (j & mask) {
      j ^= mask;
      mask >>= 1;
    }
    j |= mask;
  }
  const double sign = direction == Direction::Forward ? -1.0 : 1.0;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = sign * 2.0 * kPi / static_cast<double>(len);
    const cdouble w_len = std::polar(1.0, angle);
    cdouble w(1.0, 0.0);
    std::vector<std::complex<T>> tw(len / 2);
    for (std::size_t k = 0; k < len / 2; ++k) {
      if ((k & 63u) == 0u && k != 0u) {
        w = std::polar(1.0, angle * static_cast<double>(k));
      }
      tw[k] = std::complex<T>(w);
      w *= w_len;
    }
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<T> even = data[start + k];
        const std::complex<T> odd = data[start + k + len / 2] * tw[k];
        data[start + k] = even + odd;
        data[start + k + len / 2] = even - odd;
      }
    }
  }
}

/// Gaussian points with the edge cases mixed in: +-0, subnormals and
/// huge magnitudes (+-1e300 in double, +-1e30 in float), small enough
/// that no 2^14-point transform overflows.
template <typename T>
std::vector<std::complex<T>> edge_signal(std::size_t n, std::uint64_t seed) {
  random::Rng rng(seed);
  const T huge = std::is_same_v<T, double> ? T(1e300) : T(1e30);
  const T tiny = std::numeric_limits<T>::denorm_min();
  const auto pick = [&](std::uint64_t kind) -> T {
    switch (kind % 8) {
      case 0:
        return T(0);
      case 1:
        return -T(0);
      case 2:
        return tiny * T(1 + kind % 5);
      case 3:
        return -std::numeric_limits<T>::min() / T(3);
      case 4:
        return kind % 16 < 8 ? huge : -huge;
      default:
        return static_cast<T>(rng.gaussian());
    }
  };
  std::vector<std::complex<T>> x(n);
  for (auto& v : x) {
    const std::uint64_t r = rng.next_u64();
    v = std::complex<T>(pick(r & 0xFFFF), pick(r >> 16));
  }
  return x;
}

constexpr std::size_t kMaxLog2 = 14;
constexpr std::size_t kLaneCounts[] = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17};
constexpr std::size_t kMaxLanes = 17;

/// Compares \p got against \p want bit for bit; reports the first
/// mismatch only and returns whether all matched.
template <typename T>
bool same_bits(const std::vector<std::complex<T>>& got,
               const std::vector<std::complex<T>>& want,
               const std::string& label) {
  for (std::size_t p = 0; p < want.size(); ++p) {
    if (bits(got[p].real()) != bits(want[p].real()) ||
        bits(got[p].imag()) != bits(want[p].imag())) {
      ADD_FAILURE() << label << " point " << p << ": got " << got[p]
                    << " want " << want[p];
      return false;
    }
  }
  return true;
}

/// Every form of the plan against the scalar reference, bit for bit, at
/// n = 2^0..2^14 in both directions: the single transform in place and
/// out of place with a pointwise multiply, and the planar batch at every
/// lane count, in place and out of place with the multiply.
template <typename T>
void expect_plan_matches_reference() {
  using Complex = std::complex<T>;
  for (std::size_t log2n = 0; log2n <= kMaxLog2; ++log2n) {
    const std::size_t n = std::size_t{1} << log2n;
    const fft::BasicPow2Plan<T> plan(n);
    // A Gaussian multiplier: edge-case magnitudes there would overflow.
    const CVector h_wide = random_signal(n, 40 + log2n);
    const std::vector<Complex> h(h_wide.begin(), h_wide.end());
    std::vector<std::vector<Complex>> lanes(kMaxLanes);
    for (std::size_t b = 0; b < kMaxLanes; ++b) {
      lanes[b] = edge_signal<T>(n, 1000 * log2n + b);
    }
    for (const Direction direction :
         {Direction::Forward, Direction::Inverse}) {
      const std::string at = "n=" + std::to_string(n) +
                             (direction == Direction::Forward ? " fwd"
                                                              : " inv");
      // Per-lane references, plain and multiplied by h.
      std::vector<std::vector<Complex>> want(kMaxLanes);
      std::vector<std::vector<Complex>> want_h(kMaxLanes);
      for (std::size_t b = 0; b < kMaxLanes; ++b) {
        want[b] = lanes[b];
        reference_fft(want[b], direction);
        want_h[b] = want[b];
        for (std::size_t p = 0; p < n; ++p) {
          want_h[b][p] *= h[p];
        }
      }
      std::vector<Complex> got = lanes[0];
      plan.transform(got, direction);
      ASSERT_TRUE(same_bits(got, want[0], "single " + at));
      plan.transform(lanes[1].data(), got.data(), direction, h.data());
      ASSERT_TRUE(same_bits(got, want_h[1], "single*h " + at));

      for (const std::size_t batch : kLaneCounts) {
        std::vector<T> in_re(n * batch);
        std::vector<T> in_im(n * batch);
        for (std::size_t b = 0; b < batch; ++b) {
          for (std::size_t p = 0; p < n; ++p) {
            in_re[p * batch + b] = lanes[b][p].real();
            in_im[p * batch + b] = lanes[b][p].imag();
          }
        }
        std::vector<T> re = in_re;
        std::vector<T> im = in_im;
        std::vector<T> out_re(n * batch);
        std::vector<T> out_im(n * batch);
        plan.transform_batched(re.data(), im.data(), batch, direction);
        plan.transform_batched(in_re.data(), in_im.data(), out_re.data(),
                               out_im.data(), batch, direction, h.data());
        for (std::size_t b = 0; b < batch; ++b) {
          std::vector<Complex> lane(n);
          std::vector<Complex> lane_h(n);
          for (std::size_t p = 0; p < n; ++p) {
            lane[p] = Complex(re[p * batch + b], im[p * batch + b]);
            lane_h[p] = Complex(out_re[p * batch + b], out_im[p * batch + b]);
          }
          const std::string label = at + " batch=" + std::to_string(batch) +
                                    " lane=" + std::to_string(b);
          ASSERT_TRUE(same_bits(lane, want[b], "batched " + label));
          ASSERT_TRUE(same_bits(lane_h, want_h[b], "batched*h " + label));
        }
      }
    }
  }
}

TEST(Fft, ReferenceFftIsFftPow2Inplace) {
  for (std::size_t n : {1u, 2u, 8u, 512u, 4096u}) {
    const CVector x = edge_signal<double>(n, 3 + n);
    for (const Direction direction :
         {Direction::Forward, Direction::Inverse}) {
      CVector want = x;
      fft::fft_pow2_inplace(want, direction);
      CVector got = x;
      reference_fft(got, direction);
      EXPECT_TRUE(same_bits(got, want, "n=" + std::to_string(n)));
    }
  }
}

TEST(Fft, BatchedTransformBitIdenticalPerLane) {
  // Every form of the plan — the single interleaved transform and every
  // lane of the planar batch, with and without the fused gather and
  // spectrum multiply — reproduces the scalar reference bit for bit.
  // This is what lets the batched overlap-save sweep replace the
  // per-branch fills, and the per-branch fills keep the keyed bits.
  expect_plan_matches_reference<double>();
}

TEST(Fft, BatchedTransformBitIdenticalPerLaneF32) {
  expect_plan_matches_reference<float>();
}

// --- Bluestein plan ----------------------------------------------------------

TEST(Fft, BluesteinPlanBitIdenticalToAdHocTransform) {
  // The plan replays the ad-hoc Bluestein value sequence from cached
  // chirp/kernel tables, so non-power-of-two overlap-save fallbacks can
  // swap it in without changing a bit.
  for (std::size_t n : {1u, 3u, 5u, 12u, 24u, 100u, 257u, 1000u}) {
    const fft::BluesteinPlan plan(n);
    EXPECT_EQ(plan.size(), n);
    const CVector x = random_signal(n, 900 + n);
    CVector out;
    CVector scratch;
    for (const Direction direction :
         {Direction::Forward, Direction::Inverse}) {
      plan.transform(x, out, direction, scratch);
      const CVector reference = fft::transform(x, direction);
      ASSERT_EQ(out.size(), reference.size());
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i].real(), reference[i].real()) << "n=" << n;
        EXPECT_EQ(out[i].imag(), reference[i].imag()) << "n=" << n;
      }
    }
  }
}

TEST(Fft, BluesteinPlanRejectsBadInput) {
  EXPECT_THROW((void)fft::BluesteinPlan(0), ContractViolation);
  const fft::BluesteinPlan plan(5);
  CVector wrong(4);
  CVector out;
  CVector scratch;
  EXPECT_THROW(plan.transform(wrong, out, Direction::Forward, scratch),
               ContractViolation);
}

// --- RealConvolver -----------------------------------------------------------

TEST(Fft, RealConvolverSpectrumBitIdenticalToDft) {
  const std::size_t n = 64;
  const auto plan = std::make_shared<const fft::Pow2Plan>(n);
  const RVector kernel = random_real_signal(n, 77);
  const fft::RealConvolver convolver(plan, kernel);
  const CVector reference = fft::dft(complexify(kernel));
  ASSERT_EQ(convolver.kernel_spectrum().size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(convolver.kernel_spectrum()[k], reference[k]);
  }
}

TEST(Fft, RealConvolverPackedMatchesManualPath) {
  // convolve_packed must be bit-identical to transforming the packed
  // input and multiplying by the kernel spectrum by hand — the exact
  // inline loop the overlap-save branch source used to run.
  const std::size_t n = 128;
  const auto plan = std::make_shared<const fft::Pow2Plan>(n);
  const RVector kernel = random_real_signal(n, 88);
  const fft::RealConvolver convolver(plan, kernel);
  const CVector in = random_signal(n, 89);

  CVector expected = in;
  plan->transform(expected, Direction::Forward);
  for (std::size_t k = 0; k < n; ++k) {
    expected[k] *= convolver.kernel_spectrum()[k];
  }
  plan->transform(expected, Direction::Inverse);

  CVector work;
  convolver.convolve_packed(in, work);
  ASSERT_EQ(work.size(), n);
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_EQ(work[k], expected[k]);
  }
}

TEST(Fft, RealConvolverPairIsCircularConvolution) {
  // One forward + one inverse transform convolves BOTH real streams with
  // the real kernel (the pairing trick); validate against the O(N^2)
  // circular convolution of each stream separately.
  const std::size_t n = 32;
  const auto plan = std::make_shared<const fft::Pow2Plan>(n);
  const RVector kernel = random_real_signal(n, 90);
  const fft::RealConvolver convolver(plan, kernel);
  const RVector x = random_real_signal(n, 91);
  const RVector y = random_real_signal(n, 92);

  RVector out_x(n);
  RVector out_y(n);
  CVector work;
  convolver.convolve_pair(x.data(), y.data(), out_x.data(), out_y.data(),
                          work);

  for (std::size_t l = 0; l < n; ++l) {
    double cx = 0.0;
    double cy = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      const double h = kernel[(l + n - j) % n];
      cx += h * x[j];
      cy += h * y[j];
    }
    EXPECT_NEAR(out_x[l], cx, 1e-10);
    EXPECT_NEAR(out_y[l], cy, 1e-10);
  }
}

}  // namespace
