#include "rfade/scenario/composite/shadowing.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/xoshiro.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::scenario::composite {

namespace {

/// ln(10)/20, shared with the marginal so generated gains and
/// LognormalDistribution::from_db stay bit-exact against each other.
constexpr double kLn10Over20 = stats::LognormalDistribution::kDbToNaturalLog;

/// Hard cap on the FIR length — reached only for decorrelation
/// distances of ~300k+ node spacings, where the tail beyond the cap
/// carries < the truncation tolerance of the ACF anyway.
constexpr std::size_t kMaxTaps = std::size_t{1} << 15;

/// The white-tape seed is salted and split so a user reusing one seed
/// for the diffuse stream (block_substream / bulk fills on stream
/// block+1) and its shadowing never overlaps counter spaces, mirroring
/// BranchSourceDesign::input_seed.
std::uint64_t tape_seed(std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5AD0516A11C0FFEEULL;
  return random::splitmix64(state);
}

bool is_identity(const numeric::RMatrix& r) {
  for (std::size_t i = 0; i < r.rows(); ++i) {
    for (std::size_t j = 0; j < r.cols(); ++j) {
      if (r(i, j) != (i == j ? 1.0 : 0.0)) {
        return false;
      }
    }
  }
  return true;
}

/// Unit-variance dB field S at coarse nodes [first_node,
/// first_node + count): out is count x N row-major.  Pure function of
/// (design, tape seed, node range) — the seekability the composite
/// stream modes rely on.
void node_field(const ShadowingDesign& design, std::uint64_t tape,
                std::uint64_t first_node, std::size_t count, double* out) {
  const std::size_t n = design.dimension();
  const std::size_t k = design.taps();
  const numeric::RVector& taps = design.taps_vector();
  const std::size_t white = count + k - 1;
  // Per-branch filtered tapes (complex so an arbitrary — possibly
  // complex — mixing matrix still yields the target real covariance:
  // E[Re(L f) Re(L f)^T] = Re(L L^H) for unit-variance i.i.d. re/im).
  thread_local std::vector<double> w_re;
  thread_local std::vector<double> w_im;
  thread_local std::vector<double> f_re;
  thread_local std::vector<double> f_im;
  if (w_re.size() < white) {
    w_re.resize(white);
    w_im.resize(white);
  }
  if (f_re.size() < count * n) {
    f_re.resize(count * n);
    f_im.resize(count * n);
  }
  const bool mixed = design.has_mixing();
  for (std::size_t i = 0; i < n; ++i) {
    // Branch tape i: the seekable bulk-Philox substream (tape, i + 1),
    // indexed by absolute node position.
    random::fill_complex_gaussians_planar(tape, i + 1, 2.0, first_node, white,
                                          w_re.data(), w_im.data());
    // S_i(t) = sum_k h[k] w[t + K - 1 - k]: the truncated moving average
    // whose ACF is a^{|d|} up to the truncation tolerance.  Taps outer,
    // nodes inner: each node still sums its taps in ascending k from +0,
    // and the node loop vectorises.
    double* acc_re = f_re.data() + i * count;
    double* acc_im = f_im.data() + i * count;
    std::fill(acc_re, acc_re + count, 0.0);
    if (mixed) {
      std::fill(acc_im, acc_im + count, 0.0);
    }
    for (std::size_t j = 0; j < k; ++j) {
      const double h = taps[j];
      const double* wr = w_re.data() + (k - 1 - j);
      for (std::size_t t = 0; t < count; ++t) {
        acc_re[t] += h * wr[t];
      }
      if (mixed) {
        const double* wi = w_im.data() + (k - 1 - j);
        for (std::size_t t = 0; t < count; ++t) {
          acc_im[t] += h * wi[t];
        }
      }
    }
  }
  if (!mixed) {
    for (std::size_t t = 0; t < count; ++t) {
      for (std::size_t j = 0; j < n; ++j) {
        out[t * n + j] = f_re[j * count + t];
      }
    }
    return;
  }
  const numeric::CMatrix& l = design.mixing_matrix();
  for (std::size_t t = 0; t < count; ++t) {
    for (std::size_t j = 0; j < n; ++j) {
      double s = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        s += l(j, i).real() * f_re[i * count + t] -
             l(j, i).imag() * f_im[i * count + t];
      }
      out[t * n + j] = s;
    }
  }
}

}  // namespace

// --- ShadowingDesign ---------------------------------------------------------

ShadowingDesign::ShadowingDesign(std::size_t dimension, ShadowingSpec spec)
    : dim_(dimension), spec_(std::move(spec)) {
  RFADE_EXPECTS(dim_ >= 1, "ShadowingDesign: dimension must be >= 1");
  RFADE_EXPECTS(std::isfinite(spec_.sigma_db) && spec_.sigma_db > 0.0 &&
                    spec_.sigma_db <= 20.0,
                "ShadowingDesign: sigma_db must be in (0, 20] dB");
  RFADE_EXPECTS(std::isfinite(spec_.mean_db) &&
                    std::abs(spec_.mean_db) <= 40.0,
                "ShadowingDesign: |mean_db| must be <= 40 dB");
  RFADE_EXPECTS(std::isfinite(spec_.decorrelation_samples) &&
                    spec_.decorrelation_samples >= 1.0,
                "ShadowingDesign: decorrelation distance must be >= 1 "
                "sample");
  RFADE_EXPECTS(spec_.spacing >= 1, "ShadowingDesign: spacing must be >= 1");
  RFADE_EXPECTS(spec_.truncation_tolerance > 0.0 &&
                    spec_.truncation_tolerance <= 0.1,
                "ShadowingDesign: truncation tolerance must be in (0, 0.1]");

  alpha_ = std::exp(-static_cast<double>(spec_.spacing) /
                    spec_.decorrelation_samples);
  // Smallest K with a^K <= tolerance (capped): the FIR h[k] = c a^k then
  // realises rho(d) = a^d (1 - a^{2(K-d)}) / (1 - a^{2K}).
  const double raw =
      std::ceil(std::log(spec_.truncation_tolerance) / std::log(alpha_));
  const std::size_t k = std::min<std::size_t>(
      kMaxTaps, static_cast<std::size_t>(std::max(1.0, raw)));
  const double alpha_sq = alpha_ * alpha_;
  const double c = std::sqrt(
      (1.0 - alpha_sq) /
      (1.0 - std::pow(alpha_sq, static_cast<double>(k))));
  taps_.resize(k);
  double power = c;
  for (std::size_t j = 0; j < k; ++j) {
    taps_[j] = power;
    power *= alpha_;
  }

  const numeric::RMatrix& r = spec_.branch_correlation;
  if (r.size() == 0 || is_identity(r)) {
    effective_correlation_ = numeric::RMatrix(dim_, dim_, 0.0);
    for (std::size_t j = 0; j < dim_; ++j) {
      effective_correlation_(j, j) = 1.0;
    }
    return;
  }
  RFADE_EXPECTS(r.rows() == dim_ && r.cols() == dim_,
                "ShadowingDesign: branch correlation must be N x N");
  for (std::size_t i = 0; i < dim_; ++i) {
    RFADE_EXPECTS(std::abs(r(i, i) - 1.0) <= 1e-9,
                  "ShadowingDesign: branch correlation diagonal must be 1");
    for (std::size_t j = 0; j < dim_; ++j) {
      RFADE_EXPECTS(std::isfinite(r(i, j)) && std::abs(r(i, j)) <= 1.0 + 1e-12,
                    "ShadowingDesign: branch correlation entries must be in "
                    "[-1, 1]");
      RFADE_EXPECTS(std::abs(r(i, j) - r(j, i)) <= 1e-9,
                    "ShadowingDesign: branch correlation must be symmetric");
    }
  }
  // The process's own small coloring plan: PSD-force and factor R_s with
  // the exact machinery the paper applies to K (steps 3-5), then mix the
  // filtered tapes with L_s.
  const auto plan = core::ColoringPlan::create(numeric::to_complex(r));
  mixing_ = plan->coloring_matrix();
  effective_correlation_ = numeric::real_part(plan->effective_covariance());
}

double ShadowingDesign::effective_sigma_db(std::size_t j) const {
  RFADE_EXPECTS(j < dim_, "ShadowingDesign: branch index out of range");
  return spec_.sigma_db * std::sqrt(effective_correlation_(j, j));
}

stats::LognormalDistribution ShadowingDesign::gain_marginal(
    std::size_t j) const {
  return stats::LognormalDistribution::from_db(spec_.mean_db,
                                               effective_sigma_db(j));
}

// --- ShadowingProcess --------------------------------------------------------

ShadowingProcess::ShadowingProcess(
    std::shared_ptr<const ShadowingDesign> design, std::uint64_t seed)
    : design_(std::move(design)), seed_(seed) {
  RFADE_EXPECTS(design_ != nullptr,
                "ShadowingProcess: design must not be null");
}

ShadowingProcess::ShadowingProcess(std::size_t dimension, ShadowingSpec spec,
                                   std::uint64_t seed)
    : ShadowingProcess(
          std::make_shared<const ShadowingDesign>(dimension, std::move(spec)),
          seed) {}

void ShadowingProcess::node_gains(std::uint64_t first_node, std::size_t count,
                                  double* out) const {
  node_field(*design_, tape_seed(seed_), first_node, count, out);
  const double scale = design_->spec().sigma_db * kLn10Over20;
  const double offset = design_->spec().mean_db * kLn10Over20;
  const std::size_t total = count * design_->dimension();
  for (std::size_t i = 0; i < total; ++i) {
    out[i] = std::exp(offset + scale * out[i]);
  }
}

numeric::RVector ShadowingProcess::node_db(std::uint64_t node) const {
  numeric::RVector s(design_->dimension());
  node_field(*design_, tape_seed(seed_), node, 1, s.data());
  for (double& v : s) {
    v = design_->spec().mean_db + design_->spec().sigma_db * v;
  }
  return s;
}

void ShadowingProcess::gains_for_rows(std::uint64_t first_instant,
                                      std::size_t rows,
                                      std::span<double> out) const {
  const std::size_t n = design_->dimension();
  RFADE_EXPECTS(out.size() == rows * n,
                "ShadowingProcess: output must be rows x dimension");
  const std::size_t spacing = design_->spec().spacing;
  const std::uint64_t first_node = first_instant / spacing;
  const std::uint64_t last_node = (first_instant + rows - 1) / spacing + 1;
  const std::size_t count = static_cast<std::size_t>(last_node - first_node) + 1;
  thread_local std::vector<double> nodes;
  if (nodes.size() < count * n) {
    nodes.resize(count * n);
  }
  node_gains(first_node, count, nodes.data());
  const double inv_spacing = 1.0 / static_cast<double>(spacing);
  for (std::size_t t = 0; t < rows; ++t) {
    const std::uint64_t l = first_instant + t;
    const std::size_t node = static_cast<std::size_t>(l / spacing - first_node);
    const double frac =
        static_cast<double>(l % spacing) * inv_spacing;
    const double* a = nodes.data() + node * n;
    const double* b = a + n;
    double* row = out.data() + t * n;
    for (std::size_t j = 0; j < n; ++j) {
      row[j] = a[j] + frac * (b[j] - a[j]);
    }
  }
}

}  // namespace rfade::scenario::composite
