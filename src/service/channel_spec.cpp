#include "rfade/service/channel_spec.hpp"

#include <bit>
#include <cmath>
#include <utility>

#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/xoshiro.hpp"
#include "rfade/scenario/cascaded.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"
#include "rfade/telemetry/telemetry.hpp"

namespace rfade::service {

namespace {

/// Incremental content hash: absorb tagged words, splitmix-mixed after
/// every absorption.  Stability contract: the serialization below (tags,
/// field order, canonical values) is append-only within one version —
/// any other change bumps the version word, since it changes every
/// persisted hash (V2 dropped the inert instant sample-variance knob).
class SpecHasher {
 public:
  void u64(std::uint64_t v) {
    state_ ^= v;
    state_ = random::splitmix64(state_);
  }
  void size(std::size_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void f64(double v) {
    // Canonicalize -0.0 so value-equal specs hash equal.
    u64(std::bit_cast<std::uint64_t>(v == 0.0 ? 0.0 : v));
  }
  void cplx(numeric::cdouble v) {
    f64(v.real());
    f64(v.imag());
  }
  void cmatrix(const numeric::CMatrix& m) {
    size(m.rows());
    size(m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) {
      cplx(m.data()[i]);
    }
  }
  void rmatrix(const numeric::RMatrix& m) {
    size(m.rows());
    size(m.cols());
    for (std::size_t i = 0; i < m.size(); ++i) {
      f64(m.data()[i]);
    }
  }
  [[nodiscard]] std::uint64_t digest() const noexcept { return state_; }

 private:
  std::uint64_t state_ = 0x243F6A8885A308D3ull;  // pi fraction bits
};

bool branch_equal(const scenario::RicianBranch& a,
                  const scenario::RicianBranch& b) {
  return a.k_factor == b.k_factor && a.los_phase == b.los_phase;
}

bool branch_equal(const scenario::TwdpBranch& a,
                  const scenario::TwdpBranch& b) {
  return a.k_factor == b.k_factor && a.delta == b.delta &&
         a.phase1 == b.phase1 && a.phase2 == b.phase2;
}

bool shadowing_equal(const scenario::composite::ShadowingSpec& a,
                     const scenario::composite::ShadowingSpec& b) {
  return a.sigma_db == b.sigma_db && a.mean_db == b.mean_db &&
         a.decorrelation_samples == b.decorrelation_samples &&
         a.spacing == b.spacing &&
         a.branch_correlation == b.branch_correlation &&
         a.truncation_tolerance == b.truncation_tolerance;
}

bool coloring_equal(const core::ColoringOptions& a,
                    const core::ColoringOptions& b) {
  return a.method == b.method && a.psd.policy == b.psd.policy &&
         a.psd.epsilon == b.psd.epsilon &&
         a.psd.tolerance == b.psd.tolerance &&
         a.psd.eigen_method == b.psd.eigen_method;
}

/// The keyed draw options of an instant stage: rows per block and the
/// stream fan-out from the spec, plus the stage's mean (the Rayleigh /
/// Rician LOS mean; zero for the TWDP diffuse part and cascade stages).
core::PipelineOptions instant_options(const ChannelSpec& spec,
                                      core::MeanSource mean) {
  core::PipelineOptions options;
  options.mean_offset = std::move(mean);
  options.block_size = spec.block_size();
  options.parallel = spec.parallel();
  return options;
}

/// Rows a stream-mode session block carries for the given backend
/// geometry (mirrors doppler::BranchSourceDesign::block_size()).
std::size_t stream_block_rows(doppler::StreamBackend backend,
                              std::size_t idft_size, std::size_t overlap) {
  if (backend == doppler::StreamBackend::WindowedOverlapAdd) {
    const std::size_t effective = overlap == 0 ? idft_size / 8 : overlap;
    return idft_size - effective;
  }
  return idft_size;
}

}  // namespace

const char* fading_family_name(FadingFamily family) noexcept {
  switch (family) {
    case FadingFamily::Rayleigh:
      return "rayleigh";
    case FadingFamily::Rician:
      return "rician";
    case FadingFamily::Twdp:
      return "twdp";
    case FadingFamily::CascadedRayleigh:
      return "cascaded_rayleigh";
    case FadingFamily::Suzuki:
      return "suzuki";
    case FadingFamily::CopulaMarginals:
      return "copula_marginals";
  }
  return "unknown";
}

// --- MarginalSpec -----------------------------------------------------------

MarginalSpec MarginalSpec::rayleigh(double sigma_g_squared) {
  return {Family::Rayleigh, sigma_g_squared, 1.0};
}

MarginalSpec MarginalSpec::nakagami(double m, double omega) {
  return {Family::Nakagami, m, omega};
}

MarginalSpec MarginalSpec::weibull(double shape, double scale) {
  return {Family::Weibull, shape, scale};
}

scenario::composite::CopulaMarginal MarginalSpec::realize() const {
  using scenario::composite::CopulaMarginal;
  switch (family) {
    case Family::Nakagami:
      return CopulaMarginal::nakagami(param1, param2);
    case Family::Weibull:
      return CopulaMarginal::weibull(param1, param2);
    case Family::Rayleigh:
      break;
  }
  return CopulaMarginal::rayleigh(param1);
}

// --- ChannelSpec ------------------------------------------------------------

std::size_t ChannelSpec::dimension() const noexcept {
  return family_ == FadingFamily::CopulaMarginals ? marginals_.size()
                                                  : covariance_.rows();
}

std::uint64_t ChannelSpec::compute_hash() const {
  SpecHasher h;
  h.u64(0x52464144452D5632ull);  // serialization version "RFADE-V2"
  h.u64(static_cast<std::uint64_t>(family_));
  h.u64(static_cast<std::uint64_t>(mode_));
  h.cmatrix(covariance_);
  h.cmatrix(second_covariance_);
  h.size(rician_.size());
  for (const auto& b : rician_) {
    h.f64(b.k_factor);
    h.f64(b.los_phase);
  }
  h.size(twdp_.size());
  for (const auto& b : twdp_) {
    h.f64(b.k_factor);
    h.f64(b.delta);
    h.f64(b.phase1);
    h.f64(b.phase2);
  }
  h.size(constant_mean_.size());
  for (const auto& m : constant_mean_) {
    h.cplx(m);
  }
  h.f64(shadowing_.sigma_db);
  h.f64(shadowing_.mean_db);
  h.f64(shadowing_.decorrelation_samples);
  h.size(shadowing_.spacing);
  h.rmatrix(shadowing_.branch_correlation);
  h.f64(shadowing_.truncation_tolerance);
  h.rmatrix(envelope_target_);
  h.size(marginals_.size());
  for (const auto& m : marginals_) {
    h.u64(static_cast<std::uint64_t>(m.family));
    h.f64(m.param1);
    h.f64(m.param2);
  }
  h.u64(static_cast<std::uint64_t>(backend_));
  h.size(idft_size_);
  h.f64(doppler_);
  h.f64(second_doppler_);
  h.f64(input_variance_);
  h.size(overlap_);
  h.f64(los_doppler_);
  h.f64(wave1_);
  h.f64(wave2_);
  h.size(block_size_);
  h.b(parallel_);
  h.u64(static_cast<std::uint64_t>(coloring_.method));
  h.u64(static_cast<std::uint64_t>(coloring_.psd.policy));
  h.f64(coloring_.psd.epsilon);
  h.f64(coloring_.psd.tolerance);
  h.u64(static_cast<std::uint64_t>(coloring_.psd.eigen_method));
  h.size(laguerre_terms_);
  h.size(quadrature_panels_);
  h.u64(static_cast<std::uint64_t>(precision_));
  return h.digest();
}

bool operator==(const ChannelSpec& a, const ChannelSpec& b) {
  if (a.hash_ != b.hash_) {
    return false;
  }
  if (a.family_ != b.family_ || a.mode_ != b.mode_ ||
      !(a.covariance_ == b.covariance_) ||
      !(a.second_covariance_ == b.second_covariance_) ||
      a.rician_.size() != b.rician_.size() ||
      a.twdp_.size() != b.twdp_.size() ||
      a.constant_mean_ != b.constant_mean_ ||
      !shadowing_equal(a.shadowing_, b.shadowing_) ||
      !(a.envelope_target_ == b.envelope_target_) ||
      a.marginals_ != b.marginals_) {
    return false;
  }
  for (std::size_t i = 0; i < a.rician_.size(); ++i) {
    if (!branch_equal(a.rician_[i], b.rician_[i])) {
      return false;
    }
  }
  for (std::size_t i = 0; i < a.twdp_.size(); ++i) {
    if (!branch_equal(a.twdp_[i], b.twdp_[i])) {
      return false;
    }
  }
  return a.backend_ == b.backend_ && a.idft_size_ == b.idft_size_ &&
         a.doppler_ == b.doppler_ && a.second_doppler_ == b.second_doppler_ &&
         a.input_variance_ == b.input_variance_ && a.overlap_ == b.overlap_ &&
         a.los_doppler_ == b.los_doppler_ && a.wave1_ == b.wave1_ &&
         a.wave2_ == b.wave2_ && a.block_size_ == b.block_size_ &&
         a.parallel_ == b.parallel_ &&
         coloring_equal(a.coloring_, b.coloring_) &&
         a.laguerre_terms_ == b.laguerre_terms_ &&
         a.quadrature_panels_ == b.quadrature_panels_ &&
         a.precision_ == b.precision_;
}

// --- Builder ----------------------------------------------------------------

ChannelSpec::Builder& ChannelSpec::Builder::rayleigh(
    numeric::CMatrix covariance) {
  spec_.family_ = FadingFamily::Rayleigh;
  spec_.covariance_ = std::move(covariance);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::rician(numeric::CMatrix covariance,
                                                   double k_factor,
                                                   double los_phase) {
  const std::size_t n = covariance.rows();
  return rician(std::move(covariance),
                std::vector<scenario::RicianBranch>(
                    n, scenario::RicianBranch{k_factor, los_phase}));
}

ChannelSpec::Builder& ChannelSpec::Builder::rician(
    numeric::CMatrix covariance,
    std::vector<scenario::RicianBranch> branches) {
  spec_.family_ = FadingFamily::Rician;
  spec_.covariance_ = std::move(covariance);
  spec_.rician_ = std::move(branches);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::twdp(numeric::CMatrix covariance,
                                                 double k_factor,
                                                 double delta) {
  const std::size_t n = covariance.rows();
  return twdp(std::move(covariance),
              std::vector<scenario::TwdpBranch>(
                  n, scenario::TwdpBranch{k_factor, delta, 0.0, 0.0}));
}

ChannelSpec::Builder& ChannelSpec::Builder::twdp(
    numeric::CMatrix covariance, std::vector<scenario::TwdpBranch> branches) {
  spec_.family_ = FadingFamily::Twdp;
  spec_.covariance_ = std::move(covariance);
  spec_.twdp_ = std::move(branches);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::cascaded(
    numeric::CMatrix first_covariance, numeric::CMatrix second_covariance) {
  spec_.family_ = FadingFamily::CascadedRayleigh;
  spec_.covariance_ = std::move(first_covariance);
  spec_.second_covariance_ = std::move(second_covariance);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::suzuki(
    numeric::CMatrix covariance,
    scenario::composite::ShadowingSpec shadowing) {
  spec_.family_ = FadingFamily::Suzuki;
  spec_.covariance_ = std::move(covariance);
  spec_.shadowing_ = std::move(shadowing);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::copula(
    numeric::RMatrix envelope_correlation,
    std::vector<MarginalSpec> marginals) {
  spec_.family_ = FadingFamily::CopulaMarginals;
  spec_.envelope_target_ = std::move(envelope_correlation);
  spec_.marginals_ = std::move(marginals);
  family_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::constant_mean(
    numeric::CVector mean) {
  spec_.constant_mean_ = std::move(mean);
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::streaming() {
  spec_.mode_ = EmissionMode::Stream;
  mode_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::instant() {
  spec_.mode_ = EmissionMode::Instant;
  mode_set_ = true;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::backend(
    doppler::StreamBackend backend) {
  spec_.backend_ = backend;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::idft_size(std::size_t idft_size) {
  spec_.idft_size_ = idft_size;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::doppler(
    double normalized_doppler) {
  spec_.doppler_ = normalized_doppler;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::second_doppler(
    double normalized_doppler) {
  spec_.second_doppler_ = normalized_doppler;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::input_variance_per_dim(
    double variance) {
  spec_.input_variance_ = variance;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::overlap(std::size_t overlap) {
  spec_.overlap_ = overlap;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::los_doppler(
    double normalized_frequency) {
  spec_.los_doppler_ = normalized_frequency;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::wave_dopplers(double first,
                                                          double second) {
  spec_.wave1_ = first;
  spec_.wave2_ = second;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::block_size(
    std::size_t block_size) {
  spec_.block_size_ = block_size;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::parallel(bool parallel) {
  spec_.parallel_ = parallel;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::coloring(
    core::ColoringOptions options) {
  spec_.coloring_ = options;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::laguerre_terms(
    std::size_t terms) {
  spec_.laguerre_terms_ = terms;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::quadrature_panels(
    std::size_t panels) {
  spec_.quadrature_panels_ = panels;
  return *this;
}

ChannelSpec::Builder& ChannelSpec::Builder::precision(
    core::Precision precision) {
  spec_.precision_ = precision;
  return *this;
}

ChannelSpec ChannelSpec::Builder::build() const {
  ChannelSpec spec = spec_;

  RFADE_SPEC_EXPECTS(family_set_,
                     "a scenario family method (rayleigh/rician/twdp/"
                     "cascaded/suzuki/copula) must be called before build()");

  // --- family-consistency validation (spec-level rejections only; deep
  // numeric validation stays with the compile layers) ------------------------
  if (spec.family_ == FadingFamily::CopulaMarginals) {
    RFADE_SPEC_EXPECTS(!mode_set_ || spec.mode_ == EmissionMode::Instant,
                       "copula channels are envelope-only instant draws; "
                       "a streaming copula emission is not defined");
    spec.mode_ = EmissionMode::Instant;
    RFADE_SPEC_EXPECTS(
        spec.envelope_target_.rows() == spec.envelope_target_.cols(),
        "copula envelope-correlation target must be square");
    RFADE_SPEC_EXPECTS(
        spec.marginals_.size() == spec.envelope_target_.rows(),
        "copula needs exactly one marginal per correlation-target branch");
    for (const auto& m : spec.marginals_) {
      switch (m.family) {
        case MarginalSpec::Family::Rayleigh:
          RFADE_SPEC_EXPECTS(m.param1 > 0.0 && std::isfinite(m.param1),
                             "rayleigh marginal needs sigma_g^2 > 0");
          break;
        case MarginalSpec::Family::Nakagami:
          RFADE_SPEC_EXPECTS(m.param1 >= 0.5 && std::isfinite(m.param1),
                             "nakagami marginal needs shape m >= 0.5");
          RFADE_SPEC_EXPECTS(m.param2 > 0.0 && std::isfinite(m.param2),
                             "nakagami marginal needs spread omega > 0");
          break;
        case MarginalSpec::Family::Weibull:
          RFADE_SPEC_EXPECTS(m.param1 > 0.0 && std::isfinite(m.param1),
                             "weibull marginal needs shape > 0");
          RFADE_SPEC_EXPECTS(m.param2 > 0.0 && std::isfinite(m.param2),
                             "weibull marginal needs scale > 0");
          break;
      }
    }
  }
  if (spec.family_ == FadingFamily::Rician) {
    RFADE_SPEC_EXPECTS(spec.rician_.size() == spec.covariance_.rows(),
                       "rician needs exactly one branch per covariance row");
    for (const auto& b : spec.rician_) {
      RFADE_SPEC_EXPECTS(b.k_factor >= 0.0 && std::isfinite(b.k_factor),
                         "rician K-factor must be finite and >= 0");
      RFADE_SPEC_EXPECTS(std::isfinite(b.los_phase),
                         "rician LOS phase must be finite");
    }
  }
  if (spec.family_ == FadingFamily::Twdp) {
    RFADE_SPEC_EXPECTS(spec.twdp_.size() == spec.covariance_.rows(),
                       "twdp needs exactly one branch per covariance row");
    for (const auto& b : spec.twdp_) {
      RFADE_SPEC_EXPECTS(b.k_factor >= 0.0 && std::isfinite(b.k_factor),
                         "twdp K-factor must be finite and >= 0");
      RFADE_SPEC_EXPECTS(b.delta >= 0.0 && b.delta <= 1.0,
                         "twdp Delta must lie in [0, 1]");
      RFADE_SPEC_EXPECTS(std::isfinite(b.phase1) && std::isfinite(b.phase2),
                         "twdp wave phases must be finite");
    }
  }
  if (spec.family_ == FadingFamily::CascadedRayleigh) {
    RFADE_SPEC_EXPECTS(
        spec.second_covariance_.rows() == spec.covariance_.rows() &&
            spec.second_covariance_.cols() == spec.covariance_.cols(),
        "cascaded stage covariances must have equal dimensions");
  }
  RFADE_SPEC_EXPECTS(
      spec.constant_mean_.empty() ||
          spec.family_ == FadingFamily::Rayleigh,
      "constant_mean applies to the rayleigh family only (rician derives "
      "its mean from the K-factors)");
  if (spec.mode_ == EmissionMode::Stream &&
      spec.family_ != FadingFamily::CopulaMarginals) {
    RFADE_SPEC_EXPECTS(
        spec.doppler_ > 0.0 && spec.doppler_ < 0.5 &&
            std::isfinite(spec.doppler_),
        "stream emission needs a normalized Doppler in (0, 0.5)");
    if (spec.family_ == FadingFamily::CascadedRayleigh) {
      RFADE_SPEC_EXPECTS(
          spec.second_doppler_ > 0.0 && spec.second_doppler_ < 0.5 &&
              std::isfinite(spec.second_doppler_),
          "cascaded stream emission needs a stage-2 Doppler in (0, 0.5)");
    }
    RFADE_SPEC_EXPECTS(std::isfinite(spec.los_doppler_) &&
                           std::abs(spec.los_doppler_) <= 0.5,
                       "LOS Doppler must be finite with |f| <= 0.5");
    RFADE_SPEC_EXPECTS(std::isfinite(spec.wave1_) &&
                           std::abs(spec.wave1_) <= 0.5 &&
                           std::isfinite(spec.wave2_) &&
                           std::abs(spec.wave2_) <= 0.5,
                       "wave Dopplers must be finite with |f| <= 0.5");
  }

  // --- canonicalization: degenerate parameterisations collapse to one
  // canonical spec so equivalent builds hash equal -----------------------------
  const auto all_zero_k = [](const auto& branches) {
    for (const auto& b : branches) {
      if (b.k_factor != 0.0) {
        return false;
      }
    }
    return true;
  };
  if (spec.family_ == FadingFamily::Rician && all_zero_k(spec.rician_)) {
    spec.family_ = FadingFamily::Rayleigh;
    spec.rician_.clear();
  }
  if (spec.family_ == FadingFamily::Twdp && all_zero_k(spec.twdp_)) {
    spec.family_ = FadingFamily::Rayleigh;
    spec.twdp_.clear();
  }
  bool mean_nonzero = false;
  for (const auto& m : spec.constant_mean_) {
    if (m != numeric::cdouble(0.0, 0.0)) {
      mean_nonzero = true;
      break;
    }
  }
  if (!mean_nonzero) {
    spec.constant_mean_.clear();
  }
  if (spec.family_ != FadingFamily::Rician) {
    spec.los_doppler_ = 0.0;
  }
  if (spec.family_ != FadingFamily::Twdp ||
      spec.mode_ != EmissionMode::Stream) {
    spec.wave1_ = 0.0;
    spec.wave2_ = 0.0;
  }
  if (spec.family_ != FadingFamily::CascadedRayleigh) {
    spec.second_covariance_ = numeric::CMatrix();
    spec.second_doppler_ = 0.05;
  }
  if (spec.family_ != FadingFamily::Suzuki) {
    spec.shadowing_ = scenario::composite::ShadowingSpec{};
  }
  if (spec.family_ != FadingFamily::CopulaMarginals) {
    spec.envelope_target_ = numeric::RMatrix();
    spec.marginals_.clear();
    spec.laguerre_terms_ = 96;
    spec.quadrature_panels_ = 4096;
  }
  if (spec.mode_ == EmissionMode::Instant) {
    // Stream-only knobs are inert: reset so an instant spec hashes
    // independently of them.
    spec.backend_ = doppler::StreamBackend::IndependentBlock;
    spec.idft_size_ = 4096;
    spec.doppler_ = 0.05;
    spec.second_doppler_ =
        spec.family_ == FadingFamily::CascadedRayleigh ? 0.05
                                                       : spec.second_doppler_;
    spec.input_variance_ = 0.5;
    spec.overlap_ = 0;
    spec.los_doppler_ = 0.0;
  } else {
    // Instant-only knobs are inert in stream mode.
    spec.block_size_ = 4096;
  }
  if (spec.mode_ == EmissionMode::Instant) {
    // Instant pipelines have no float32 path; the knob is inert there, so
    // collapse it to the default to keep equal specs hashing (and
    // caching) equal.
    spec.precision_ = core::Precision::Float64;
  }

  spec.hash_ = spec.compute_hash();
  return spec;
}

// --- CompiledChannel --------------------------------------------------------

namespace {

/// Compilation is the expensive cold phase (O(N^3) plan builds); its
/// latency distribution is what capacity planning for cache misses
/// needs.  Interned once; null when telemetry is compiled out.
telemetry::LatencyHistogram* compile_histogram() {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::LatencyHistogram> histogram =
      telemetry::Registry::global().histogram("rfade_channel_compile_ns");
  return histogram.get();
}

/// Compiles split by emission precision: a fleet migrating specs from
/// f64 to f32 watches the two series cross over.  One interned counter
/// per precision (the label set is closed, so two statics suffice).
telemetry::Counter* compile_counter(core::Precision precision) {
  if constexpr (!telemetry::kCompiledIn) {
    return nullptr;
  }
  static const std::shared_ptr<telemetry::Counter> f64 =
      telemetry::Registry::global().counter(
          "rfade_channel_compiles_total",
          telemetry::label("precision",
                           core::precision_name(core::Precision::Float64)));
  static const std::shared_ptr<telemetry::Counter> f32 =
      telemetry::Registry::global().counter(
          "rfade_channel_compiles_total",
          telemetry::label("precision",
                           core::precision_name(core::Precision::Float32)));
  return precision == core::Precision::Float32 ? f32.get() : f64.get();
}

}  // namespace

std::shared_ptr<const CompiledChannel> ChannelSpec::compile() const {
  const telemetry::Span span("ChannelSpec::compile");
  const telemetry::ScopedTimer timer(compile_histogram());
  if (telemetry::Counter* compiles = compile_counter(precision_);
      compiles != nullptr && telemetry::enabled()) {
    compiles->add();
  }
  return CompiledChannel::create(*this);
}

std::shared_ptr<const CompiledChannel> CompiledChannel::create(
    ChannelSpec spec) {
  RFADE_SPEC_EXPECTS(spec.content_hash() != 0 || spec.dimension() > 0,
                     "compile() needs a Builder-built spec");
  return std::shared_ptr<const CompiledChannel>(
      new CompiledChannel(std::move(spec)));
}

CompiledChannel::CompiledChannel(ChannelSpec spec) : spec_(std::move(spec)) {
  const ChannelSpec& s = spec_;
  const bool instant = s.mode() == EmissionMode::Instant;

  switch (s.family()) {
    case FadingFamily::Rayleigh: {
      plan_ = core::ColoringPlan::create(s.covariance(), s.coloring());
      stream_mean_ = core::MeanSource(s.constant_mean());
      if (instant) {
        stages_.emplace_back(plan_, instant_options(s, stream_mean_));
      }
      break;
    }
    case FadingFamily::Rician: {
      const scenario::ScenarioSpec scen =
          scenario::ScenarioSpec::rician(s.covariance(), s.rician_branches());
      plan_ = scen.build_plan(s.coloring());
      numeric::CVector mean = scen.los_mean(*plan_);
      if (instant) {
        stages_.emplace_back(plan_, instant_options(s, core::MeanSource(mean)));
      }
      stream_mean_ = s.los_doppler() != 0.0
                         ? scen.doppler_los_mean(*plan_, s.los_doppler())
                         : core::MeanSource(std::move(mean));
      break;
    }
    case FadingFamily::Twdp: {
      twdp_spec_ = scenario::TwdpSpec::per_branch(s.covariance(),
                                                  s.twdp_branches());
      plan_ = twdp_spec_->build_plan(s.coloring());
      if (instant) {
        stages_.emplace_back(plan_, instant_options(s, {}));
        twdp_waves_ = twdp_spec_->specular_waves(*plan_);
      }
      break;
    }
    case FadingFamily::CascadedRayleigh: {
      plan_ = core::ColoringPlan::create(s.covariance(), s.coloring());
      second_plan_ =
          core::ColoringPlan::create(s.second_covariance(), s.coloring());
      if (instant) {
        stages_.emplace_back(plan_, instant_options(s, {}));
        stages_.emplace_back(second_plan_, instant_options(s, {}));
      }
      break;
    }
    case FadingFamily::Suzuki: {
      plan_ = core::ColoringPlan::create(s.covariance(), s.coloring());
      scenario::composite::SuzukiOptions options;
      options.block_size = s.block_size();
      options.parallel = s.parallel();
      suzuki_generator_.emplace(plan_, s.shadowing(), options);
      break;
    }
    case FadingFamily::CopulaMarginals: {
      std::vector<scenario::composite::CopulaMarginal> marginals;
      marginals.reserve(s.marginal_specs().size());
      for (const auto& m : s.marginal_specs()) {
        marginals.push_back(m.realize());
      }
      scenario::composite::CopulaOptions options;
      options.laguerre_terms = s.laguerre_terms();
      options.quadrature_panels = s.quadrature_panels();
      options.block_size = s.block_size();
      options.parallel = s.parallel();
      options.coloring = s.coloring();
      copula_ =
          std::make_shared<const scenario::composite::CopulaMarginalTransform>(
              s.envelope_correlation_target(), std::move(marginals), options);
      plan_ = copula_->plan();
      break;
    }
  }

  dimension_ = plan_->dimension();
  block_size_ = instant ? s.block_size()
                        : stream_block_rows(s.backend(), s.idft_size(),
                                            s.overlap());
  if (!instant) {
    stream_design_ = std::make_shared<const doppler::BranchSourceDesign>(
        s.backend(), s.idft_size(), s.normalized_doppler(),
        s.input_variance_per_dim(), s.overlap());
  }
  if (!instant && s.family() == FadingFamily::CascadedRayleigh) {
    second_stream_design_ =
        std::make_shared<const doppler::BranchSourceDesign>(
            s.backend(), s.idft_size(), s.second_doppler(),
            s.input_variance_per_dim(), s.overlap());
  }
}

core::FadingStreamOptions CompiledChannel::stream_options(
    std::uint64_t seed) const {
  core::FadingStreamOptions options;
  options.backend = spec_.backend();
  options.idft_size = spec_.idft_size();
  options.normalized_doppler = spec_.normalized_doppler();
  options.input_variance_per_dim = spec_.input_variance_per_dim();
  options.overlap = spec_.overlap();
  options.los_mean = stream_mean_;
  options.coloring = spec_.coloring();
  options.parallel_branches = spec_.parallel();
  options.precision = spec_.precision();
  options.seed = seed;
  return options;
}

core::FadingStream CompiledChannel::make_stream(std::uint64_t seed) const {
  if (spec_.mode() != EmissionMode::Stream) {
    throw UnsupportedOperationError(
        "make_stream: spec was compiled for instant emission");
  }
  switch (spec_.family()) {
    case FadingFamily::Rayleigh:
    case FadingFamily::Rician:
      return core::FadingStream(plan_, stream_options(seed), stream_design_);
    case FadingFamily::Twdp:
      return scenario::twdp_fading_stream(
          plan_, *twdp_spec_, spec_.first_wave_doppler(),
          spec_.second_wave_doppler(), stream_options(seed), stream_design_);
    case FadingFamily::Suzuki:
      return suzuki_generator_->make_stream(stream_options(seed),
                                            stream_design_);
    case FadingFamily::CascadedRayleigh:
      return scenario::cascaded_fading_stream(
          plan_, second_plan_, spec_.second_doppler(), stream_options(seed),
          stream_design_, second_stream_design_);
    case FadingFamily::CopulaMarginals:
      break;
  }
  throw UnsupportedOperationError(
      std::string("make_stream: not defined for family ") +
      fading_family_name(spec_.family()));
}

numeric::CMatrix CompiledChannel::instant_block(
    std::size_t count, std::uint64_t seed, std::uint64_t block_index) const {
  if (spec_.mode() != EmissionMode::Instant) {
    throw UnsupportedOperationError(
        "instant_block: spec was compiled for stream emission");
  }
  switch (spec_.family()) {
    case FadingFamily::Rayleigh:
    case FadingFamily::Rician:
      return stages_[0].sample_block(count, seed, block_index);
    case FadingFamily::Twdp: {
      numeric::CMatrix block =
          stages_[0].sample_block(count, seed, block_index);
      scenario::add_twdp_waves(twdp_waves_, seed, block_index, block);
      return block;
    }
    case FadingFamily::CascadedRayleigh: {
      numeric::CMatrix z = stages_[0].sample_block(
          count, core::FadingStream::stage_seed(seed, 0), block_index);
      numeric::multiply_elementwise(
          z, stages_[1].sample_block(
                 count, core::FadingStream::stage_seed(seed, 1), block_index));
      return z;
    }
    case FadingFamily::Suzuki:
      return suzuki_generator_->sample_block(count, seed, block_index);
    case FadingFamily::CopulaMarginals:
      break;
  }
  throw UnsupportedOperationError(
      "instant_block: copula channels are envelope-only — use "
      "generate_envelope_block / next_envelope_block");
}

const core::SamplePipeline& CompiledChannel::pipeline() const {
  if (stages_.empty() || (spec_.family() != FadingFamily::Rayleigh &&
                          spec_.family() != FadingFamily::Rician)) {
    throw UnsupportedOperationError(
        "pipeline: spec is not an instant-mode rayleigh/rician channel");
  }
  return stages_[0];
}

const scenario::composite::SuzukiGenerator& CompiledChannel::suzuki_generator()
    const {
  if (!suzuki_generator_.has_value()) {
    throw UnsupportedOperationError(
        "suzuki_generator: spec is not a suzuki channel");
  }
  return *suzuki_generator_;
}

const scenario::composite::CopulaMarginalTransform&
CompiledChannel::copula_transform() const {
  if (copula_ == nullptr) {
    throw UnsupportedOperationError(
        "copula_transform: spec is not a copula channel");
  }
  return *copula_;
}

}  // namespace rfade::service
