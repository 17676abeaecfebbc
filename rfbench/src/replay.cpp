#include "replay.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/rng.hpp"
#include "rfade/scenario/timevarying/twdp.hpp"

namespace rfbench {

namespace rf = rfade;
using rf::numeric::cdouble;
using rf::numeric::cfloat;
using rf::numeric::CMatrix;
using rf::numeric::CMatrixF;

bool same_bits(const CMatrix& a, const CMatrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cdouble)) == 0;
}

std::uint64_t fingerprint(const CMatrix& z) {
  std::uint64_t h = 0xCBF29CE484222325ULL ^ (z.rows() * 0x9E3779B97F4A7C15ULL) ^
                    z.cols();
  const std::size_t words = z.size() * sizeof(cdouble) / sizeof(std::uint64_t);
  const auto* bytes = reinterpret_cast<const unsigned char*>(z.data());
  for (std::size_t i = 0; i < words; ++i) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes + i * sizeof(word), sizeof(word));
    h = (h ^ word) * 0x100000001B3ULL;
    h ^= h >> 29;
  }
  return h;
}

CMatrix widen(const CMatrixF& z) {
  CMatrix out(z.rows(), z.cols());
  for (std::size_t i = 0; i < z.size(); ++i) {
    out.data()[i] = cdouble(static_cast<double>(z.data()[i].real()),
                            static_cast<double>(z.data()[i].imag()));
  }
  return out;
}

namespace {

/// Complex radix-2 FFT cost, 5 n log2 n flops (the conventional count).
double fft_flops(std::size_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

/// The mean/gain tail a stream session of this channel colors with: the
/// same sources the engine factories install (los_mean from the stream
/// options, the TWDP wave pair, the Suzuki shadowing gain).
rf::core::PipelineOptions stream_tail(
    const rf::service::CompiledChannel& channel, std::uint64_t seed) {
  const rf::core::FadingStreamOptions options = channel.stream_options(seed);
  rf::core::PipelineOptions tail;
  tail.mean_offset = options.los_mean;
  tail.gain = options.gain;
  const rf::service::ChannelSpec& spec = channel.spec();
  switch (channel.family()) {
    case rf::service::FadingFamily::Twdp:
      tail.mean_offset =
          rf::scenario::TwdpSpec::per_branch(spec.covariance(),
                                             spec.twdp_branches())
              .realtime_mean(*channel.plan(), spec.first_wave_doppler(),
                             spec.second_wave_doppler());
      break;
    case rf::service::FadingFamily::Suzuki:
      tail.gain = channel.suzuki_generator().shadowing_gain(seed);
      break;
    case rf::service::FadingFamily::Rayleigh:
    case rf::service::FadingFamily::Rician:
      break;
    default:
      throw std::runtime_error("replay: family has no FadingStream timeline");
  }
  return tail;
}

}  // namespace

// --- stream ------------------------------------------------------------------

StreamReplayer::StreamReplayer(const rf::service::CompiledChannel& channel,
                               std::uint64_t seed)
    : channel_(channel),
      seed_(seed),
      float32_(channel.spec().precision() == rf::core::Precision::Float32),
      n_(channel.dimension()) {
  const rf::service::ChannelSpec& spec = channel.spec();
  const std::int64_t t0 = now_ns();
  design_ = std::make_unique<const rf::doppler::BranchSourceDesign>(
      spec.backend(), spec.idft_size(), spec.normalized_doppler(),
      spec.input_variance_per_dim(), spec.overlap());
  design_ns_ = static_cast<double>(now_ns() - t0);
  m_ = design_->block_size();
  pipeline_ = std::make_unique<rf::core::SamplePipeline>(
      channel.plan(), stream_tail(channel, seed));

  if (design_->backend() == rf::doppler::StreamBackend::OverlapSaveFir) {
    if (!rf::fft::is_power_of_two(2 * m_)) {
      throw std::runtime_error("replay: overlap-save needs a power-of-two 2M");
    }
    // The design's kernel, rebuilt from its public filter: the centered
    // real impulse response h = IDFT(F), zero-padded to 2M.
    const rf::numeric::RVector& f = design_->branch().filter().coefficients;
    rf::numeric::CVector spectrum(m_);
    for (std::size_t k = 0; k < m_; ++k) spectrum[k] = cdouble(f[k], 0.0);
    const rf::numeric::CVector h = rf::fft::idft(spectrum);
    rf::numeric::RVector centered(2 * m_, 0.0);
    for (std::size_t k = 0; k < m_; ++k) {
      centered[k] = h[(k + m_ - m_ / 2) % m_].real();
    }
    convolver_ = std::make_unique<rf::fft::RealConvolver>(
        std::make_shared<const rf::fft::Pow2Plan>(2 * m_), centered);
    tape_variance_ =
        2.0 * spec.input_variance_per_dim() / static_cast<double>(m_);
    if (float32_) {
      const rf::numeric::CVector& kernel = convolver_->kernel_spectrum();
      rf::numeric::CVectorF narrowed(kernel.size());
      for (std::size_t k = 0; k < kernel.size(); ++k) {
        narrowed[k] = cfloat(static_cast<float>(kernel[k].real()),
                             static_cast<float>(kernel[k].imag()));
      }
      convolver_f_ = std::make_unique<rf::fft::RealConvolverF>(
          std::make_shared<const rf::fft::Pow2PlanF>(2 * m_),
          std::move(narrowed));
      re_f_.resize(m_);
      im_f_.resize(m_);
      inputs_f_.resize(2 * m_);
    } else {
      re_.resize(m_);
      im_.resize(m_);
      inputs_.resize(2 * m_);
    }
  }
  if (float32_) {
    out_f_.assign(n_, rf::numeric::CVectorF(m_));
    w_f_ = CMatrixF(m_, n_);
    gemm_f_ = CMatrixF(m_, n_);
  } else {
    out_.assign(n_, rf::numeric::CVector(m_));
    w_ = CMatrix(m_, n_);
    gemm_ = CMatrix(m_, n_);
  }
}

void StreamReplayer::fill_overlap_save(std::uint64_t block_index,
                                       SpanTrace& trace, Work& work) {
  const std::uint64_t first = block_index * m_;
  for (std::size_t j = 0; j < n_; ++j) {
    const ScopedSpan fill(trace, "doppler.fill");
    const std::uint64_t branch_seed =
        rf::doppler::BranchSourceDesign::input_seed(seed_, j);
    // Keyed access regenerates both tape halves [bM, bM + 2M).
    for (std::size_t half = 0; half < 2; ++half) {
      if (float32_) {
        {
          const ScopedSpan rng(trace, "random.fill");
          rf::random::fill_complex_gaussians_planar_f32(
              branch_seed, 0, tape_variance_, first + half * m_, m_,
              re_f_.data(), im_f_.data());
        }
        for (std::size_t t = 0; t < m_; ++t) {
          inputs_f_[half * m_ + t] = cfloat(re_f_[t], im_f_[t]);
        }
      } else {
        {
          const ScopedSpan rng(trace, "random.fill");
          rf::random::fill_complex_gaussians_planar(
              branch_seed, 0, tape_variance_, first + half * m_, m_,
              re_.data(), im_.data());
        }
        for (std::size_t t = 0; t < m_; ++t) {
          inputs_[half * m_ + t] = cdouble(re_[t], im_[t]);
        }
      }
    }
    {
      const ScopedSpan fft(trace, "fft.convolve");
      if (float32_) {
        convolver_f_->convolve_packed(inputs_f_, work_f_);
      } else {
        convolver_->convolve_packed(inputs_, work_);
      }
    }
    // Wrap-free half of the circular 2M convolution, scaled by 1/(2M).
    if (float32_) {
      const float scale = 1.0f / static_cast<float>(2 * m_);
      for (std::size_t i = 0; i < m_; ++i) {
        out_f_[j][i] = work_f_[m_ - 1 + i] * scale;
      }
    } else {
      const double scale = 1.0 / static_cast<double>(2 * m_);
      for (std::size_t i = 0; i < m_; ++i) {
        out_[j][i] = work_[m_ - 1 + i] * scale;
      }
    }
  }
  work.rng_samples += static_cast<double>(2 * m_ * n_);
  work.synth_samples += static_cast<double>(2 * m_ * n_);
  work.fft_transforms += static_cast<double>(2 * n_);
  work.fft_flops += static_cast<double>(2 * n_) * fft_flops(2 * m_);
}

void StreamReplayer::fill_sources(std::uint64_t block_index, SpanTrace& trace,
                                  Work& work) {
  std::vector<std::unique_ptr<rf::doppler::BranchSource>> sources;
  sources.reserve(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    sources.push_back(design_->make_source(
        rf::doppler::BranchSourceDesign::input_seed(seed_, j)));
  }
  const std::size_t synthesized = design_->branch().block_size();
  if (design_->history_blocks() > 0 && block_index > 0) {
    // Keyed access rebuilds the carried crossfade state by replaying the
    // previous block and discarding it.
    const ScopedSpan replay(trace, "doppler.history");
    rf::random::Rng rng = rf::random::block_substream(seed_, block_index - 1);
    for (auto& source : sources) source->advance(rng, block_index - 1);
    rf::numeric::CVector scratch(float32_ ? 0 : m_);
    rf::numeric::CVectorF scratch_f(float32_ ? m_ : 0);
    for (auto& source : sources) {
      if (float32_) {
        source->fill_f32(scratch_f);
      } else {
        source->fill(scratch);
      }
    }
    work.synth_samples += static_cast<double>(synthesized * n_);
  }
  const ScopedSpan fill(trace, "doppler.fill");
  rf::random::Rng rng = rf::random::block_substream(seed_, block_index);
  for (auto& source : sources) source->advance(rng, block_index);
  for (std::size_t j = 0; j < n_; ++j) {
    if (float32_) {
      sources[j]->fill_f32(out_f_[j]);
    } else {
      sources[j]->fill(out_[j]);
    }
  }
  work.synth_samples += static_cast<double>(synthesized * n_);
}

CMatrix StreamReplayer::color(std::uint64_t block_index, SpanTrace& trace,
                              Work& work) {
  const std::uint64_t first_instant = block_index * m_;
  const double inv_sigma = 1.0 / std::sqrt(design_->output_variance());
  for (std::size_t j = 0; j < n_; ++j) {
    const ScopedSpan interleave(trace, "numeric.interleave");
    if (float32_) {
      rf::numeric::scale_into_strided(out_f_[j].data(), m_,
                                      static_cast<float>(inv_sigma),
                                      w_f_.data() + j, n_);
    } else {
      rf::numeric::scale_into_strided(out_[j].data(), m_, inv_sigma,
                                      w_.data() + j, n_);
    }
  }
  CMatrix z;
  int color_id = -1;
  if (float32_) {
    const ScopedSpan span(trace, "core.color_block");
    color_id = span.id();
    z = widen(pipeline_->color_block_f32(w_f_, first_instant));
  } else {
    const ScopedSpan span(trace, "core.color_block");
    color_id = span.id();
    z = pipeline_->color_block(w_, 1.0, first_instant);
  }
  if (trace.enabled()) {
    // The GEMM color_block runs, on the same operands, timed apart.
    const rf::core::ColoringPlan& plan = *channel_.plan();
    const std::int64_t t0 = now_ns();
    if (float32_) {
      rf::numeric::multiply_block_raw(w_f_.data(), m_, n_,
                                      plan.coloring_f32().transposed.data(),
                                      n_, gemm_f_.data());
    } else {
      rf::numeric::multiply_block_raw(w_.data(), m_, n_,
                                      plan.coloring_matrix_transposed().data(),
                                      n_, gemm_.data());
    }
    work.probe_ns += static_cast<double>(
        trace.probe("numeric.gemm", color_id, t0, now_ns()));
  }
  const double element = float32_ ? sizeof(cfloat) : sizeof(cdouble);
  work.gemm_flops += 8.0 * static_cast<double>(m_ * n_ * n_);
  work.gemm_bytes += element * static_cast<double>(2 * m_ * n_ + n_ * n_);
  work.emitted_samples += static_cast<double>(m_ * n_);
  work.blocks += 1;
  return z;
}

CMatrix StreamReplayer::replay(std::uint64_t block_index, SpanTrace& trace,
                               Work& work) {
  const ScopedSpan root(trace, "core.keyed_block");
  if (convolver_) {
    fill_overlap_save(block_index, trace, work);
  } else {
    fill_sources(block_index, trace, work);
  }
  return color(block_index, trace, work);
}

// --- instant -----------------------------------------------------------------

InstantReplayer::InstantReplayer(const rf::service::CompiledChannel& channel)
    : channel_(channel) {
  if (channel.mode() != rf::service::EmissionMode::Instant ||
      channel.family() != rf::service::FadingFamily::Rayleigh ||
      channel.pipeline().has_mean_offset() || channel.pipeline().has_gain()) {
    throw std::runtime_error(
        "replay: instant replay covers the zero-mean unit-gain Rayleigh "
        "pipeline only");
  }
}

CMatrix InstantReplayer::replay(std::uint64_t seed, std::uint64_t block_index,
                                SpanTrace& trace, Work& work) {
  const ScopedSpan root(trace, "core.sample_block");
  const rf::core::ColoringPlan& plan = *channel_.plan();
  const std::size_t rows = channel_.block_size();
  const std::size_t n = channel_.dimension();
  if (re_.size() < rows * n) {
    re_.resize(rows * n);
    im_.resize(rows * n);
  }
  CMatrix z(rows, n);
  {
    const ScopedSpan rng(trace, "random.fill");
    rf::random::fill_complex_gaussians_planar(seed, block_index + 1, 1.0,
                                              rows * n, re_.data(),
                                              im_.data());
  }
  {
    const ScopedSpan gemm(trace, "numeric.gemm");
    rf::numeric::multiply_block_planar(
        re_.data(), im_.data(), rows, n, plan.coloring_transposed_re().data(),
        plan.coloring_transposed_im().data(), n, z.data());
  }
  work.rng_samples += static_cast<double>(rows * n);
  work.gemm_flops += 8.0 * static_cast<double>(rows * n * n);
  // Planar W read (re + im planes), L^T planes, interleaved Z written.
  work.gemm_bytes += sizeof(cdouble) * static_cast<double>(2 * rows * n + n * n);
  work.emitted_samples += static_cast<double>(rows * n);
  work.blocks += 1;
  return z;
}

}  // namespace rfbench
