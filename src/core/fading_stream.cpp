#include "rfade/core/fading_stream.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <utility>

#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/parallel.hpp"
#include "rfade/telemetry/registry.hpp"

namespace rfade::core {

const char* precision_name(Precision precision) noexcept {
  return precision == Precision::Float32 ? "f32" : "f64";
}

namespace {

PipelineOptions stream_pipeline_options(const FadingStreamOptions& options) {
  PipelineOptions pipeline;
  pipeline.mean_offset = options.los_mean;
  pipeline.gain = options.gain;
  return pipeline;
}

/// Widen a float block to the double-API shape (service-layer compat for
/// Float32 streams; the float block stays the bit-reference).
numeric::CMatrix widen(const numeric::CMatrixF& z) {
  numeric::CMatrix out(z.rows(), z.cols());
  const numeric::cfloat* src = z.data();
  numeric::cdouble* dst = out.data();
  for (std::size_t i = 0; i < z.size(); ++i) {
    dst[i] = numeric::cdouble(static_cast<double>(src[i].real()),
                              static_cast<double>(src[i].imag()));
  }
  return out;
}

}  // namespace

FadingStream::FadingStream(numeric::CMatrix desired_covariance,
                           FadingStreamOptions options)
    : FadingStream(ColoringPlan::create(std::move(desired_covariance),
                                        options.coloring),
                   options) {}

FadingStream::FadingStream(std::shared_ptr<const ColoringPlan> plan,
                           FadingStreamOptions options)
    : pipeline_(std::move(plan), stream_pipeline_options(options)),
      design_(std::make_shared<const doppler::BranchSourceDesign>(
          options.backend, options.idft_size, options.normalized_doppler,
          options.input_variance_per_dim, options.overlap)),
      parallel_branches_(options.parallel_branches),
      precision_(options.precision),
      seed_(options.seed) {
  // Proposed (Sec. 5 step 6): divide by the Eq. (19) post-filter variance.
  // Flawed mode (ref. [6]): divide by the input complex variance
  // 2 sigma_orig^2, as if the Doppler filter did not change the power.
  assumed_variance_ =
      options.variance_handling == VarianceHandling::AnalyticCorrection
          ? design_->output_variance()
          : 2.0 * options.input_variance_per_dim;
  if constexpr (telemetry::kCompiledIn) {
    const std::string labels =
        telemetry::label("backend",
                         doppler::stream_backend_name(options.backend)) +
        "," + telemetry::label("precision", precision_name(precision_));
    telemetry::Registry& registry = telemetry::Registry::global();
    block_histogram_ =
        registry.histogram("rfade_stream_block_fill_ns", labels);
    seek_histogram_ = registry.histogram("rfade_stream_seek_ns", labels);
  }
  sources_ = make_sources(seed_);
  if (options.batched_fill && pipeline_.dimension() > 0 &&
      doppler::OverlapSaveBatch::supports(*design_)) {
    std::vector<std::uint64_t> seeds(pipeline_.dimension());
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      seeds[j] = doppler::BranchSourceDesign::input_seed(seed_, j);
    }
    batch_ = std::make_unique<doppler::OverlapSaveBatch>(
        design_, std::move(seeds), precision_ == Precision::Float32);
  }
}

FadingStream::SourceList FadingStream::make_sources(std::uint64_t seed) const {
  SourceList sources;
  sources.reserve(pipeline_.dimension());
  for (std::size_t j = 0; j < pipeline_.dimension(); ++j) {
    sources.push_back(
        design_->make_source(doppler::BranchSourceDesign::input_seed(seed, j)));
  }
  return sources;
}

numeric::CMatrix FadingStream::emit(SourceList& sources, random::Rng& rng,
                                    std::uint64_t block_index,
                                    std::uint64_t first_instant,
                                    doppler::OverlapSaveBatch* batch,
                                    Workspace* workspace) const {
  const std::size_t n = pipeline_.dimension();
  const std::size_t m = design_->block_size();
  Workspace transient;
  Workspace& ws = workspace != nullptr ? *workspace : transient;
  if (ws.w.rows() != m || ws.w.cols() != n) {
    ws.w = numeric::CMatrix(m, n);
  }

  if (batch != nullptr) {
    // Batched overlap-save sweep: the backend keys its randomness off the
    // block index (its advance never touches the rng), so the whole
    // advance/fill/normalise picture collapses into one planar batch that
    // writes w(l, j) = u_j[l] / sigma_g directly — the same bits as the
    // per-branch path below.
    const double inv_sigma = 1.0 / std::sqrt(assumed_variance_);
    batch->fill_block(block_index, inv_sigma, ws.w, parallel_branches_);
    return pipeline_.color_block(ws.w, 1.0, first_instant);
  }

  // Stochastic halves run branch-by-branch in a fixed serial order — the
  // rng consumption order never depends on thread count.
  for (std::size_t j = 0; j < n; ++j) {
    sources[j]->advance(rng, block_index);
  }

  // The deterministic halves (IDFT / window / convolution) are
  // independent across branches: fill them concurrently.
  std::vector<numeric::CVector>& outputs = ws.outputs;
  outputs.resize(n);
  support::parallel_for_chunked(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t j = begin; j < end; ++j) {
          outputs[j].resize(m);
          sources[j]->fill(std::span<numeric::cdouble>(outputs[j]));
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel_branches_});

  // W row l is the vector (u_1[l] ... u_N[l]); the step-6 normalisation
  // 1/sigma_g is folded into this transpose pass (same scale-then-color
  // order, hence the same bits, as scaling inside color_block), then every
  // time instant is colored with L: Z_l = L W_l / sigma_g (steps 7-8).
  const double inv_sigma = 1.0 / std::sqrt(assumed_variance_);
  for (std::size_t j = 0; j < n; ++j) {
    // w(l, j) = u[l] / sigma_g as one vectorized strided pass
    // (bit-identical to the scalar transpose loop).
    numeric::scale_into_strided(outputs[j].data(), m, inv_sigma,
                                ws.w.data() + j, n);
  }
  return pipeline_.color_block(ws.w, 1.0, first_instant);
}

numeric::CMatrixF FadingStream::emit_f32(SourceList& sources, random::Rng& rng,
                                         std::uint64_t block_index,
                                         std::uint64_t first_instant,
                                         doppler::OverlapSaveBatch* batch,
                                         Workspace* workspace) const {
  const std::size_t n = pipeline_.dimension();
  const std::size_t m = design_->block_size();
  Workspace transient;
  Workspace& ws = workspace != nullptr ? *workspace : transient;
  if (ws.w_f.rows() != m || ws.w_f.cols() != n) {
    ws.w_f = numeric::CMatrixF(m, n);
  }
  // The step-6 normalisation narrowed once from the double constant, so
  // every float draw path divides by the same float scalar.
  const float inv_sigma =
      static_cast<float>(1.0 / std::sqrt(assumed_variance_));

  if (batch != nullptr) {
    batch->fill_block_f32(block_index, inv_sigma, ws.w_f, parallel_branches_);
    return pipeline_.color_block_f32(ws.w_f, first_instant);
  }

  // Same serial advance order as the double emit — the rng consumption
  // (and hence the block keying) is precision-independent.
  for (std::size_t j = 0; j < n; ++j) {
    sources[j]->advance(rng, block_index);
  }

  std::vector<numeric::CVectorF>& outputs = ws.outputs_f;
  outputs.resize(n);
  support::parallel_for_chunked(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t j = begin; j < end; ++j) {
          outputs[j].resize(m);
          sources[j]->fill_f32(std::span<numeric::cfloat>(outputs[j]));
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel_branches_});

  for (std::size_t j = 0; j < n; ++j) {
    numeric::scale_into_strided(outputs[j].data(), m, inv_sigma,
                                ws.w_f.data() + j, n);
  }
  return pipeline_.color_block_f32(ws.w_f, first_instant);
}

void FadingStream::replay(SourceList& sources, std::uint64_t seed,
                          std::uint64_t block_index, bool float32) const {
  const std::size_t n = pipeline_.dimension();
  random::Rng rng = random::block_substream(seed, block_index);
  for (std::size_t j = 0; j < n; ++j) {
    sources[j]->advance(rng, block_index);
  }
  support::parallel_for_chunked(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        // Replay in the stream's own precision so precision-specific
        // carried state (WOLA's previous float block) is rebuilt.
        std::vector<numeric::cdouble> scratch(float32 ? 0
                                                      : design_->block_size());
        std::vector<numeric::cfloat> scratch_f(float32 ? design_->block_size()
                                                       : 0);
        for (std::size_t j = begin; j < end; ++j) {
          if (float32) {
            sources[j]->fill_f32(scratch_f);
          } else {
            sources[j]->fill(scratch);
          }
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel_branches_});
}

std::uint64_t FadingStream::first_instant(std::uint64_t block_index) const {
  const std::uint64_t m = block_size();
  std::uint64_t first = 0;
  const bool overflows = __builtin_mul_overflow(block_index, m, &first) ||
                         first > std::numeric_limits<std::uint64_t>::max() -
                                     (m - 1);
  RFADE_EXPECTS(!overflows,
                "block index overflows the 64-bit instant range: "
                "block_index * block_size() + block_size() - 1 must fit");
  return first;
}

numeric::CMatrix FadingStream::next_block() {
  if (precision_ == Precision::Float32) {
    return widen(next_block_f32());
  }
  const std::uint64_t first = next_instant();
  const telemetry::ScopedTimer timer(block_histogram_.get());
  random::Rng rng = random::block_substream(seed_, next_block_);
  numeric::CMatrix z = emit(sources_, rng, next_block_, first, batch_.get(),
                            &workspace_);
  ++next_block_;
  if (metrics_tap_) metrics_tap_->observe(z);
  return z;
}

numeric::CMatrixF FadingStream::next_block_f32() {
  RFADE_EXPECTS(precision_ == Precision::Float32,
                "next_block_f32: stream was built with Precision::Float64");
  const std::uint64_t first = next_instant();
  const telemetry::ScopedTimer timer(block_histogram_.get());
  random::Rng rng = random::block_substream(seed_, next_block_);
  numeric::CMatrixF z = emit_f32(sources_, rng, next_block_, first,
                                 batch_.get(), &workspace_);
  ++next_block_;
  if (metrics_tap_) metrics_tap_->observe(z);
  return z;
}

numeric::RMatrix FadingStream::next_envelope_block() {
  return numeric::elementwise_abs(next_block());
}

void FadingStream::seek(std::uint64_t block_index) {
  // Checked before any carried state is reset, so a rejected seek leaves
  // the cursor where it was.
  (void)first_instant(block_index);
  const telemetry::ScopedTimer timer(seek_histogram_.get());
  for (auto& source : sources_) {
    source->reset();
  }
  if (batch_) {
    batch_->reset();
  }
  if (design_->history_blocks() > 0 && block_index > 0) {
    replay(sources_, seed_, block_index - 1,
           precision_ == Precision::Float32);
  }
  next_block_ = block_index;
}

numeric::CMatrix FadingStream::generate_block(std::uint64_t seed,
                                              std::uint64_t block_index) const {
  if (precision_ == Precision::Float32) {
    return widen(generate_block_f32(seed, block_index));
  }
  const std::uint64_t first = first_instant(block_index);
  SourceList sources = make_sources(seed);
  if (design_->history_blocks() > 0 && block_index > 0) {
    replay(sources, seed, block_index - 1, /*float32=*/false);
  }
  random::Rng rng = random::block_substream(seed, block_index);
  // Always the per-branch sources: the keyed path is the bit-reference
  // the batched cursor is pinned against.
  return emit(sources, rng, block_index, first, /*batch=*/nullptr,
              /*workspace=*/nullptr);
}

numeric::CMatrixF FadingStream::generate_block_f32(
    std::uint64_t seed, std::uint64_t block_index) const {
  RFADE_EXPECTS(precision_ == Precision::Float32,
                "generate_block_f32: stream was built with "
                "Precision::Float64");
  const std::uint64_t first = first_instant(block_index);
  SourceList sources = make_sources(seed);
  if (design_->history_blocks() > 0 && block_index > 0) {
    replay(sources, seed, block_index - 1, /*float32=*/true);
  }
  random::Rng rng = random::block_substream(seed, block_index);
  return emit_f32(sources, rng, block_index, first, /*batch=*/nullptr,
                  /*workspace=*/nullptr);
}

numeric::RMatrix FadingStream::generate_envelope_block(
    std::uint64_t seed, std::uint64_t block_index) const {
  return numeric::elementwise_abs(generate_block(seed, block_index));
}

numeric::CMatrix FadingStream::generate_block_from(
    random::Rng& rng, std::uint64_t first_instant) const {
  RFADE_EXPECTS(backend() == doppler::StreamBackend::IndependentBlock,
                "generate_block_from: caller-rng blocks exist only for the "
                "independent-block backend (the continuous backends key "
                "their own randomness; use next_block/generate_block)");
  SourceList sources = make_sources(0);
  return emit(sources, rng, 0, first_instant, /*batch=*/nullptr,
              /*workspace=*/nullptr);
}

}  // namespace rfade::core
