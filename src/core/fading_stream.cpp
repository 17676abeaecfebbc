#include "rfade/core/fading_stream.hpp"

#include <cmath>
#include <span>
#include <utility>

#include "rfade/metrics/tap.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/xoshiro.hpp"
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

FadingStream::FadingStream(
    std::shared_ptr<const ColoringPlan> plan, FadingStreamOptions options,
    std::shared_ptr<const doppler::BranchSourceDesign> design)
    : pipeline_(std::move(plan), stream_pipeline_options(options)),
      design_(design != nullptr
                  ? std::move(design)
                  : std::make_shared<const doppler::BranchSourceDesign>(
                        options.backend, options.idft_size,
                        options.normalized_doppler,
                        options.input_variance_per_dim, options.overlap)),
      parallel_branches_(options.parallel_branches),
      precision_(options.precision),
      seed_(options.seed),
      key_(options.seed) {
  RFADE_EXPECTS(design_->matches(options.backend, options.idft_size,
                                 options.normalized_doppler,
                                 options.input_variance_per_dim,
                                 options.overlap),
                "FadingStream: design does not match the options");
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
  sources_ = make_sources(key_);
  if (pipeline_.dimension() > 0 &&
      doppler::OverlapSaveBatch::supports(*design_)) {
    std::vector<std::uint64_t> seeds(pipeline_.dimension());
    for (std::size_t j = 0; j < seeds.size(); ++j) {
      seeds[j] = doppler::BranchSourceDesign::input_seed(key_, j);
    }
    batch_ = std::make_unique<doppler::OverlapSaveBatch>(
        design_, std::move(seeds), precision_ == Precision::Float32);
  }
}

std::uint64_t FadingStream::stage_seed(std::uint64_t seed,
                                       std::uint64_t stage) noexcept {
  std::uint64_t state = seed + stage * 0x9E3779B97F4A7C15ULL;
  return random::splitmix64(state);
}

FadingStream FadingStream::product(FadingStream first, FadingStream second,
                                   std::uint64_t seed) {
  RFADE_EXPECTS(first.seed_ == stage_seed(seed, 0) &&
                    second.seed_ == stage_seed(seed, 1),
                "FadingStream::product: stage s must be keyed by "
                "stage_seed(seed, s)");
  RFADE_EXPECTS(!first.second_ && !second.second_ &&
                    first.dimension() == second.dimension() &&
                    first.block_size() == second.block_size() &&
                    first.precision_ == second.precision_ &&
                    first.next_block_ == second.next_block_,
                "FadingStream::product: stages must be single streams of "
                "equal dimension, block size, precision and cursor");
  first.product_covariance_ = first.effective_covariance();
  numeric::multiply_elementwise(first.product_covariance_,
                                second.effective_covariance());
  first.seed_ = seed;
  first.second_ = std::make_unique<FadingStream>(std::move(second));
  return first;
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

template <typename T>
numeric::Matrix<std::complex<T>> FadingStream::emit(
    SourceList& sources, random::Rng& rng, std::uint64_t block_index,
    std::uint64_t first_instant, doppler::OverlapSaveBatch* batch,
    Workspace<T>* workspace) const {
  const std::size_t n = pipeline_.dimension();
  const std::size_t m = design_->block_size();
  Workspace<T> transient;
  Workspace<T>& ws = workspace != nullptr ? *workspace : transient;
  if (ws.w.rows() != m || ws.w.cols() != n) {
    ws.w = numeric::Matrix<std::complex<T>>(m, n);
  }
  // The step-6 normalisation 1/sigma_g, narrowed once from the double
  // constant in float so every float draw path divides by the same
  // float scalar.
  const T inv_sigma = static_cast<T>(1.0 / std::sqrt(assumed_variance_));

  if (batch != nullptr) {
    // Batched overlap-save sweep: the backend keys its randomness off the
    // block index (its advance never touches the rng), so the whole
    // advance/fill/normalise picture collapses into one planar batch that
    // writes w(l, j) = u_j[l] / sigma_g directly — the same bits as the
    // per-branch path below.
    batch->fill_block(block_index, inv_sigma, ws.w, parallel_branches_);
    return pipeline_.color_normalized(ws.w, first_instant);
  }

  // Stochastic halves run branch-by-branch in a fixed serial order — the
  // rng consumption order never depends on thread count.
  for (std::size_t j = 0; j < n; ++j) {
    sources[j]->advance(rng, block_index);
  }

  // The deterministic halves (IDFT / window / convolution) are
  // independent across branches: fill them concurrently.
  std::vector<std::vector<std::complex<T>>>& outputs = ws.outputs;
  outputs.resize(n);
  support::parallel_for_chunked(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        for (std::size_t j = begin; j < end; ++j) {
          outputs[j].resize(m);
          sources[j]->fill(std::span<std::complex<T>>(outputs[j]));
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel_branches_});

  // W row l is the vector (u_1[l] ... u_N[l]); the step-6 normalisation
  // 1/sigma_g is folded into this transpose pass (same scale-then-color
  // order, hence the same bits, as scaling inside color_block), then every
  // time instant is colored with L: Z_l = L W_l / sigma_g (steps 7-8).
  for (std::size_t j = 0; j < n; ++j) {
    // w(l, j) = u[l] / sigma_g as one vectorized strided pass
    // (bit-identical to the scalar transpose loop).
    numeric::scale_into_strided(outputs[j].data(), m, inv_sigma,
                                ws.w.data() + j, n);
  }
  return pipeline_.color_normalized(ws.w, first_instant);
}

template <typename T>
void FadingStream::replay(SourceList& sources, std::uint64_t seed,
                          std::uint64_t block_index) const {
  const std::size_t n = pipeline_.dimension();
  random::Rng rng = random::block_substream(seed, block_index);
  for (std::size_t j = 0; j < n; ++j) {
    sources[j]->advance(rng, block_index);
  }
  support::parallel_for_chunked(
      n,
      [&](std::size_t begin, std::size_t end, std::size_t /*chunk*/) {
        std::vector<std::complex<T>> scratch(design_->block_size());
        for (std::size_t j = begin; j < end; ++j) {
          sources[j]->fill(std::span<std::complex<T>>(scratch));
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel_branches_});
}

std::uint64_t FadingStream::first_instant(std::uint64_t block_index) const {
  return checked_first_instant(block_index, block_size(), block_size());
}

template <typename T>
numeric::Matrix<std::complex<T>> FadingStream::next_block_as() {
  const std::uint64_t first = next_instant();
  const telemetry::ScopedTimer timer(block_histogram_.get());
  random::Rng rng = random::block_substream(key_, next_block_);
  numeric::Matrix<std::complex<T>> z =
      emit<T>(sources_, rng, next_block_, first, batch_.get(),
              &std::get<Workspace<T>>(workspace_));
  if (second_) numeric::multiply_elementwise(z, second_->next_block_as<T>());
  ++next_block_;
  if (metrics_tap_) metrics_tap_->observe(z);
  return z;
}

numeric::CMatrix FadingStream::next_block() {
  if (precision_ == Precision::Float32) {
    return widen(next_block_f32());
  }
  return next_block_as<double>();
}

numeric::CMatrixF FadingStream::next_block_f32() {
  RFADE_EXPECTS(precision_ == Precision::Float32,
                "next_block_f32: stream was built with Precision::Float64");
  return next_block_as<float>();
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
    if (precision_ == Precision::Float32) {
      replay<float>(sources_, key_, block_index - 1);
    } else {
      replay<double>(sources_, key_, block_index - 1);
    }
  }
  next_block_ = block_index;
  if (second_) second_->seek(block_index);
}

template <typename T>
numeric::Matrix<std::complex<T>> FadingStream::stage_block_as(
    std::uint64_t key, std::uint64_t block_index) const {
  const std::uint64_t first = first_instant(block_index);
  SourceList sources = make_sources(key);
  if (design_->history_blocks() > 0 && block_index > 0) {
    replay<T>(sources, key, block_index - 1);
  }
  random::Rng rng = random::block_substream(key, block_index);
  // Always the per-branch sources: the keyed path is the bit-reference
  // the batched cursor is pinned against.
  return emit<T>(sources, rng, block_index, first, /*batch=*/nullptr,
                 /*workspace=*/nullptr);
}

template <typename T>
numeric::Matrix<std::complex<T>> FadingStream::generate_block_as(
    std::uint64_t seed, std::uint64_t block_index) const {
  if (!second_) return stage_block_as<T>(seed, block_index);
  // A product stream keys each stage by its own stage key of seed.
  numeric::Matrix<std::complex<T>> z =
      stage_block_as<T>(stage_seed(seed, 0), block_index);
  numeric::multiply_elementwise(
      z, second_->stage_block_as<T>(stage_seed(seed, 1), block_index));
  return z;
}

numeric::CMatrix FadingStream::generate_block(std::uint64_t seed,
                                              std::uint64_t block_index) const {
  if (precision_ == Precision::Float32) {
    return widen(generate_block_f32(seed, block_index));
  }
  return generate_block_as<double>(seed, block_index);
}

numeric::CMatrixF FadingStream::generate_block_f32(
    std::uint64_t seed, std::uint64_t block_index) const {
  RFADE_EXPECTS(precision_ == Precision::Float32,
                "generate_block_f32: stream was built with "
                "Precision::Float64");
  return generate_block_as<float>(seed, block_index);
}

numeric::RMatrix FadingStream::generate_envelope_block(
    std::uint64_t seed, std::uint64_t block_index) const {
  return numeric::elementwise_abs(generate_block(seed, block_index));
}

numeric::CMatrix FadingStream::generate_block_from(
    random::Rng& rng, std::uint64_t first_instant) const {
  RFADE_EXPECTS(backend() == doppler::StreamBackend::IndependentBlock &&
                    !second_,
                "generate_block_from: caller-rng blocks exist only for "
                "single-stage independent-block streams (the continuous "
                "backends and product streams key their own randomness; "
                "use next_block/generate_block)");
  SourceList sources = make_sources(0);
  return emit<double>(sources, rng, 0, first_instant, /*batch=*/nullptr,
                      /*workspace=*/nullptr);
}

}  // namespace rfade::core
