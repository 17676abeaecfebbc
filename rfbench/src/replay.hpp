#pragma once

/// \file replay.hpp
/// \brief Stage-by-stage replays of one keyed block through the public
///        functions of each layer, with a span around every call.
///
/// A replay must reproduce the black-box block bit for bit (the caller
/// checks) before any of its stage times are published: otherwise the
/// numbers would describe a different program.  Stage map:
///
///   stream, overlap-save  random::fill_complex_gaussians_planar[_f32]
///                         (two M-sample tape halves per branch) ->
///                         fft::RealConvolver[F]::convolve_packed ->
///                         wrap-free extraction (doppler self time) ->
///                         numeric::scale_into_strided ->
///                         core::SamplePipeline::color_block[_f32]
///   stream, WOLA / independent
///                         doppler::BranchSource advance + fill[_f32]
///                         (incl. the WOLA history replay) -> the same
///                         interleave and coloring stages
///   instant               random::fill_complex_gaussians_planar ->
///                         numeric::multiply_block_planar
///
/// The coloring GEMM inside color_block (numeric::multiply_block_raw on
/// the plan's L^T, double or float clone) is timed as a probe on the same
/// operands, so core.tail_ms is color_block minus the kernel it calls.

#include <cstdint>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "rfade/core/plan.hpp"
#include "rfade/doppler/branch_source.hpp"
#include "rfade/fft/fft.hpp"
#include "rfade/service/channel_spec.hpp"

namespace rfbench {

/// Replays keyed blocks of one stream-mode (channel, seed) timeline.
class StreamReplayer {
 public:
  /// Builds the branch design (timed: design_ns()), the coloring
  /// pipeline with the channel's mean/gain tail, and for overlap-save the
  /// convolvers over the design's kernel.
  StreamReplayer(const rfade::service::CompiledChannel& channel,
                 std::uint64_t seed);

  [[nodiscard]] double design_ns() const { return design_ns_; }
  [[nodiscard]] double assumed_variance() const {
    return design_->output_variance();
  }

  /// Block \p block_index, as Session::generate_block returns it
  /// (widened for Float32 channels).
  [[nodiscard]] rfade::numeric::CMatrix replay(std::uint64_t block_index,
                                               SpanTrace& trace, Work& work);

 private:
  void fill_overlap_save(std::uint64_t block_index, SpanTrace& trace,
                         Work& work);
  void fill_sources(std::uint64_t block_index, SpanTrace& trace, Work& work);
  [[nodiscard]] rfade::numeric::CMatrix color(std::uint64_t block_index,
                                              SpanTrace& trace, Work& work);

  const rfade::service::CompiledChannel& channel_;
  std::uint64_t seed_;
  bool float32_;
  std::size_t n_;
  std::size_t m_;
  double design_ns_ = 0;
  std::unique_ptr<const rfade::doppler::BranchSourceDesign> design_;
  std::unique_ptr<rfade::core::SamplePipeline> pipeline_;
  // overlap-save
  double tape_variance_ = 0;
  std::unique_ptr<rfade::fft::RealConvolver> convolver_;
  std::unique_ptr<rfade::fft::RealConvolverF> convolver_f_;
  rfade::numeric::RVector re_, im_;
  rfade::numeric::RVectorF re_f_, im_f_;
  rfade::numeric::CVector inputs_, work_;
  rfade::numeric::CVectorF inputs_f_, work_f_;
  // per-branch outputs and the W block
  std::vector<rfade::numeric::CVector> out_;
  std::vector<rfade::numeric::CVectorF> out_f_;
  rfade::numeric::CMatrix w_, gemm_;
  rfade::numeric::CMatrixF w_f_, gemm_f_;
};

/// Replays keyed blocks of an instant-mode Rayleigh channel.
class InstantReplayer {
 public:
  /// \throws std::runtime_error unless the channel is an instant
  /// Rayleigh pipeline with zero mean and unit gain (no tail stage).
  explicit InstantReplayer(const rfade::service::CompiledChannel& channel);

  [[nodiscard]] rfade::numeric::CMatrix replay(std::uint64_t seed,
                                               std::uint64_t block_index,
                                               SpanTrace& trace, Work& work);

 private:
  const rfade::service::CompiledChannel& channel_;
  rfade::numeric::RVector re_, im_;
};

}  // namespace rfbench
