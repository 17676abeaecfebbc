#include "rfade/doppler/branch_source.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <tuple>
#include <type_traits>
#include <utility>

#include "rfade/fft/fft.hpp"
#include "rfade/numeric/matrix_ops.hpp"
#include "rfade/random/bulk_gaussian.hpp"
#include "rfade/random/xoshiro.hpp"
#include "rfade/support/contracts.hpp"
#include "rfade/support/parallel.hpp"

namespace rfade::doppler {

const char* stream_backend_name(StreamBackend backend) noexcept {
  switch (backend) {
    case StreamBackend::IndependentBlock:
      return "independent-block";
    case StreamBackend::WindowedOverlapAdd:
      return "windowed-overlap-add";
    case StreamBackend::OverlapSaveFir:
      return "overlap-save-fir";
  }
  return "unknown";
}

// --- sources ----------------------------------------------------------------

namespace {

/// Shared advance half of the rng-driven backends: draw the block's
/// weighted spectrum in the caller's serial order, synthesize it later
/// (in fill) off the serial path.
class SpectrumDrawingSource : public BranchSource {
 public:
  explicit SpectrumDrawingSource(const BranchSourceDesign& design)
      : design_(design) {}

  void advance(random::Rng& rng, std::uint64_t /*block_index*/) override {
    spectrum_ = design_.branch().draw_spectrum(rng);
  }

 protected:
  /// The drawn block's IDFT realisation in the emission precision.
  /// Synthesis always runs in double (the IDFT *is* this backend's cost
  /// and the design is double); the float pipeline narrows the result
  /// once.  Returns a warm member buffer — steady state allocates nothing.
  template <typename T>
  std::vector<std::complex<T>>& synthesize() {
    design_.branch().synthesize_into(spectrum_, wide_);
    if constexpr (std::is_same_v<T, double>) {
      return wide_;
    } else {
      narrow_.resize(wide_.size());
      for (std::size_t l = 0; l < wide_.size(); ++l) {
        narrow_[l] = numeric::cfloat(wide_[l]);
      }
      return narrow_;
    }
  }

  const BranchSourceDesign& design_;
  numeric::CVector spectrum_;

 private:
  numeric::CVector wide_;
  numeric::CVectorF narrow_;
};

}  // namespace

/// Paper Sec. 5 verbatim: every block is an independent IDFT realisation.
class IndependentBlockBranchSource final : public SpectrumDrawingSource {
 public:
  using SpectrumDrawingSource::SpectrumDrawingSource;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return design_.block_size();
  }

  void fill(std::span<numeric::cdouble> out) override { emit(out); }
  void fill(std::span<numeric::cfloat> out) override { emit(out); }

  void reset() override { spectrum_.clear(); }

 private:
  template <typename T>
  void emit(std::span<std::complex<T>> out) {
    const std::vector<std::complex<T>>& u = synthesize<T>();
    std::copy(u.begin(), u.end(), out.begin());
  }
};

/// Equal-power crossfade of consecutive independent block realisations.
/// Chunk 0 plays the first block's head verbatim; every later chunk blends
/// the previous block's tail into the current block's head over `overlap`
/// samples, emitted M - overlap samples at a time.  The
/// float pipeline crossfades the narrowed blocks in float over the
/// narrowed fade weights — the float stream's own reference sequence,
/// replayed identically by keyed generation and seeks.
class WolaBranchSource final : public SpectrumDrawingSource {
 public:
  using SpectrumDrawingSource::SpectrumDrawingSource;

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return design_.block_size();
  }

  void fill(std::span<numeric::cdouble> out) override { emit(out); }
  void fill(std::span<numeric::cfloat> out) override { emit(out); }

  void reset() override {
    spectrum_.clear();
    std::get<numeric::CVector>(previous_).clear();
    std::get<numeric::CVectorF>(previous_).clear();
  }

 private:
  template <typename T>
  void emit(std::span<std::complex<T>> out) {
    const std::size_t hop = design_.block_size();
    const std::size_t overlap = design_.overlap();
    const BranchSourceDesign::Operators<T>& ops = design_.operators<T>();
    std::vector<std::complex<T>>& previous =
        std::get<std::vector<std::complex<T>>>(previous_);
    std::vector<std::complex<T>>& current = synthesize<T>();
    if (previous.empty()) {
      std::copy(current.begin(), current.begin() + hop, out.begin());
    } else {
      // out[i] = fade_out[i] * previous[hop+i] + fade_in[i] * current[i],
      // as one vectorized pass (bit-identical to the scalar loop).
      numeric::crossfade_block(ops.fade_out.data(), ops.fade_in.data(),
                               previous.data() + hop, current.data(), overlap,
                               out.data());
      std::copy(current.begin() + overlap, current.begin() + hop,
                out.begin() + overlap);
    }
    // Rotate by swapping so the outgoing buffer's capacity feeds the next
    // synthesis — steady state allocates nothing.
    std::swap(previous, current);
  }

  /// The previous block, in the precision the source is driven in.
  std::tuple<numeric::CVector, numeric::CVectorF> previous_;
};

/// Exact continuous stream: overlap-save FFT convolution of the centered
/// Eq. (21) impulse response against a persistent white Gaussian input
/// stream.  Output block b is the linear convolution evaluated over input
/// samples [bM, bM + 2M) of the branch's bulk-Philox substream — a pure
/// function of (branch seed, block index), with a shift fast path when
/// blocks are consumed in order.  The float pipeline runs the same steps
/// on the float Philox tape (random::fill_complex_gaussians_planar at the
/// same seed and absolute offsets — positionally pure, so the same shift
/// fast path and seek behaviour hold) through the design's float
/// convolver; the batched sweep reproduces either sequence exactly.
class OverlapSaveBranchSource final : public BranchSource {
 public:
  OverlapSaveBranchSource(const BranchSourceDesign& design,
                          std::uint64_t branch_seed)
      : design_(design), branch_seed_(branch_seed) {}

  [[nodiscard]] std::size_t block_size() const noexcept override {
    return design_.block_size();
  }

  void advance(random::Rng& /*rng*/, std::uint64_t block_index) override {
    pending_block_ = block_index;
  }

  void fill(std::span<numeric::cdouble> out) override { emit(out); }
  void fill(std::span<numeric::cfloat> out) override { emit(out); }

  void reset() override {
    std::get<Window<double>>(windows_).valid = false;
    std::get<Window<float>>(windows_).valid = false;
  }

 private:
  /// The input window [block*M, block*M + 2M) of the branch substream in
  /// one precision, plus its tape and convolution workspaces.
  template <typename T>
  struct Window {
    std::vector<std::complex<T>> inputs;
    std::uint64_t block = 0;
    bool valid = false;
    std::vector<T> re;
    std::vector<T> im;
    std::vector<std::complex<T>> scratch;  ///< convolver workspace (2M)
  };

  template <typename T>
  void emit(std::span<std::complex<T>> out) {
    const std::size_t m = design_.block_size();
    const fft::BasicRealConvolver<T>* convolver =
        design_.operators<T>().convolver.get();
    if (convolver == nullptr) {
      // Non-power-of-two 2M has no float transform: run the double
      // Bluestein fill and narrow — still deterministic and keyed, just
      // not float-accelerated.
      if constexpr (std::is_same_v<T, double>) {
        fill_bluestein(out);
      } else {
        tmp_.resize(m);
        fill_bluestein(tmp_);
        for (std::size_t i = 0; i < m; ++i) {
          out[i] = numeric::cfloat(tmp_[i]);
        }
      }
      return;
    }
    Window<T>& window = std::get<Window<T>>(windows_);
    ensure_inputs(window, pending_block_);
    // Circular 2M convolution; entries [M-1, 2M) are wrap-free, i.e. the
    // linear convolution of the kernel with this input span.  The I/Q
    // tapes already live packed as one complex sequence, so the
    // convolver's single forward/inverse pass over the cached plan
    // convolves both quadratures (pairing trick).
    convolver->convolve_packed(window.inputs, window.scratch);
    const T scale = T{1} / static_cast<T>(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = window.scratch[m - 1 + i] * scale;
    }
  }

  /// Non-power-of-two 2M: the design's Bluestein plan with preallocated
  /// out/scratch workspaces — same value sequence as the historical
  /// fft::dft/idft calls, without rebuilding chirp tables or allocating
  /// four vectors per block.
  void fill_bluestein(std::span<numeric::cdouble> out) {
    const std::size_t m = design_.block_size();
    Window<double>& window = std::get<Window<double>>(windows_);
    ensure_inputs(window, pending_block_);
    const fft::BluesteinPlan& plan = *design_.fallback_plan_;
    plan.transform(window.inputs, spectrum_, fft::Direction::Forward, bwork_);
    for (std::size_t k = 0; k < spectrum_.size(); ++k) {
      spectrum_[k] *= design_.kernel_spectrum_[k];
    }
    plan.transform(spectrum_, y_, fft::Direction::Inverse, bwork_);
    const double scale = 1.0 / static_cast<double>(2 * m);
    for (std::size_t i = 0; i < m; ++i) {
      out[i] = y_[m - 1 + i] * scale;
    }
  }

  /// Make \p window hold samples [block*M, block*M + 2M) of the branch
  /// input substream, shifting the overlapping half when advancing
  /// sequentially and regenerating both halves otherwise.
  template <typename T>
  void ensure_inputs(Window<T>& window, std::uint64_t block) {
    const std::size_t m = design_.block_size();
    if (window.re.size() < m) {
      window.re.resize(m);
      window.im.resize(m);
    }
    if (window.valid && block == window.block) {
      return;
    }
    if (window.valid && block == window.block + 1) {
      std::copy(window.inputs.begin() + m, window.inputs.end(),
                window.inputs.begin());
      fetch(window, block * m + m, window.inputs.data() + m);
    } else {
      window.inputs.resize(2 * m);
      fetch(window, block * m, window.inputs.data());
      fetch(window, block * m + m, window.inputs.data() + m);
    }
    window.block = block;
    window.valid = true;
  }

  /// One M-sample planar bulk fill at absolute stream offset
  /// \p first_sample, interleaved into \p out.
  template <typename T>
  void fetch(Window<T>& window, std::uint64_t first_sample,
             std::complex<T>* out) {
    const std::size_t m = design_.block_size();
    random::fill_complex_gaussians_planar(
        branch_seed_, /*stream=*/0, design_.input_stream_variance_,
        first_sample, m, window.re.data(), window.im.data());
    for (std::size_t t = 0; t < m; ++t) {
      out[t] = std::complex<T>(window.re[t], window.im[t]);
    }
  }

  const BranchSourceDesign& design_;
  std::uint64_t branch_seed_;
  std::uint64_t pending_block_ = 0;
  std::tuple<Window<double>, Window<float>> windows_;
  numeric::CVector spectrum_;  ///< Bluestein fallback: forward output
  numeric::CVector y_;         ///< Bluestein fallback: inverse output
  numeric::CVector bwork_;     ///< Bluestein fallback: inner scratch
  numeric::CVector tmp_;       ///< float fallback: double block to narrow
};

// --- design -----------------------------------------------------------------

BranchSourceDesign::BranchSourceDesign(StreamBackend backend, std::size_t m,
                                       double fm,
                                       double input_variance_per_dim,
                                       std::size_t overlap)
    : backend_(backend), branch_(m, fm, input_variance_per_dim) {
  switch (backend_) {
    case StreamBackend::IndependentBlock:
      RFADE_EXPECTS(overlap == 0,
                    "BranchSourceDesign: overlap is a WOLA parameter");
      block_size_ = m;
      break;
    case StreamBackend::WindowedOverlapAdd: {
      overlap_ = overlap == 0 ? m / 8 : overlap;
      RFADE_EXPECTS(overlap_ >= 1,
                    "BranchSourceDesign: WOLA overlap must be >= 1");
      RFADE_EXPECTS(overlap_ < m / 2,
                    "BranchSourceDesign: WOLA overlap must be < M/2");
      block_size_ = m - overlap_;
      Operators<double>& ops = std::get<Operators<double>>(operators_);
      ops.fade_in.resize(overlap_);
      ops.fade_out.resize(overlap_);
      for (std::size_t i = 0; i < overlap_; ++i) {
        // Equal-power weights: w = (i + 1) / (overlap + 1).
        const double w = static_cast<double>(i + 1) /
                         static_cast<double>(overlap_ + 1);
        ops.fade_in[i] = std::sqrt(w);
        ops.fade_out[i] = std::sqrt(1.0 - w);
      }
      break;
    }
    case StreamBackend::OverlapSaveFir: {
      RFADE_EXPECTS(overlap == 0,
                    "BranchSourceDesign: overlap is a WOLA parameter");
      block_size_ = m;
      // Impulse response h = IDFT(F): DFT(h) = F, so h convolved with a
      // white stream of per-sample complex variance 2 sigma_orig^2 / M
      // reproduces the Fig. 2 block statistics — Parseval gives
      // E|y|^2 = (2 sigma_orig^2 / M) sum|h|^2 = sigma_g^2 (Eq. 19).
      numeric::CVector f(m);
      for (std::size_t k = 0; k < m; ++k) {
        f[k] = numeric::cdouble(branch_.filter().coefficients[k], 0.0);
      }
      const numeric::CVector h = fft::idft(f);
      // h is real (F is real and even) up to ~1e-16 IDFT rounding residue
      // in the imaginary part, which we drop: a real kernel is what lets
      // the I/Q tapes share one complex transform (fft::RealConvolver).
      // It peaks at l = 0 (mod M); center it so the *linear* FIR
      // autocorrelation matches the circular Eq. (17) law up to the small
      // tail wraparound, at the price of an irrelevant M/2 group delay.
      numeric::RVector centered(2 * m, 0.0);
      const std::size_t shift = m / 2;
      for (std::size_t k = 0; k < m; ++k) {
        centered[k] = h[(k + m - shift) % m].real();
      }
      input_stream_variance_ = 2.0 * input_variance_per_dim /
                               static_cast<double>(m);
      if (fft::is_power_of_two(2 * m)) {
        std::get<Operators<double>>(operators_).convolver =
            std::make_shared<const fft::RealConvolver>(
                std::make_shared<const fft::Pow2Plan>(2 * m), centered);
      } else {
        numeric::CVector complexified(2 * m);
        for (std::size_t k = 0; k < 2 * m; ++k) {
          complexified[k] = numeric::cdouble(centered[k], 0.0);
        }
        kernel_spectrum_ = fft::dft(complexified);
        fallback_plan_ = std::make_shared<const fft::BluesteinPlan>(2 * m);
      }
      break;
    }
  }
  // The float32 emission operators: the double ones narrowed once.
  const Operators<double>& wide = std::get<Operators<double>>(operators_);
  Operators<float>& narrow = std::get<Operators<float>>(operators_);
  narrow.fade_in.assign(wide.fade_in.begin(), wide.fade_in.end());
  narrow.fade_out.assign(wide.fade_out.begin(), wide.fade_out.end());
  if (wide.convolver != nullptr) {
    const numeric::CVector& spectrum = wide.convolver->kernel_spectrum();
    numeric::CVectorF spectrum_f(spectrum.size());
    for (std::size_t k = 0; k < spectrum.size(); ++k) {
      spectrum_f[k] = numeric::cfloat(spectrum[k]);
    }
    narrow.convolver = std::make_shared<const fft::RealConvolverF>(
        std::make_shared<const fft::Pow2PlanF>(wide.convolver->size()),
        std::move(spectrum_f));
  }
}

bool BranchSourceDesign::matches(StreamBackend backend, std::size_t m,
                                 double fm, double input_variance_per_dim,
                                 std::size_t overlap) const noexcept {
  const std::size_t expected_overlap =
      backend == StreamBackend::WindowedOverlapAdd && overlap == 0 ? m / 8
                                                                   : overlap;
  return backend == backend_ && m == branch_.block_size() &&
         fm == branch_.filter().normalized_doppler &&
         input_variance_per_dim == branch_.input_variance_per_dim() &&
         expected_overlap == overlap_;
}

std::size_t BranchSourceDesign::continuity_horizon() const noexcept {
  switch (backend_) {
    case StreamBackend::IndependentBlock:
      return 0;
    case StreamBackend::WindowedOverlapAdd:
      return overlap_;
    case StreamBackend::OverlapSaveFir:
      return std::numeric_limits<std::size_t>::max();
  }
  return 0;
}

std::unique_ptr<BranchSource> BranchSourceDesign::make_source(
    std::uint64_t branch_seed) const {
  switch (backend_) {
    case StreamBackend::IndependentBlock:
      return std::make_unique<IndependentBlockBranchSource>(*this);
    case StreamBackend::WindowedOverlapAdd:
      return std::make_unique<WolaBranchSource>(*this);
    case StreamBackend::OverlapSaveFir:
      return std::make_unique<OverlapSaveBranchSource>(*this, branch_seed);
  }
  return nullptr;
}

// --- batched overlap-save sweep ---------------------------------------------

/// One lane group of the batched sweep: up to kWidth branches whose 2M-point input windows and
/// transform buffers live in planar point-major / lane-minor layout,
/// re[p * lanes + b].
template <typename T>
struct OverlapSaveBatch::LaneGroup {
  std::size_t first = 0;  ///< first branch (column) of this group
  std::size_t lanes = 0;  ///< branches in this group
  /// Cached input windows [input_block*M, input_block*M + 2M) per lane.
  std::vector<T> in_re;
  std::vector<T> in_im;
  /// Transform workspace (the batched FFTs run in place).
  std::vector<T> work_re;
  std::vector<T> work_im;
  /// One branch's M-sample bulk-Philox tape, scattered into the planar
  /// layout after each fill.
  std::vector<T> tape_re;
  std::vector<T> tape_im;
  std::uint64_t input_block = 0;
  bool have_inputs = false;

  /// One zmm register per butterfly operand: 8 double lanes or 16 float.
  static constexpr std::size_t kWidth = 64 / sizeof(T);

  LaneGroup(std::size_t first_branch, std::size_t lane_count, std::size_t m)
      : first(first_branch), lanes(lane_count), in_re(2 * m * lanes),
        in_im(2 * m * lanes), work_re(2 * m * lanes), work_im(2 * m * lanes),
        tape_re(m), tape_im(m) {}

  /// One M-sample bulk fill per lane at absolute stream offset
  /// \p first_sample, scattered into input rows [dest, dest + M) — the
  /// same fill_complex_gaussians_planar calls as the per-branch fetch,
  /// so the values are identical by construction.
  void fetch(const BranchSourceDesign& design, const std::uint64_t* seeds,
             std::uint64_t first_sample, std::size_t dest) {
    const std::size_t m = design.block_size();
    for (std::size_t b = 0; b < lanes; ++b) {
      random::fill_complex_gaussians_planar(
          seeds[first + b], /*stream=*/0, design.input_stream_variance_,
          first_sample, m, tape_re.data(), tape_im.data());
      for (std::size_t t = 0; t < m; ++t) {
        in_re[(dest + t) * lanes + b] = tape_re[t];
        in_im[(dest + t) * lanes + b] = tape_im[t];
      }
    }
  }

  /// Make the cached windows cover \p block, shifting the overlapping
  /// half when advancing sequentially and regenerating both otherwise.
  void ensure_inputs(const BranchSourceDesign& design,
                     const std::uint64_t* seeds, std::uint64_t block) {
    const std::size_t m = design.block_size();
    if (have_inputs && block == input_block) {
      return;
    }
    if (have_inputs && block == input_block + 1) {
      const std::size_t half = m * lanes;
      std::copy(in_re.begin() + half, in_re.end(), in_re.begin());
      std::copy(in_im.begin() + half, in_im.end(), in_im.begin());
      fetch(design, seeds, block * m + m, m);
    } else {
      fetch(design, seeds, block * m, 0);
      fetch(design, seeds, block * m + m, m);
    }
    input_block = block;
    have_inputs = true;
  }

  /// Batched convolution of every lane's window and extraction into the
  /// output columns: forward batch FFT (its bit-reversal permutation is
  /// the gather that copies the cached windows into the workspace, and
  /// its last pass multiplies by the shared kernel spectrum), inverse
  /// batch FFT, then w(l, first + b) = (wrap-free sample * 1/(2M)) *
  /// post_scale — the same two componentwise multiplies, in the same
  /// order, as the per-branch extract + scale_into_strided passes.
  void fill_into(const BranchSourceDesign& design, T post_scale,
                 numeric::Matrix<std::complex<T>>& w) {
    const std::size_t m = design.block_size();
    const std::size_t m2 = 2 * m;
    const fft::BasicRealConvolver<T>& convolver =
        *design.operators<T>().convolver;
    const fft::BasicPow2Plan<T>& plan = *convolver.plan();
    plan.transform_batched(in_re.data(), in_im.data(), work_re.data(),
                           work_im.data(), lanes, fft::Direction::Forward,
                           convolver.kernel_spectrum().data());
    plan.transform_batched(work_re.data(), work_im.data(), lanes,
                           fft::Direction::Inverse);
    const T scale = T{1} / static_cast<T>(m2);
    for (std::size_t l = 0; l < m; ++l) {
      const T* row_re = work_re.data() + (m - 1 + l) * lanes;
      const T* row_im = work_im.data() + (m - 1 + l) * lanes;
      std::complex<T>* out = &w(l, first);
      for (std::size_t b = 0; b < lanes; ++b) {
        const T ur = row_re[b] * scale;
        const T ui = row_im[b] * scale;
        out[b] = std::complex<T>(ur * post_scale, ui * post_scale);
      }
    }
  }
};

OverlapSaveBatch::OverlapSaveBatch(
    std::shared_ptr<const BranchSourceDesign> design,
    std::vector<std::uint64_t> branch_seeds, bool float32)
    : design_(std::move(design)), branch_seeds_(std::move(branch_seeds)) {
  RFADE_EXPECTS(design_ != nullptr && supports(*design_),
                "OverlapSaveBatch: design must be a power-of-two "
                "overlap-save backend");
  RFADE_EXPECTS(!branch_seeds_.empty(),
                "OverlapSaveBatch: need at least one branch seed");
  const auto build = [this](auto& groups) {
    using Group = typename std::decay_t<decltype(groups)>::value_type;
    for (std::size_t first = 0; first < branch_seeds_.size();
         first += Group::kWidth) {
      groups.emplace_back(
          first, std::min(Group::kWidth, branch_seeds_.size() - first),
          design_->block_size());
    }
  };
  if (float32) {
    build(std::get<std::vector<LaneGroup<float>>>(groups_));
  } else {
    build(std::get<std::vector<LaneGroup<double>>>(groups_));
  }
}

OverlapSaveBatch::~OverlapSaveBatch() = default;

bool OverlapSaveBatch::supports(const BranchSourceDesign& design) {
  return design.backend() == StreamBackend::OverlapSaveFir &&
         design.operators<double>().convolver != nullptr;
}

std::size_t OverlapSaveBatch::branches() const noexcept {
  return branch_seeds_.size();
}

template <typename T>
void OverlapSaveBatch::fill_block(std::uint64_t block_index, T post_scale,
                                  numeric::Matrix<std::complex<T>>& w,
                                  bool parallel) {
  std::vector<LaneGroup<T>>& groups = std::get<std::vector<LaneGroup<T>>>(
      groups_);
  RFADE_EXPECTS(!groups.empty(),
                "OverlapSaveBatch: built for the other precision");
  RFADE_EXPECTS(w.rows() == design_->block_size() &&
                    w.cols() == branch_seeds_.size(),
                "OverlapSaveBatch: output matrix shape mismatch");
  // Lane groups are independent (disjoint state, disjoint output
  // columns): the group sweep parallelises exactly like the per-branch
  // fills, with identical output either way.
  const auto fill_group = [&](std::size_t g) {
    groups[g].ensure_inputs(*design_, branch_seeds_.data(), block_index);
    groups[g].fill_into(*design_, post_scale, w);
  };
  // The chunk body captures one pointer, so its std::function stores it
  // inline: a steady-state sweep allocates nothing.
  support::parallel_for_chunked(
      groups.size(),
      [body = &fill_group](std::size_t begin, std::size_t end,
                           std::size_t /*chunk*/) {
        for (std::size_t g = begin; g < end; ++g) {
          (*body)(g);
        }
      },
      {/*chunk_size=*/1, /*serial=*/!parallel});
}

template void OverlapSaveBatch::fill_block<double>(std::uint64_t, double,
                                                   numeric::CMatrix&, bool);
template void OverlapSaveBatch::fill_block<float>(std::uint64_t, float,
                                                  numeric::CMatrixF&, bool);

void OverlapSaveBatch::reset() {
  for (LaneGroup<double>& group : std::get<0>(groups_)) {
    group.have_inputs = false;
  }
  for (LaneGroup<float>& group : std::get<1>(groups_)) {
    group.have_inputs = false;
  }
}

std::uint64_t BranchSourceDesign::input_seed(std::uint64_t seed,
                                             std::size_t branch) {
  // splitmix64 over (seed, branch), salted so branch input streams are
  // disjoint from the cascade stage seeds (splitmix of
  // seed + (stage+1)*golden) and the TWDP phase seed for every plausible
  // branch count.
  std::uint64_t state = (seed ^ 0x0B5A9C1D2E3F4A5BULL) +
                        (static_cast<std::uint64_t>(branch) + 1) *
                            0x9E3779B97F4A7C15ULL;
  return random::splitmix64(state);
}

}  // namespace rfade::doppler
