#pragma once

/// \file accumulators.hpp
/// \brief Single-pass, shard-mergeable streaming accumulators for
///        link-level second-order statistics.
///
/// Unlike the moment/covariance accumulators (service/accumulators.hpp),
/// whose statistics are plain per-sample sums, the metrics here are
/// *sequential*: level crossings compare a sample with its predecessor,
/// and lag products pair a sample with one d instants earlier.  Shard
/// merging therefore has to carry explicit cross-boundary state — the
/// open fade run at a shard's edges, and the first/last max-lag samples
/// (lag ring) — and merge() stitches the seam exactly:
///
///   * integer counts (crossings, samples below, run lengths) are
///     stitched with pure integer arithmetic, so merged == single-pass
///     trivially bit-for-bit;
///   * real sums (lag products, MI moments) live in support::ExactSum,
///     and merge() folds the seam-spanning products from the carried
///     boundary samples into the same order-invariant superaccumulator —
///     the merged state accumulates exactly the single-pass *multiset*
///     of terms, hence reads out bit-identically.
///
/// merge() consumes an *adjacent following* segment (this = earlier
/// samples, other = the samples immediately after); with that ordering
/// it is associative, so any K-way sharding of a block range, merged in
/// any association order, equals the single-pass accumulator bit-for-bit
/// — the contract the metrics tests pin on real stream output.
///
/// All accumulators take complex blocks (rows = instants, cols =
/// branches) in double or float32 (widened exactly, preserving the
/// bit-exact contract for float-fed shards).  Not thread-safe: one
/// instance per shard, merge at the join.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rfade/numeric/matrix.hpp"
#include "rfade/support/exact_sum.hpp"

namespace rfade::metrics {

/// Read-out of one (branch, threshold) cell of LevelCrossingAccumulator.
struct LevelCrossingStats {
  std::uint64_t samples = 0;         ///< instants observed
  std::uint64_t samples_below = 0;   ///< instants with r < threshold
  std::uint64_t up_crossings = 0;    ///< transitions r[t-1] < T <= r[t]
  /// Longest fade (below-run) bounded by above-threshold samples on both
  /// sides within the observed range (edge runs are censored).
  std::uint64_t longest_fade = 0;
  /// Up-crossings per sample; multiply by the sample rate for crossings/s.
  /// Compares against stats::theoretical_lcr(rho, fm) with normalised fm.
  double lcr_per_sample = 0.0;
  /// Mean fade duration in samples (samples_below / up_crossings); 0
  /// until the first crossing (the stats::measure_fading_metrics
  /// convention).  Compares against
  /// stats::theoretical_afd(rho, fm) with normalised fm.
  double afd_samples = 0.0;
};

/// Streaming level-crossing / fade-duration counter at configurable
/// normalised thresholds rho (envelope threshold rho * rms per branch).
///
/// Uses the same crossing convention as stats::measure_fading_metrics
/// (up-crossing = previous strictly below, current at-or-above), so the
/// two agree exactly on a shared trace.
class LevelCrossingAccumulator {
 public:
  /// \param dimension   branches N >= 1.
  /// \param thresholds  normalised thresholds rho > 0 (at least one).
  /// \param branch_rms  per-branch RMS envelope (size N) used to scale
  ///                    rho into absolute levels; typically
  ///                    sqrt(diag of the effective covariance).
  LevelCrossingAccumulator(std::size_t dimension,
                           std::vector<double> thresholds,
                           std::vector<double> branch_rms);

  /// Folds the envelopes |z| of a complex block (count x N).  The block
  /// is swept one (branch, threshold) cell at a time down the column,
  /// which takes the same below/above decisions and steps in the same
  /// per-cell order as a row-by-row pass.  T = float (the float32
  /// pipeline): samples widen to double exactly, so float shards keep
  /// the bit-exact merge contract among themselves.
  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block);

  /// Folds an envelope block (count x N, r >= 0) directly.
  void accumulate_envelopes(const numeric::RMatrix& envelopes);

  /// Stitches \p other, whose samples immediately follow this
  /// accumulator's, onto the end: counts add, and the seam (this's
  /// trailing below-run meeting other's leading run) is re-joined exactly
  /// as a single pass would have seen it.  Associative under adjacency.
  /// \throws DimensionError when dimensions/thresholds differ.
  void merge(const LevelCrossingAccumulator& other);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] const std::vector<double>& thresholds() const noexcept {
    return thresholds_;
  }
  /// Instants folded in (per branch).
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Statistics of (\p branch, thresholds()[\p threshold_index]); a pure
  /// function of the accumulated sequence.
  [[nodiscard]] LevelCrossingStats finalize(
      std::size_t branch, std::size_t threshold_index) const;

 private:
  /// One (branch, threshold) state-machine cell.  `run` is the open
  /// trailing below-run; until the first above sample (`seen_above`)
  /// the whole segment is one leading run and `leading` is meaningless.
  struct Cell {
    std::uint64_t below = 0;
    std::uint64_t crossings = 0;
    std::uint64_t leading = 0;  ///< below-run before the first above sample
    std::uint64_t run = 0;      ///< open below-run at the end
    std::uint64_t longest = 0;  ///< longest both-side-closed below-run
    bool seen_above = false;
  };

  static void step(Cell& cell, bool below) noexcept;
  void fold(std::size_t branch, double envelope);

  std::size_t dimension_;
  std::vector<double> thresholds_;
  std::vector<double> levels_;  ///< absolute levels, row-major N x T
  /// |z|^2 decision band per level (see accumulate): below when
  /// |z|^2 < band_low_, at-or-above when |z|^2 >= band_high_, std::abs in
  /// between.  Both NaN for a level whose square the band cannot
  /// represent, which sends every sample to std::abs.
  std::vector<double> band_low_;
  std::vector<double> band_high_;
  std::vector<Cell> cells_;     ///< row-major N x T
  std::uint64_t count_ = 0;
};

/// Streaming complex autocorrelation at a configurable lag list.
///
/// Per (branch, lag d) the exact sums of z_t conj(z_{t-d}) over every
/// pair in the observed range; lag 0 (power) is always tracked for
/// normalisation.  The boundary state carried for merging is the first
/// and last max-lag samples of the segment; merge() forms exactly the
/// seam-spanning products a single pass would have formed.
class AcfAccumulator {
 public:
  /// \param dimension branches N >= 1.
  /// \param lags      positive lags (in samples) to track; deduplicated
  ///                  and sorted, lag 0 implicitly added.  \pre at least
  ///                  one positive lag.
  AcfAccumulator(std::size_t dimension, std::vector<std::size_t> lags);

  /// Folds a complex block (count x N); float blocks widen exactly (see
  /// LevelCrossingAccumulator).  Per branch the block is one column: the
  /// carried last max-lag samples, then the block's, from which every
  /// lag's products are formed (the same lag_product of the same doubles
  /// as a row-by-row pass, pairs before the stream's first lag samples
  /// skipped) and folded by one ExactSum block add per lag and part — so
  /// the sums hold exactly the row-by-row terms.
  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block);

  /// Stitches the adjacent following segment \p other (see file comment).
  /// \throws DimensionError when dimensions/lag lists differ.
  void merge(const AcfAccumulator& other);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  /// The tracked lags, sorted, starting with 0.
  [[nodiscard]] const std::vector<std::size_t>& lags() const noexcept {
    return lags_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Raw exact sum of z_t conj(z_{t-lag}) for bit-exactness tests.
  /// \p lag must be one of lags().
  [[nodiscard]] numeric::cdouble correlation_sum(std::size_t branch,
                                                 std::size_t lag) const;

  /// Normalised autocorrelation estimate at \p lag (one of lags()):
  /// (sum / (count - lag)) / (power sum / count); for the Jakes spectrum
  /// its real part estimates J0(2 pi fm lag).  \throws ValueError when
  /// count() <= lag or the trace has zero power.
  [[nodiscard]] numeric::cdouble autocorrelation(std::size_t branch,
                                                 std::size_t lag) const;

 private:
  std::size_t lag_index(std::size_t lag) const;

  std::size_t dimension_;
  std::vector<std::size_t> lags_;  ///< sorted, lags_[0] == 0
  std::size_t max_lag_;
  std::uint64_t count_ = 0;
  std::vector<support::ExactSum> re_;  ///< row-major N x lags
  std::vector<support::ExactSum> im_;
  /// First min(count, max_lag) samples per branch, in stream order.
  std::vector<std::vector<numeric::cdouble>> head_;
  /// Ring of the last max_lag samples per branch; sample at absolute
  /// index q lives at q % max_lag.
  std::vector<std::vector<numeric::cdouble>> ring_;
  /// count_ % max_lag_: the slot the next sample goes to.
  std::size_t slot_ = 0;
  /// accumulate's O(M) scratch, grown and never shrunk, so steady-state
  /// blocks allocate nothing: one branch's carried samples then its block
  /// column, and one lag's product parts.
  std::vector<numeric::cdouble> column_;
  std::vector<double> scratch_re_;
  std::vector<double> scratch_im_;
};

/// Streaming mean/variance/autocovariance of the instantaneous mutual
/// information I_t = log2(1 + snr |z_t|^2 / omega) per branch, the
/// observable whose closed forms stats/mutual_information.hpp supplies.
///
/// Same boundary-state design as AcfAccumulator, over the real I trace.
class MutualInformationAccumulator {
 public:
  /// \param dimension  branches N >= 1.
  /// \param snr_linear linear SNR gamma > 0.
  /// \param branch_power per-branch mean power omega_j > 0 (size N)
  ///                   normalising |z|^2 to unit mean, so X = |h|^2 is
  ///                   Exp(1) for Rayleigh branches.
  /// \param lags       positive autocovariance lags; may be empty (then
  ///                   only mean/variance are tracked).
  MutualInformationAccumulator(std::size_t dimension, double snr_linear,
                               std::vector<double> branch_power,
                               std::vector<std::size_t> lags);

  /// Folds a complex block (count x N); float blocks widen exactly (see
  /// LevelCrossingAccumulator).  Column sweep as in AcfAccumulator: per
  /// branch, the block's I_t = log2(1 + inv_power |z_t|^2), their squares
  /// and each lag's products I_t I_{t-d} are each folded by one ExactSum
  /// block add.
  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block);

  /// Stitches the adjacent following segment \p other (see file comment).
  /// \throws DimensionError when configurations differ.
  void merge(const MutualInformationAccumulator& other);

  [[nodiscard]] std::size_t dimension() const noexcept { return dimension_; }
  [[nodiscard]] double snr_linear() const noexcept { return snr_; }
  [[nodiscard]] const std::vector<std::size_t>& lags() const noexcept {
    return lags_;
  }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Raw exact sums for bit-exactness tests.
  [[nodiscard]] double sum(std::size_t branch) const;
  [[nodiscard]] double sum_squares(std::size_t branch) const;
  [[nodiscard]] double lag_product_sum(std::size_t branch,
                                       std::size_t lag) const;

  /// E[I] estimate in bits.  \throws ValueError when empty.
  [[nodiscard]] double mean(std::size_t branch) const;
  /// Population variance estimate in bits^2.  \throws ValueError when empty.
  [[nodiscard]] double variance(std::size_t branch) const;
  /// Autocovariance estimate at \p lag (one of lags()):
  /// sum(I_t I_{t-lag}) / (count - lag) - mean^2.  \throws ValueError
  /// when count() <= lag.
  [[nodiscard]] double autocovariance(std::size_t branch,
                                      std::size_t lag) const;

 private:
  std::size_t lag_index(std::size_t lag) const;

  std::size_t dimension_;
  double snr_;
  std::vector<double> inv_power_;  ///< snr / omega_j, the |z|^2 scale
  std::vector<std::size_t> lags_;  ///< sorted positive lags (no 0 entry)
  std::size_t max_lag_;
  std::uint64_t count_ = 0;
  std::vector<support::ExactSum> sum_;       ///< per branch
  std::vector<support::ExactSum> sum_sq_;    ///< per branch
  std::vector<support::ExactSum> lag_sum_;   ///< row-major N x lags
  std::vector<std::vector<double>> head_;
  std::vector<std::vector<double>> ring_;
  std::size_t slot_ = 0;  ///< count_ % max_lag_ (0 without lags)
  /// accumulate's O(M) scratch, as in AcfAccumulator: carried I values
  /// then the block's, and one set of terms (I^2 or a lag's products).
  std::vector<double> column_;
  std::vector<double> scratch_;
};

}  // namespace rfade::metrics
