#pragma once

/// \file accumulators.hpp
/// \brief Shard-mergeable validator/metrics accumulators.
///
/// Stream blocks are pure functions of (seed, block index), so a sharded
/// run partitions block indices across workers/nodes and each shard folds
/// its blocks into local accumulators.  Built on support::ExactSum, the
/// per-sample contributions are accumulated *exactly*, which makes merge()
/// exactly associative and commutative: merging any sharding of the same
/// blocks yields bit-identical statistics to the single-run answer — the
/// property the ChannelService fan-out tests pin.
///
/// These are validation/metrics-path accumulators (O(count·N) resp.
/// O(count·N²) exact terms, folded column by column through ExactSum's
/// block add), not sample-hot-path code.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rfade/numeric/matrix.hpp"
#include "rfade/support/exact_sum.hpp"

namespace rfade::service {

/// Per-branch envelope moments of one branch, as read out by
/// EnvelopeMomentAccumulator::finalize().
struct EnvelopeMoments {
  double mean = 0.0;           ///< E[r]
  double second_moment = 0.0;  ///< E[r^2] (mean envelope power)
  double fourth_moment = 0.0;  ///< E[r^4]
  double variance = 0.0;       ///< E[r^2] - E[r]^2
  /// Amount of fading AF = Var[r^2] / E[r^2]^2 — the standard severity
  /// measure (1 for Rayleigh, 1/m for Nakagami-m).
  double amount_of_fading = 0.0;
};

/// Accumulates per-branch envelope moments (r, r^2, r^4) exactly.
///
/// Feed complex blocks (rows = instants, cols = branches) or envelope
/// blocks; shard instances merge() to the single-run state bit-exactly.
/// Not thread-safe: one instance per shard, merge at the join.
class EnvelopeMomentAccumulator {
 public:
  explicit EnvelopeMomentAccumulator(std::size_t dimension);

  /// Folds |z| for every element of a complex block (count x N).  Float
  /// blocks are widened to double before the ExactSum fold (widening is
  /// exact), so shard merges over float blocks keep the bit-exact
  /// associativity contract.
  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block);

  /// Folds an envelope block (count x N, r >= 0) directly.
  void accumulate_envelopes(const numeric::RMatrix& envelopes);

  /// Folds \p other in; exactly order-invariant.
  /// \throws DimensionError when dimensions differ.
  void merge(const EnvelopeMomentAccumulator& other);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return dimension_;
  }

  /// Samples folded in per branch.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Moments of branch \p branch; deterministic pure function of the
  /// accumulated multiset.  \throws ValueError when no samples were fed.
  [[nodiscard]] EnvelopeMoments finalize(std::size_t branch) const;

 private:
  std::size_t dimension_;
  std::uint64_t count_ = 0;
  std::vector<support::ExactSum> sum_r_;
  std::vector<support::ExactSum> sum_r2_;
  std::vector<support::ExactSum> sum_r4_;
};

/// Accumulates the N x N sample covariance E[z_k conj(z_j)] of complex
/// blocks exactly (per-sample products folded into ExactSum planes).
///
/// merge() of any sharding equals the single-run state bit-exactly.
/// Not thread-safe: one instance per shard, merge at the join.
class ComplexCovarianceAccumulator {
 public:
  explicit ComplexCovarianceAccumulator(std::size_t dimension);

  /// Folds every row of a complex block (count x N); float blocks are
  /// widened to double (exactly) before the fold, preserving bit-exact
  /// shard-merge associativity.
  template <typename T>
  void accumulate(const numeric::Matrix<std::complex<T>>& block);

  /// Folds \p other in; exactly order-invariant.
  /// \throws DimensionError when dimensions differ.
  void merge(const ComplexCovarianceAccumulator& other);

  [[nodiscard]] std::size_t dimension() const noexcept {
    return dimension_;
  }

  /// Rows (instants) folded in.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

  /// Sample covariance (sums / count); deterministic pure function of the
  /// accumulated multiset.  \throws ValueError when no samples were fed.
  [[nodiscard]] numeric::CMatrix finalize() const;

 private:
  std::size_t dimension_;
  std::uint64_t count_ = 0;
  std::vector<support::ExactSum> real_;  ///< row-major N x N
  std::vector<support::ExactSum> imag_;  ///< row-major N x N
};

}  // namespace rfade::service
