#include "rfade/support/exact_sum.hpp"

#include <cmath>
#include <cstring>

#include "rfade/support/error.hpp"

namespace rfade::support {

ExactSum::ExactSum() noexcept { reset(); }

void ExactSum::reset() noexcept {
  std::memset(limbs_, 0, sizeof(limbs_));
  count_ = 0;
  pending_ = 0;
}

void ExactSum::throw_non_finite() {
  throw ValueError("ExactSum::add: input must be finite");
}

void ExactSum::normalize() const noexcept {
  // Canonicalize: low limbs in [0, 2^32), sign carried by the top limb.
  // The canonical state is the unique base-2^32 representation of the
  // exact integer total, so it is independent of add/merge order.
  std::int64_t carry = 0;
  for (int i = 0; i < kLimbs - 1; ++i) {
    const std::int64_t v = limbs_[i] + carry;
    carry = v >> 32;  // arithmetic shift: floor division by 2^32
    limbs_[i] = v - (carry << 32);
  }
  limbs_[kLimbs - 1] += carry;
  pending_ = 0;
}

void ExactSum::merge(const ExactSum& other) noexcept {
  normalize();
  other.normalize();
  for (int i = 0; i < kLimbs; ++i) {
    limbs_[i] += other.limbs_[i];
  }
  count_ += other.count_;
  pending_ = 1;  // limbs may sit one carry above canonical form
}

double ExactSum::value() const noexcept {
  normalize();
  // High-to-low read-out of the canonical state: every limb fits a double
  // exactly (< 2^32, except the signed top limb which stays far below
  // 2^53 in practice), so the only rounding is the final fold into the
  // 53-bit result.  Deterministic given the canonical state.
  double acc = 0.0;
  for (int i = kLimbs - 1; i >= 0; --i) {
    if (limbs_[i] != 0) {
      acc += std::ldexp(static_cast<double>(limbs_[i]), 32 * i - kPointShift);
    }
  }
  return acc;
}

}  // namespace rfade::support
