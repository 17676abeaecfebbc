#include "rfade/doppler/idft_generator.hpp"

#include <cmath>

#include "rfade/fft/fft.hpp"
#include "rfade/support/contracts.hpp"

namespace rfade::doppler {

IdftRayleighBranch::IdftRayleighBranch(std::size_t m, double fm,
                                       double input_variance_per_dim)
    : design_(young_beaulieu_filter(m, fm)),
      input_variance_per_dim_(input_variance_per_dim),
      output_variance_(post_filter_variance(design_, input_variance_per_dim)) {
  RFADE_EXPECTS(input_variance_per_dim > 0.0,
                "IdftRayleighBranch: input variance must be positive");
  if (fft::is_power_of_two(m)) {
    plan_ = std::make_shared<const fft::Pow2Plan>(m);
  }
}

numeric::CVector IdftRayleighBranch::draw_spectrum(random::Rng& rng) const {
  const std::size_t m = design_.size();
  const double sigma_orig = std::sqrt(input_variance_per_dim_);
  numeric::CVector spectrum(m);
  for (std::size_t k = 0; k < m; ++k) {
    // U[k] = F[k] (A[k] - i B[k]); skip the zero-weight bins entirely.
    const double f = design_.coefficients[k];
    if (f == 0.0) {
      spectrum[k] = numeric::cdouble{};
      continue;
    }
    const double a = rng.gaussian(0.0, sigma_orig);
    const double b = rng.gaussian(0.0, sigma_orig);
    spectrum[k] = numeric::cdouble(f * a, -f * b);
  }
  return spectrum;
}

numeric::CVector IdftRayleighBranch::synthesize(
    const numeric::CVector& spectrum) const {
  numeric::CVector out;
  synthesize_into(spectrum, out);
  return out;
}

void IdftRayleighBranch::synthesize_into(const numeric::CVector& spectrum,
                                         numeric::CVector& out) const {
  RFADE_EXPECTS(spectrum.size() == design_.size(),
                "synthesize: spectrum length != IDFT size");
  if (plan_ == nullptr) {
    out = fft::idft(spectrum);
    return;
  }
  // The exact fft::idft value sequence (inverse transform, 1/M scale) —
  // the plan replays fft_pow2_inplace's twiddles verbatim — into the
  // caller's warm buffer.
  out.resize(spectrum.size());
  plan_->transform(spectrum.data(), out.data(), fft::Direction::Inverse);
  const double scale = 1.0 / static_cast<double>(out.size());
  for (numeric::cdouble& value : out) {
    value *= scale;
  }
}

numeric::CVector IdftRayleighBranch::generate_block(random::Rng& rng) const {
  return synthesize(draw_spectrum(rng));
}

numeric::RVector IdftRayleighBranch::generate_envelope_block(
    random::Rng& rng) const {
  const numeric::CVector block = generate_block(rng);
  numeric::RVector envelope(block.size());
  for (std::size_t l = 0; l < block.size(); ++l) {
    envelope[l] = std::abs(block[l]);
  }
  return envelope;
}

}  // namespace rfade::doppler
