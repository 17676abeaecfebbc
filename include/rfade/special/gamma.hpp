#pragma once

/// \file gamma.hpp
/// \brief Regularized incomplete gamma functions P(a,x) and Q(a,x).

namespace rfade::special {

/// Regularized lower incomplete gamma P(a, x) = gamma(a,x)/Gamma(a).
/// \pre a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_p(double a, double x);

/// Regularized upper incomplete gamma Q(a, x) = 1 - P(a, x).
/// \pre a > 0, x >= 0.
[[nodiscard]] double regularized_gamma_q(double a, double x);

/// Inverse of the regularized lower incomplete gamma: the x with
/// P(a, x) = p, by a Wilson-Hilferty / small-a initial guess refined with
/// safeguarded Newton steps (the quantile kernel of the Nakagami-m
/// marginal and of the gamma-family copula transforms).
/// \pre a > 0, p in [0, 1).
[[nodiscard]] double inverse_regularized_gamma_p(double a, double p);

}  // namespace rfade::special
