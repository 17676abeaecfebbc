#include "rfade/special/gamma.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "rfade/support/contracts.hpp"
#include "rfade/support/error.hpp"

namespace rfade::special {

namespace {

/// Series representation of P(a,x), effective for x < a + 1.
double gamma_p_series(double a, double x) {
  double ap = a;
  double term = 1.0 / a;
  double sum = term;
  for (int i = 0; i < 500; ++i) {
    ap += 1.0;
    term *= x / ap;
    sum += term;
    if (std::abs(term) < std::abs(sum) * 1e-16) {
      return sum * std::exp(-x + a * std::log(x) - std::lgamma(a));
    }
  }
  throw ConvergenceError("regularized_gamma_p: series did not converge");
}

/// Modified Lentz continued fraction for Q(a,x), effective for x >= a + 1.
double gamma_q_continued_fraction(double a, double x) {
  const double tiny = std::numeric_limits<double>::min() / 1e-30;
  double b = x + 1.0 - a;
  double c = 1.0 / tiny;
  double d = 1.0 / b;
  double h = d;
  for (int i = 1; i < 500; ++i) {
    const double an = -static_cast<double>(i) * (static_cast<double>(i) - a);
    b += 2.0;
    d = an * d + b;
    if (std::abs(d) < tiny) {
      d = tiny;
    }
    c = b + an / c;
    if (std::abs(c) < tiny) {
      c = tiny;
    }
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < 1e-16) {
      return h * std::exp(-x + a * std::log(x) - std::lgamma(a));
    }
  }
  throw ConvergenceError(
      "regularized_gamma_q: continued fraction did not converge");
}

}  // namespace

double regularized_gamma_p(double a, double x) {
  RFADE_EXPECTS(a > 0.0, "regularized_gamma_p: a must be positive");
  RFADE_EXPECTS(x >= 0.0, "regularized_gamma_p: x must be non-negative");
  if (x == 0.0) {
    return 0.0;
  }
  return x < a + 1.0 ? gamma_p_series(a, x)
                     : 1.0 - gamma_q_continued_fraction(a, x);
}

double regularized_gamma_q(double a, double x) {
  RFADE_EXPECTS(a > 0.0, "regularized_gamma_q: a must be positive");
  RFADE_EXPECTS(x >= 0.0, "regularized_gamma_q: x must be non-negative");
  if (x == 0.0) {
    return 1.0;
  }
  return x < a + 1.0 ? 1.0 - gamma_p_series(a, x)
                     : gamma_q_continued_fraction(a, x);
}

double inverse_regularized_gamma_p(double a, double p) {
  RFADE_EXPECTS(a > 0.0, "inverse_regularized_gamma_p: a must be positive");
  RFADE_EXPECTS(p >= 0.0 && p < 1.0,
                "inverse_regularized_gamma_p: p must be in [0, 1)");
  if (p == 0.0) {
    return 0.0;
  }
  const double gln = std::lgamma(a);
  const double a1 = a - 1.0;
  double x;
  double afac = 0.0;
  if (a > 1.0) {
    // Wilson-Hilferty start: x ~ a (1 - 1/(9a) - z/(3 sqrt(a)))^3 with
    // z a rational approximation to the upper-tail normal quantile.
    afac = std::exp(a1 * (std::log(a1) - 1.0) - gln);
    const double pp = p < 0.5 ? p : 1.0 - p;
    const double t = std::sqrt(-2.0 * std::log(pp));
    double z = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) -
               t;
    if (p < 0.5) {
      z = -z;
    }
    x = std::max(
        1e-3, a * std::pow(1.0 - 1.0 / (9.0 * a) - z / (3.0 * std::sqrt(a)),
                           3.0));
  } else {
    // Small-a start from the leading behaviour of P near 0 and 1.
    const double t = 1.0 - a * (0.253 + a * 0.12);
    x = p < t ? std::pow(p / t, 1.0 / a)
              : 1.0 - std::log(1.0 - (p - t) / (1.0 - t));
  }
  // Safeguarded Halley refinement on P(a, x) - p.
  for (int j = 0; j < 24; ++j) {
    if (x <= 0.0) {
      return 0.0;
    }
    const double err = regularized_gamma_p(a, x) - p;
    double t;
    if (a > 1.0) {
      t = afac * std::exp(-(x - a1) + a1 * (std::log(x) - std::log(a1)));
    } else {
      t = std::exp(-x + a1 * std::log(x) - gln);
    }
    const double u = err / t;
    t = u / (1.0 - 0.5 * std::min(1.0, u * (a1 / x - 1.0)));
    x -= t;
    if (x <= 0.0) {
      x = 0.5 * (x + t);
    }
    if (std::abs(t) < 1e-13 * x) {
      break;
    }
  }
  return x;
}

}  // namespace rfade::special
