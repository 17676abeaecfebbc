#include "rfade/core/gain_source.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "rfade/support/contracts.hpp"

namespace rfade::core {

namespace {

bool all_ones(const numeric::RVector& v) {
  for (double g : v) {
    if (g != 1.0) {
      return false;
    }
  }
  return true;
}

}  // namespace

GainSource GainSource::unit() { return GainSource(); }

GainSource GainSource::constant(numeric::RVector gains) {
  GainSource source;
  if (gains.empty() || all_ones(gains)) {
    return source;  // unit gain: keep the no-multiply fast path.
  }
  for (double g : gains) {
    RFADE_EXPECTS(std::isfinite(g) && g > 0.0,
                  "GainSource: constant gains must be finite and positive");
  }
  source.kind_ = Kind::Constant;
  source.constant_ = std::move(gains);
  return source;
}

GainSource GainSource::dynamic(
    std::shared_ptr<const TimeVaryingGain> process) {
  RFADE_EXPECTS(process != nullptr,
                "GainSource: dynamic gain process must not be null");
  RFADE_EXPECTS(process->dimension() > 0,
                "GainSource: dynamic gain process must have dimension > 0");
  GainSource source;
  source.kind_ = Kind::Dynamic;
  source.process_ = std::move(process);
  return source;
}

std::size_t GainSource::dimension() const noexcept {
  switch (kind_) {
    case Kind::Unit:
      return 0;
    case Kind::Constant:
      return constant_.size();
    case Kind::Dynamic:
      return process_->dimension();
  }
  return 0;
}

void GainSource::gains_at(std::uint64_t instant,
                          std::span<double> out) const {
  gains_for_rows(instant, 1, out.size(), out.data());
}

void GainSource::gains_for_rows(std::uint64_t first_instant, std::size_t rows,
                                std::size_t n, double* out) const {
  RFADE_EXPECTS(kind_ == Kind::Unit || n == dimension(),
                "GainSource: row width must equal the gain dimension");
  switch (kind_) {
    case Kind::Unit:
      std::fill(out, out + rows * n, 1.0);
      return;
    case Kind::Constant:
      for (std::size_t t = 0; t < rows; ++t) {
        std::copy(constant_.begin(), constant_.end(), out + t * n);
      }
      return;
    case Kind::Dynamic:
      process_->gains_for_rows(first_instant, rows,
                               std::span<double>(out, rows * n));
      return;
  }
}

template <typename T>
void GainSource::multiply_rows(std::uint64_t first_instant, std::size_t rows,
                               std::size_t n, std::complex<T>* out) const {
  RFADE_EXPECTS(kind_ == Kind::Unit || n == dimension(),
                "GainSource: row width must equal the gain dimension");
  switch (kind_) {
    case Kind::Unit:
      return;
    case Kind::Constant: {
      const double* g = constant_.data();
      for (std::size_t t = 0; t < rows; ++t) {
        std::complex<T>* row = out + t * n;
        for (std::size_t j = 0; j < n; ++j) {
          row[j] *= static_cast<T>(g[j]);
        }
      }
      return;
    }
    case Kind::Dynamic: {
      // The gains of the whole block are materialised per call, in double
      // for either emission precision (one FIR pass per block, not per
      // row), into thread-local scratch: the pipeline calls this from
      // pool workers, and the buffers are large enough to be
      // mmap-threshold allocations worth reusing.
      thread_local std::vector<double> gains;
      if (gains.size() < rows * n) {
        gains.resize(rows * n);
      }
      gains_for_rows(first_instant, rows, n, gains.data());
      for (std::size_t t = 0; t < rows; ++t) {
        std::complex<T>* row = out + t * n;
        const double* g = gains.data() + t * n;
        for (std::size_t j = 0; j < n; ++j) {
          row[j] *= static_cast<T>(g[j]);
        }
      }
      return;
    }
  }
}

template void GainSource::multiply_rows(std::uint64_t, std::size_t,
                                        std::size_t, numeric::cdouble*) const;
template void GainSource::multiply_rows(std::uint64_t, std::size_t,
                                        std::size_t, numeric::cfloat*) const;

}  // namespace rfade::core
