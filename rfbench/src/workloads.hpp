#pragma once

/// \file workloads.hpp
/// \brief The three rfbench workloads.  Each is a closed loop driven from
///        one thread; untraced runs fill the end-to-end record, traced
///        runs replay measured blocks stage by stage and fill the
///        per-layer metrics.

#include <cstdint>
#include <string>

#include "bench.hpp"

namespace rfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
};

/// 4 tenants on one overlap-save f64 Rayleigh spec (N = 16, M = 4096),
/// one ChannelService::pull_blocks sweep per step.
[[nodiscard]] Result run_serve_ols16(const Args& args);

/// Random-access keyed Session::generate_block on an instant Rayleigh
/// spec (N = 64, block 4096, serial).
[[nodiscard]] Result run_instant_n64(const Args& args);

/// Tenant churn over 12 stream specs through an 8-entry PlanCache:
/// open, optional MetricsTap, seek, 8 next_block pulls, drop.
[[nodiscard]] Result run_churn_mixed(const Args& args);

}  // namespace rfbench
