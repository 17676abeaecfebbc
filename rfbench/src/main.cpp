/// rfbench_workload: runs one rfbench workload and prints its raw record as
/// one JSON object on stdout (run.py turns it into metrics).
///
///   rfbench_workload --workload serve_ols16|instant_n64|churn_mixed
///                  --seed N --seconds S --trace 0|1

#include <sched.h>
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <vector>

#include "rfade/support/thread_pool.hpp"
#include "rfade/telemetry/instruments.hpp"
#include "workloads.hpp"

#ifndef RFBENCH_BUILD_TYPE
#define RFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define RFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define RFBENCH_COMPILER "gcc " __VERSION__
#else
#define RFBENCH_COMPILER "unknown"
#endif

namespace {

std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

void print_array(const char* key, const std::vector<double>& values) {
  std::printf("\"%s\": [", key);
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::printf("%s%.9g", i == 0 ? "" : ", ", values[i]);
  }
  std::printf("]");
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

int usage(const char* why) {
  std::fprintf(stderr,
               "rfbench_workload: %s\nusage: rfbench_workload --workload NAME "
               "--seed N --seconds S --trace 0|1\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  rfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      return usage(("unknown option " + key).c_str());
    }
  }
  if (argc % 2 != 1 || args.workload.empty() || !(args.seconds > 0)) {
    return usage("missing or malformed arguments");
  }

  const std::size_t nproc = affinity_cpus();
  const std::size_t pool = rfade::support::ThreadPool::global().size();
  if (nproc == 0 || pool > nproc) {
    std::fprintf(stderr,
                 "rfbench_workload: global pool of %zu workers exceeds the %zu "
                 "CPUs this process may run on; refusing to measure\n",
                 pool, nproc);
    return 3;
  }

  rfbench::Result result;
  try {
    if (args.workload == "serve_ols16") {
      result = rfbench::run_serve_ols16(args);
    } else if (args.workload == "instant_n64") {
      result = rfbench::run_instant_n64(args);
    } else if (args.workload == "churn_mixed") {
      result = rfbench::run_churn_mixed(args);
    } else {
      return usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rfbench_workload: %s failed: %s\n",
                 args.workload.c_str(), e.what());
    return 1;
  }

  rusage usage_now{};
  getrusage(RUSAGE_SELF, &usage_now);
  const double rss_mb = static_cast<double>(usage_now.ru_maxrss) / 1024.0;

  std::printf("{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, "
              "\"seconds\": %.9g, \"trace\": %d, \"nproc\": %zu, "
              "\"pool\": %zu, \"compiler\": \"%s\", \"build_type\": \"%s\", "
              "\"rfade_telemetry\": %d}, ",
              escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, nproc, pool, escape(RFBENCH_COMPILER).c_str(),
              RFBENCH_BUILD_TYPE, rfade::telemetry::kCompiledIn ? 1 : 0);
  print_array("setup_s", result.setup_s);
  std::printf(", ");
  print_array("block_us", result.block_us);
  std::printf(", ");
  print_array("ttfb_us", result.ttfb_us);
  std::printf(", \"windows\": [");
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    std::printf("%s[%.17g, %.17g]", i == 0 ? "" : ", ",
                result.windows[i].samples, result.windows[i].wall_s);
  }
  std::printf("], \"samples\": %.17g, \"wall_s\": %.17g, \"rss_mb\": %.9g, ",
              result.samples, result.wall_s, rss_mb);
  std::printf("\"attempted\": %llu, \"failed\": %llu, \"failures\": [",
              static_cast<unsigned long long>(result.ops.attempted),
              static_cast<unsigned long long>(result.ops.failed));
  for (std::size_t i = 0; i < result.ops.failures.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                escape(result.ops.failures[i]).c_str());
  }
  std::printf("], \"layers\": {");
  bool first = true;
  for (const auto& [name, value] : result.layers) {
    std::printf("%s\"%s\": %.9g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}
