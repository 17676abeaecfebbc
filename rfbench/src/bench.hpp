#pragma once

/// \file bench.hpp
/// \brief Shared pieces of the rfbench workload program: clocks, the
///        seed-derived input generator, a span tracer with self-time
///        accounting, and the result record every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "rfade/numeric/matrix.hpp"

namespace rfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// splitmix64 stream: every generated input (specs, tenant seeds, block
/// indices, seek targets, tap choice, gate sampling) derives from the
/// workload seed through one of these.
class SeedStream {
 public:
  explicit SeedStream(std::uint64_t seed) : state_(seed) {}

  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t state_;
};

/// Stateless keyed hash (gate sampling of delivery d under seed s).
[[nodiscard]] inline std::uint64_t mix(std::uint64_t seed, std::uint64_t d) {
  SeedStream stream(seed ^ (d * 0xD1B54A32D192ED03ULL));
  return stream.next();
}

/// In-memory span recorder.  Spans nest by call order; a *probe* is a
/// span timed outside its logical parent's interval (the coloring GEMM,
/// timed apart from the color_block call that contains it): it counts as
/// that parent's child, and its interval is excluded from the self time
/// of every span open while it ran, so self times still add up to the
/// replayed work.  Disabled, every call is a branch and no clock read.
class SpanTrace {
 public:
  struct Span {
    const char* name = "";
    int parent = -1;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t children = 0;  ///< summed durations of logical children
    std::int64_t excluded = 0;  ///< probe time inside this span
  };

  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  int open(const char* name) {
    if (!enabled_) return -1;
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start = now_ns();
    return open_.back();
  }

  void close(int id) {
    if (id < 0) return;
    const std::int64_t t = now_ns();
    Span& span = spans_[static_cast<std::size_t>(id)];
    span.end = t;
    open_.pop_back();
    if (span.parent >= 0) {
      spans_[static_cast<std::size_t>(span.parent)].children +=
          span.end - span.start;
    }
  }

  /// Record [start, end) as a child of \p logical_parent (see class
  /// comment).  Returns its duration.
  std::int64_t probe(const char* name, int logical_parent, std::int64_t start,
                     std::int64_t end) {
    if (!enabled_) return 0;
    const std::int64_t duration = end - start;
    Span span;
    span.name = name;
    span.parent = logical_parent;
    span.start = start;
    span.end = end;
    spans_.push_back(span);
    if (logical_parent >= 0) {
      spans_[static_cast<std::size_t>(logical_parent)].children += duration;
    }
    for (int id : open_) {
      spans_[static_cast<std::size_t>(id)].excluded += duration;
    }
    return duration;
  }

  /// Fold every closed span's self time into \p self_ns by name and
  /// drop the spans.
  void drain(std::map<std::string, double>& self_ns) {
    for (const Span& span : spans_) {
      self_ns[span.name] +=
          static_cast<double>(span.end - span.start - span.children -
                              span.excluded);
    }
    spans_.clear();
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span (closes on scope exit).
class ScopedSpan {
 public:
  ScopedSpan(SpanTrace& trace, const char* name)
      : trace_(trace), id_(trace.open(name)) {}
  ~ScopedSpan() { trace_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  SpanTrace& trace_;
  int id_;
};

/// Computed work of the replayed stages (counted from the shapes each
/// call was given, never measured).
struct Work {
  double blocks = 0;          ///< blocks replayed
  double rng_samples = 0;     ///< complex samples drawn by bulk fills
  double fft_transforms = 0;  ///< complex FFTs issued through fft::
  double fft_flops = 0;       ///< 5 n log2 n per complex transform
  double gemm_flops = 0;      ///< 8 M N^2 per coloring GEMM
  double gemm_bytes = 0;      ///< (2 M N + N^2) complex elements moved
  double synth_samples = 0;   ///< samples synthesised incl. tape/replay
  double emitted_samples = 0; ///< samples emitted (rows x branches)
  double probe_ns = 0;        ///< probe time (excluded from replay wall)
};

/// Mean of a running sum.
struct Mean {
  double sum = 0;
  double count = 0;
  void add(double x) {
    sum += x;
    count += 1;
  }
  [[nodiscard]] double value() const { return count > 0 ? sum / count : 0.0; }
};

/// Operation accounting: every public call the workload makes into the
/// library counts as attempted; a throw or a failed check counts failed.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few messages

  void fail(const std::string& what, std::uint64_t count = 1) {
    failed += count;
    if (failures.size() < 8) failures.push_back(what);
  }
};

/// Throughput over one stretch of the timed loop.
struct Window {
  double samples = 0;
  double wall_s = 0;
};

/// The closed loop's clock: runs for a fixed number of seconds, and
/// keeps time spent outside the measured path (correctness gate, tenant
/// arrivals) out of the throughput wall.  Throughput is also cut into
/// ~1 s windows so a slow stretch of a shared machine shows as one
/// window rather than shifting the whole run.
class TimedLoop {
 public:
  explicit TimedLoop(double seconds)
      : begin_(now_ns()),
        deadline_(begin_ + static_cast<std::int64_t>(seconds * 1e9)),
        window_begin_(begin_) {}

  [[nodiscard]] bool running() const { return now_ns() < deadline_; }

  /// Time spent since \p since is not part of the measured path.
  void exclude_since(std::int64_t since) {
    const std::int64_t spent = now_ns() - since;
    excluded_ += spent;
    window_excluded_ += spent;
  }

  /// \p samples were delivered to the consumer.
  void delivered(double samples) {
    samples_ += samples;
    window_samples_ += samples;
    const std::int64_t wall = now_ns() - window_begin_ - window_excluded_;
    if (wall >= 1'000'000'000) {
      windows_.push_back({window_samples_, static_cast<double>(wall) * 1e-9});
      window_begin_ = now_ns();
      window_samples_ = 0;
      window_excluded_ = 0;
    }
  }

  [[nodiscard]] double samples() const { return samples_; }
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(now_ns() - begin_ - excluded_) * 1e-9;
  }
  [[nodiscard]] const std::vector<Window>& windows() const {
    return windows_;
  }

 private:
  std::int64_t begin_;
  std::int64_t deadline_;
  std::int64_t excluded_ = 0;
  double samples_ = 0;
  std::int64_t window_begin_;
  std::int64_t window_excluded_ = 0;
  double window_samples_ = 0;
  std::vector<Window> windows_;
};

/// What one workload run reports (see run.py for how it becomes metrics).
struct Result {
  std::vector<double> setup_s;   ///< one per repeated set-up
  std::vector<double> block_us;  ///< one per delivered block
  std::vector<double> ttfb_us;   ///< one per tenant arrival
  double samples = 0;            ///< complex samples delivered (timed loop)
  double wall_s = 0;             ///< timed-loop wall, excluded time removed
  std::vector<Window> windows;   ///< ~1 s throughput windows
  Ops ops;
  std::map<std::string, double> layers;  ///< per-layer metrics (traced)

  void finish(const TimedLoop& loop) {
    samples = loop.samples();
    wall_s = loop.wall_s();
    windows = loop.windows();
  }
};

/// Bitwise equality of two blocks (shape and every element's bits).
[[nodiscard]] bool same_bits(const rfade::numeric::CMatrix& a,
                             const rfade::numeric::CMatrix& b);

/// 64-bit hash of a block's shape and bits: lets a black-box block be
/// freed before its replay runs, so both allocate from the same heap
/// state.
[[nodiscard]] std::uint64_t fingerprint(const rfade::numeric::CMatrix& z);

/// Widen a float block exactly (the Session double-API view of a
/// Float32 channel).
[[nodiscard]] rfade::numeric::CMatrix widen(
    const rfade::numeric::CMatrixF& z);

}  // namespace rfbench
