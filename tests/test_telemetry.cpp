// Telemetry subsystem: sharded counters, the mergeable log-bucketed
// LatencyHistogram (shard-merge == single-run, bucket for bucket),
// registry identity, the Prometheus / JSON exporters, Chrome trace
// well-formedness (parsed in-test), and the disabled-mode fast paths.
//
// The concurrency cases (sharded counter adds, concurrent histogram
// recording) run under the TSan CI leg.

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "rfade/service/channel_service.hpp"
#include "rfade/service/plan_cache.hpp"
#include "rfade/telemetry/telemetry.hpp"

using namespace rfade;
using telemetry::Counter;
using telemetry::Gauge;
using telemetry::HistogramSnapshot;
using telemetry::LatencyHistogram;
using telemetry::Registry;
using telemetry::Span;
using telemetry::TraceEvent;
using telemetry::Tracer;

namespace {

// --- a minimal strict JSON parser (enough to validate exporter output) ------

struct JsonValue;
using JsonObject = std::map<std::string, JsonValue>;
using JsonArray = std::vector<JsonValue>;

struct JsonValue {
  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value;

  [[nodiscard]] bool is_object() const {
    return std::holds_alternative<JsonObject>(value);
  }
  [[nodiscard]] bool is_array() const {
    return std::holds_alternative<JsonArray>(value);
  }
  [[nodiscard]] const JsonObject& object() const {
    return std::get<JsonObject>(value);
  }
  [[nodiscard]] const JsonArray& array() const {
    return std::get<JsonArray>(value);
  }
  [[nodiscard]] double number() const { return std::get<double>(value); }
  [[nodiscard]] const std::string& string() const {
    return std::get<std::string>(value);
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  /// Parse the whole document; gtest-fails and returns nullopt on any
  /// syntax error or trailing garbage.
  std::optional<JsonValue> parse() {
    JsonValue value;
    if (!parse_value(value)) {
      return std::nullopt;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      ADD_FAILURE() << "trailing characters at offset " << pos_;
      return std::nullopt;
    }
    return value;
  }

 private:
  bool fail(const std::string& what) {
    ADD_FAILURE() << "JSON parse error at offset " << pos_ << ": " << what;
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool consume(char expected) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != expected) {
      return fail(std::string("expected '") + expected + "'");
    }
    ++pos_;
    return true;
  }

  bool parse_value(JsonValue& out) {
    skip_ws();
    if (pos_ >= text_.size()) {
      return fail("unexpected end of input");
    }
    const char c = text_[pos_];
    if (c == '{') {
      return parse_object(out);
    }
    if (c == '[') {
      return parse_array(out);
    }
    if (c == '"') {
      std::string s;
      if (!parse_string(s)) {
        return false;
      }
      out.value = std::move(s);
      return true;
    }
    if (text_.compare(pos_, 4, "true") == 0) {
      pos_ += 4;
      out.value = true;
      return true;
    }
    if (text_.compare(pos_, 5, "false") == 0) {
      pos_ += 5;
      out.value = false;
      return true;
    }
    if (text_.compare(pos_, 4, "null") == 0) {
      pos_ += 4;
      out.value = nullptr;
      return true;
    }
    return parse_number(out);
  }

  bool parse_object(JsonValue& out) {
    if (!consume('{')) {
      return false;
    }
    JsonObject object;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      out.value = std::move(object);
      return true;
    }
    for (;;) {
      std::string key;
      skip_ws();
      if (!parse_string(key)) {
        return false;
      }
      if (!consume(':')) {
        return false;
      }
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      object.emplace(std::move(key), std::move(value));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume('}')) {
      return false;
    }
    out.value = std::move(object);
    return true;
  }

  bool parse_array(JsonValue& out) {
    if (!consume('[')) {
      return false;
    }
    JsonArray array;
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      out.value = std::move(array);
      return true;
    }
    for (;;) {
      JsonValue value;
      if (!parse_value(value)) {
        return false;
      }
      array.push_back(std::move(value));
      skip_ws();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      break;
    }
    if (!consume(']')) {
      return false;
    }
    out.value = std::move(array);
    return true;
  }

  bool parse_string(std::string& out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return fail("expected string");
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) {
          return fail("bad escape");
        }
        const char esc = text_[pos_++];
        switch (esc) {
          case '"':
            c = '"';
            break;
          case '\\':
            c = '\\';
            break;
          case '/':
            c = '/';
            break;
          case 'n':
            c = '\n';
            break;
          case 't':
            c = '\t';
            break;
          case 'r':
            c = '\r';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) {
              return fail("bad \\u escape");
            }
            pos_ += 4;  // validated as hex, decoded as '?' (names only)
            c = '?';
            break;
          }
          default:
            return fail("unknown escape");
        }
      }
      out += c;
    }
    if (pos_ >= text_.size()) {
      return fail("unterminated string");
    }
    ++pos_;  // closing quote
    return true;
  }

  bool parse_number(JsonValue& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) {
      return fail("expected value");
    }
    try {
      out.value = std::stod(text_.substr(start, pos_ - start));
    } catch (const std::exception&) {
      return fail("bad number");
    }
    return true;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// RAII guard: tests flip the global recording/tracing switches and must
/// restore them for their neighbours.
struct TelemetryGuard {
  TelemetryGuard() = default;
  ~TelemetryGuard() {
    telemetry::set_enabled(false);
    Tracer::global().set_enabled(false);
    Tracer::global().clear();
  }
};

// --- instruments -------------------------------------------------------------

TEST(TelemetryCounter, ConcurrentShardedAddsSumExactly) {
  Counter counter;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter.add();
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(TelemetryCounter, MergeAddsShardwise) {
  Counter a;
  Counter b;
  a.add(7);
  b.add(35);
  a.merge(b);
  EXPECT_EQ(a.value(), 42u);
  EXPECT_EQ(b.value(), 35u);  // source untouched
}

TEST(TelemetryGauge, SetAndAdd) {
  Gauge gauge;
  gauge.set(4.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.add(-1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
}

// --- histogram bucket layout -------------------------------------------------

TEST(TelemetryHistogram, BucketIndexRoundTrips) {
  // Every probe value must land in a bucket whose [lower, upper] range
  // contains it; small values get exact unit buckets.
  const std::uint64_t probes[] = {0,    1,    31,        32,         33,
                                  63,   64,   65,        1000,       4096,
                                  4097, 1u << 20,        (1u << 20) + 17,
                                  std::uint64_t{1} << 40,
                                  ~std::uint64_t{0}};
  for (const std::uint64_t v : probes) {
    const std::size_t index = LatencyHistogram::bucket_index(v);
    ASSERT_LT(index, LatencyHistogram::kBucketCount) << "value " << v;
    EXPECT_LE(LatencyHistogram::bucket_lower(index), v) << "value " << v;
    EXPECT_GE(LatencyHistogram::bucket_upper(index), v) << "value " << v;
  }
  for (std::uint64_t v = 0; v < LatencyHistogram::kLinear; ++v) {
    EXPECT_EQ(LatencyHistogram::bucket_index(v), v);
    EXPECT_EQ(LatencyHistogram::bucket_width(v), 1u);
  }
}

TEST(TelemetryHistogram, BucketsPartitionTheRange) {
  // Consecutive buckets tile the value axis with no gaps or overlaps.
  for (std::size_t i = 0; i + 1 < LatencyHistogram::kBucketCount; ++i) {
    EXPECT_EQ(LatencyHistogram::bucket_upper(i) + 1,
              LatencyHistogram::bucket_lower(i + 1))
        << "bucket " << i;
  }
  EXPECT_EQ(LatencyHistogram::bucket_upper(LatencyHistogram::kBucketCount - 1),
            ~std::uint64_t{0});
}

TEST(TelemetryHistogram, CountSumMinMaxExact) {
  LatencyHistogram histogram;
  histogram.record(100);
  histogram.record(250);
  histogram.record(50);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_EQ(histogram.sum(), 400u);
  EXPECT_EQ(histogram.min(), 50u);
  EXPECT_EQ(histogram.max(), 250u);
}

TEST(TelemetryHistogram, QuantileWithinBucketResolution) {
  LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 10'000; ++v) {
    histogram.record(v);
  }
  const HistogramSnapshot snap = histogram.snapshot();
  // Sub-bucket resolution is 2^-5, so the bucket representative sits
  // within ~3.2% of the true order statistic.
  EXPECT_NEAR(snap.quantile(0.50), 5000.0, 5000.0 * 0.033);
  EXPECT_NEAR(snap.quantile(0.90), 9000.0, 9000.0 * 0.033);
  EXPECT_NEAR(snap.quantile(0.99), 9900.0, 9900.0 * 0.033);
  EXPECT_EQ(snap.max, 10'000u);
  EXPECT_DOUBLE_EQ(snap.mean(), 5000.5);
}

TEST(TelemetryHistogram, QuantileEdgeCases) {
  LatencyHistogram empty;
  EXPECT_EQ(empty.snapshot().quantile(0.5), 0.0);
  LatencyHistogram one;
  one.record(17);
  // A single small value lives in an exact unit bucket: every quantile
  // is that value.
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.0), 17.0);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.5), 17.0);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(1.0), 17.0);
}

// --- the acceptance-criterion invariant: K-shard merge == single run --------

TEST(TelemetryHistogram, ShardMergeEqualsSingleRunBucketForBucket) {
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kSamples = 20'000;
  std::mt19937_64 rng(0x5EED);
  // Log-uniform latencies spanning ns to tens of seconds.
  std::uniform_real_distribution<double> exponent(0.0, 34.0);

  LatencyHistogram single;
  std::vector<std::unique_ptr<LatencyHistogram>> shards;
  for (std::size_t s = 0; s < kShards; ++s) {
    shards.push_back(std::make_unique<LatencyHistogram>());
  }
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto value = static_cast<std::uint64_t>(
        std::exp2(exponent(rng)));
    single.record(value);
    shards[i % kShards]->record(value);  // round-robin sharding
  }

  LatencyHistogram merged;
  for (const auto& shard : shards) {
    merged.merge(*shard);
  }

  const HistogramSnapshot lhs = merged.snapshot();
  const HistogramSnapshot rhs = single.snapshot();
  EXPECT_EQ(lhs.count, rhs.count);
  EXPECT_EQ(lhs.sum, rhs.sum);
  EXPECT_EQ(lhs.min, rhs.min);
  EXPECT_EQ(lhs.max, rhs.max);
  ASSERT_EQ(lhs.buckets.size(), rhs.buckets.size());
  for (std::size_t i = 0; i < lhs.buckets.size(); ++i) {
    ASSERT_EQ(lhs.buckets[i], rhs.buckets[i]) << "bucket " << i;
  }
}

TEST(TelemetryHistogram, MergeIsOrderInvariant) {
  LatencyHistogram a1;
  LatencyHistogram b1;
  LatencyHistogram a2;
  LatencyHistogram b2;
  for (std::uint64_t v : {3u, 900u, 40'000u, 123u}) {
    a1.record(v);
    a2.record(v);
  }
  for (std::uint64_t v : {9u, 900u, 7'777u}) {
    b1.record(v);
    b2.record(v);
  }
  LatencyHistogram ab;
  ab.merge(a1);
  ab.merge(b1);
  LatencyHistogram ba;
  ba.merge(b2);
  ba.merge(a2);
  const HistogramSnapshot lhs = ab.snapshot();
  const HistogramSnapshot rhs = ba.snapshot();
  EXPECT_EQ(lhs.count, rhs.count);
  EXPECT_EQ(lhs.sum, rhs.sum);
  EXPECT_EQ(lhs.min, rhs.min);
  EXPECT_EQ(lhs.max, rhs.max);
  EXPECT_EQ(lhs.buckets, rhs.buckets);
}

TEST(TelemetryHistogram, ConcurrentRecordingLosesNothing) {
  LatencyHistogram histogram;
  constexpr std::size_t kThreads = 8;
  constexpr std::uint64_t kPerThread = 20'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        histogram.record(t * 1000 + (i & 255));
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  const HistogramSnapshot snap = histogram.snapshot();
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 7'000u + 255u);
}

// --- registry ----------------------------------------------------------------

TEST(TelemetryRegistry, SameNameAndLabelsInternToOneInstrument) {
  Registry registry;
  const auto a = registry.counter("requests_total");
  const auto b = registry.counter("requests_total");
  const auto c = registry.counter("requests_total",
                                  telemetry::label("shard", "1"));
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  a->add(2);
  EXPECT_EQ(b->value(), 2u);
  EXPECT_EQ(registry.counters().size(), 2u);
}

TEST(TelemetryRegistry, EntriesSortedAndTyped) {
  Registry registry;
  registry.gauge("zeta")->set(1.0);
  registry.gauge("alpha")->set(2.0);
  const auto gauges = registry.gauges();
  ASSERT_EQ(gauges.size(), 2u);
  EXPECT_EQ(gauges[0].name, "alpha");
  EXPECT_EQ(gauges[1].name, "zeta");
}

TEST(TelemetryRegistry, LabelFormatsPrometheusPair) {
  EXPECT_EQ(telemetry::label("backend", "overlap-save-fir"),
            "backend=\"overlap-save-fir\"");
}

// --- exporters ---------------------------------------------------------------

TEST(TelemetryExport, PrometheusExpositionShape) {
  Registry registry;
  registry.counter("rfade_test_requests_total",
                   telemetry::label("kind", "unit"))
      ->add(5);
  registry.gauge("rfade_test_depth")->set(3.5);
  const auto histogram = registry.histogram("rfade_test_latency_ns");
  histogram->record(100);
  histogram->record(100);
  histogram->record(90'000);

  const std::string text = telemetry::prometheus_text(registry);
  EXPECT_NE(text.find("# TYPE rfade_test_requests_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("rfade_test_requests_total{kind=\"unit\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE rfade_test_depth gauge"), std::string::npos);
  EXPECT_NE(text.find("rfade_test_depth 3.5"), std::string::npos);
  EXPECT_NE(text.find("# TYPE rfade_test_latency_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("rfade_test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("rfade_test_latency_ns_sum 90200"), std::string::npos);
  EXPECT_NE(text.find("rfade_test_latency_ns_count 3"), std::string::npos);

  // Cumulative bucket series must be non-decreasing and end at count.
  std::uint64_t last = 0;
  std::size_t bucket_lines = 0;
  std::size_t pos = 0;
  while ((pos = text.find("rfade_test_latency_ns_bucket", pos)) !=
         std::string::npos) {
    const std::size_t space = text.find(' ', pos);
    const std::size_t eol = text.find('\n', space);
    const std::uint64_t cumulative =
        std::stoull(text.substr(space + 1, eol - space - 1));
    EXPECT_GE(cumulative, last);
    last = cumulative;
    ++bucket_lines;
    pos = eol;
  }
  EXPECT_GE(bucket_lines, 3u);  // two occupied buckets + the +Inf line
  EXPECT_EQ(last, 3u);
}

TEST(TelemetryExport, JsonSnapshotParsesAndCarriesQuantiles) {
  Registry registry;
  registry.counter("c_total")->add(1);
  registry.gauge("g")->set(-2.25);
  const auto histogram = registry.histogram(
      "h_ns", telemetry::label("backend", "independent-block"));
  for (std::uint64_t v = 1; v <= 1000; ++v) {
    histogram->record(v);
  }

  const std::string json = telemetry::json_snapshot(registry);
  const auto parsed = JsonParser(json).parse();
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const JsonObject& root = parsed->object();
  ASSERT_EQ(root.count("schema_version"), 1u);
  EXPECT_EQ(root.at("schema_version").number(),
            static_cast<double>(telemetry::kJsonSchemaVersion));
  ASSERT_EQ(root.count("counters"), 1u);
  ASSERT_EQ(root.count("gauges"), 1u);
  ASSERT_EQ(root.count("histograms"), 1u);

  const JsonArray& histograms = root.at("histograms").array();
  ASSERT_EQ(histograms.size(), 1u);
  const JsonObject& h = histograms[0].object();
  EXPECT_EQ(h.at("name").string(), "h_ns");
  EXPECT_EQ(h.at("labels").string(), "backend=\"independent-block\"");
  EXPECT_EQ(h.at("count").number(), 1000.0);
  EXPECT_EQ(h.at("max").number(), 1000.0);
  EXPECT_NEAR(h.at("p50").number(), 500.0, 500.0 * 0.033);
  EXPECT_NEAR(h.at("p99").number(), 990.0, 990.0 * 0.033);
  ASSERT_TRUE(h.at("buckets").is_array());
  EXPECT_FALSE(h.at("buckets").array().empty());

  const JsonObject& g = root.at("gauges").array()[0].object();
  EXPECT_DOUBLE_EQ(g.at("value").number(), -2.25);
}

// --- tracing -----------------------------------------------------------------

TEST(TelemetryTrace, ChromeTraceJsonIsWellFormedAndNests) {
  const TelemetryGuard guard;
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(telemetry::kCompiledIn);

  {
    const Span outer("outer");
    {
      const Span inner("inner");
      // A tiny busy wait so dur > 0 even with coarse clocks.
      volatile int sink = 0;
      for (int i = 0; i < 1000; ++i) {
        sink = sink + i;
      }
    }
  }
  std::thread([] { const Span other("other-thread"); }).join();

  tracer.set_enabled(false);
  const std::string json = tracer.chrome_trace_json();
  const auto parsed = JsonParser(json).parse();
  ASSERT_TRUE(parsed.has_value());
  ASSERT_TRUE(parsed->is_object());
  const JsonObject& root = parsed->object();
  ASSERT_EQ(root.count("traceEvents"), 1u);
  const JsonArray& events = root.at("traceEvents").array();

  if (!telemetry::kCompiledIn) {
    EXPECT_TRUE(events.empty());
    return;
  }
  ASSERT_EQ(events.size(), 3u);

  const JsonObject* outer_event = nullptr;
  const JsonObject* inner_event = nullptr;
  for (const JsonValue& value : events) {
    ASSERT_TRUE(value.is_object());
    const JsonObject& event = value.object();
    // Chrome trace-event required fields for complete events.
    ASSERT_EQ(event.count("name"), 1u);
    ASSERT_EQ(event.at("ph").string(), "X");
    ASSERT_GE(event.at("ts").number(), 0.0);
    ASSERT_GE(event.at("dur").number(), 0.0);
    ASSERT_EQ(event.count("pid"), 1u);
    ASSERT_EQ(event.count("tid"), 1u);
    if (event.at("name").string() == "outer") {
      outer_event = &event;
    }
    if (event.at("name").string() == "inner") {
      inner_event = &event;
    }
  }
  ASSERT_NE(outer_event, nullptr);
  ASSERT_NE(inner_event, nullptr);
  // Scoped nesting: the inner span's interval lies inside the outer's
  // on the same thread row — what the trace viewer's flame graph needs.
  EXPECT_EQ(outer_event->at("tid").number(), inner_event->at("tid").number());
  EXPECT_LE(outer_event->at("ts").number(), inner_event->at("ts").number());
  EXPECT_GE(outer_event->at("ts").number() + outer_event->at("dur").number(),
            inner_event->at("ts").number() + inner_event->at("dur").number());
}

TEST(TelemetryTrace, DisabledSpansRecordNothing) {
  const TelemetryGuard guard;
  Tracer& tracer = Tracer::global();
  tracer.clear();
  tracer.set_enabled(false);
  {
    const Span span("invisible");
  }
  EXPECT_TRUE(tracer.events().empty());
}

TEST(TelemetryTrace, CapacityBoundsTheBufferAndCountsDrops) {
  const TelemetryGuard guard;
  Tracer& tracer = Tracer::global();
  tracer.clear();
  const std::size_t original_capacity = tracer.capacity();
  tracer.set_capacity(2);
  tracer.set_enabled(telemetry::kCompiledIn);
  for (int i = 0; i < 5; ++i) {
    const Span span("spam");
  }
  tracer.set_enabled(false);
  if (telemetry::kCompiledIn) {
    EXPECT_EQ(tracer.events().size(), 2u);
    EXPECT_EQ(tracer.dropped(), 3u);
  }
  tracer.set_capacity(original_capacity);
}

// --- disabled-mode fast paths ------------------------------------------------

TEST(TelemetryDisabled, ScopedTimerRecordsOnlyWhenEnabled) {
  const TelemetryGuard guard;
  LatencyHistogram histogram;
  telemetry::set_enabled(false);
  {
    const telemetry::ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.count(), 0u);
  {
    const telemetry::ScopedTimer timer(nullptr);  // null target is always safe
  }

  telemetry::set_enabled(true);
  {
    const telemetry::ScopedTimer timer(&histogram);
  }
  EXPECT_EQ(histogram.count(), telemetry::kCompiledIn ? 1u : 0u);
}

TEST(TelemetryDisabled, RecordIfEnabledGates) {
  const TelemetryGuard guard;
  LatencyHistogram histogram;
  telemetry::set_enabled(false);
  telemetry::record_if_enabled(&histogram, 42);
  EXPECT_EQ(histogram.count(), 0u);
  telemetry::set_enabled(true);
  telemetry::record_if_enabled(&histogram, 42);
  EXPECT_EQ(histogram.count(), telemetry::kCompiledIn ? 1u : 0u);
}

// --- serving-layer wiring ----------------------------------------------------

#if RFADE_TELEMETRY

TEST(TelemetryWiring, PlanCacheCountersLiveOnTheGlobalRegistry) {
  // Each PlanCache instance registers distinctly-labelled counters;
  // stats() is a view over exactly those counters.
  service::PlanCache cache(2);
  const auto spec = service::ChannelSpec::Builder()
                        .rayleigh(numeric::CMatrix::identity(2))
                        .instant()
                        .block_size(16)
                        .build();
  (void)cache.get_or_compile(spec);
  (void)cache.get_or_compile(spec);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);

  std::uint64_t hits_on_registry = 0;
  std::uint64_t labelled_instances = 0;
  for (const telemetry::CounterEntry& entry :
       Registry::global().counters()) {
    if (entry.name == "rfade_plan_cache_hits_total") {
      ++labelled_instances;
      hits_on_registry += entry.value;
    }
  }
  EXPECT_GE(labelled_instances, 1u);  // ours, plus any older caches
  EXPECT_GE(hits_on_registry, 1u);
  const std::string text = telemetry::prometheus_text();
  EXPECT_NE(text.find("rfade_plan_cache_hits_total{cache="),
            std::string::npos);
}

TEST(TelemetryWiring, SessionPullsRecordLatencyWhenEnabled) {
  const TelemetryGuard guard;
  const auto before_histogram =
      Registry::global().histogram("rfade_session_next_block_ns");
  const std::uint64_t before = before_histogram->count();
  // Session pulls ride the stream cursor, so they also land in the
  // engine's per-backend fill histogram.
  const auto backend_histogram = Registry::global().histogram(
      "rfade_stream_block_fill_ns",
      telemetry::label("backend", "overlap-save-fir") + "," +
          telemetry::label("precision", "f64"));
  const std::uint64_t backend_before = backend_histogram->count();

  service::ChannelService service_instance;
  const auto spec = service::ChannelSpec::Builder()
                        .rayleigh(numeric::CMatrix::identity(2))
                        .backend(doppler::StreamBackend::OverlapSaveFir)
                        .idft_size(256)
                        .doppler(0.05)
                        .build();
  auto session = service_instance.open_session(spec, 7);
  (void)session.next_block();  // idle: must not record
  EXPECT_EQ(before_histogram->count(), before);
  EXPECT_EQ(backend_histogram->count(), backend_before);

  telemetry::set_enabled(true);
  (void)session.next_block();
  EXPECT_EQ(before_histogram->count(), before + 1);
  EXPECT_EQ(backend_histogram->count(), backend_before + 1);
  // The keyed path is not a cursor pull: neither histogram moves.
  (void)session.generate_block(5);
  EXPECT_EQ(before_histogram->count(), before + 1);
  EXPECT_EQ(backend_histogram->count(), backend_before + 1);
  const std::uint64_t seeks_before =
      Registry::global().counter("rfade_session_seeks_total")->value();
  session.seek(0);
  EXPECT_EQ(Registry::global().counter("rfade_session_seeks_total")->value(),
            seeks_before + 1);
}

TEST(TelemetryWiring, StreamBackendHistogramIsLabelled) {
  const TelemetryGuard guard;
  telemetry::set_enabled(true);
  core::FadingStreamOptions options;
  options.idft_size = 256;
  options.seed = 11;
  core::FadingStream stream(numeric::CMatrix::identity(2), options);
  (void)stream.next_block();
  const auto histogram = Registry::global().histogram(
      "rfade_stream_block_fill_ns",
      telemetry::label("backend", "independent-block") + "," +
          telemetry::label("precision", "f64"));
  EXPECT_GE(histogram->count(), 1u);
}

#endif  // RFADE_TELEMETRY

}  // namespace
