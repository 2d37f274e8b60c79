// Observability-plane tests (src/obs): tracer sampling and span parenting,
// ring-buffer wrap, the metrics registry's instrument identity,
// HistogramHandle edge cases, Gauge::raise_to under racing writers, and the
// exact Prometheus text rules (label escaping, TYPE lines) foreign
// scrapers depend on.
//
// The tracer is a process-wide singleton, so every test that enables
// sampling restores sample_every(0) and clear()s the rings before it
// returns — the suites run in one process.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dnj::obs {
namespace {

/// Scoped sampling override: force a rate, clear rings, undo on exit.
struct SamplingGuard {
  explicit SamplingGuard(std::uint32_t every) {
    Tracer::instance().set_sample_every(every);
    Tracer::instance().clear();
  }
  ~SamplingGuard() {
    Tracer::instance().set_sample_every(0);
    Tracer::instance().clear();
  }
};

std::vector<SpanRecord> spans_of(std::uint64_t trace_id) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& s : Tracer::instance().dump())
    if (s.trace_id == trace_id) out.push_back(s);
  return out;
}

TEST(Tracer, DisabledSamplingNeverStartsATrace) {
  SamplingGuard guard(0);
  EXPECT_FALSE(Tracer::instance().enabled());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(Tracer::instance().start_trace(), 0u);
  // Spans on an unsampled thread are inert and record nothing.
  {
    TraceScope scope(0, 0);
    Span span(Stage::kBatch, 7);
    EXPECT_FALSE(span.active());
  }
  record_span(0, 0, Stage::kQueueWait, 10, 20);
  EXPECT_TRUE(Tracer::instance().dump().empty());
}

TEST(Tracer, SampleEveryOneTracesEveryRequestWithUniqueIds) {
  SamplingGuard guard(1);
  const std::uint64_t a = Tracer::instance().start_trace();
  const std::uint64_t b = Tracer::instance().start_trace();
  EXPECT_NE(a, 0u);
  EXPECT_NE(b, 0u);
  EXPECT_NE(a, b);
}

TEST(Tracer, SampleEveryNTracesRoughlyOneInN) {
  SamplingGuard guard(8);
  int sampled = 0;
  for (int i = 0; i < 800; ++i)
    if (Tracer::instance().start_trace() != 0) ++sampled;
  // The decision hashes the trace id, so the rate concentrates around
  // 1/8; accept a generous band to stay hash-function-agnostic.
  EXPECT_GT(sampled, 800 / 8 / 4);
  EXPECT_LT(sampled, 800 / 2);
}

TEST(Tracer, NestedSpansParentToTheEnclosingSpan) {
  SamplingGuard guard(1);
  const std::uint64_t trace = Tracer::instance().start_trace();
  ASSERT_NE(trace, 0u);
  const std::uint32_t root = Tracer::instance().next_span_id();

  std::uint32_t outer_id = 0;
  {
    TraceScope scope(trace, root);
    Span outer(Stage::kBatch, 3);
    ASSERT_TRUE(outer.active());
    outer_id = outer.id();
    Span inner(Stage::kEncodeDct);
    ASSERT_TRUE(inner.active());
  }

  const std::vector<SpanRecord> spans = spans_of(trace);
  ASSERT_EQ(spans.size(), 2u);
  const auto outer_rec = std::find_if(spans.begin(), spans.end(), [&](const SpanRecord& s) {
    return s.span_id == outer_id;
  });
  ASSERT_NE(outer_rec, spans.end());
  EXPECT_EQ(outer_rec->parent_id, root);
  EXPECT_EQ(outer_rec->stage, Stage::kBatch);
  EXPECT_EQ(outer_rec->tag, 3u);
  const auto inner_rec = std::find_if(spans.begin(), spans.end(), [&](const SpanRecord& s) {
    return s.span_id != outer_id;
  });
  ASSERT_NE(inner_rec, spans.end());
  EXPECT_EQ(inner_rec->parent_id, outer_id);
  EXPECT_LE(outer_rec->start_ns, inner_rec->start_ns);
  EXPECT_GE(outer_rec->end_ns, inner_rec->end_ns);
}

TEST(Tracer, RecordSpanAsKeepsTheCallerAllocatedId) {
  SamplingGuard guard(1);
  const std::uint64_t trace = Tracer::instance().start_trace();
  ASSERT_NE(trace, 0u);
  const std::uint32_t root = Tracer::instance().next_span_id();
  record_span_as(trace, root, 0, Stage::kRequest, 100, 900, 42);
  record_span(trace, root, Stage::kQueueWait, 150, 300);

  const std::vector<SpanRecord> spans = spans_of(trace);
  ASSERT_EQ(spans.size(), 2u);
  // The root record carries exactly the id its child points at.
  EXPECT_EQ(spans[0].span_id, root);
  EXPECT_EQ(spans[0].parent_id, 0u);
  EXPECT_EQ(spans[0].tag, 42u);
  EXPECT_EQ(spans[1].parent_id, root);
  EXPECT_NE(spans[1].span_id, root);
}

TEST(Tracer, RingWrapsKeepingTheNewestRecords) {
  SamplingGuard guard(1);
  // Capacity applies to rings created afterwards — record from a fresh
  // thread so this test owns a brand-new minimum-size ring.
  Tracer::instance().set_ring_capacity(64);
  const std::uint64_t trace = Tracer::instance().start_trace();
  ASSERT_NE(trace, 0u);
  std::thread([&] {
    for (std::uint64_t i = 0; i < 200; ++i)
      record_span(trace, 0, Stage::kBatch, i, i + 1, /*tag=*/i);
  }).join();
  Tracer::instance().set_ring_capacity(4096);

  const std::vector<SpanRecord> spans = spans_of(trace);
  ASSERT_EQ(spans.size(), 64u);
  // Oldest overwritten first: exactly tags 136..199 survive.
  for (const SpanRecord& s : spans) EXPECT_GE(s.tag, 200u - 64u);
}

TEST(Tracer, ConcurrentRecordAndDumpIsSafe) {
  SamplingGuard guard(1);
  const std::uint64_t trace = Tracer::instance().start_trace();
  ASSERT_NE(trace, 0u);
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (std::uint64_t i = 0; i < 500; ++i)
        record_span(trace, 0, Stage::kEncodeEntropy, i, i + 1,
                    static_cast<std::uint64_t>(t));
    });
  }
  std::size_t seen = 0;
  for (int i = 0; i < 50; ++i) seen = std::max(seen, Tracer::instance().dump().size());
  for (std::thread& w : writers) w.join();
  EXPECT_GE(Tracer::instance().dump().size(), seen);
  // The JSON surface stays well-formed under whatever was captured.
  const std::string json = Tracer::instance().dump_json();
  EXPECT_NE(json.find("\"clock\":\"steady_ns\""), std::string::npos);
  EXPECT_EQ(json.back(), '}');
}

TEST(HistogramHandle, EmptyHandleReportsZerosAndLowQuantile) {
  HistogramHandle h(0.0, 100.0, 10);
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  EXPECT_EQ(h.max(), 0.0);
  EXPECT_EQ(h.quantile(0.99), 0.0);  // empty -> lo()
}

TEST(HistogramHandle, SingleBucketKeepsExactSumAndMax) {
  HistogramHandle h(0.0, 10.0, 1);
  h.observe(2.5);
  h.observe(7.25);
  h.observe(123.0);  // saturates into the single bin, sum/max stay exact
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 2.5 + 7.25 + 123.0);
  EXPECT_DOUBLE_EQ(h.max(), 123.0);
  const double q = h.quantile(0.5);
  EXPECT_GE(q, 0.0);
  EXPECT_LE(q, 10.0);
}

TEST(Gauge, RaiseToEndsAtTheMaximumUnderRacingWriters) {
  // Four threads raise one gauge to interleaved values, as submitters
  // publish a queue's high-water mark: whatever the interleaving, a lower
  // value never overwrites a higher one, so the gauge ends at the maximum.
  Gauge g;
  constexpr int kThreads = 4;
  constexpr int kSteps = 5000;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&g, t] {
      for (int i = 0; i < kSteps; ++i) {
        g.raise_to(static_cast<double>(i * kThreads + t));
        g.raise_to(static_cast<double>(t));  // a stale, lower reading
      }
    });
  for (std::thread& w : writers) w.join();
  const double max = static_cast<double>(kSteps * kThreads - 1);  // the last step's largest
  EXPECT_EQ(g.value(), max);

  g.raise_to(1.0);  // lower than the mark: ignored
  EXPECT_EQ(g.value(), max);
}

TEST(Registry, SameNameAndLabelsResolveToTheSameInstrument) {
  Registry reg;
  Counter& a = reg.counter("requests_total", {{"op", "encode"}});
  Counter& b = reg.counter("requests_total", {{"op", "encode"}});
  Counter& c = reg.counter("requests_total", {{"op", "decode"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_EQ(c.value(), 0u);
}

TEST(Registry, PrometheusEscapesLabelValues) {
  EXPECT_EQ(Registry::escape_label_value("plain"), "plain");
  EXPECT_EQ(Registry::escape_label_value("a\"b"), "a\\\"b");
  EXPECT_EQ(Registry::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(Registry::escape_label_value("a\nb"), "a\\nb");

  Registry reg;
  reg.counter("tenant_requests_total", {{"tenant", "ev\"il\\te\nnant"}}).inc();
  const std::string text = reg.render_prometheus();
  EXPECT_NE(
      text.find("tenant_requests_total{tenant=\"ev\\\"il\\\\te\\nnant\"} 1"),
      std::string::npos);
}

TEST(Registry, PrometheusRendersTypedSeriesDeterministically) {
  Registry reg;
  reg.counter("zeta_total").inc(2);
  reg.gauge("alpha_value").set(1.5);
  reg.histogram("lat_us", {}, 0.0, 1000.0, 50).observe(10.0);
  const std::string text = reg.render_prometheus();

  EXPECT_NE(text.find("# TYPE alpha_value gauge"), std::string::npos);
  EXPECT_NE(text.find("# TYPE zeta_total counter"), std::string::npos);
  EXPECT_NE(text.find("zeta_total 2\n"), std::string::npos);
  // Histograms expand to quantile-labelled gauges plus _sum/_count/_max.
  EXPECT_NE(text.find("lat_us{quantile=\"0.5\"}"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 10"), std::string::npos);
  EXPECT_NE(text.find("lat_us_max 10"), std::string::npos);
  // Deterministic order: alpha series render before zeta series.
  EXPECT_LT(text.find("alpha_value"), text.find("zeta_total"));
  // Render twice -> identical bytes (sorting is part of the contract).
  EXPECT_EQ(text, reg.render_prometheus());
}

TEST(Registry, JsonRenderIsAnObjectWithAMetricsArray) {
  Registry reg;
  reg.counter("a_total", {{"k", "v"}}).inc();
  const std::string json = reg.render_json();
  EXPECT_EQ(json.find("{\"metrics\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"a_total\""), std::string::npos);
  EXPECT_NE(json.find("\"k\":\"v\""), std::string::npos);
}

}  // namespace
}  // namespace dnj::obs
