// Observability-layer units (src/obs/metrics, serve spans) and
// the minimal JSON reader that validates their outputs:
//
//   * log2 histogram bucket edges and nearest-rank quantiles (a quantile
//     always lands inside its bucket's [lower, upper] bounds);
//   * registry semantics: same name returns the same metric, a kind
//     mismatch throws, exports are properly escaped;
//   * Prometheus exposition shape: HELP/TYPE pairs, cumulative
//     bucket{le=...} series, the +Inf bucket equals _count, and the
//     nscc_build_info provenance metric with escaped label values;
//   * the bounded span log drops and counts at capacity;
//   * the Chrome serve-trace writer emits well-formed JSON with thread
//     metadata, async queue events, and flow arrows;
//   * an 8-thread hammer over one registry (the TSan job's target for
//     this layer): relaxed atomics must lose no increments.
#include <gtest/gtest.h>

#include <future>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/profile.hpp"
#include "obs/provenance.hpp"
#include "support/error.hpp"
#include "support/json.hpp"

namespace nsc {
namespace {

// -- Histogram -----------------------------------------------------------

TEST(Metrics, HistogramBucketEdges) {
  using H = obs::Histogram;
  using S = obs::HistogramSnapshot;
  EXPECT_EQ(H::bucket_of(0), 0u);
  EXPECT_EQ(H::bucket_of(1), 1u);
  EXPECT_EQ(H::bucket_of(2), 2u);
  EXPECT_EQ(H::bucket_of(3), 2u);
  EXPECT_EQ(H::bucket_of(4), 3u);
  EXPECT_EQ(H::bucket_of(7), 3u);
  EXPECT_EQ(H::bucket_of(8), 4u);
  EXPECT_EQ(H::bucket_of(std::numeric_limits<std::uint64_t>::max()), 64u);
  EXPECT_EQ(S::bucket_upper(0), 0u);
  EXPECT_EQ(S::bucket_upper(1), 1u);
  EXPECT_EQ(S::bucket_upper(2), 3u);
  EXPECT_EQ(S::bucket_upper(3), 7u);
  EXPECT_EQ(S::bucket_upper(64), std::numeric_limits<std::uint64_t>::max());
  // Every bucket's upper edge is one below the next bucket's lower edge.
  for (std::size_t b = 1; b < 64; ++b) {
    EXPECT_EQ(H::bucket_of(S::bucket_upper(b)), b);
    EXPECT_EQ(H::bucket_of(S::bucket_upper(b) + 1), b + 1);
  }
}

TEST(Metrics, HistogramQuantilesStayInBucketBounds) {
  obs::Histogram h;
  EXPECT_EQ(h.snapshot().quantile(0.5), 0u);  // empty
  for (int i = 0; i < 5; ++i) h.observe(0);
  EXPECT_EQ(h.snapshot().quantile(0.5), 0u);
  EXPECT_EQ(h.snapshot().quantile(1.0), 0u);

  obs::Histogram one;
  for (int i = 0; i < 4; ++i) one.observe(1);
  EXPECT_EQ(one.snapshot().quantile(0.99), 1u);  // bucket 1 is exact

  obs::Histogram mixed;
  mixed.observe(1);            // bucket 1: [1, 1]
  for (int i = 0; i < 3; ++i) mixed.observe(2);  // bucket 2: [2, 3]
  for (int i = 0; i < 6; ++i) mixed.observe(100);  // bucket 7: [64, 127]
  const obs::HistogramSnapshot s = mixed.snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.sum, 1u + 3 * 2 + 6 * 100);
  EXPECT_EQ(s.mean(), s.sum / 10);
  EXPECT_EQ(s.quantile(0.1), 1u);  // rank 1 -> bucket 1, exact
  const std::uint64_t q4 = s.quantile(0.4);  // rank 4 -> bucket 2
  EXPECT_GE(q4, 2u);
  EXPECT_LE(q4, 3u);
  const std::uint64_t q9 = s.quantile(0.9);  // rank 9 -> bucket 7
  EXPECT_GE(q9, 64u);
  EXPECT_LE(q9, 127u);
  EXPECT_EQ(s.quantile(0.0), 1u);  // clamps to rank 1
  EXPECT_LE(s.quantile(1.0), 127u);
}

TEST(Metrics, HistogramSumSaturatesInsteadOfWrapping) {
  obs::Histogram h;
  h.observe(std::numeric_limits<std::uint64_t>::max());
  h.observe(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.snapshot().sum, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(h.snapshot().count, 2u);
}

// -- Registry ------------------------------------------------------------

TEST(Metrics, RegistryReturnsStableRefsAndChecksKinds) {
  obs::Registry reg;
  obs::Counter& a = reg.counter("x_total", "help one");
  obs::Counter& b = reg.counter("x_total", "ignored on re-registration");
  EXPECT_EQ(&a, &b);
  a.inc(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(reg.gauge("x_total", "not a counter"), Error);
  EXPECT_THROW(reg.histogram("x_total", "not a counter"), Error);
}

TEST(Metrics, PrometheusExposition) {
  obs::Registry reg;
  reg.counter("req_total", "requests\nwith a \\ newline").inc(7);
  reg.gauge("depth", "queue depth").set(3);
  obs::Histogram& h = reg.histogram("lat_ns", "latency");
  h.observe(0);
  h.observe(1);
  h.observe(2);
  h.observe(3);
  obs::Provenance prov;
  prov.compiler = "g\"cc";
  prov.git_sha = "abc123";
  prov.host_cores = 8;
  std::ostringstream out;
  reg.write_prometheus(out, &prov);
  const std::string text = out.str();
  // Info metric first, with the quote in the label value escaped.
  EXPECT_NE(text.find("nscc_build_info{compiler=\"g\\\"cc\""),
            std::string::npos);
  // HELP escaping: newline -> \n, backslash -> \\.
  EXPECT_NE(text.find("# HELP req_total requests\\nwith a \\\\ newline"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 7"), std::string::npos);
  EXPECT_NE(text.find("depth 3"), std::string::npos);
  // Cumulative buckets: le="0" -> 1 sample, le="1" -> 2, le="3" -> 4.
  EXPECT_NE(text.find("lat_ns_bucket{le=\"0\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"3\"} 4"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_bucket{le=\"+Inf\"} 4"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_sum 6"), std::string::npos);
  EXPECT_NE(text.find("lat_ns_count 4"), std::string::npos);
}

// 8 threads hammer one registry's worth of metrics; relaxed atomics must
// lose nothing.  This test is built into the CI ThreadSanitizer job.
TEST(Metrics, ConcurrentHammerLosesNothing) {
  obs::Registry reg;
  obs::Counter& c = reg.counter("hits_total", "hammered");
  obs::Gauge& g = reg.gauge("depth", "hammered");
  obs::Histogram& h = reg.histogram("lat", "hammered");
  constexpr int kThreads = 8;
  constexpr int kReps = 20000;
  std::vector<std::future<void>> done;
  for (int t = 0; t < kThreads; ++t) {
    done.push_back(std::async(std::launch::async, [&, t] {
      for (int i = 0; i < kReps; ++i) {
        c.inc();
        g.set(static_cast<std::uint64_t>(i));
        h.observe(static_cast<std::uint64_t>(t * kReps + i));
      }
    }));
  }
  for (auto& d : done) d.get();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kReps);
  const obs::HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<std::uint64_t>(kThreads) * kReps);
  EXPECT_LT(g.value(), static_cast<std::uint64_t>(kReps));
}

// -- SpanLog + the Chrome trace writer ------------------------------------

TEST(Spans, BoundedLogDropsAndCounts) {
  obs::SpanLog log(2);
  for (int i = 0; i < 4; ++i) {
    obs::ServeSpan s;
    s.phase = "execute";
    s.t0_ns = log.now_ns();
    log.record(std::move(s));
  }
  const obs::SpanLogStats st = log.stats();
  EXPECT_EQ(st.recorded, 2u);
  EXPECT_EQ(st.dropped, 2u);
  EXPECT_EQ(st.queued, 2u);
  EXPECT_EQ(log.drain().size(), 2u);
  EXPECT_EQ(log.stats().queued, 0u);
}

TEST(Spans, ChromeTraceShape) {
  std::vector<obs::ServeSpan> spans;
  obs::ServeSpan wait;
  wait.phase = "queue-wait";
  wait.request_id = 1;
  wait.batch_id = 9;
  wait.t0_ns = 1000;
  wait.dur_ns = 500;
  wait.size = 2;
  spans.push_back(wait);
  obs::ServeSpan exec;
  exec.phase = "execute";
  exec.request_id = 0;
  exec.batch_id = 9;
  exec.worker = 1;
  exec.t0_ns = 1600;
  exec.dur_ns = 2000;
  exec.size = 2;
  exec.note = "with \"quotes\"";
  spans.push_back(exec);

  obs::Provenance prov;
  prov.compiler = "test";
  std::ostringstream out;
  obs::write_chrome_trace(out, spans, {"queue", "worker 1", "worker 2"},
                          &prov);
  const std::string text = out.str();
  const json::Value doc = json::parse(text);  // must be well-formed JSON
  EXPECT_NE(doc.find("traceEvents"), nullptr);
  EXPECT_NE(doc.at("otherData").find("provenance"), nullptr);
  // Worker rows are named up front.
  EXPECT_NE(text.find("\"name\":\"queue\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker 1\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"worker 2\""), std::string::npos);
  // The queue-wait is an async begin/end pair on tid 0...
  EXPECT_NE(text.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"e\""), std::string::npos);
  // ...with a flow arrow into the matching batch's first worker span.
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  // The execute span is a complete event on the worker's row.
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"note\":\"with \\\"quotes\\\"\""), std::string::npos);
}

// -- support/json (the reader used to validate the above) ----------------

TEST(Json, ParsesDocumentsExactly) {
  const json::Value v = json::parse(
      "{\"a\": [1, 2.5, true, null, \"x\\ny\"], "
      "\"big\": 18446744073709551615}");
  EXPECT_EQ(v.at("a").items.size(), 5u);
  EXPECT_EQ(v.at("a").items[0].as_u64(), 1u);
  EXPECT_DOUBLE_EQ(v.at("a").items[1].as_double(), 2.5);
  EXPECT_TRUE(v.at("a").items[2].as_bool());
  EXPECT_TRUE(v.at("a").items[3].is(json::Value::Kind::Null));
  EXPECT_EQ(v.at("a").items[4].as_string(), "x\ny");
  // Exact uint64 round trip at the very top of the range (a double
  // would have rounded this).
  EXPECT_EQ(v.at("big").as_u64(), std::numeric_limits<std::uint64_t>::max());
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{\"a\": 1,}"), Error);
  EXPECT_THROW(json::parse("[1, 2] trailing"), Error);
  EXPECT_THROW(json::parse("{\"unterminated\": \"str"), Error);
  EXPECT_THROW(json::parse("18446744073709551616").as_u64(), Error);  // 2^64
  EXPECT_THROW(json::parse("1.5").as_u64(), Error);
  EXPECT_THROW(json::parse("-3").as_u64(), Error);
}

}  // namespace
}  // namespace nsc
