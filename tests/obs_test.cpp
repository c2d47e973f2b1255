/// \file obs_test.cpp
/// \brief Observability layer: registry semantics and thread-safety, span
/// nesting, JSON round-trips, bench-record schema, and a flow-level smoke.
///
/// The registry and the trace collector are process-wide singletons; every
/// test resets them on entry so the suite stays order-independent. gtest runs
/// the tests of one binary sequentially, so only the thread-safety test runs
/// concurrent writers (through the same bench::run_jobs pool the suite
/// runners use).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "benchmarks/record.hpp"
#include "benchmarks/runner.hpp"
#include "benchmarks/suite.hpp"
#include "core/flow.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace t1sfq {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::instance().reset();
    obs::clear_trace();
  }
};

TEST_F(ObsTest, DisabledRecordsNothing) {
  ASSERT_FALSE(obs::enabled());
  obs::count("x");
  obs::gauge_set("g", 7);
  obs::observe_us("h", 100);
  {
    obs::Span span("dead");
    EXPECT_FALSE(span.active());
  }
  EXPECT_EQ(obs::Registry::instance().snapshot().size(), 0u);
  EXPECT_EQ(obs::trace_events().size(), 0u);
}

TEST_F(ObsTest, CountersGaugesHistograms) {
  obs::ScopedEnable on(true);
  obs::count("c");
  obs::count("c", 4);
  obs::count("c", 0);  // zero delta adds nothing to an existing counter
  obs::count("z", 0);  // ... and registers a new one at 0
  obs::gauge_set("g", 3);
  obs::gauge_set("g", -2);
  obs::gauge_max("m", 5);
  obs::gauge_max("m", 4);  // smaller: keeps 5
  obs::observe_us("h", 10);
  obs::observe_us("h", 30);

  const auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("c"), 5u);
  EXPECT_EQ(reg.gauge("g"), -2);
  EXPECT_EQ(reg.gauge("m"), 5);
  EXPECT_EQ(reg.counter("absent"), 0u);

  const auto snap = reg.snapshot();
  ASSERT_EQ(snap.size(), 5u);
  // snapshot() sorts by name: c, g, h, m, z.
  EXPECT_EQ(snap[0].name, "c");
  EXPECT_EQ(snap[2].name, "h");
  EXPECT_EQ(snap[2].kind, obs::MetricKind::Histogram);
  EXPECT_EQ(snap[2].count, 2u);
  EXPECT_EQ(snap[2].sum_us, 40u);
  EXPECT_EQ(snap[2].max_us, 30u);
  EXPECT_EQ(snap[4].name, "z");
  EXPECT_EQ(snap[4].kind, obs::MetricKind::Counter);
  EXPECT_EQ(snap[4].count, 0u);
}

TEST_F(ObsTest, ZeroCountLeavesNoStateWhenDisabled) {
  obs::set_enabled(false);
  obs::count("z", 0);
  obs::count("z");
  EXPECT_TRUE(obs::Registry::instance().snapshot().empty());
}

TEST_F(ObsTest, ScopedEnableRestoresState) {
  ASSERT_FALSE(obs::enabled());
  {
    obs::ScopedEnable outer(true);
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedEnable inner(true);  // already on: must not flip off early
      EXPECT_TRUE(obs::enabled());
    }
    EXPECT_TRUE(obs::enabled());
    {
      obs::ScopedEnable off(false);  // no-op, not a disable
      EXPECT_TRUE(obs::enabled());
    }
  }
  EXPECT_FALSE(obs::enabled());
}

// Concurrent counting through the same thread pool the suite benches use:
// every increment must land (the registry mutex, not luck).
TEST_F(ObsTest, CounterCaptureMirrorsItsOwnJobAndNests) {
  obs::ScopedEnable on(true);
  obs::count("job", 7);  // before any scope: registry only
  constexpr unsigned kJobs = 4;
  std::vector<std::map<std::string, uint64_t, std::less<>>> seen(kJobs);
  std::vector<bench::Job> jobs;
  for (unsigned j = 0; j < kJobs; ++j) {
    jobs.push_back([&seen, j](std::ostream&) {
      const obs::CounterCapture outer;
      obs::count("job", j + 1);
      {
        const obs::CounterCapture inner;
        obs::count("inner", 10);
        obs::count("zero", 0);  // registered at 0, like the registry
        EXPECT_EQ(inner.counters().size(), 2u);
      }
      seen[j] = outer.counters();
    });
  }
  std::ostringstream sink;
  bench::run_jobs(std::move(jobs), sink, kJobs);

  for (unsigned j = 0; j < kJobs; ++j) {
    EXPECT_EQ(seen[j].at("job"), j + 1u) << "job " << j;
    EXPECT_EQ(seen[j].at("inner"), 10u);
    EXPECT_EQ(seen[j].at("zero"), 0u);
  }
  // The process registry keeps its sums.
  EXPECT_EQ(obs::Registry::instance().counter("job"), 7u + 1 + 2 + 3 + 4);
  EXPECT_EQ(obs::Registry::instance().counter("inner"), 10u * kJobs);

  bench::BenchRecord rec;
  {
    const obs::CounterCapture scope;
    obs::count("detect.candidates", 3);
    bench::capture_counters(rec, scope);
  }
  ASSERT_EQ(rec.counters.size(), 1u);
  EXPECT_EQ(rec.counters[0].first, "detect.candidates");
  EXPECT_EQ(rec.counters[0].second, 3);
}

TEST_F(ObsTest, RegistryThreadSafeUnderRunJobs) {
  obs::ScopedEnable on(true);
  constexpr unsigned kJobs = 8;
  constexpr uint64_t kPerJob = 5000;
  std::vector<bench::Job> jobs;
  for (unsigned j = 0; j < kJobs; ++j) {
    jobs.push_back([](std::ostream&) {
      for (uint64_t i = 0; i < kPerJob; ++i) {
        obs::count("shared");
        obs::gauge_max("peak", static_cast<int64_t>(i));
        obs::observe_us("lat", 2);
      }
    });
  }
  std::ostringstream sink;
  bench::run_jobs(std::move(jobs), sink, kJobs);

  const auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("shared"), kJobs * kPerJob);
  EXPECT_EQ(reg.gauge("peak"), static_cast<int64_t>(kPerJob - 1));
  const auto snap = reg.snapshot();
  for (const auto& m : snap) {
    if (m.name == "lat") {
      EXPECT_EQ(m.count, kJobs * kPerJob);
      EXPECT_EQ(m.sum_us, 2 * kJobs * kPerJob);
    }
  }
}

TEST_F(ObsTest, SpanNestingIsStructural) {
  obs::ScopedEnable on(true);
  {
    obs::Span outer("outer", "depth", 1);
    {
      obs::Span inner("inner");
      inner.arg("work", 42);
    }
    {
      obs::Span sibling("sibling");
    }
  }
  const auto events = obs::trace_events();
  ASSERT_EQ(events.size(), 3u);

  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* sibling = nullptr;
  for (const auto& e : events) {
    if (e.name == "outer") outer = &e;
    if (e.name == "inner") inner = &e;
    if (e.name == "sibling") sibling = &e;
  }
  ASSERT_TRUE(outer && inner && sibling);
  EXPECT_EQ(outer->parent_id, 0u);
  EXPECT_EQ(inner->parent_id, outer->id);
  EXPECT_EQ(sibling->parent_id, outer->id);
  EXPECT_NE(inner->id, sibling->id);
  ASSERT_EQ(inner->args.size(), 1u);
  EXPECT_EQ(inner->args[0].first, "work");
  EXPECT_EQ(inner->args[0].second, 42);
  // Children complete before the parent, inside its window.
  EXPECT_GE(inner->start_us, outer->start_us);
  EXPECT_LE(inner->start_us + inner->dur_us, outer->start_us + outer->dur_us);
}

TEST_F(ObsTest, TraceReportJsonRoundTrip) {
  obs::ScopedEnable on(true);
  {
    obs::Span outer("flow");
    obs::Span inner("flow.opt");
  }
  std::ostringstream os;
  obs::write_report_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const auto* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->string, "t1sfq-trace-v1");
  const auto* threads = doc->find("threads");
  ASSERT_NE(threads, nullptr);
  ASSERT_TRUE(threads->is_array());
  ASSERT_EQ(threads->items.size(), 1u);
  const auto* spans = threads->items[0].find("spans");
  ASSERT_NE(spans, nullptr);
  ASSERT_EQ(spans->items.size(), 1u);  // one root
  EXPECT_EQ(spans->items[0].find("name")->string, "flow");
  const auto* children = spans->items[0].find("children");
  ASSERT_NE(children, nullptr);
  ASSERT_EQ(children->items.size(), 1u);
  EXPECT_EQ(children->items[0].find("name")->string, "flow.opt");
}

TEST_F(ObsTest, ChromeTraceExport) {
  obs::ScopedEnable on(true);
  {
    obs::Span span("unit");
  }
  const std::string path = ::testing::TempDir() + "obs_chrome_trace.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const auto doc = json::parse(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_EQ(events->items.size(), 1u);
  const auto& e = events->items[0];
  EXPECT_EQ(e.find("name")->string, "unit");
  EXPECT_EQ(e.find("ph")->string, "X");
  ASSERT_NE(e.find("ts"), nullptr);
  ASSERT_NE(e.find("dur"), nullptr);
}

TEST_F(ObsTest, JsonWriterParserRoundTrip) {
  std::ostringstream os;
  json::Writer w(os);
  w.begin_object();
  w.kv("s", "a \"quoted\"\nline");
  w.kv("i", int64_t{-42});
  w.kv("u", uint64_t{18446744073709551615ULL});
  w.kv("d", 1.5);
  w.kv("b", true);
  w.key("arr").begin_array();
  w.value(1).value(2).value(3);
  w.end_array();
  w.key("nested").begin_object();
  w.kv("empty", "");
  w.end_object();
  w.end_object();

  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("s")->string, "a \"quoted\"\nline");
  EXPECT_EQ(doc->find("i")->as_int(), -42);
  EXPECT_DOUBLE_EQ(doc->find("d")->number, 1.5);
  EXPECT_TRUE(doc->find("b")->boolean);
  ASSERT_EQ(doc->find("arr")->items.size(), 3u);
  EXPECT_EQ(doc->find("arr")->items[2].as_int(), 3);
  EXPECT_EQ(doc->find("nested")->find("empty")->string, "");

  EXPECT_FALSE(json::parse("{").has_value());
  EXPECT_FALSE(json::parse("[1, 2,]").has_value());
  EXPECT_FALSE(json::parse("").has_value());
}

// Log2-bucket percentiles: the estimate is the bucket upper bound, clamped
// to the observed max — within 2x of the true value by construction.
TEST_F(ObsTest, HistogramPercentiles) {
  obs::ScopedEnable on(true);
  for (int i = 0; i < 90; ++i) {
    obs::observe_us("lat", 10);  // bucket [8, 16): upper bound 15
  }
  for (int i = 0; i < 10; ++i) {
    obs::observe_us("lat", 1000);  // bucket [512, 1024): clamped to max 1000
  }
  const auto snap = obs::Registry::instance().snapshot();
  ASSERT_EQ(snap.size(), 1u);
  const obs::Metric& m = snap[0];
  EXPECT_EQ(m.percentile_us(0.50), 15u);
  EXPECT_EQ(m.percentile_us(0.90), 15u);   // rank 90 is the last 10us sample
  EXPECT_EQ(m.percentile_us(0.99), 1000u); // rank 99 lands in the slow tail
  EXPECT_EQ(m.percentile_us(1.0), 1000u);
  EXPECT_EQ(m.percentile_us(0.0), 15u);    // clamped to rank 1
  // Zero-valued samples live in bucket 0 (exact), empty histograms answer 0.
  obs::observe_us("zeros", 0);
  for (const auto& zm : obs::Registry::instance().snapshot()) {
    if (zm.name == "zeros") {
      EXPECT_EQ(zm.percentile_us(0.5), 0u);
    }
  }
  EXPECT_EQ(obs::Metric{}.percentile_us(0.5), 0u);
}

// Property test: every byte string survives Writer -> parse, and the wire
// form is pure ASCII (history rows must be one line and python-readable).
TEST_F(ObsTest, JsonArbitraryBytesRoundTrip) {
  std::vector<std::string> cases;
  std::string all;  // every byte value once
  for (int b = 0; b < 256; ++b) {
    all.push_back(static_cast<char>(b));
    cases.push_back(std::string(1, static_cast<char>(b)));
  }
  cases.push_back(all);
  cases.push_back("plain ascii");
  cases.push_back("caf\xc3\xa9 utf8");
  cases.push_back(std::string("embedded\0nul", 12));
  // Deterministic pseudo-random byte strings (LCG: no global RNG state).
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
  for (int i = 0; i < 64; ++i) {
    std::string s;
    const std::size_t len = 1 + (seed % 48);
    for (std::size_t j = 0; j < len; ++j) {
      seed = seed * 6364136223846793005ULL + 1442695040888963407ULL;
      s.push_back(static_cast<char>(seed >> 33));
    }
    cases.push_back(std::move(s));
  }
  for (const std::string& s : cases) {
    std::ostringstream os;
    json::Writer w(os, /*compact=*/true);
    w.begin_object();
    w.kv("v", s);
    w.end_object();
    const std::string wire = os.str();
    for (const char c : wire) {
      ASSERT_TRUE(static_cast<unsigned char>(c) >= 0x20 &&
                  static_cast<unsigned char>(c) < 0x7f)
          << "non-ASCII wire byte for input len " << s.size();
    }
    const auto doc = json::parse(wire);
    ASSERT_TRUE(doc.has_value()) << wire;
    EXPECT_EQ(doc->find("v")->string, s) << wire;
  }
  // \u escapes above 0xFF decode as UTF-8, surrogate pairs included.
  auto doc = json::parse("{\"v\": \"\\u20ac\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("v")->string, "\xe2\x82\xac");
  doc = json::parse("{\"v\": \"\\ud83d\\ude00\"}");
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("v")->string, "\xf0\x9f\x98\x80");
  EXPECT_FALSE(json::parse("{\"v\": \"\\ud83d\"}").has_value())
      << "lone high surrogate must be rejected";
  EXPECT_FALSE(json::parse("{\"v\": \"\\uZZZZ\"}").has_value());
}

// capture_counters must expose the histogram percentiles and the
// process-wide disk-cache stats — both feed the result DB's counter
// snapshots that `dbtool explain` diffs.
TEST_F(ObsTest, CaptureCountersIncludesPercentilesAndDiskCache) {
  obs::ScopedEnable on(true);
  obs::count("detect.rounds", 3);
  obs::observe_us("stage.detect", 100);
  obs::observe_us("stage.detect", 200);
  bench::BenchRecord rec;
  bench::capture_counters(rec);
  auto value = [&](const std::string& name) -> const int64_t* {
    for (const auto& [k, v] : rec.counters) {
      if (k == name) return &v;
    }
    return nullptr;
  };
  ASSERT_NE(value("detect.rounds"), nullptr);
  EXPECT_EQ(*value("detect.rounds"), 3);
  ASSERT_NE(value("stage.detect.count"), nullptr);
  EXPECT_EQ(*value("stage.detect.count"), 2);
  ASSERT_NE(value("stage.detect.p50_us"), nullptr);
  ASSERT_NE(value("stage.detect.p95_us"), nullptr);
  ASSERT_NE(value("stage.detect.p99_us"), nullptr);
  EXPECT_GE(*value("stage.detect.p95_us"), *value("stage.detect.p50_us"));
  for (const char* name : {"cost.disk_cache.hits", "cost.disk_cache.misses",
                           "cost.disk_cache.corruption_fallbacks",
                           "cost.disk_cache.bytes_written"}) {
    EXPECT_NE(value(name), nullptr) << name << " missing from counter snapshot";
  }
}

// Both trace exports carry the histogram summary block (count/sum/max and
// the percentile estimates) next to the span data.
TEST_F(ObsTest, TraceExportsIncludeHistogramSummaries) {
  obs::ScopedEnable on(true);
  {
    obs::Span span("work");
  }
  obs::observe_us("stage.assign", 50);
  std::ostringstream os;
  obs::write_report_json(os);
  const auto doc = json::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  const auto* hists = doc->find("histograms");
  ASSERT_NE(hists, nullptr);
  ASSERT_TRUE(hists->is_array());
  ASSERT_EQ(hists->items.size(), 1u);
  const auto& h = hists->items[0];
  EXPECT_EQ(h.find("name")->string, "stage.assign");
  EXPECT_EQ(h.find("count")->as_int(), 1);
  EXPECT_EQ(h.find("sum_us")->as_int(), 50);
  ASSERT_NE(h.find("p50_us"), nullptr);
  ASSERT_NE(h.find("p95_us"), nullptr);
  ASSERT_NE(h.find("p99_us"), nullptr);

  const std::string path = ::testing::TempDir() + "obs_chrome_hist.json";
  ASSERT_TRUE(obs::write_chrome_trace(path));
  const auto chrome = json::parse(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(chrome.has_value());
  ASSERT_NE(chrome->find("histograms"), nullptr);
  EXPECT_EQ(chrome->find("histograms")->items.size(), 1u);
}

TEST_F(ObsTest, BenchRecordSchemaRoundTrip) {
  bench::BenchRecord rec;
  rec.circuit = "adder";
  rec.config = "4phi";
  rec.metrics = {{"gates", 10}};
  rec.time_ms = {{"total", 1.25}};
  rec.ratios = {{"speedup", 2.0}};
  const std::string path = ::testing::TempDir() + "obs_bench_record.json";
  ASSERT_TRUE(bench::write_records(path, "unit", {rec}));
  const auto doc = json::parse(slurp(path));
  std::remove(path.c_str());
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("schema")->string, "t1sfq-bench-v1");
  EXPECT_EQ(doc->find("bench")->string, "unit");
  const auto* records = doc->find("records");
  ASSERT_NE(records, nullptr);
  ASSERT_EQ(records->items.size(), 1u);
  const auto& r = records->items[0];
  EXPECT_EQ(r.find("circuit")->string, "adder");
  EXPECT_EQ(r.find("config_hash")->as_int(),
            static_cast<int64_t>(bench::config_hash("4phi")));
  EXPECT_EQ(r.find("metrics")->find("gates")->as_int(), 10);
  EXPECT_DOUBLE_EQ(r.find("ratios")->find("speedup")->number, 2.0);
}

// End-to-end: FlowParams::obs scopes recording to one run_flow call and the
// instrumented stages actually report. The shrink-8 voter commits T1 cells
// through the incremental guard, so detect.guard.accepts must move.
TEST_F(ObsTest, FlowSmokePopulatesRegistryAndTrace) {
  const auto suite = bench::make_suite_scaled(8);
  const auto& voter = suite[4];
  ASSERT_EQ(voter.name, "voter");
  const Network net = voter.generate();

  FlowParams p;
  p.obs = true;
  const FlowResult res = run_flow(net, p);

  EXPECT_FALSE(obs::enabled()) << "run_flow must restore the disabled state";
  const auto& reg = obs::Registry::instance();
  EXPECT_EQ(reg.counter("flow.runs"), 1u);
  EXPECT_GE(reg.counter("detect.guard.accepts"), 1u);
  EXPECT_GE(reg.counter("detect.rounds"), 1u);
  EXPECT_GE(reg.counter("sched.sweeps"), 1u);
  EXPECT_GE(reg.counter("incr.views"), 1u);
  EXPECT_GT(res.metrics.t1_used, 0u);
  EXPECT_GT(res.timings.total_ms, 0.0);

  // The flow span tree is rooted at "flow" with the stage spans below it.
  const auto events = obs::trace_events();
  uint64_t flow_id = 0;
  for (const auto& e : events) {
    if (e.name == "flow") flow_id = e.id;
  }
  ASSERT_NE(flow_id, 0u);
  bool saw_stage = false;
  for (const auto& e : events) {
    if (e.parent_id == flow_id && e.name == "flow.detect") saw_stage = true;
  }
  EXPECT_TRUE(saw_stage);
}

// With obs off, the same flow must leave no trace at all (the disabled path
// is the default for library users; see also the <2% overhead bound checked
// by bench/scaling).
TEST_F(ObsTest, FlowDisabledLeavesNoTrace) {
  const auto suite = bench::make_suite_scaled(16);
  const Network net = suite[4].generate();
  FlowParams p;  // obs defaults to false
  (void)run_flow(net, p);
  EXPECT_EQ(obs::Registry::instance().snapshot().size(), 0u);
  EXPECT_EQ(obs::trace_events().size(), 0u);
}

}  // namespace
}  // namespace t1sfq
