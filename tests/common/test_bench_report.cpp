// Tests for the minimal JSON value type and the BENCH_*.json schema:
// round-trips, malformed-input rejection, and the compare_reports()
// regression gate that tools/bench_compare fronts.
#include "common/bench_report.h"

#include <gtest/gtest.h>

#include <string>

#include "common/error.h"
#include "common/json.h"

namespace mandipass::common {
namespace {

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(Json::parse("-1.5e3").as_number(), -1500.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesContainersWithWhitespace) {
  const Json v = Json::parse(" { \"a\" : [ 1 , 2 ] , \"b\" : { } } ");
  ASSERT_TRUE(v.is_object());
  const Json::Array& a = v.at("a").as_array();
  ASSERT_EQ(a.size(), 2u);
  EXPECT_DOUBLE_EQ(a[1].as_number(), 2.0);
  EXPECT_TRUE(v.at("b").as_object().empty());
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW(v.at("missing"), SerializationError);
}

TEST(Json, StringEscapes) {
  const Json v = Json::parse(R"("line\n\ttab \"q\" \\ \u0041\u00e9")");
  EXPECT_EQ(v.as_string(), "line\n\ttab \"q\" \\ A\xc3\xa9");
  // Escapes survive a dump -> parse round trip.
  EXPECT_EQ(Json::parse(v.dump()).as_string(), v.as_string());
}

TEST(Json, MalformedInputsThrow) {
  const char* cases[] = {
      "",           "{",           "[1,",        "tru",
      "\"open",     "{\"a\":}",    "[1 2]",      "1.2.3",
      "{\"a\":1,}", "01x",         "\"\\q\"",    "nullnull",
      "[1] garbage", "\"\\ud800\"",
  };
  for (const char* text : cases) {
    EXPECT_THROW(Json::parse(text), SerializationError) << "input: " << text;
  }
}

TEST(Json, DepthLimitEnforced) {
  std::string deep;
  for (int i = 0; i < 200; ++i) {
    deep += "[";
  }
  deep += "1";
  for (int i = 0; i < 200; ++i) {
    deep += "]";
  }
  EXPECT_THROW(Json::parse(deep), SerializationError);
}

TEST(Json, NumberRoundTrip) {
  for (const double v : {0.0, -0.5, 1.0 / 3.0, 1e-300, 6.02214076e23, 123456789.0}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_DOUBLE_EQ(parsed.as_number(), v);
  }
}

BenchReport sample_report() {
  BenchReport r;
  r.bench = "bench_sample";
  r.git_sha = "abc1234";
  r.threads = 4;
  r.quick = true;
  r.wall_s = 1.25;
  r.cpu_s = 4.5;
  r.metrics.counters = {{"core.prep.ok", 120}, {"auth.batch.verify_total", 64}};
  r.metrics.gauges = {{"core.trainer.train_accuracy", 0.9875}};
  obs::HistogramSnapshot h;
  h.name = "core.prep.process_us";
  h.count = 120;
  h.sum_us = 1680.0;
  h.min_us = 9.5;
  h.max_us = 40.0;
  h.p50_us = 16.0;
  h.p95_us = 32.0;
  h.p99_us = 40.0;
  r.metrics.histograms = {h};
  r.verdicts = {{"onset_detected", true, "onset at sample 100"},
                {"eer_below_bound", false, "eer 0.05 > 0.01"}};
  return r;
}

TEST(BenchReport, JsonRoundTripFieldByField) {
  const BenchReport a = sample_report();
  const BenchReport b = report_from_json(report_to_json(a));
  EXPECT_EQ(b.schema, kBenchSchemaVersion);
  EXPECT_EQ(b.bench, a.bench);
  EXPECT_EQ(b.git_sha, a.git_sha);
  EXPECT_EQ(b.threads, a.threads);
  EXPECT_EQ(b.quick, a.quick);
  EXPECT_DOUBLE_EQ(b.wall_s, a.wall_s);
  EXPECT_DOUBLE_EQ(b.cpu_s, a.cpu_s);
  ASSERT_EQ(b.metrics.counters.size(), a.metrics.counters.size());
  for (std::size_t i = 0; i < a.metrics.counters.size(); ++i) {
    EXPECT_EQ(b.metrics.counters[i].name, a.metrics.counters[i].name);
    EXPECT_EQ(b.metrics.counters[i].value, a.metrics.counters[i].value);
  }
  ASSERT_EQ(b.metrics.gauges.size(), 1u);
  EXPECT_EQ(b.metrics.gauges[0].name, a.metrics.gauges[0].name);
  EXPECT_DOUBLE_EQ(b.metrics.gauges[0].value, a.metrics.gauges[0].value);
  ASSERT_EQ(b.metrics.histograms.size(), 1u);
  const auto& ha = a.metrics.histograms[0];
  const auto& hb = b.metrics.histograms[0];
  EXPECT_EQ(hb.name, ha.name);
  EXPECT_EQ(hb.count, ha.count);
  EXPECT_DOUBLE_EQ(hb.sum_us, ha.sum_us);
  EXPECT_DOUBLE_EQ(hb.min_us, ha.min_us);
  EXPECT_DOUBLE_EQ(hb.max_us, ha.max_us);
  EXPECT_DOUBLE_EQ(hb.p50_us, ha.p50_us);
  EXPECT_DOUBLE_EQ(hb.p95_us, ha.p95_us);
  EXPECT_DOUBLE_EQ(hb.p99_us, ha.p99_us);
  ASSERT_EQ(b.verdicts.size(), 2u);
  EXPECT_EQ(b.verdicts[0].name, "onset_detected");
  EXPECT_TRUE(b.verdicts[0].pass);
  EXPECT_EQ(b.verdicts[0].detail, "onset at sample 100");
  EXPECT_FALSE(b.verdicts[1].pass);
}

TEST(BenchReport, RejectsWrongSchemaVersion) {
  std::string text = report_to_json(sample_report());
  const std::string needle = "\"schema\": 1";
  const std::size_t at = text.find(needle);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, needle.size(), "\"schema\": 99");
  EXPECT_THROW(report_from_json(text), SerializationError);
}

TEST(BenchReport, RejectsMissingField) {
  EXPECT_THROW(report_from_json("{\"schema\": 1}"), SerializationError);
}

TEST(BenchCompare, IdenticalReportsPass) {
  const BenchReport r = sample_report();
  const CompareResult res = compare_reports(r, r, {});
  EXPECT_FALSE(res.regression);
  EXPECT_FALSE(res.error);
  EXPECT_EQ(res.exit_code(), 0);
}

TEST(BenchCompare, LatencyRegressionFires) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  // p95 doubles: beyond the default +50% budget.
  cur.metrics.histograms[0].p95_us = base.metrics.histograms[0].p95_us * 2.0;
  const CompareResult res = compare_reports(base, cur, {});
  EXPECT_TRUE(res.regression);
  EXPECT_EQ(res.exit_code(), 1);
}

TEST(BenchCompare, LatencyWithinBudgetPasses) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.histograms[0].p95_us = base.metrics.histograms[0].p95_us * 1.2;
  cur.wall_s = base.wall_s * 1.1;
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 0);
}

TEST(BenchCompare, AbsoluteSlackForbidsNoiseFlags) {
  // A 1 µs -> 4 µs move is a 300% jump but within the 5 µs absolute
  // slack: scheduler noise, not a regression.
  BenchReport base = sample_report();
  base.metrics.histograms[0].p50_us = 1.0;
  base.metrics.histograms[0].p95_us = 1.0;
  BenchReport cur = base;
  cur.metrics.histograms[0].p95_us = 4.0;
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 0);
}

TEST(BenchCompare, SkipLatencyIgnoresTimings) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.histograms[0].p50_us = 1e6;
  cur.wall_s = 1e3;
  CompareOptions opts;
  opts.skip_latency = true;
  EXPECT_EQ(compare_reports(base, cur, opts).exit_code(), 0);
}

TEST(BenchCompare, CounterDriftFires) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.counters[0].value += 1;  // counters are exact by default
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 1);
  // A per-metric override can relax exactly that counter.
  CompareOptions opts;
  opts.metric_tol[cur.metrics.counters[0].name] = 0.10;
  EXPECT_EQ(compare_reports(base, cur, opts).exit_code(), 0);
}

TEST(BenchCompare, MissingCounterFires) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.counters.pop_back();
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 1);
}

TEST(BenchCompare, UnexpectedCounterFires) {
  // A counter absent from the baseline means the workload started
  // counting something new; it must not pass ungated.
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.counters.push_back({"bench.new_events", 3});
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 1);
  // Only when counters are compared.
  CompareOptions opts;
  opts.skip_counters = true;
  EXPECT_EQ(compare_reports(base, cur, opts).exit_code(), 0);
}

TEST(BenchCompare, VerdictFlipFires) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.verdicts[0].pass = false;  // was passing in the baseline
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 1);
  // A verdict that already failed in the baseline cannot regress further.
  BenchReport cur2 = base;
  cur2.verdicts[1].detail = "still failing";
  EXPECT_EQ(compare_reports(base, cur2, {}).exit_code(), 0);
  // A passing verdict must not silently vanish.
  BenchReport cur3 = base;
  cur3.verdicts.erase(cur3.verdicts.begin());
  EXPECT_EQ(compare_reports(base, cur3, {}).exit_code(), 1);
}

TEST(BenchCompare, MismatchedReportsAreErrors) {
  const BenchReport base = sample_report();
  BenchReport other = base;
  other.bench = "bench_other";
  EXPECT_EQ(compare_reports(base, other, {}).exit_code(), 2);
  BenchReport scale = base;
  scale.quick = false;
  EXPECT_EQ(compare_reports(base, scale, {}).exit_code(), 2);
  BenchReport schema = base;
  schema.schema = 2;
  EXPECT_EQ(compare_reports(base, schema, {}).exit_code(), 2);
}

TEST(BenchCompare, GaugesAreInformationalOnly) {
  const BenchReport base = sample_report();
  BenchReport cur = base;
  cur.metrics.gauges[0].value = 0.01;  // accuracy collapse is not a *perf* gate
  EXPECT_EQ(compare_reports(base, cur, {}).exit_code(), 0);
}

}  // namespace
}  // namespace mandipass::common
