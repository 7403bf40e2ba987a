// Unit tests of the benchmark's own measurement logic.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "measure.h"
#include "report.h"
#include "spans.h"

namespace perfbench {
namespace {

TEST(TailRule, NeedsTenSamplesBeyondThePercentile) {
  EXPECT_FALSE(tail_supported(99, 90));
  EXPECT_TRUE(tail_supported(100, 90));
  EXPECT_FALSE(tail_supported(999, 99));
  EXPECT_TRUE(tail_supported(1000, 99));
  EXPECT_FALSE(tail_supported(39, 75));
  EXPECT_TRUE(tail_supported(40, 75));
  EXPECT_TRUE(tail_supported(20, 50));
  EXPECT_FALSE(tail_supported(1000000, 100));
}

TEST(TailRule, MinimumSampleCountIsTheFirstSupportedCount) {
  for (const double q : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    const std::size_t n = min_samples_for_tail(q);
    EXPECT_TRUE(tail_supported(n, q)) << q;
    EXPECT_FALSE(tail_supported(n - 1, q)) << q;
  }
  EXPECT_EQ(min_samples_for_tail(90), 100u);
  EXPECT_EQ(min_samples_for_tail(99), 1000u);
  EXPECT_EQ(min_samples_for_tail(100), SIZE_MAX);
}

TEST(Percentile, InterpolatesLinearlyBetweenOrderStatistics) {
  const std::vector<double> xs = {4, 1, 3, 2, 5};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 3);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 5);
  EXPECT_DOUBLE_EQ(percentile(xs, 75), 4);
  EXPECT_DOUBLE_EQ(percentile({1, 2}, 50), 1.5);
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0);
}

TEST(OpStats, ReportsMediansOverWindows) {
  // Rate windows of 2 ops, latency windows of 4 samples, p75 tail.
  OpStats s(2, 4, 75);
  const double ends[] = {1, 2, 3, 4, 5, 6, 7, 8, 20, 21};
  const double lat[] = {1, 2, 3, 4, 10, 20, 30, 40, 99, 99};
  for (int i = 0; i < 10; ++i) s.add(ends[i], lat[i], 3.0);
  EXPECT_EQ(s.count(), 10u);
  // Rates: 6/2, 6/2, 6/2, 6/2, 6/13 -> median 3; the open window's
  // samples (99, 99) are not a full latency window and are left out.
  EXPECT_DOUBLE_EQ(s.throughput_per_s(), 3.0);
  EXPECT_DOUBLE_EQ(s.overall_per_s(), 30.0 / 21.0);
  EXPECT_EQ(s.latency_window(), 4u);
  EXPECT_DOUBLE_EQ(s.p50_ms(), (2.5 + 25.0) / 2);
  EXPECT_DOUBLE_EQ(s.tail_ms(), (3.25 + 32.5) / 2);
}

TEST(OpStats, ShortRunIsOneWindow) {
  OpStats s(10, 0, 90);
  for (int i = 1; i <= 4; ++i) s.add(i, i, 1.0);
  EXPECT_DOUBLE_EQ(s.throughput_per_s(), 1.0);
  EXPECT_EQ(s.latency_window(), 4u);
  EXPECT_DOUBLE_EQ(s.p50_ms(), 2.5);
}

TEST(MetricNames, FollowTheGrammar) {
  EXPECT_TRUE(valid_metric_name("setup_s"));
  EXPECT_TRUE(valid_metric_name("model.attention.bwd_input_ms"));
  EXPECT_TRUE(valid_metric_name("2bp-ratio"));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_leading_underscore"));
  EXPECT_FALSE(valid_metric_name(".leading_dot"));
  EXPECT_FALSE(valid_metric_name("has space"));
  EXPECT_FALSE(valid_metric_name("quote\"d"));
  EXPECT_FALSE(valid_metric_name("slash/ed"));
  EXPECT_TRUE(valid_unit("1/s"));
  EXPECT_TRUE(valid_unit("%"));
  EXPECT_TRUE(valid_unit("GFLOP/s"));
  EXPECT_FALSE(valid_unit("per second"));
  EXPECT_FALSE(valid_unit(std::string(17, 's')));
}

TEST(MetricSet, RejectsMalformedDuplicateAndNonFinite) {
  MetricSet m;
  m.add("latency_ms_p50", 1.25, "ms");
  EXPECT_THROW(m.add("latency_ms_p50", 2, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("bad name", 2, "ms"), std::invalid_argument);
  EXPECT_THROW(m.add("x", 2, "bad unit"), std::invalid_argument);
  EXPECT_THROW(m.add("y", 0.0 / 0.0, "ms"), std::invalid_argument);
  EXPECT_EQ(result_line(true, 3, 0, m),
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{"
            "\"latency_ms_p50\":{\"value\":1.25,\"unit\":\"ms\"}}}");
}

SpanRecord span(int id, int parent, std::int64_t start_ms,
                std::int64_t end_ms, const char* name) {
  SpanRecord s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start_ms * 1'000'000;
  s.end_ns = end_ms * 1'000'000;
  s.name = name;
  return s;
}

TEST(SelfTime, SubtractsTheUnionOfChildIntervals) {
  // root [0,100) with children [10,30) and [20,50) (overlapping, e.g. on
  // two threads) and [60,70); a grandchild [12,18) under the first child;
  // a child [90,120) that outlives its parent counts only inside it.
  const std::vector<SpanRecord> spans = {
      span(0, -1, 0, 100, "root"),   span(1, 0, 10, 30, "child"),
      span(2, 0, 20, 50, "child"),   span(3, 0, 60, 70, "child"),
      span(4, 1, 12, 18, "grand"),   span(5, 0, 90, 120, "late"),
      span(6, -1, 200, 210, "root"),
  };
  const std::vector<SpanStat> stats = span_stats(spans);
  ASSERT_EQ(stats.size(), 4u);
  EXPECT_EQ(stats[0].name, "root");
  EXPECT_EQ(stats[0].count, 2);
  EXPECT_DOUBLE_EQ(stats[0].total_ms, 110);
  // Covered: [10,50) + [60,70) + [90,100) = 60 ms; second root has none.
  EXPECT_DOUBLE_EQ(stats[0].self_ms, 40 + 10);
  EXPECT_EQ(stats[1].name, "child");
  EXPECT_DOUBLE_EQ(stats[1].total_ms, 20 + 30 + 10);
  EXPECT_DOUBLE_EQ(stats[1].self_ms, 60 - 6);
  EXPECT_DOUBLE_EQ(stats[2].self_ms, 6);
  EXPECT_DOUBLE_EQ(stats[3].self_ms, 30);
}

TEST(SelfTime, NestedRuntimeSpansRecordParents) {
  Tracer tracer(true);
  {
    Span outer(&tracer, "outer", 7);
    Span inner(&tracer, "inner", 7);
  }
  const std::vector<SpanRecord> spans = tracer.spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "inner");
  EXPECT_EQ(spans[1].name, "outer");
  EXPECT_EQ(spans[0].parent, spans[1].id);
  EXPECT_EQ(spans[1].parent, -1);
  EXPECT_EQ(spans[0].request, 7);
  EXPECT_LE(spans[1].start_ns, spans[0].start_ns);
  EXPECT_GE(spans[1].end_ns, spans[0].end_ns);
  EXPECT_NE(to_chrome_trace(spans).find("\"parent\":" +
                                        std::to_string(spans[1].id)),
            std::string::npos);
}

TEST(SelfTime, DisabledTracerRecordsNothingButStillTimes) {
  Tracer tracer(false);
  {
    Span s(&tracer, "quiet");
    EXPECT_GE(s.ms(), 0);
    EXPECT_EQ(s.id(), -1);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(FailedShare, CountsRecoveryActionsAsFailedAttempts) {
  FailureTally t;
  EXPECT_DOUBLE_EQ(t.failed_share(), 0);
  t.attempted = 40;
  EXPECT_DOUBLE_EQ(t.failed_share(), 0);
  t.recovery_actions = 3;  // 2 retries + 1 restore, every step completed
  EXPECT_DOUBLE_EQ(t.failed_share(), 3.0 / 43.0);
  t.failed = 1;  // a busy reply or a mismatched loss
  EXPECT_DOUBLE_EQ(t.failed_share(), 4.0 / 43.0);
  FailureTally u;
  u.attempted = 7;
  u.failed = 7;
  t += u;
  EXPECT_EQ(t.attempted, 47);
  EXPECT_EQ(t.failed, 8);
  EXPECT_EQ(t.recovery_actions, 3);
  EXPECT_DOUBLE_EQ(t.failed_share(), 11.0 / 50.0);
}

}  // namespace
}  // namespace perfbench
