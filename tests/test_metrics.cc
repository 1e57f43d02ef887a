/**
 * @file
 * Unit tests for the observability registry (src/common/metrics.hh):
 * counter/gauge/histogram semantics, deterministic exposition,
 * concurrent exactness, the exposition parse/render plumbing, and the
 * span log -> Chrome trace renderer.
 *
 * The registry is a process-wide singleton shared by every TEST in
 * this binary, so each test uses its own metric names (prefix `tm_`)
 * and only ordering-sensitive tests call resetForTest().
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/metrics.hh"

namespace icfp {
namespace {

using metrics::ExpositionFamily;

// ------------------------------------------------------------------
// Counter / Gauge

TEST(Counter, IncrementAndValue)
{
    metrics::Counter &c = metrics::counter("tm_counter_basic");
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    EXPECT_EQ(c.value(), 1u);
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
}

TEST(Counter, SameNameSameInstrument)
{
    metrics::Counter &a = metrics::counter("tm_counter_alias");
    metrics::Counter &b = metrics::counter("tm_counter_alias");
    EXPECT_EQ(&a, &b);
    a.inc(7);
    EXPECT_EQ(b.value(), 7u);
}

TEST(Gauge, SetAddSub)
{
    metrics::Gauge &g = metrics::gauge("tm_gauge_basic");
    EXPECT_EQ(g.value(), 0);
    g.set(10);
    EXPECT_EQ(g.value(), 10);
    g.add(5);
    EXPECT_EQ(g.value(), 15);
    g.sub(20);
    EXPECT_EQ(g.value(), -5); // gauges may go negative
}

TEST(Registry, ConcurrentIncrementsAreExact)
{
    metrics::Counter &c = metrics::counter("tm_counter_concurrent");
    constexpr int kThreads = 8;
    constexpr int kIncs = 10000;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&c] {
            for (int i = 0; i < kIncs; ++i)
                c.inc();
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(c.value(), static_cast<uint64_t>(kThreads) * kIncs);
}

// ------------------------------------------------------------------
// Histogram

TEST(Histogram, InclusiveLeBucketBoundaries)
{
    metrics::Histogram &h =
        metrics::histogram("tm_hist_bounds", {10, 100, 1000});

    // `le` is inclusive: an observation exactly at a bound lands in
    // that bucket, one past it lands in the next.
    h.observe(10);
    EXPECT_EQ(h.bucketCount(0), 1u);
    h.observe(11);
    EXPECT_EQ(h.bucketCount(1), 1u);
    h.observe(0); // below the first bound -> first bucket
    EXPECT_EQ(h.bucketCount(0), 2u);
    h.observe(1000);
    EXPECT_EQ(h.bucketCount(2), 1u);
    h.observe(1001); // above every bound -> +Inf overflow bucket
    EXPECT_EQ(h.bucketCount(3), 1u);

    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 10u + 11 + 0 + 1000 + 1001);
}

TEST(Histogram, ConcurrentObservationsAreExact)
{
    metrics::Histogram &h =
        metrics::histogram("tm_hist_concurrent", {100});
    constexpr int kThreads = 8;
    constexpr int kObs = 5000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&h, t] {
            // Half the threads land in bucket 0, half in +Inf.
            const uint64_t v = (t % 2 == 0) ? 50 : 500;
            for (int i = 0; i < kObs; ++i)
                h.observe(v);
        });
    }
    for (std::thread &t : threads)
        t.join();
    const uint64_t half = static_cast<uint64_t>(kThreads / 2) * kObs;
    EXPECT_EQ(h.bucketCount(0), half);
    EXPECT_EQ(h.bucketCount(1), half);
    EXPECT_EQ(h.count(), 2 * half);
    EXPECT_EQ(h.sum(), half * 50 + half * 500); // integer sum: exact
}

TEST(Histogram, LatencyBucketsAreSortedAndSpanTheRange)
{
    const std::vector<uint64_t> &b = metrics::latencyBucketsUs();
    ASSERT_FALSE(b.empty());
    for (size_t i = 1; i < b.size(); ++i)
        EXPECT_LT(b[i - 1], b[i]);
    EXPECT_LE(b.front(), 100u);       // resolves sub-ms replay cells
    EXPECT_GE(b.back(), 60000000u);   // covers minute-scale jobs
}

// ------------------------------------------------------------------
// Exposition

/** A registry populated from scratch for exposition-ordering tests. */
class ExpositionTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        metrics::Registry::instance().resetForTest();
    }
};

TEST_F(ExpositionTest, TextFormatAndDeterministicOrdering)
{
    metrics::counter("tm_z_last").inc(3);
    metrics::counter("tm_a_first").inc(1);
    metrics::gauge("tm_m_gauge").set(-7);

    const std::string text =
        metrics::Registry::instance().textExposition();

    const size_t a = text.find("# TYPE tm_a_first counter");
    const size_t m = text.find("# TYPE tm_m_gauge gauge");
    const size_t z = text.find("# TYPE tm_z_last counter");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(m, std::string::npos);
    ASSERT_NE(z, std::string::npos);
    EXPECT_LT(a, m); // families sorted by base name
    EXPECT_LT(m, z);
    EXPECT_NE(text.find("tm_a_first 1\n"), std::string::npos);
    EXPECT_NE(text.find("tm_m_gauge -7\n"), std::string::npos);
    EXPECT_NE(text.find("tm_z_last 3\n"), std::string::npos);

    // Byte-for-byte deterministic.
    EXPECT_EQ(text, metrics::Registry::instance().textExposition());
}

TEST_F(ExpositionTest, LabelledSeriesGroupIntoOneFamily)
{
    metrics::counter("tm_replays{bench=\"mcf\",core=\"icfp\"}").inc(2);
    metrics::counter("tm_replays{bench=\"gcc\",core=\"icfp\"}").inc(5);

    const std::string text =
        metrics::Registry::instance().textExposition();

    // One TYPE line, both series under it, sorted by label set.
    size_t type_count = 0;
    for (size_t at = text.find("# TYPE tm_replays counter");
         at != std::string::npos;
         at = text.find("# TYPE tm_replays counter", at + 1))
        ++type_count;
    EXPECT_EQ(type_count, 1u);
    const size_t gcc = text.find("tm_replays{bench=\"gcc\",core=\"icfp\"} 5");
    const size_t mcf = text.find("tm_replays{bench=\"mcf\",core=\"icfp\"} 2");
    ASSERT_NE(gcc, std::string::npos);
    ASSERT_NE(mcf, std::string::npos);
    EXPECT_LT(gcc, mcf);
}

TEST_F(ExpositionTest, HistogramExpandsCumulativeBuckets)
{
    metrics::Histogram &h = metrics::histogram("tm_dur_us", {10, 100});
    h.observe(5);
    h.observe(10);
    h.observe(50);
    h.observe(5000);

    const std::string text =
        metrics::Registry::instance().textExposition();

    EXPECT_NE(text.find("# TYPE tm_dur_us histogram"),
              std::string::npos);
    // Cumulative: le="10" holds 2 (5 and the inclusive 10), le="100"
    // adds the 50, +Inf is the total count.
    EXPECT_NE(text.find("tm_dur_us_bucket{le=\"10\"} 2\n"),
              std::string::npos);
    EXPECT_NE(text.find("tm_dur_us_bucket{le=\"100\"} 3\n"),
              std::string::npos);
    EXPECT_NE(text.find("tm_dur_us_bucket{le=\"+Inf\"} 4\n"),
              std::string::npos);
    EXPECT_NE(text.find("tm_dur_us_sum 5065\n"), std::string::npos);
    EXPECT_NE(text.find("tm_dur_us_count 4\n"), std::string::npos);
}

TEST_F(ExpositionTest, LabelledHistogramKeepsLabelsBeforeLe)
{
    metrics::histogram("tm_lat_us{core=\"icfp\"}", {100}).observe(42);

    const std::string text =
        metrics::Registry::instance().textExposition();
    EXPECT_NE(text.find("tm_lat_us_bucket{core=\"icfp\",le=\"100\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("tm_lat_us_bucket{core=\"icfp\",le=\"+Inf\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("tm_lat_us_sum{core=\"icfp\"} 42"),
              std::string::npos);
    EXPECT_NE(text.find("tm_lat_us_count{core=\"icfp\"} 1"),
              std::string::npos);
}

TEST_F(ExpositionTest, JsonExpositionIsFlatAndParsable)
{
    metrics::counter("tm_json_counter").inc(9);
    metrics::gauge("tm_json_gauge").set(-3);

    const std::string json =
        metrics::Registry::instance().jsonExposition();
    EXPECT_NE(json.find("\"tm_json_counter\": 9"), std::string::npos);
    EXPECT_NE(json.find("\"tm_json_gauge\": -3"), std::string::npos);
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
}

TEST_F(ExpositionTest, ResetZeroesValuesButKeepsRegistrations)
{
    metrics::counter("tm_reset_c").inc(5);
    metrics::gauge("tm_reset_g").set(11);
    metrics::histogram("tm_reset_h", {10}).observe(3);
    const size_t series = metrics::Registry::instance().seriesCount();

    metrics::Registry::instance().resetForTest();

    EXPECT_EQ(metrics::Registry::instance().seriesCount(), series);
    EXPECT_EQ(metrics::counter("tm_reset_c").value(), 0u);
    EXPECT_EQ(metrics::gauge("tm_reset_g").value(), 0);
    EXPECT_EQ(metrics::histogram("tm_reset_h", {10}).count(), 0u);
    EXPECT_EQ(metrics::histogram("tm_reset_h", {10}).sum(), 0u);
}

TEST(EscapeLabelValue, EscapesQuotesBackslashesNewlines)
{
    EXPECT_EQ(metrics::escapeLabelValue("plain"), "plain");
    EXPECT_EQ(metrics::escapeLabelValue("a\"b"), "a\\\"b");
    EXPECT_EQ(metrics::escapeLabelValue("a\\b"), "a\\\\b");
    EXPECT_EQ(metrics::escapeLabelValue("a\nb"), "a\\nb");
}

// ------------------------------------------------------------------
// Parse / render (the --json exposition plumbing)

TEST(ParseExposition, RoundTripsRenderedText)
{
    std::vector<ExpositionFamily> families;
    ExpositionFamily f;
    f.base = "tm_rt_counter";
    f.kind = "counter";
    f.samples.emplace_back("tm_rt_counter{job=\"a b\"}", 3);
    f.samples.emplace_back("tm_rt_counter", -2);
    families.push_back(f);

    const std::string text = metrics::renderExpositionText(families);
    const std::vector<ExpositionFamily> parsed =
        metrics::parseExposition(text);

    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].base, "tm_rt_counter");
    EXPECT_EQ(parsed[0].kind, "counter");
    ASSERT_EQ(parsed[0].samples.size(), 2u);
    // Label values containing spaces survive (value = after LAST space).
    EXPECT_EQ(parsed[0].samples[0].first, "tm_rt_counter{job=\"a b\"}");
    EXPECT_EQ(parsed[0].samples[0].second, 3);
    EXPECT_EQ(parsed[0].samples[1].second, -2);
    EXPECT_EQ(metrics::renderExpositionText(parsed), text);
}

TEST(ParseExposition, SkipsBlankAndNonTypeComments)
{
    const std::string text = "# HELP ignored\n"
                             "\n"
                             "# TYPE tm_p counter\n"
                             "tm_p 4\n";
    const std::vector<ExpositionFamily> parsed =
        metrics::parseExposition(text);
    ASSERT_EQ(parsed.size(), 1u);
    ASSERT_EQ(parsed[0].samples.size(), 1u);
    EXPECT_EQ(parsed[0].samples[0].second, 4);
}

TEST(ParseExposition, SampleWithoutTypeBecomesUntyped)
{
    const std::vector<ExpositionFamily> parsed =
        metrics::parseExposition("tm_orphan 7\n");
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].kind, "untyped");
    EXPECT_EQ(parsed[0].base, "tm_orphan");
    EXPECT_EQ(parsed[0].samples[0].second, 7);
}

TEST(ExpositionTextToJson, ConvertsSamples)
{
    const std::string json = metrics::expositionTextToJson(
        "# TYPE tm_j counter\n"
        "tm_j{bench=\"mcf\"} 6\n");
    EXPECT_NE(json.find("\"tm_j{bench=\\\"mcf\\\"}\": 6"),
              std::string::npos);
}

// ------------------------------------------------------------------
// Span log -> Chrome trace

TEST(SpanLog, RecordsAndSnapshotsSpans)
{
    metrics::SpanLog log;
    log.add("trace_gen", 100, 350, {{"bench", "mcf"}});
    log.add("replay", 350, 900);
    const std::vector<metrics::Span> spans = log.snapshot();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "trace_gen");
    EXPECT_EQ(spans[0].startUs, 100u);
    EXPECT_EQ(spans[0].durUs, 250u);
    ASSERT_EQ(spans[0].args.size(), 1u);
    EXPECT_EQ(spans[0].args[0].first, "bench");
    EXPECT_EQ(spans[1].durUs, 550u);
}

TEST(SpanLog, ClampsInvertedSpansToZeroDuration)
{
    metrics::SpanLog log;
    log.add("weird", 500, 400);
    EXPECT_EQ(log.snapshot()[0].durUs, 0u);
}

TEST(SpanLog, ConcurrentAddsAllLand)
{
    metrics::SpanLog log;
    constexpr int kThreads = 4;
    constexpr int kSpans = 1000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&log, t] {
            for (int i = 0; i < kSpans; ++i) {
                const uint64_t at =
                    static_cast<uint64_t>(t) * kSpans + i;
                log.add("s", at, at + 1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(log.snapshot().size(),
              static_cast<size_t>(kThreads) * kSpans);
}

TEST(ChromeTrace, EmitsMetadataAndSortedCompleteEvents)
{
    std::vector<metrics::Span> spans;
    metrics::Span late;
    late.name = "replay";
    late.startUs = 900;
    late.durUs = 100;
    metrics::Span early;
    early.name = "trace_gen";
    early.startUs = 100;
    early.durUs = 700;
    early.args = {{"bench", "mcf"}};
    spans.push_back(late);
    spans.push_back(early); // out of order on purpose

    const std::string json = metrics::chromeTraceJson(spans, 7, "done");

    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    // Metadata event carries the job id as pid and the outcome.
    EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
    EXPECT_NE(json.find("icfp-sim job 7"), std::string::npos);
    EXPECT_NE(json.find("\"outcome\":\"done\""), std::string::npos);
    EXPECT_NE(json.find("\"pid\":7"), std::string::npos);
    // Complete events sorted by ts regardless of insertion order.
    const size_t gen_at = json.find("\"name\":\"trace_gen\"");
    const size_t replay_at = json.find("\"name\":\"replay\"");
    ASSERT_NE(gen_at, std::string::npos);
    ASSERT_NE(replay_at, std::string::npos);
    EXPECT_LT(gen_at, replay_at);
    EXPECT_NE(json.find("\"ts\":100,\"dur\":700"), std::string::npos);
    EXPECT_NE(json.find("\"args\":{\"bench\":\"mcf\"}"),
              std::string::npos);
    // Determinism: same spans, same bytes.
    EXPECT_EQ(json, metrics::chromeTraceJson(spans, 7, "done"));
}

TEST(ChromeTrace, EscapesOutcomeAndArgStrings)
{
    std::vector<metrics::Span> spans;
    metrics::Span s;
    s.name = "a\"b";
    s.startUs = 1;
    s.durUs = 1;
    s.args = {{"k", "line1\nline2"}};
    spans.push_back(s);
    const std::string json =
        metrics::chromeTraceJson(spans, 1, "failed: \"boom\"");
    EXPECT_NE(json.find("\"name\":\"a\\\"b\""), std::string::npos);
    EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
    EXPECT_NE(json.find("failed: \\\"boom\\\""), std::string::npos);
    EXPECT_EQ(json.find("\nline2"), std::string::npos);
}

TEST(ChromeTrace, EmptySpanListStillValidDocument)
{
    const std::string json = metrics::chromeTraceJson({}, 3, "done");
    EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
    EXPECT_NE(json.find("icfp-sim job 3"), std::string::npos);
}

// ------------------------------------------------------------------
// Clock plumbing

TEST(Clock, MonotonicAndConsistent)
{
    const uint64_t a = metrics::nowMicros();
    const uint64_t b = metrics::nowMicros();
    EXPECT_LE(a, b);
    const uint64_t up = metrics::uptimeSeconds();
    const uint64_t derived = metrics::nowMicros() / 1000000;
    EXPECT_LE(up, derived);
    EXPECT_LE(derived - up, 1u); // the calls may straddle a second edge
}

} // namespace
} // namespace icfp
