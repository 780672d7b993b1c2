/**
 * @file
 * Tests for the observability layer (util/metrics.h): deterministic
 * histogram bucket edges, registry semantics (counters, gauges,
 * phases, latencies, enable gate, thread safety), Running-vs-batch
 * statistics parity, and the BENCH_perf.json serializer round trip.
 */

#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.h"
#include "util/metrics.h"
#include "util/rng.h"
#include "util/stats.h"

namespace emstress {
namespace metrics {
namespace {

/** Every test runs against a clean, enabled registry. */
class MetricsTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        was_enabled_ = enabled();
        setEnabled(true);
        Registry::instance().reset();
    }

    void
    TearDown() override
    {
        Registry::instance().reset();
        setEnabled(was_enabled_);
    }

  private:
    bool was_enabled_ = true;
};

// ------------------------------------------------- bucket policy

TEST_F(MetricsTest, BucketEdgesAreFixedBinaryDoublings)
{
    // The edges are a property of the schema, not of any run: exact
    // powers of two times 100 ns, so ledgers from different runs and
    // hosts are comparable bucket by bucket.
    EXPECT_EQ(LatencyBuckets::kBuckets,
              LatencyBuckets::kFiniteEdges + 1);
    EXPECT_DOUBLE_EQ(LatencyBuckets::bucketEdge(0), 1e-7);
    for (std::size_t i = 1; i < LatencyBuckets::kFiniteEdges; ++i) {
        // Bit-exact doubling, not approximate.
        EXPECT_EQ(LatencyBuckets::bucketEdge(i),
                  2.0 * LatencyBuckets::bucketEdge(i - 1))
            << "edge " << i;
    }
}

TEST_F(MetricsTest, BucketForBoundarySemantics)
{
    // Bucket b counts samples in [edge(b-1), edge(b)): a sample
    // exactly on an edge falls in the bucket above it.
    EXPECT_EQ(LatencyBuckets::bucketFor(0.0), 0u);
    EXPECT_EQ(LatencyBuckets::bucketFor(-1.0), 0u);
    EXPECT_EQ(LatencyBuckets::bucketFor(0.99e-7), 0u);
    EXPECT_EQ(LatencyBuckets::bucketFor(1e-7), 1u);
    for (std::size_t i = 0; i < LatencyBuckets::kFiniteEdges; ++i) {
        EXPECT_EQ(LatencyBuckets::bucketFor(
                      LatencyBuckets::bucketEdge(i)),
                  i + 1)
            << "edge " << i;
    }
    // Everything past the last finite edge lands in the overflow
    // bucket.
    EXPECT_EQ(LatencyBuckets::bucketFor(1e9),
              LatencyBuckets::kFiniteEdges);
}

// ------------------------------------------------------ registry

TEST_F(MetricsTest, CountersAccumulate)
{
    auto &reg = Registry::instance();
    reg.add("a");
    reg.add("a", 4);
    reg.add("b", 2);
    const auto snap = reg.snapshot();
    EXPECT_EQ(snap.counters.at("a"), 5u);
    EXPECT_EQ(snap.counters.at("b"), 2u);
}

TEST_F(MetricsTest, CountersAreThreadSafe)
{
    auto &reg = Registry::instance();
    std::vector<std::thread> workers;
    for (int w = 0; w < 4; ++w) {
        workers.emplace_back([&reg] {
            for (int i = 0; i < 1000; ++i)
                reg.add("contended");
        });
    }
    for (auto &t : workers)
        t.join();
    EXPECT_EQ(reg.snapshot().counters.at("contended"), 4000u);
}

TEST_F(MetricsTest, GaugeLastWriteWins)
{
    auto &reg = Registry::instance();
    reg.setGauge("g", 1.5);
    reg.setGauge("g", -2.25);
    EXPECT_DOUBLE_EQ(reg.snapshot().gauges.at("g"), -2.25);
}

TEST_F(MetricsTest, ScopedPhaseAccumulates)
{
    for (int i = 0; i < 3; ++i) {
        ScopedPhase span("test.phase");
    }
    const auto snap = Registry::instance().snapshot();
    const PhaseStats &p = snap.phases.at("test.phase");
    EXPECT_EQ(p.count, 3u);
    EXPECT_GE(p.wall_s, 0.0);
    EXPECT_GE(p.cpu_s, 0.0);
}

TEST_F(MetricsTest, LatencyHistogramCountsAndBuckets)
{
    auto &reg = Registry::instance();
    reg.recordLatency("lat", 1e-7); // bucket 1
    reg.recordLatency("lat", 1e-7);
    reg.recordLatency("lat", 0.0);  // bucket 0
    reg.recordLatency("lat", 1e9);  // overflow bucket
    const auto snap = reg.snapshot();
    const HistogramSnapshot &h = snap.latencies.at("lat");
    EXPECT_EQ(h.count, 4u);
    ASSERT_EQ(h.buckets.size(), LatencyBuckets::kBuckets);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[1], 2u);
    EXPECT_EQ(h.buckets[LatencyBuckets::kFiniteEdges], 1u);
    double expect_total = 0.0;
    expect_total += 1e-7;
    expect_total += 1e-7;
    expect_total += 0.0;
    expect_total += 1e9;
    EXPECT_EQ(h.total_s, expect_total);
}

TEST_F(MetricsTest, DisabledRegistryRecordsNothing)
{
    setEnabled(false);
    auto &reg = Registry::instance();
    reg.add("c");
    reg.setGauge("g", 1.0);
    reg.recordLatency("l", 1e-6);
    {
        ScopedPhase span("p");
    }
    EXPECT_TRUE(reg.snapshot().empty());

    // Re-enabling resumes recording in place.
    setEnabled(true);
    reg.add("c");
    EXPECT_EQ(reg.snapshot().counters.at("c"), 1u);
}

// ------------------------------------- Running-vs-batch parity

TEST_F(MetricsTest, RunningMatchesBatchStatistics)
{
    // The streaming accumulator the observability docs point ops at
    // must agree with the batch stats helpers on the same samples.
    Rng rng(2718);
    std::vector<double> xs;
    stats::Running run;
    for (int i = 0; i < 4096; ++i) {
        const double v = rng.gaussian(-1.0, 3.5);
        xs.push_back(v);
        run.add(v);
    }
    EXPECT_EQ(run.count(), xs.size());
    EXPECT_NEAR(run.mean(), stats::mean(xs), 1e-12);
    EXPECT_NEAR(run.variance(), stats::variance(xs), 1e-9);
    // Extrema are exact regardless of accumulation order.
    EXPECT_EQ(run.minimum(), stats::minimum(xs));
    EXPECT_EQ(run.maximum(), stats::maximum(xs));
}

// -------------------------------------------------- round trip

MetricsSnapshot
populatedSnapshot()
{
    auto &reg = Registry::instance();
    reg.add("evals", 123);
    reg.add("steps", 456789);
    reg.setGauge("fitness.p50", -61.25);
    reg.setGauge("tiny", 3.0e-17);
    reg.recordPhase("ga.generation", 0.125, 0.0625);
    reg.recordPhase("ga.generation", 1.0 / 3.0, 0.1);
    reg.recordLatency("queue_wait", 2.5e-7);
    reg.recordLatency("queue_wait", 1e9);
    return reg.snapshot();
}

TEST_F(MetricsTest, JsonRoundTripIsBitExact)
{
    const MetricsSnapshot snap = populatedSnapshot();
    const MetricsSnapshot back = parseSnapshotJson(toJson(snap));

    EXPECT_EQ(back.counters, snap.counters);
    ASSERT_EQ(back.gauges.size(), snap.gauges.size());
    for (const auto &[name, value] : snap.gauges)
        EXPECT_EQ(back.gauges.at(name), value) << name;
    ASSERT_EQ(back.phases.size(), snap.phases.size());
    for (const auto &[name, p] : snap.phases) {
        // Doubles survive the serialize-parse cycle bit-exactly
        // (shortest-round-trip formatting).
        EXPECT_EQ(back.phases.at(name).wall_s, p.wall_s) << name;
        EXPECT_EQ(back.phases.at(name).cpu_s, p.cpu_s) << name;
        EXPECT_EQ(back.phases.at(name).count, p.count) << name;
    }
    EXPECT_EQ(back.latencies, snap.latencies);
}

TEST_F(MetricsTest, BenchPerfJsonCarriesRunHeaderAndBody)
{
    const MetricsSnapshot snap = populatedSnapshot();
    const std::string json =
        benchPerfJson("fig07_ga_a72", "quick", 8, snap);
    EXPECT_NE(json.find("\"schema\": \"emstress-bench-perf-v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"bench\": \"fig07_ga_a72\""),
              std::string::npos);
    EXPECT_NE(json.find("\"mode\": \"quick\""), std::string::npos);
    EXPECT_NE(json.find("\"threads\": 8"), std::string::npos);
    // The header keys do not disturb snapshot extraction.
    const MetricsSnapshot back = parseSnapshotJson(json);
    EXPECT_EQ(back.counters, snap.counters);
    EXPECT_EQ(back.latencies, snap.latencies);
    EXPECT_EQ(back.phases.at("ga.generation").count,
              snap.phases.at("ga.generation").count);
}

TEST_F(MetricsTest, ParserRejectsMalformedInput)
{
    EXPECT_THROW((void)parseSnapshotJson("{"), SimulationError);
    EXPECT_THROW((void)parseSnapshotJson("{} trailing"),
                 SimulationError);
    EXPECT_THROW((void)parseSnapshotJson("[1, 2]"), SimulationError);
    EXPECT_THROW(
        (void)parseSnapshotJson("{\"counters\": {\"a\": \"x\"}}"),
        SimulationError);
}

TEST_F(MetricsTest, ParserBoundsNestingDepth)
{
    const auto nested = [](std::size_t depth) {
        return "{\"x\": " + std::string(depth - 1, '[')
            + std::string(depth - 1, ']') + "}";
    };
    EXPECT_NO_THROW((void)parseSnapshotJson(nested(kMaxJsonDepth)));
    EXPECT_THROW((void)parseSnapshotJson(nested(kMaxJsonDepth + 1)),
                 SimulationError);
    // Far past any stack: must throw, not overflow.
    EXPECT_THROW((void)parseSnapshotJson(std::string(300000, '[')),
                 SimulationError);
    EXPECT_THROW((void)parseSnapshotJson(
                     "{\"a\": " + std::string(300000, '{')),
                 SimulationError);
}

TEST_F(MetricsTest, EmptySnapshotRoundTrips)
{
    const MetricsSnapshot empty;
    const MetricsSnapshot back = parseSnapshotJson(toJson(empty));
    EXPECT_TRUE(back.empty());
}

} // namespace
} // namespace metrics
} // namespace emstress
