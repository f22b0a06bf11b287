/**
 * @file
 * MetricRegistry unit tests: counter/gauge/histogram semantics, epoch
 * bucketing, deterministic JSON serialization, and the load-bearing
 * guarantee that a parallel multi-seed run's merged registry is
 * bit-identical to the serial single-thread merge. Also covers the
 * JsonWriter and RunReport exporters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/job_pool.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/metrics.hh"
#include "telemetry/run_report.hh"

namespace hnoc
{
namespace
{

MetricRegistry::Dims
smallDims()
{
    MetricRegistry::Dims d;
    d.routers = 4;
    d.ports = 5;
    d.vcs = 2;
    d.gridCols = 2;
    return d;
}

// --------------------------------------------------------- counters --

TEST(MetricRegistry, CounterScopesAccumulateIndependently)
{
    MetricRegistry reg(smallDims());
    // Counts must be uint64-typed: a bare int in the count position
    // would overload-resolve as the next index instead.
    reg.add(Ctr::PacketsInjected);                         // global
    reg.add(Ctr::PacketsInjected, std::uint64_t{3});       // global, n=3
    reg.add(Ctr::OccupancyFlitCycles, 2, std::uint64_t{7}); // router 2
    reg.add(Ctr::XbarGrants, 1, 4);            // (router 1, port 4)
    reg.add(Ctr::XbarGrants, 1, 4);
    reg.add(Ctr::BufferWrites, 0, 1, 1, 5);    // (router 0, port 1, vc 1)

    EXPECT_EQ(reg.total(Ctr::PacketsInjected), 4u);
    EXPECT_EQ(reg.at(Ctr::OccupancyFlitCycles, 2), 7u);
    EXPECT_EQ(reg.at(Ctr::OccupancyFlitCycles, 1), 0u);
    EXPECT_EQ(reg.at(Ctr::XbarGrants, 1, 4), 2u);
    EXPECT_EQ(reg.total(Ctr::XbarGrants), 2u);
    EXPECT_EQ(reg.at(Ctr::BufferWrites, 0, 1, 1), 5u);
    EXPECT_EQ(reg.total(Ctr::BufferWrites), 5u);
}

TEST(MetricRegistry, PerRouterReducesPortAndVcDims)
{
    MetricRegistry reg(smallDims());
    reg.add(Ctr::BufferWrites, 1, 0, 0, 2);
    reg.add(Ctr::BufferWrites, 1, 4, 1, 3);
    reg.add(Ctr::BufferWrites, 3, 2, 0, 1);
    auto per = reg.perRouter(Ctr::BufferWrites);
    ASSERT_EQ(per.size(), 4u);
    EXPECT_EQ(per[0], 0u);
    EXPECT_EQ(per[1], 5u);
    EXPECT_EQ(per[3], 1u);
}

TEST(MetricRegistry, GaugesKeepMaximum)
{
    MetricRegistry reg(smallDims());
    reg.gaugeMax(Gauge::PeakInFlight, 10);
    reg.gaugeMax(Gauge::PeakInFlight, 4);
    EXPECT_EQ(reg.gauge(Gauge::PeakInFlight), 10u);
    reg.occupancySample(2, 6);
    reg.occupancySample(2, 3);
    EXPECT_EQ(reg.gauge(Gauge::PeakOccupancy, 2), 6u);
    EXPECT_EQ(reg.at(Ctr::OccupancyFlitCycles, 2), 9u);
}

TEST(MetricRegistry, HistogramsRecordSamples)
{
    MetricRegistry reg(smallDims());
    reg.histAdd(Hist::PacketLatencyCycles, 10.0);
    reg.histAdd(Hist::PacketLatencyCycles, 30.0);
    EXPECT_EQ(reg.histogram(Hist::PacketLatencyCycles).count(), 2u);
    EXPECT_DOUBLE_EQ(reg.histogram(Hist::PacketLatencyCycles).mean(),
                     20.0);
}

// ------------------------------------------------------------ epochs --

TEST(MetricRegistry, EpochBucketingSplitsCountersByTime)
{
    MetricRegistry reg(smallDims(), /*epoch_cycles=*/10);
    reg.beginWindow(100);
    // Epoch 0: 4 occupancy flit-cycles at router 1.
    for (int c = 0; c < 10; ++c) {
        if (c < 4)
            reg.occupancySample(1, 1);
        reg.tick(100 + static_cast<Cycle>(c));
    }
    // Epoch 1 (partial, 5 cycles): 5 link flits at (0, 0).
    for (int c = 0; c < 5; ++c) {
        reg.add(Ctr::LinkFlits, 0, 0);
        reg.tick(110 + static_cast<Cycle>(c));
    }
    reg.finish();
    reg.finish(); // idempotent

    ASSERT_EQ(reg.epochs().size(), 2u);
    EXPECT_EQ(reg.epochs()[0].cycles, 10u);
    EXPECT_EQ(reg.epochs()[0].occupancyFlitCycles[1], 4u);
    EXPECT_EQ(reg.epochs()[0].linkFlits[0], 0u);
    EXPECT_EQ(reg.epochs()[1].cycles, 5u);
    EXPECT_EQ(reg.epochs()[1].occupancyFlitCycles[1], 0u);
    EXPECT_EQ(reg.epochs()[1].linkFlits[0], 5u);
    EXPECT_EQ(reg.observedCycles(), 15u);
    EXPECT_EQ(reg.windowStart(), 100u);
}

TEST(MetricRegistry, DerivedUtilizationNormalizesByCapacityAndLanes)
{
    MetricRegistry reg(smallDims(), 100);
    reg.setBufferCapacity(0, 10);
    reg.setPortLanes(0, 0, 1);
    reg.setPortInterRouter(0, 0, true);
    reg.setPortLanes(0, 4, 1);
    reg.setPortInterRouter(0, 4, false); // ejection port: excluded
    for (int c = 0; c < 50; ++c) {
        reg.occupancySample(0, 5);       // half full
        reg.add(Ctr::LinkFlits, 0, 0);   // fully busy inter-router link
        reg.add(Ctr::LinkFlits, 0, 4);   // ejection traffic (ignored)
        reg.tick(static_cast<Cycle>(c));
    }
    reg.finish();
    auto buf = reg.bufferUtilizationPercent();
    auto link = reg.linkUtilizationPercent();
    EXPECT_NEAR(buf[0], 50.0, 1e-9);
    EXPECT_NEAR(link[0], 100.0, 1e-9);
    EXPECT_EQ(buf[1], 0.0);
}

// ------------------------------------------------------------- merge --

TEST(MetricRegistry, MergeAddsCountersAndMaxesGauges)
{
    MetricRegistry a(smallDims(), 10);
    MetricRegistry b(smallDims(), 10);
    a.add(Ctr::BufferWrites, 0, 0, 0, 2);
    b.add(Ctr::BufferWrites, 0, 0, 0, 3);
    a.gaugeMax(Gauge::PeakInFlight, 7);
    b.gaugeMax(Gauge::PeakInFlight, 9);
    a.histAdd(Hist::PacketLatencyCycles, 5.0);
    b.histAdd(Hist::PacketLatencyCycles, 15.0);
    a.tick(0);
    b.tick(0);
    a.finish();
    b.finish();
    a.merge(b);
    EXPECT_EQ(a.at(Ctr::BufferWrites, 0, 0, 0), 5u);
    EXPECT_EQ(a.gauge(Gauge::PeakInFlight), 9u);
    EXPECT_EQ(a.histogram(Hist::PacketLatencyCycles).count(), 2u);
    EXPECT_EQ(a.observedCycles(), 2u);
}

TEST(MetricRegistry, MergeRejectsMismatchedDims)
{
    MetricRegistry a(smallDims(), 10);
    MetricRegistry::Dims other = smallDims();
    other.routers = 5;
    MetricRegistry b(other, 10);
    EXPECT_DEATH({ a.merge(b); }, "merge");
}

// ------------------------------------------ parallel-merge identity --

SimPointOptions
tinyOptions()
{
    SimPointOptions opts;
    opts.injectionRate = 0.02;
    opts.warmupCycles = 300;
    opts.measureCycles = 1200;
    opts.drainCycles = 2000;
    opts.collectMetrics = true;
    opts.telemetryEpoch = 256;
    return opts;
}

TEST(MetricRegistry, ParallelMultiSeedMergeIsBitIdenticalToSerial)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg; // baseline 8x8
    const int seeds = 4;

    // Serial reference: run each seed inline, merge in order.
    SimPointOptions opts = tinyOptions();
    std::vector<SimPointResult> serial;
    for (int i = 0; i < seeds; ++i) {
        SimPointOptions o = opts;
        o.seed = derivePointSeed(opts.seed, static_cast<std::uint64_t>(i));
        serial.push_back(
            runOpenLoop(cfg, TrafficPattern::UniformRandom, o));
    }
    auto serial_merged = mergeRegistries(serial);
    ASSERT_NE(serial_merged, nullptr);

    // Parallel run of the same seeds on a 4-thread pool.
    std::vector<BatchPoint> batch;
    for (int i = 0; i < seeds; ++i) {
        BatchPoint bp;
        bp.config = cfg;
        bp.opts = opts;
        bp.opts.seed =
            derivePointSeed(opts.seed, static_cast<std::uint64_t>(i));
        batch.push_back(std::move(bp));
    }
    JobPool pool(4);
    auto parallel = runBatch(batch, &pool);
    auto parallel_merged = mergeRegistries(parallel);
    ASSERT_NE(parallel_merged, nullptr);

    // Bit-identical: the serialized JSON documents match byte for byte.
    EXPECT_EQ(serial_merged->json(), parallel_merged->json());

    // And the merge observed all four windows.
    EXPECT_EQ(serial_merged->observedCycles(),
              4u * static_cast<Cycle>(
                       static_cast<double>(opts.measureCycles) *
                       simScale()));
}

TEST(MetricRegistry, RegistryMatchesNetworkCounters)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = tinyOptions();
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    ASSERT_NE(res.metrics, nullptr);
    const MetricRegistry &reg = *res.metrics;

    // The registry's derived heat maps must agree with the legacy
    // Network counters over the same measurement window.
    auto buf = reg.bufferUtilizationPercent();
    ASSERT_EQ(buf.size(), res.bufferUtilPct.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
        EXPECT_NEAR(buf[i], res.bufferUtilPct[i], 0.2) << "router " << i;

    auto link = reg.linkUtilizationPercent();
    ASSERT_EQ(link.size(), res.linkUtilPct.size());
    for (std::size_t i = 0; i < link.size(); ++i)
        EXPECT_NEAR(link[i], res.linkUtilPct[i], 0.2) << "router " << i;

    // Flow conservation inside the window.
    EXPECT_GT(reg.total(Ctr::PacketsInjected), 0u);
    EXPECT_EQ(reg.total(Ctr::PacketsDelivered),
              reg.histogram(Hist::PacketLatencyCycles).count());
    EXPECT_GE(reg.total(Ctr::BufferWrites),
              reg.total(Ctr::BufferReads));
}

// -------------------------------------------------------- JsonWriter --

TEST(JsonWriter, BuildsNestedDocuments)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("name", "x");
    w.keyValue("n", std::uint64_t{7});
    w.keyValue("pi", 0.5);
    w.keyValue("flag", true);
    w.key("arr").beginArray();
    w.value(1);
    w.value(2);
    w.endArray();
    w.key("nested").beginObject();
    w.endObject();
    w.endObject();
    EXPECT_EQ(w.str(),
              "{\"name\":\"x\",\"n\":7,\"pi\":0.5,\"flag\":true,"
              "\"arr\":[1,2],\"nested\":{}}");
}

TEST(JsonWriter, EscapesStringsAndHandlesNaN)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("s", "a\"b\\c\n\t");
    w.keyValue("bad", std::nan(""));
    w.endObject();
    EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\n\\t\",\"bad\":null}");
}

TEST(JsonWriter, SerializationIsDeterministic)
{
    MetricRegistry a(smallDims(), 10);
    MetricRegistry b(smallDims(), 10);
    for (MetricRegistry *r : {&a, &b}) {
        r->add(Ctr::LinkFlits, 1, 2, 3);
        r->histAdd(Hist::NetworkLatencyCycles, 12.5);
        r->tick(0);
        r->finish();
    }
    EXPECT_EQ(a.json(), b.json());
}

// --------------------------------------------------------- RunReport --

TEST(RunReport, EmitsPointsAndMergedRegistry)
{
    NetworkConfig cfg;
    SimPointOptions opts = tinyOptions();
    opts.measureCycles = 600;
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);

    RunReport report("unit_test", "run report test");
    report.meta("kind", "unit");
    report.meta("rate", opts.injectionRate);
    report.addPoint("p0", res);
    report.addRegistry("merged", *res.metrics);
    std::string doc = report.json();

    EXPECT_NE(doc.find("\"schema\":\"hnoc-run-report-v1\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"label\":\"p0\""), std::string::npos);
    EXPECT_NE(doc.find("\"telemetry\""), std::string::npos);
    EXPECT_NE(doc.find("\"merged\""), std::string::npos);
    EXPECT_EQ(doc.front(), '{');
    EXPECT_EQ(doc.back(), '}');
}

} // namespace
} // namespace hnoc
