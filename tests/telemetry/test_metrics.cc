/**
 * @file
 * MetricRegistry unit tests: counter/gauge/histogram semantics, epoch
 * rows as deltas of the network's counter totals, deterministic JSON
 * serialization, and the load-bearing guarantee that a parallel
 * multi-seed run's merged registry is bit-identical to the serial
 * single-thread merge. Also covers the JsonWriter and RunReport
 * exporters.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/channel.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "noc/traffic.hh"
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

/** All-zero counter totals for the four smallDims() routers. */
MetricRegistry::EpochRow
zeroTotals()
{
    MetricRegistry::EpochRow t;
    t.occupancyFlitCycles.assign(4, 0);
    t.linkFlits.assign(4, 0);
    t.flitsRouted.assign(4, 0);
    return t;
}

// --------------------------------------------------------- counters --

TEST(MetricRegistry, CounterScopesAccumulateIndependently)
{
    MetricRegistry reg(smallDims());
    // Counts must be uint64-typed: a bare int in the count position
    // would overload-resolve as the next index instead.
    reg.add(Ctr::PacketsInjected);                     // global
    reg.add(Ctr::PacketsInjected, std::uint64_t{3});   // global, n=3
    reg.add(Ctr::CreditStalls, 1, 4);                  // (router 1, port 4)
    reg.add(Ctr::CreditStalls, 1, 4, std::uint64_t{6});
    reg.add(Ctr::VaConflicts, 0, 1, 1, 5); // (router 0, port 1, vc 1)

    EXPECT_EQ(reg.total(Ctr::PacketsInjected), 4u);
    EXPECT_EQ(reg.at(Ctr::CreditStalls, 1, 4), 7u);
    EXPECT_EQ(reg.at(Ctr::CreditStalls, 1, 3), 0u);
    EXPECT_EQ(reg.total(Ctr::CreditStalls), 7u);
    EXPECT_EQ(reg.at(Ctr::VaConflicts, 0, 1, 1), 5u);
    EXPECT_EQ(reg.total(Ctr::VaConflicts), 5u);
}

TEST(MetricRegistry, PerRouterReducesPortAndVcDims)
{
    MetricRegistry reg(smallDims());
    reg.add(Ctr::VaConflicts, 1, 0, 0, 2);
    reg.add(Ctr::VaConflicts, 1, 4, 1, 3);
    reg.add(Ctr::VaConflicts, 3, 2, 0, 1);
    auto per = reg.perRouter(Ctr::VaConflicts);
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
    reg.gaugeMax(Gauge::PeakOccupancy, 2, 6);
    reg.gaugeMax(Gauge::PeakOccupancy, 2, 3);
    EXPECT_EQ(reg.gauge(Gauge::PeakOccupancy, 2), 6u);
    EXPECT_EQ(reg.gauge(Gauge::PeakOccupancy, 1), 0u);
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
    // The network's totals at attach are the first row's baseline:
    // activity before the window never shows up in a row.
    MetricRegistry::EpochRow live = zeroTotals();
    live.occupancyFlitCycles[1] = 50;
    live.linkFlits[0] = 20;
    live.flitsRouted[3] = 7;
    reg.beginWindow(100, live);
    int closed = 0;
    for (int c = 0; c < 15; ++c) {
        if (c < 4)
            ++live.occupancyFlitCycles[1]; // epoch 0: 4 flit-cycles
        if (c == 2)
            live.flitsRouted[3] += 3; // epoch 0: 3 flits routed
        if (c >= 10)
            ++live.linkFlits[0]; // epoch 1 (partial): 5 link flits
        if (reg.tick()) {
            reg.closeEpoch(live);
            ++closed;
        }
    }
    EXPECT_EQ(closed, 1);
    reg.finish(live);
    live.linkFlits[0] += 100;
    reg.finish(live); // idempotent

    ASSERT_EQ(reg.epochs().size(), 2u);
    const auto &e0 = reg.epochs()[0];
    const auto &e1 = reg.epochs()[1];
    EXPECT_EQ(e0.cycles, 10u);
    EXPECT_EQ(e0.occupancyFlitCycles[1], 4u);
    EXPECT_EQ(e0.linkFlits[0], 0u);
    EXPECT_EQ(e0.flitsRouted[3], 3u);
    EXPECT_EQ(e1.cycles, 5u);
    EXPECT_EQ(e1.occupancyFlitCycles[1], 0u);
    EXPECT_EQ(e1.linkFlits[0], 5u);
    EXPECT_EQ(e1.flitsRouted[3], 0u);
    EXPECT_EQ(reg.observedCycles(), 15u);
    EXPECT_EQ(reg.windowStart(), 100u);
}

// ------------------------------------------------------------- merge --

TEST(MetricRegistry, MergeAddsCountersAndMaxesGauges)
{
    MetricRegistry a(smallDims(), 10);
    MetricRegistry b(smallDims(), 10);
    a.add(Ctr::VaConflicts, 0, 0, 0, 2);
    b.add(Ctr::VaConflicts, 0, 0, 0, 3);
    a.gaugeMax(Gauge::PeakInFlight, 7);
    b.gaugeMax(Gauge::PeakInFlight, 9);
    a.histAdd(Hist::PacketLatencyCycles, 5.0);
    b.histAdd(Hist::PacketLatencyCycles, 15.0);
    a.tick();
    b.tick();
    MetricRegistry::EpochRow ta = zeroTotals();
    MetricRegistry::EpochRow tb = zeroTotals();
    ta.linkFlits[2] = 4;
    tb.linkFlits[2] = 6;
    a.finish(ta);
    b.finish(tb);
    a.merge(b);
    EXPECT_EQ(a.at(Ctr::VaConflicts, 0, 0, 0), 5u);
    EXPECT_EQ(a.gauge(Gauge::PeakInFlight), 9u);
    EXPECT_EQ(a.histogram(Hist::PacketLatencyCycles).count(), 2u);
    EXPECT_EQ(a.observedCycles(), 2u);
    ASSERT_EQ(a.epochs().size(), 1u);
    EXPECT_EQ(a.epochs()[0].cycles, 2u);
    EXPECT_EQ(a.epochs()[0].linkFlits[2], 10u);
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

TEST(MetricRegistry, EpochRowsSumToNetworkCounters)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    // Diagonal+BL: wide links pair flits, so link flits and buffer
    // reads are not a per-cycle count.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    TrafficGenerator gen(TrafficPattern::UniformRandom, cfg.numNodes(),
                         cfg.radixX, 11);
    auto load = [&](Cycle cycles) {
        for (Cycle i = 0; i < cycles; ++i) {
            for (NodeId n = 0; n < cfg.numNodes(); ++n) {
                if (gen.shouldInject(n, 0.03, net.now())) {
                    NodeId dst = gen.pickDest(n);
                    if (dst != INVALID_NODE)
                        net.enqueuePacket(n, dst, cfg.dataPacketFlits());
                }
            }
            net.step();
        }
    };
    load(300);
    net.resetMeasurement();
    auto reg = net.makeMetricRegistry(256);
    net.attachTelemetry(reg.get());
    load(1200); // four full epochs and a partial one
    net.detachTelemetry();
    ASSERT_EQ(reg->epochs().size(), 5u);
    EXPECT_EQ(reg->epochs().back().cycles, 1200u - 4u * 256u);

    // Each router's epoch series sums exactly to the always-on
    // counters it is the delta of.
    const auto n = static_cast<std::size_t>(cfg.numRouters());
    std::vector<std::uint64_t> occ(n, 0), link(n, 0), routed(n, 0);
    for (const auto &row : reg->epochs()) {
        for (std::size_t r = 0; r < n; ++r) {
            occ[r] += row.occupancyFlitCycles[r];
            link[r] += row.linkFlits[r];
            routed[r] += row.flitsRouted[r];
        }
    }
    std::uint64_t writes = 0;
    std::uint64_t reads = 0;
    for (RouterId r = 0; r < cfg.numRouters(); ++r) {
        const Router &router = net.router(r);
        auto i = static_cast<std::size_t>(r);
        std::uint64_t sent = 0;
        for (PortId p = 0; p < router.numPorts(); ++p)
            if (const Channel *c = router.outputChannel(p))
                sent += c->flitsSent();
        EXPECT_EQ(occ[i], router.occupancySum()) << "router " << r;
        EXPECT_EQ(routed[i], router.activity().bufferReads)
            << "router " << r;
        EXPECT_EQ(link[i], sent) << "router " << r;
        writes += router.activity().bufferWrites;
        reads += router.activity().bufferReads;
    }
    EXPECT_GT(reads, 0u);
    EXPECT_GE(writes, reads);

    // Flow conservation inside the window.
    EXPECT_GT(reg->total(Ctr::PacketsInjected), 0u);
    EXPECT_EQ(reg->total(Ctr::PacketsDelivered),
              reg->histogram(Hist::PacketLatencyCycles).count());
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
        r->add(Ctr::VaConflicts, 1, 2, 1, 3);
        r->histAdd(Hist::NetworkLatencyCycles, 12.5);
        r->tick();
        r->finish(zeroTotals());
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
