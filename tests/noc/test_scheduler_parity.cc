/**
 * @file
 * Active-set scheduler parity: every run must be bit-identical to the
 * exhaustive always-step loop (config.alwaysStep)
 * on every topology, pattern, seed, and thread count. This is the
 * acceptance gate for the activity-driven cycle loop: skipping idle
 * components must be invisible to results, telemetry, and power.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "telemetry/blame.hh"
#include "telemetry/flight_recorder.hh"

namespace hnoc
{
namespace
{

SimPointOptions
quickOptions(std::uint64_t seed)
{
    SimPointOptions opts;
    opts.warmupCycles = 800;
    opts.measureCycles = 2000;
    opts.drainCycles = 4000;
    opts.seed = seed;
    return opts;
}

void
expectBitIdentical(const SimPointResult &a, const SimPointResult &b)
{
    EXPECT_EQ(a.offeredRate, b.offeredRate);
    EXPECT_EQ(a.acceptedRate, b.acceptedRate);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.avgQueuingNs, b.avgQueuingNs);
    EXPECT_EQ(a.avgBlockingNs, b.avgBlockingNs);
    EXPECT_EQ(a.avgTransferNs, b.avgTransferNs);
    EXPECT_EQ(a.p95LatencyNs, b.p95LatencyNs);
    EXPECT_EQ(a.networkPowerW, b.networkPowerW);
    EXPECT_EQ(a.power.buffers, b.power.buffers);
    EXPECT_EQ(a.power.crossbar, b.power.crossbar);
    EXPECT_EQ(a.power.arbiters, b.power.arbiters);
    EXPECT_EQ(a.power.links, b.power.links);
    EXPECT_EQ(a.combineRate, b.combineRate);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.bufferUtilPct, b.bufferUtilPct);
    EXPECT_EQ(a.linkUtilPct, b.linkUtilPct);
    EXPECT_EQ(a.trackedDelivered, b.trackedDelivered);
    EXPECT_EQ(a.trackedCreated, b.trackedCreated);
    EXPECT_EQ(a.latencyByHopsNs, b.latencyByHopsNs);
    EXPECT_EQ(a.watchdogTrips, b.watchdogTrips);
}

struct TopoCase
{
    const char *name;
    TopologyType topology;
};

NetworkConfig
topoConfig(const TopoCase &tc)
{
    if (tc.topology == TopologyType::Mesh)
        return makeLayoutConfig(LayoutKind::Baseline); // 8x8 mesh
    NetworkConfig cfg;
    cfg.name = tc.name;
    cfg.topology = tc.topology;
    cfg.radixX = 4;
    cfg.radixY = 4;
    cfg.concentration = 4;
    return cfg;
}

class SchedulerParity : public ::testing::TestWithParam<TopoCase>
{};

TEST_P(SchedulerParity, BitIdenticalAcrossPatternsAndSeeds)
{
    NetworkConfig active_cfg = topoConfig(GetParam());
    NetworkConfig always_cfg = active_cfg;
    always_cfg.alwaysStep = true;

    const TrafficPattern patterns[] = {TrafficPattern::UniformRandom,
                                       TrafficPattern::NearestNeighbor,
                                       TrafficPattern::Transpose};
    const std::uint64_t seeds[] = {17, 20260706, 421};

    for (TrafficPattern p : patterns) {
        for (std::size_t si = 0; si < 3; ++si) {
            SCOPED_TRACE(trafficPatternName(p) + " seed " +
                         std::to_string(seeds[si]));
            SimPointOptions opts = quickOptions(seeds[si]);
            // Telemetry must also match; collect it on the first seed
            // (registries compare via their serialized documents).
            opts.collectMetrics = si == 0;
            SimPointResult active = runOpenLoop(active_cfg, p, opts);
            SimPointResult always = runOpenLoop(always_cfg, p, opts);
            expectBitIdentical(active, always);
            if (opts.collectMetrics) {
                ASSERT_TRUE(active.metrics && always.metrics);
                EXPECT_EQ(active.metrics->json(), always.metrics->json());
            }
        }
    }
}

TEST_P(SchedulerParity, BitIdenticalAcrossBlockSizes)
{
    // Cache-blocked stepping (§6g) must be invisible at every block
    // size: single-tile blocks (maximum cross-block traffic), the
    // auto-sized default, and one whole-chip block (degenerate case)
    // all against the exhaustive loop.
    NetworkConfig auto_cfg = topoConfig(GetParam());
    NetworkConfig one_cfg = auto_cfg;
    one_cfg.blockTiles = 1;
    NetworkConfig whole_cfg = auto_cfg;
    whole_cfg.blockTiles = 1 << 20; // clamped to the router count
    NetworkConfig always_cfg = auto_cfg;
    always_cfg.alwaysStep = true;

    for (TrafficPattern p : {TrafficPattern::UniformRandom,
                             TrafficPattern::Transpose}) {
        SCOPED_TRACE(trafficPatternName(p));
        SimPointOptions opts = quickOptions(20260706);
        opts.collectMetrics = true;
        SimPointResult always = runOpenLoop(always_cfg, p, opts);
        ASSERT_TRUE(always.metrics);
        for (const NetworkConfig *cfg :
             {&one_cfg, &auto_cfg, &whole_cfg}) {
            SCOPED_TRACE("block_tiles " +
                         std::to_string(cfg->blockTiles));
            SimPointResult got = runOpenLoop(*cfg, p, opts);
            expectBitIdentical(got, always);
            ASSERT_TRUE(got.metrics);
            EXPECT_EQ(got.metrics->json(), always.metrics->json());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, SchedulerParity,
    ::testing::Values(TopoCase{"mesh", TopologyType::Mesh},
                      TopoCase{"torus", TopologyType::Torus},
                      TopoCase{"cmesh", TopologyType::ConcentratedMesh},
                      TopoCase{"flatfly",
                               TopologyType::FlattenedButterfly}),
    [](const ::testing::TestParamInfo<TopoCase> &info) {
        return info.param.name;
    });

TEST(SchedulerParityHetero, DiagonalBlMatchesAlwaysStep)
{
    NetworkConfig active_cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    NetworkConfig always_cfg = active_cfg;
    always_cfg.alwaysStep = true;

    for (TrafficPattern p : {TrafficPattern::UniformRandom,
                             TrafficPattern::Transpose,
                             TrafficPattern::SelfSimilar}) {
        SCOPED_TRACE(trafficPatternName(p));
        SimPointOptions opts = quickOptions(20260706);
        opts.injectionRate = 0.02;
        expectBitIdentical(runOpenLoop(active_cfg, p, opts),
                           runOpenLoop(always_cfg, p, opts));
    }
}

/** A recorder's events as sortable tuples, packet first, then cycle. */
using EventKey = std::tuple<std::uint32_t, Cycle, int, int, int, int, int,
                            int>;

std::vector<EventKey>
eventsByPacket(const FlightRecorder &fr)
{
    std::vector<EventKey> out;
    for (const FlightRecorder::Event &e : fr.snapshot())
        out.emplace_back(e.pkt, e.t, e.kind, e.router, e.port, e.vc, e.head,
                         e.seq);
    std::sort(out.begin(), out.end());
    return out;
}

TEST(SchedulerParityInstruments, BlameAndRecorderMatchAcrossWalks)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "instruments compile out under HNOC_TELEMETRY=OFF";
    // The blame document must be byte-identical across the exhaustive
    // loop, single-router blocks and the auto-sized block. The record
    // order within one cycle differs between walks (the active-set
    // cycle records a packet's Eject after that cycle's deliveries), so
    // the recorder's events are compared per packet and cycle.
    NetworkConfig auto_cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    NetworkConfig one_cfg = auto_cfg;
    one_cfg.blockTiles = 1;
    NetworkConfig always_cfg = auto_cfg;
    always_cfg.alwaysStep = true;

    SimPointOptions opts = quickOptions(421);
    opts.warmupCycles = 200;
    opts.measureCycles = 800;
    opts.drainCycles = 3000;
    opts.injectionRate = 0.02;
    opts.collectBlame = true;
    opts.flightRecorder = true;
    opts.flightRecorderCapacity = 1u << 19;

    SimPointResult always =
        runOpenLoop(always_cfg, TrafficPattern::UniformRandom, opts);
    ASSERT_TRUE(always.blame && always.flightRecorder);
    // The ring must hold the whole run, or where it wrapped would
    // depend on the record order.
    ASSERT_EQ(always.flightRecorder->overwritten(), 0u);
    const std::vector<EventKey> reference =
        eventsByPacket(*always.flightRecorder);
    EXPECT_GT(reference.size(), 10000u);
    for (const NetworkConfig *cfg : {&one_cfg, &auto_cfg}) {
        SCOPED_TRACE("block_tiles " + std::to_string(cfg->blockTiles));
        SimPointResult got =
            runOpenLoop(*cfg, TrafficPattern::UniformRandom, opts);
        ASSERT_TRUE(got.blame && got.flightRecorder);
        EXPECT_EQ(got.blame->json(), always.blame->json());
        ASSERT_EQ(got.flightRecorder->overwritten(), 0u);
        EXPECT_TRUE(eventsByPacket(*got.flightRecorder) == reference);
    }
}

TEST(SchedulerParityThreads, SweepMatchesAlwaysStepAcross134Threads)
{
    NetworkConfig active_cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    NetworkConfig always_cfg = active_cfg;
    always_cfg.alwaysStep = true;
    const std::vector<double> rates = {0.01, 0.03, 0.05};
    SimPointOptions opts = quickOptions(17);

    auto reference = sweepLoadSerial(
        always_cfg, TrafficPattern::UniformRandom, rates, opts);

    auto check = [&](const std::vector<SimPointResult> &got) {
        ASSERT_EQ(got.size(), reference.size());
        for (std::size_t i = 0; i < got.size(); ++i) {
            SCOPED_TRACE("point " + std::to_string(i));
            expectBitIdentical(got[i], reference[i]);
        }
    };

    check(sweepLoadSerial(active_cfg, TrafficPattern::UniformRandom,
                          rates, opts));
    for (int threads : {1, 3, 4}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        JobPool pool(threads);
        check(sweepLoad(active_cfg, TrafficPattern::UniformRandom, rates,
                        opts, &pool));
    }
}

TEST(SchedulerParityThreads, BlockSizesMatchAcross134Threads)
{
    // Block size x thread count: per-point state is thread-private, so
    // any blocking of the per-point step loop must leave the parallel
    // sweep bit-identical to the serial exhaustive reference.
    NetworkConfig always_cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    always_cfg.alwaysStep = true;
    const std::vector<double> rates = {0.01, 0.03, 0.05};
    SimPointOptions opts = quickOptions(17);

    auto reference = sweepLoadSerial(
        always_cfg, TrafficPattern::UniformRandom, rates, opts);

    for (int block_tiles : {1, 0, 1 << 20}) {
        NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
        cfg.blockTiles = block_tiles;
        for (int threads : {1, 3, 4}) {
            SCOPED_TRACE("block_tiles " + std::to_string(block_tiles) +
                         ", " + std::to_string(threads) + " threads");
            JobPool pool(threads);
            auto got = sweepLoad(cfg, TrafficPattern::UniformRandom,
                                 rates, opts, &pool);
            ASSERT_EQ(got.size(), reference.size());
            for (std::size_t i = 0; i < got.size(); ++i) {
                SCOPED_TRACE("point " + std::to_string(i));
                expectBitIdentical(got[i], reference[i]);
            }
        }
    }
}

TEST(BlockSizeConfig, FieldSetsBlockSizeAndClampsToChip)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline); // 8x8
    {
        Network net(cfg); // auto-sized: sane block count, full cover
        EXPECT_GE(net.blockTiles(), 1);
        EXPECT_LE(net.blockTiles(), 64);
        EXPECT_EQ((64 + net.blockTiles() - 1) / net.blockTiles(),
                  net.numBlocks());
    }
    cfg.blockTiles = 16;
    {
        Network net(cfg);
        EXPECT_EQ(net.blockTiles(), 16);
        EXPECT_EQ(net.numBlocks(), 4);
    }
    cfg.blockTiles = 100000;
    {
        Network net(cfg); // oversize clamps to one whole-chip block
        EXPECT_EQ(net.blockTiles(), 64);
        EXPECT_EQ(net.numBlocks(), 1);
    }
}

TEST(SchedulerReferenceLoop, ConfigFieldForcesExhaustiveLoop)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    {
        Network net(cfg);
        EXPECT_FALSE(net.alwaysStep());
    }
    cfg.alwaysStep = true;
    {
        Network net(cfg);
        EXPECT_TRUE(net.alwaysStep());
    }
}

} // namespace
} // namespace hnoc
