/**
 * @file
 * Simulation-harness and traffic tests: pattern destination
 * properties (parameterized), self-similar burst statistics, sweep and
 * summary helpers, the instrumented run loop's parity with the plain
 * one, YX routing and CentralBand link-width modes.
 */

#include <gtest/gtest.h>

#include <map>

#include "common/stats.hh"
#include "heteronoc/layout.hh"
#include "noc/sim_harness.hh"
#include "telemetry/metrics.hh"

namespace hnoc
{
namespace
{

// ----------------------------------------------------------- traffic --

class PatternDest : public ::testing::TestWithParam<TrafficPattern>
{};

TEST_P(PatternDest, DestinationsValidAndNeverSelf)
{
    TrafficGenerator gen(GetParam(), 64, 8, 5);
    for (NodeId src = 0; src < 64; ++src) {
        for (int i = 0; i < 20; ++i) {
            NodeId dst = gen.pickDest(src);
            if (dst == INVALID_NODE)
                continue;
            EXPECT_GE(dst, 0);
            EXPECT_LT(dst, 64);
            EXPECT_NE(dst, src);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPatterns, PatternDest,
    ::testing::Values(TrafficPattern::UniformRandom,
                      TrafficPattern::NearestNeighbor,
                      TrafficPattern::Transpose,
                      TrafficPattern::BitComplement,
                      TrafficPattern::SelfSimilar));

TEST(Traffic, TransposeIsDeterministicMirror)
{
    TrafficGenerator gen(TrafficPattern::Transpose, 64, 8, 1);
    EXPECT_EQ(gen.pickDest(1), 8);   // (1,0) -> (0,1)
    EXPECT_EQ(gen.pickDest(23), 58); // (7,2) -> (2,7)
    EXPECT_EQ(gen.pickDest(0), INVALID_NODE); // diagonal
    EXPECT_EQ(gen.pickDest(63), INVALID_NODE);
}

TEST(Traffic, BitComplementMirrors)
{
    TrafficGenerator gen(TrafficPattern::BitComplement, 64, 8, 1);
    EXPECT_EQ(gen.pickDest(0), 63);
    EXPECT_EQ(gen.pickDest(5), 58);
}

TEST(Traffic, NearestNeighborIsAdjacent)
{
    TrafficGenerator gen(TrafficPattern::NearestNeighbor, 64, 8, 3);
    for (int i = 0; i < 500; ++i) {
        NodeId src = i % 64;
        NodeId dst = gen.pickDest(src);
        int dx = std::abs(src % 8 - dst % 8);
        int dy = std::abs(src / 8 - dst / 8);
        EXPECT_EQ(dx + dy, 1) << src << "->" << dst;
    }
}

TEST(Traffic, BernoulliRateAccuracy)
{
    TrafficGenerator gen(TrafficPattern::UniformRandom, 64, 8, 9);
    std::uint64_t fires = 0;
    const int cycles = 20000;
    for (Cycle t = 0; t < cycles; ++t)
        if (gen.shouldInject(0, 0.05, t))
            ++fires;
    EXPECT_NEAR(static_cast<double>(fires) / cycles, 0.05, 0.01);
}

TEST(Traffic, SelfSimilarLongRunRateMatches)
{
    TrafficGenerator gen(TrafficPattern::SelfSimilar, 64, 8, 13);
    std::uint64_t fires = 0;
    const int cycles = 400000;
    for (Cycle t = 0; t < cycles; ++t)
        if (gen.shouldInject(3, 0.03, t))
            ++fires;
    EXPECT_NEAR(static_cast<double>(fires) / cycles, 0.03, 0.012);
}

TEST(Traffic, SelfSimilarIsBursty)
{
    // Variance of per-window counts must exceed Poisson-like traffic's.
    auto window_var = [](TrafficPattern p) {
        TrafficGenerator gen(p, 64, 8, 21);
        RunningStat windows;
        const int window = 200;
        for (int w = 0; w < 300; ++w) {
            int count = 0;
            for (int t = 0; t < window; ++t)
                if (gen.shouldInject(
                        0, 0.05,
                        static_cast<Cycle>(w) * window + t))
                    ++count;
            windows.add(count);
        }
        return windows.variance();
    };
    EXPECT_GT(window_var(TrafficPattern::SelfSimilar),
              2.0 * window_var(TrafficPattern::UniformRandom));
}

// ----------------------------------------------------------- harness --

TEST(Harness, AcceptedNeverExceedsOfferedMuch)
{
    SimPointOptions opts;
    opts.injectionRate = 0.02;
    opts.warmupCycles = 1500;
    opts.measureCycles = 4000;
    opts.drainCycles = 8000;
    auto res = runOpenLoop(makeLayoutConfig(LayoutKind::Baseline),
                           TrafficPattern::UniformRandom, opts);
    EXPECT_LT(res.acceptedRate, opts.injectionRate * 1.15);
    EXPECT_GT(res.acceptedRate, opts.injectionRate * 0.85);
}

TEST(Harness, BreakdownSumsToTotal)
{
    SimPointOptions opts;
    opts.injectionRate = 0.03;
    opts.warmupCycles = 1500;
    opts.measureCycles = 4000;
    opts.drainCycles = 8000;
    auto res = runOpenLoop(makeLayoutConfig(LayoutKind::Baseline),
                           TrafficPattern::UniformRandom, opts);
    EXPECT_NEAR(res.avgQueuingNs + res.avgBlockingNs + res.avgTransferNs,
                res.avgLatencyNs, 0.05 * res.avgLatencyNs);
}

TEST(Harness, SaturationDetectsFlatteningThroughput)
{
    SimPointOptions opts;
    opts.warmupCycles = 2000;
    opts.measureCycles = 5000;
    opts.drainCycles = 8000;
    auto curve = sweepLoad(makeLayoutConfig(LayoutKind::Baseline),
                           TrafficPattern::UniformRandom,
                           {0.02, 0.09}, opts);
    EXPECT_FALSE(curve[0].saturated);
    EXPECT_TRUE(curve[1].saturated);
    double sat = saturationThroughput(curve);
    EXPECT_GT(sat, 0.04);
    EXPECT_LT(sat, 0.09);
}

TEST(Harness, LatencyGrowsWithDistance)
{
    SimPointOptions opts;
    opts.injectionRate = 0.02;
    opts.warmupCycles = 1500;
    opts.measureCycles = 6000;
    opts.drainCycles = 12000;
    auto res = runOpenLoop(makeLayoutConfig(LayoutKind::Baseline),
                           TrafficPattern::UniformRandom, opts);
    ASSERT_GE(res.latencyByHopsNs.size(), 12u);
    // Short paths must be faster than long ones; interior bins filled.
    EXPECT_GT(res.latencyByHopsNs[12], res.latencyByHopsNs[2]);
    EXPECT_GT(res.latencyByHopsNs[8], res.latencyByHopsNs[3]);
    // Roughly linear: per-hop increments near the 3-cycle pipeline.
    double per_hop =
        (res.latencyByHopsNs[12] - res.latencyByHopsNs[4]) / 8.0;
    double cycle_ns = 1.0 / 2.2;
    EXPECT_GT(per_hop, 2.0 * cycle_ns);
    EXPECT_LT(per_hop, 8.0 * cycle_ns);
}

// ------------------------------------------------ instrumented loop --

/** Progress, audit or watchdog switch runOpenLoop from net.run() to
 *  its per-cycle instrumented loop; the result must not move a bit. */
class InstrumentedLoop : public ::testing::TestWithParam<SimControlMode>
{};

TEST_P(InstrumentedLoop, MatchesPlainLoopBitForBit)
{
#ifndef NDEBUG
    // Debug builds audit every epoch, so run `a` would take the
    // instrumented loop too and the test would compare it with itself.
    GTEST_SKIP() << "needs an NDEBUG build for the plain net.run() loop";
#endif
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    SimPointOptions opts;
    opts.injectionRate = 0.03;
    opts.warmupCycles = 3000;
    opts.measureCycles = 8000;
    opts.drainCycles = 8000;
    opts.collectMetrics = true;
    opts.control.mode = GetParam();
    SimPointResult a =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);

    opts.progressEvery = 4000;
    opts.auditEvery = 100;
    opts.watchdogWindow = 50000;
    SimPointResult b =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);

    EXPECT_EQ(a.offeredRate, b.offeredRate);
    EXPECT_EQ(a.acceptedRate, b.acceptedRate);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.avgQueuingNs, b.avgQueuingNs);
    EXPECT_EQ(a.avgBlockingNs, b.avgBlockingNs);
    EXPECT_EQ(a.avgTransferNs, b.avgTransferNs);
    EXPECT_EQ(a.p95LatencyNs, b.p95LatencyNs);
    EXPECT_EQ(a.networkPowerW, b.networkPowerW);
    EXPECT_EQ(a.combineRate, b.combineRate);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.drainTruncated, b.drainTruncated);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
    EXPECT_EQ(a.warmupCyclesUsed, b.warmupCyclesUsed);
    EXPECT_EQ(a.measureCyclesUsed, b.measureCyclesUsed);
    EXPECT_EQ(a.stopReason, b.stopReason);
    EXPECT_EQ(a.ciRelHalfWidth, b.ciRelHalfWidth);
    EXPECT_EQ(a.ciHistory, b.ciHistory);
    EXPECT_EQ(a.bufferUtilPct, b.bufferUtilPct);
    EXPECT_EQ(a.linkUtilPct, b.linkUtilPct);
    EXPECT_EQ(a.trackedCreated, b.trackedCreated);
    EXPECT_EQ(a.trackedDelivered, b.trackedDelivered);
    EXPECT_EQ(a.latencyByHopsNs, b.latencyByHopsNs);
    ASSERT_NE(a.metrics, nullptr);
    ASSERT_NE(b.metrics, nullptr);
    EXPECT_EQ(a.metrics->json(), b.metrics->json());
    EXPECT_EQ(b.watchdogTrips, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BothModes, InstrumentedLoop,
    ::testing::Values(SimControlMode::Reference, SimControlMode::Adaptive),
    [](const ::testing::TestParamInfo<SimControlMode> &info) {
        return std::string(simControlModeName(info.param));
    });

// ------------------------------------------------- YX / CentralBand --

TEST(YxRouting, MirrorsXyAndDelivers)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routing = RoutingMode::YX;
    Network net(cfg);
    auto path = net.routing().path(0, 63);
    // Y first: second router straight down from router 0.
    EXPECT_EQ(path[1], 8);
    net.enqueuePacket(0, 63, 6);
    net.run(200);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

TEST(CentralBand, ExactBisectionAccounting)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.flitWidthBits = 128;
    cfg.linkWidthMode = LinkWidthMode::CentralBand;
    cfg.bandWideLinks = 4;
    // Row links in rows 2..5 wide; others narrow.
    EXPECT_EQ(cfg.channelBits(2 * 8 + 3, 2 * 8 + 4), 256); // row 2
    EXPECT_EQ(cfg.channelBits(0 * 8 + 3, 0 * 8 + 4), 128); // row 0
    // Column links in columns 2..5 wide.
    EXPECT_EQ(cfg.channelBits(3, 8 + 3), 256);  // column 3
    EXPECT_EQ(cfg.channelBits(7, 8 + 7), 128);  // column 7
    // Per-cut budget: 4*256 + 4*128 = 8*192.
    EXPECT_EQ(4 * 256 + 4 * 128, 8 * 192);
}

TEST(CentralBand, NetworkRunsAndDrains)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.flitWidthBits = 128;
    cfg.linkWidthMode = LinkWidthMode::CentralBand;
    cfg.bandWideLinks = 4;
    Network net(cfg);
    for (NodeId n = 0; n < 64; ++n)
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
    net.run(4000);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(net.packetsDelivered(), 64u);
}

} // namespace
} // namespace hnoc
