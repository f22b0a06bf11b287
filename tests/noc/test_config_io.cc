/**
 * @file
 * Config serialization round-trip tests.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "noc/network.hh"
#include "noc/sim_control.hh"

namespace hnoc
{
namespace
{

void
expectConfigsEqual(const NetworkConfig &a, const NetworkConfig &b)
{
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.topology, b.topology);
    EXPECT_EQ(a.radixX, b.radixX);
    EXPECT_EQ(a.radixY, b.radixY);
    EXPECT_EQ(a.concentration, b.concentration);
    EXPECT_EQ(a.flitWidthBits, b.flitWidthBits);
    EXPECT_EQ(a.dataPacketBits, b.dataPacketBits);
    EXPECT_EQ(a.bufferDepth, b.bufferDepth);
    EXPECT_EQ(a.defaultVcs, b.defaultVcs);
    EXPECT_EQ(a.defaultWidthBits, b.defaultWidthBits);
    EXPECT_EQ(a.routerVcs, b.routerVcs);
    EXPECT_EQ(a.routerWidthBits, b.routerWidthBits);
    EXPECT_EQ(a.linkWidthMode, b.linkWidthMode);
    EXPECT_EQ(a.uniformLinkBits, b.uniformLinkBits);
    EXPECT_EQ(a.bandWideLinks, b.bandWideLinks);
    EXPECT_EQ(a.routing, b.routing);
    EXPECT_EQ(a.tableRoutedNodes, b.tableRoutedNodes);
    EXPECT_EQ(a.escapeThreshold, b.escapeThreshold);
    EXPECT_EQ(a.intraPacketPairing, b.intraPacketPairing);
    EXPECT_EQ(a.alwaysStep, b.alwaysStep);
    EXPECT_EQ(a.blockTiles, b.blockTiles);
    EXPECT_EQ(a.pipelineStages, b.pipelineStages);
    EXPECT_EQ(a.linkLatency, b.linkLatency);
    EXPECT_DOUBLE_EQ(a.clockGHz, b.clockGHz);
}

TEST(ConfigIo, RoundTripBaseline)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, RoundTripHeterogeneous)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {0, 7, 56, 63};
    cfg.intraPacketPairing = false;
    cfg.alwaysStep = true;
    cfg.blockTiles = 16;
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, RoundTripExoticModes)
{
    NetworkConfig cfg;
    cfg.name = "band";
    cfg.topology = TopologyType::Torus;
    cfg.flitWidthBits = 153;
    cfg.linkWidthMode = LinkWidthMode::CentralBand;
    cfg.bandWideLinks = 2;
    cfg.routing = RoutingMode::O1Turn;
    cfg.clockGHz = 1.5;
    expectConfigsEqual(cfg, configFromString(configToString(cfg)));
}

TEST(ConfigIo, FileRoundTrip)
{
    std::string path = "/tmp/hnoc_config_test.cfg";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::CenterBL);
    ASSERT_TRUE(saveConfig(cfg, path));
    expectConfigsEqual(cfg, loadConfig(path));
    std::remove(path.c_str());
}

TEST(ConfigIo, CommentsAndBlankLinesIgnored)
{
    NetworkConfig cfg =
        configFromString("# a comment\n\nname=test\nradix_x=4\n");
    EXPECT_EQ(cfg.name, "test");
    EXPECT_EQ(cfg.radixX, 4);
}

TEST(ConfigIo, UnknownKeyFatal)
{
    EXPECT_DEATH((void)configFromString("no_such_key=1\n"),
                 "unknown key");
}

void
expectSimOptionsEqual(const SimPointOptions &a, const SimPointOptions &b)
{
    EXPECT_DOUBLE_EQ(a.injectionRate, b.injectionRate);
    EXPECT_EQ(a.warmupCycles, b.warmupCycles);
    EXPECT_EQ(a.measureCycles, b.measureCycles);
    EXPECT_EQ(a.drainCycles, b.drainCycles);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_DOUBLE_EQ(a.controlFraction, b.controlFraction);
    EXPECT_EQ(a.collectMetrics, b.collectMetrics);
    EXPECT_EQ(a.telemetryEpoch, b.telemetryEpoch);
    EXPECT_EQ(a.control.mode, b.control.mode);
    EXPECT_EQ(a.control.minWarmupCycles, b.control.minWarmupCycles);
    EXPECT_EQ(a.control.warmupEpochs, b.control.warmupEpochs);
    EXPECT_DOUBLE_EQ(a.control.warmupTolerance,
                     b.control.warmupTolerance);
    EXPECT_DOUBLE_EQ(a.control.ciTarget, b.control.ciTarget);
    EXPECT_DOUBLE_EQ(a.control.ciConfidence, b.control.ciConfidence);
    EXPECT_EQ(a.control.minBatches, b.control.minBatches);
    EXPECT_EQ(a.control.epochsPerBatch, b.control.epochsPerBatch);
    EXPECT_EQ(a.control.minMeasureCycles, b.control.minMeasureCycles);
    EXPECT_EQ(a.control.satEpochs, b.control.satEpochs);
    EXPECT_DOUBLE_EQ(a.control.satDepthPerNode,
                     b.control.satDepthPerNode);
    EXPECT_DOUBLE_EQ(a.control.satGrowthPerNode,
                     b.control.satGrowthPerNode);
}

TEST(ConfigIo, SimOptionsRoundTripDefaults)
{
    SimPointOptions opts;
    expectSimOptionsEqual(
        opts, simOptionsFromString(simOptionsToString(opts)));
}

TEST(ConfigIo, SimOptionsRoundTripAdaptive)
{
    SimPointOptions opts;
    opts.injectionRate = 0.0365;
    opts.warmupCycles = 1234;
    opts.measureCycles = 56789;
    opts.drainCycles = 99999;
    opts.seed = 20260706;
    opts.controlFraction = 0.125;
    opts.collectMetrics = true;
    opts.telemetryEpoch = 500;
    opts.control.mode = SimControlMode::Adaptive;
    opts.control.minWarmupCycles = 3000;
    opts.control.warmupEpochs = 5;
    opts.control.warmupTolerance = 0.0725;
    opts.control.ciTarget = 0.015;
    opts.control.ciConfidence = 0.99;
    opts.control.minBatches = 12;
    opts.control.epochsPerBatch = 2;
    opts.control.minMeasureCycles = 8000;
    opts.control.satEpochs = 6;
    opts.control.satDepthPerNode = 4.5;
    opts.control.satGrowthPerNode = 0.75;
    expectSimOptionsEqual(
        opts, simOptionsFromString(simOptionsToString(opts)));
}

TEST(ConfigIo, SimOptionsUnknownKeyFatal)
{
    EXPECT_DEATH((void)simOptionsFromString("no_such_key=1\n"),
                 "unknown key");
}

// Malformed values die with a diagnostic naming the key and the value
// instead of an uncaught exception, a silent truncation or wraparound,
// or a silent fallback.
TEST(ConfigIo, NonNumericValueFatal)
{
    EXPECT_DEATH((void)configFromString("radix_x=abc\n"),
                 "radix_x='abc' is not a number");
}

TEST(ConfigIo, TrailingJunkFatal)
{
    EXPECT_DEATH((void)configFromString("radix_x=8x\n"),
                 "radix_x='8x' is not a number");
    EXPECT_DEATH((void)configFromString("router_vcs=2,3z,2\n"),
                 "router_vcs='3z' is not a number");
}

TEST(ConfigIo, NegativeUnsignedFatal)
{
    EXPECT_DEATH((void)simOptionsFromString("measure_cycles=-1\n"),
                 "measure_cycles='-1' is not a number in range");
}

TEST(ConfigIo, UnknownSaPolicyFatal)
{
    // Switch allocation has one policy (rotating priority) and no
    // config key: any sa_policy value is an unknown key.
    EXPECT_DEATH((void)configFromString("sa_policy=round-robin\n"),
                 "unknown key 'sa_policy'");
}

TEST(ConfigIo, LoadedConfigSimulates)
{
    NetworkConfig cfg = configFromString(
        configToString(makeLayoutConfig(LayoutKind::DiagonalBL)));
    Network net(cfg);
    net.enqueuePacket(0, 63, cfg.dataPacketFlits());
    net.run(300);
    EXPECT_EQ(net.packetsDelivered(), 1u);
}

} // namespace
} // namespace hnoc
