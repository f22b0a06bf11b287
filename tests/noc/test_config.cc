/**
 * @file
 * NetworkConfig unit tests: derived quantities, per-router overrides,
 * link-width modes, and physical-parameter extraction.
 */

#include <gtest/gtest.h>

#include "heteronoc/layout.hh"
#include "noc/network_config.hh"
#include "noc/sim_harness.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

TEST(NetworkConfig, PacketSizing)
{
    NetworkConfig cfg;
    cfg.flitWidthBits = 192;
    EXPECT_EQ(cfg.dataPacketFlits(), 6); // 1024 / 192 rounded up
    cfg.flitWidthBits = 128;
    EXPECT_EQ(cfg.dataPacketFlits(), 8);
    cfg.flitWidthBits = 96;
    EXPECT_EQ(cfg.dataPacketFlits(), 11);
}

TEST(NetworkConfig, DefaultsAndOverrides)
{
    NetworkConfig cfg;
    EXPECT_EQ(cfg.vcsOf(0), 3);
    EXPECT_EQ(cfg.widthOf(7), 192);
    cfg.routerVcs.assign(64, 2);
    cfg.routerVcs[5] = 6;
    EXPECT_EQ(cfg.vcsOf(5), 6);
    EXPECT_EQ(cfg.vcsOf(6), 2);
}

TEST(NetworkConfig, EndpointMaxChannelWidths)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    // Router 0 (0,0) is big; router 1 (1,0) is small; router 2 small.
    EXPECT_EQ(cfg.channelBits(0, 1), 256); // small-big: wide
    EXPECT_EQ(cfg.channelBits(1, 2), 128); // small-small: narrow
    EXPECT_EQ(cfg.channelBits(27, 28), 256); // big-big center
    EXPECT_EQ(cfg.localChannelBits(0), 256);
    EXPECT_EQ(cfg.localChannelBits(1), 128);
}

TEST(NetworkConfig, PhysParamsCarryFlitWidthAsBufferWidth)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    RouterPhysParams big = cfg.physParamsOf(0, 5); // diagonal corner
    EXPECT_EQ(big.vcsPerPort, 6);
    EXPECT_EQ(big.datapathBits, 256);
    EXPECT_EQ(big.bufferWidthBits, 128); // §3.2: 128 b FIFOs
    EXPECT_EQ(big, router_types::BIG);

    RouterPhysParams small = cfg.physParamsOf(1, 5);
    EXPECT_EQ(small, router_types::SMALL);
}

TEST(NetworkConfig, BaselinePhysParamsMatchAnchor)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    EXPECT_EQ(cfg.physParamsOf(27, 5), router_types::BASELINE);
}

TEST(NetworkConfig, WorstCaseClockRule)
{
    // Hetero configs derive 2.07 GHz from the 6-VC big routers.
    Network base(makeLayoutConfig(LayoutKind::Baseline));
    EXPECT_NEAR(base.clockGHz(), 2.20, 1e-9);
    Network het(makeLayoutConfig(LayoutKind::DiagonalBL));
    EXPECT_NEAR(het.clockGHz(), 2.07, 1e-9);
    // Even the buffer-only layouts pay the big-router clock (§3.4).
    Network b_only(makeLayoutConfig(LayoutKind::CenterB));
    EXPECT_NEAR(b_only.clockGHz(), 2.07, 1e-9);
    // Explicit override wins.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.clockGHz = 1.0;
    Network fixed(cfg);
    EXPECT_DOUBLE_EQ(fixed.clockGHz(), 1.0);
}

TEST(NetworkConfig, MinTransferScalesWithDistanceAndSize)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    EXPECT_LT(net.minTransferCycles(0, 1, 1),
              net.minTransferCycles(0, 63, 1));
    EXPECT_LT(net.minTransferCycles(0, 63, 1),
              net.minTransferCycles(0, 63, 6));
    // One extra flit = one extra cycle on single-lane paths.
    EXPECT_EQ(net.minTransferCycles(0, 63, 6) -
                  net.minTransferCycles(0, 63, 5),
              1u);
}

class WorkloadValidity
    : public ::testing::TestWithParam<WorkloadProfile>
{};

TEST_P(WorkloadValidity, ParametersInRange)
{
    const WorkloadProfile &w = GetParam();
    EXPECT_GT(w.memRatio, 0.0);
    EXPECT_LT(w.memRatio, 1.0);
    EXPECT_GE(w.readFrac, 0.0);
    EXPECT_LE(w.readFrac, 1.0);
    EXPECT_GE(w.hotFrac, 0.0);
    EXPECT_LE(w.hotFrac, 1.0);
    EXPECT_GT(w.hotBlocks, 0);
    EXPECT_GT(w.privateBlocks, w.hotBlocks);
    EXPECT_GE(w.sharedFrac, 0.0);
    EXPECT_LT(w.sharedFrac, 0.5);
    EXPECT_GT(w.sharedBlocks, 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadValidity,
    ::testing::ValuesIn(allWorkloads()),
    [](const ::testing::TestParamInfo<WorkloadProfile> &info) {
        std::string n = info.param.name;
        for (char &c : n)
            if (!std::isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(SimScale, DefaultsToOne)
{
    // Unless HNOC_SIM_SCALE is exported, scaling is the identity.
    if (!std::getenv("HNOC_SIM_SCALE")) {
        EXPECT_DOUBLE_EQ(simScale(), 1.0);
    }
}

TEST(SimScale, ParsesTheWholeValueOrFails)
{
    EXPECT_DOUBLE_EQ(parseSimScale(nullptr), 1.0);
    EXPECT_DOUBLE_EQ(parseSimScale("0.1"), 0.1);
    EXPECT_DOUBLE_EQ(parseSimScale("2"), 2.0);
    // In-form but not positive: the identity.
    EXPECT_DOUBLE_EQ(parseSimScale("0"), 1.0);
    EXPECT_DOUBLE_EQ(parseSimScale("-3"), 1.0);
    EXPECT_EXIT(parseSimScale("0.1x"), ::testing::ExitedWithCode(1),
                "HNOC_SIM_SCALE='0.1x'");
    EXPECT_EXIT(parseSimScale("abc"), ::testing::ExitedWithCode(1),
                "HNOC_SIM_SCALE='abc'");
}

} // namespace
} // namespace hnoc
