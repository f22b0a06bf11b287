/**
 * @file
 * Cross-feature integration: combinations of routing modes, link-width
 * modes, table routing and the CMP stack that no single-module test
 * exercises together.
 */

#include <gtest/gtest.h>

#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

TEST(CrossFeatures, CmpOnO1TurnNetwork)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.routing = RoutingMode::O1Turn;
    CmpSystem sys(cfg, CmpConfig{});
    sys.assignWorkloadAll(workloadByName("sclst"));
    sys.warmCaches(15000);
    sys.run(1500);
    sys.resetStats();
    sys.run(5000);
    EXPECT_GT(sys.avgIpc(), 0.05);
    for (NodeId n = 0; n < 64; ++n)
        sys.idleCore(n);
    sys.run(8000);
    EXPECT_EQ(sys.network().packetsInFlight(), 0u);
}

TEST(CrossFeatures, CmpOnCentralBandNetwork)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.linkWidthMode = LinkWidthMode::CentralBand;
    cfg.bandWideLinks = 4;
    CmpSystem sys(cfg, CmpConfig{});
    sys.assignWorkloadAll(workloadByName("fsim"));
    sys.warmCaches(15000);
    sys.run(6000);
    EXPECT_GT(sys.packetsSent(), 500u);
}

TEST(CrossFeatures, TableRoutingDeliversEverything)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {0, 63};
    Network net(cfg);
    std::uint64_t injected = 0;
    for (int round = 0; round < 15; ++round) {
        for (NodeId n = 0; n < 64; n += 3) {
            NodeId dst = (n + 13) % 64;
            if (dst == n)
                continue;
            net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            ++injected;
        }
        net.run(80);
    }
    Cycle guard = 50000;
    while (net.packetsInFlight() > 0 && guard-- > 0)
        net.step();
    EXPECT_EQ(net.packetsDelivered(), injected);
}

TEST(CrossFeatures, SerializedConfigDrivesCmp)
{
    // Full loop: build a config, serialize, reload, run a system.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::CenterBL);
    NetworkConfig loaded = configFromString(configToString(cfg));
    CmpConfig cmp;
    cmp.mcPlacement = McPlacement::Diamond;
    CmpSystem sys(loaded, cmp);
    sys.assignWorkloadAll(workloadByName("ddup"));
    sys.warmCaches(10000);
    sys.run(4000);
    EXPECT_GT(sys.packetsSent(), 200u);
    EXPECT_GT(sys.networkPower().total(), 0.0);
}

TEST(CrossFeatures, TorusCmpWithDiagonalMcs)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.topology = TopologyType::Torus;
    CmpConfig cmp;
    cmp.mcPlacement = McPlacement::Diagonal;
    CmpSystem sys(cfg, cmp);
    sys.assignWorkloadAll(workloadByName("SAP"));
    sys.warmCaches(15000);
    sys.run(5000);
    EXPECT_GT(sys.roundTripCoreCycles().count(), 50u);
}

} // namespace
} // namespace hnoc
