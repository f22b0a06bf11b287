/**
 * @file
 * Channel and router micro-tests: delay pipes, lane accounting,
 * credit conservation and wide-link flit combining.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "heteronoc/layout.hh"
#include "noc/channel.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

/** A standalone channel with its pipes placed in its own arena. */
struct PlacedChannel
{
    HotArena arena;
    Channel ch;

    PlacedChannel(int width_bits, int lanes, int flit_delay,
                  int credit_delay)
        : ch(0, width_bits, lanes, flit_delay, credit_delay)
    {
        arena.reserve(ch.arenaBytes());
        ch.place(arena);
    }
};

TEST(Channel, DelayPipe)
{
    PlacedChannel placed(192, 1, 2, 1);
    Channel &ch = placed.ch;
    Packet pkt;
    Flit f;
    f.pkt = &pkt;
    ch.sendFlit(f, 10);

    std::vector<Flit> out;
    auto collect = [&](const Flit &fl) { out.push_back(fl); };
    EXPECT_EQ(ch.deliverFlitsTo(11, collect), 0);
    EXPECT_EQ(ch.deliverFlitsTo(12, collect), 1);
    EXPECT_EQ(out.size(), 1u);
    EXPECT_TRUE(ch.idle());
}

TEST(Channel, CreditDelay)
{
    PlacedChannel placed(192, 1, 2, 1);
    Channel &ch = placed.ch;
    ch.sendCredit(2, 5);
    std::vector<VcId> credits;
    auto collect = [&](VcId vc) { credits.push_back(vc); };
    EXPECT_EQ(ch.deliverCreditsTo(5, collect), 0);
    EXPECT_EQ(ch.deliverCreditsTo(6, collect), 1);
    EXPECT_EQ(credits[0], 2);
}

TEST(Channel, PairTrackingAndUtilization)
{
    PlacedChannel placed(256, 2, 1, 1);
    Channel &ch = placed.ch;
    Packet pkt;
    Flit f;
    f.pkt = &pkt;
    ch.sendFlit(f, 1);
    ch.sendFlit(f, 1); // paired
    ch.sendFlit(f, 2); // alone
    EXPECT_EQ(ch.flitsSent(), 3u);
    EXPECT_EQ(ch.busyCycles(), 2u);
    EXPECT_EQ(ch.pairedCycles(), 1u);
    EXPECT_NEAR(ch.laneUtilization(10), 3.0 / 20.0, 1e-12);
}

TEST(Channel, OversubscriptionPanics)
{
    PlacedChannel placed(192, 1, 1, 1);
    Channel &ch = placed.ch;
    Packet pkt;
    Flit f;
    f.pkt = &pkt;
    ch.sendFlit(f, 1);
    EXPECT_DEATH(ch.sendFlit(f, 1), "oversubscribed");
}

TEST(Router, CombiningOccursOnWideLinks)
{
    // In Diagonal+BL, drive heavy traffic through a diagonal (big)
    // router and verify wide channels carry pairs.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    Rng rng(5);
    for (Cycle t = 0; t < 4000; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.04) {
                auto dst =
                    static_cast<NodeId>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
    EXPECT_GT(net.combineRate(), 0.02);
}

TEST(Router, NoCombiningInBaseline)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    for (NodeId n = 0; n < 32; ++n)
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
    net.run(1000);
    EXPECT_EQ(net.combineRate(), 0.0); // no wide channels exist
}

TEST(Router, BufferOccupancyBounded)
{
    // Credits must keep every VC FIFO within its 5-flit depth; the
    // receiveFlit overflow panic would fire otherwise. Stress at
    // saturation for a while.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    Rng rng(17);
    for (Cycle t = 0; t < 5000; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.1) {
                auto dst = static_cast<NodeId>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
    SUCCEED(); // no overflow panic under saturation stress
}

TEST(Router, IntraPacketPairingTogglable)
{
    // With pairing disabled, the combine rate should drop.
    NetworkConfig on = makeLayoutConfig(LayoutKind::DiagonalBL);
    NetworkConfig off = on;
    off.intraPacketPairing = false;

    auto run = [](const NetworkConfig &cfg) {
        Network net(cfg);
        Rng rng(9);
        for (Cycle t = 0; t < 4000; ++t) {
            for (NodeId n = 0; n < 64; ++n) {
                if (rng.uniform() < 0.05) {
                    auto dst = static_cast<NodeId>(rng.below(63));
                    if (dst >= n)
                        ++dst;
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
                }
            }
            net.step();
        }
        return net.combineRate();
    };
    EXPECT_GT(run(on), run(off));
}

TEST(Router, BufferOccupancyMatchesPerVcFifos)
{
    // The flit count alone drives busy() and the occupancy sum behind
    // the buffer heat map; it must equal what the input FIFOs hold.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    Rng rng(23);
    int loaded = 0;
    for (Cycle t = 1; t <= 2000; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.06) {
                auto dst = static_cast<NodeId>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        if (t % 250 != 0)
            continue;
        int total = 0;
        for (RouterId r = 0; r < cfg.numRouters(); ++r) {
            const Router &router = net.router(r);
            int fifos = 0;
            for (PortId p = 0; p < router.numPorts(); ++p)
                for (VcId v = 0; v < router.vcsPerPort(); ++v)
                    fifos += router.inputVcOccupancy(p, v);
            EXPECT_EQ(router.bufferOccupancy(), fifos)
                << "router " << r << " @ cycle " << t;
            total += fifos;
        }
        EXPECT_GT(total, 0) << "cycle " << t;
        ++loaded;
    }
    EXPECT_EQ(loaded, 8);
}

TEST(Utilization, NormalizesByCapacityAndLanesAndSkipsEjection)
{
    // Smallest mesh: two routers joined by one link each way. Every
    // channel, the NI links included, is two flit lanes wide.
    NetworkConfig cfg;
    cfg.radixX = 2;
    cfg.radixY = 1;
    cfg.uniformLinkBits = 2 * cfg.flitWidthBits;
    Network net(cfg);
    net.resetMeasurement();
    net.enqueuePacket(0, 1, 6);
    const Cycle window = 100;
    std::uint64_t occ[2] = {0, 0};
    for (Cycle c = 0; c < window; ++c) {
        net.step();
        for (RouterId r = 0; r < 2; ++r)
            occ[r] += static_cast<std::uint64_t>(
                net.router(r).bufferOccupancy());
    }
    ASSERT_EQ(net.packetsDelivered(), 1u);
    ASSERT_EQ(net.measuredCycles(), window);
    ASSERT_GT(occ[0], 0u);
    ASSERT_GT(occ[1], 0u);

    // Buffer: occupancy over capacity-cycles, where the capacity is
    // 5 ports x 3 VCs x 5 flits = 75 slots.
    std::vector<double> buf = net.bufferUtilizationPercent();
    ASSERT_EQ(buf.size(), 2u);
    EXPECT_DOUBLE_EQ(buf[0], 100.0 * static_cast<double>(occ[0]) / 7500.0);
    EXPECT_DOUBLE_EQ(buf[1], 100.0 * static_cast<double>(occ[1]) / 7500.0);

    // Links: router 0's one inter-router link carried the six flits on
    // two lanes, 6 / (2 x 100) = 3 %. Router 1's one inter-router link
    // carried nothing; its ejection link carried all six flits but is
    // not an inter-router link, so it does not count.
    std::vector<double> link = net.linkUtilizationPercent();
    ASSERT_EQ(link.size(), 2u);
    EXPECT_DOUBLE_EQ(link[0], 3.0);
    EXPECT_EQ(link[1], 0.0);
}

} // namespace
} // namespace hnoc
