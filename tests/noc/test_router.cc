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

TEST(Channel, DelayPipe)
{
    Channel ch(0, 192, 1, 2, 1);
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
    Channel ch(0, 192, 1, 2, 1);
    ch.sendCredit(2, 5);
    std::vector<VcId> credits;
    auto collect = [&](VcId vc) { credits.push_back(vc); };
    EXPECT_EQ(ch.deliverCreditsTo(5, collect), 0);
    EXPECT_EQ(ch.deliverCreditsTo(6, collect), 1);
    EXPECT_EQ(credits[0], 2);
}

TEST(Channel, PairTrackingAndUtilization)
{
    Channel ch(0, 256, 2, 1, 1);
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
    Channel ch(0, 192, 1, 1, 1);
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

} // namespace
} // namespace hnoc
