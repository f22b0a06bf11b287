/**
 * @file
 * Watchdog and network-interface behaviour tests.
 */

#include <vector>

#include <gtest/gtest.h>

#include "heteronoc/layout.hh"
#include "noc/watchdog.hh"

namespace hnoc
{
namespace
{

TEST(Watchdog, QuietNetworkNeverTrips)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    ProgressWatchdog dog(100);
    for (int i = 0; i < 500; ++i) {
        net.step();
        EXPECT_TRUE(dog.check(net));
    }
}

TEST(Watchdog, TripsWhenDeliveryStops)
{
    // Simulate "stuck" by never stepping the network after injection:
    // in-flight stays > 0 and now() does not advance past the window
    // until we step. Step without progress is impossible in a healthy
    // network, so emulate by injecting into a network we keep stepping
    // while packets flow, then checking the watchdog math directly.
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    ProgressWatchdog dog(200); // comfortably above the ~52-cycle trip
    net.enqueuePacket(0, 63, 6);
    // Healthy run: no trip while the packet is delivered.
    bool ok = true;
    for (int i = 0; i < 200; ++i) {
        net.step();
        ok = ok && dog.check(net);
    }
    EXPECT_TRUE(ok);
    EXPECT_EQ(net.packetsInFlight(), 0u);

    // Now fabricate a stall: enqueue to a full-speed network but stop
    // consuming time progress checks against a stale watchdog window.
    Network net2(makeLayoutConfig(LayoutKind::Baseline));
    ProgressWatchdog dog2(10);
    net2.enqueuePacket(0, 63, 6);
    // Step only the cycle counter far enough without letting the
    // packet finish: use a tiny window so delivery at ~50 cycles is
    // "too late".
    bool tripped = false;
    for (int i = 0; i < 30 && !tripped; ++i) {
        net2.step();
        tripped = !dog2.check(net2);
    }
    EXPECT_TRUE(tripped) << "a 10-cycle window must trip before the "
                            "~50-cycle delivery";
}

TEST(Watchdog, OneWarningPerStalledWindow)
{
    // A persistent stall must warn once per elapsed window, not once
    // per check() call: the trip restarts the window.
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    ProgressWatchdog dog(10);
    net.enqueuePacket(0, 63, 6);

    std::vector<Cycle> trip_cycles;
    for (int i = 0; i < 45; ++i) {
        net.step();
        if (!dog.check(net))
            trip_cycles.push_back(net.now());
    }
    // ~45 cycles before delivery with a 10-cycle window: a re-warn
    // storm would produce tens of trips; windowed warning produces a
    // handful, each at least one full window apart.
    ASSERT_GE(trip_cycles.size(), 2u);
    EXPECT_LE(trip_cycles.size(), 5u);
    for (std::size_t i = 1; i < trip_cycles.size(); ++i)
        EXPECT_GT(trip_cycles[i] - trip_cycles[i - 1], 10u)
            << "trips " << i - 1 << " and " << i;
    EXPECT_EQ(dog.trips(), trip_cycles.size());
}

TEST(Watchdog, TripDiagnosticsIncludeTelemetrySummary)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    auto reg = net.makeMetricRegistry(1000);
    net.attachTelemetry(reg.get());

    ProgressWatchdog dog(10);
    net.enqueuePacket(0, 63, 6);
    bool tripped = false;
    for (int i = 0; i < 40 && !tripped; ++i) {
        net.step();
        tripped = !dog.check(net);
    }
    ASSERT_TRUE(tripped);
    EXPECT_EQ(dog.trips(), 1u);

    // The captured snapshot carries both the occupancy dump and the
    // registry's hot-spot summary.
    const std::string &diag = dog.lastDiagnostics();
    EXPECT_FALSE(diag.empty());
    EXPECT_NE(diag.find("telemetry:"), std::string::npos) << diag;
    EXPECT_NE(diag.find("hottest routers"), std::string::npos) << diag;

    net.detachTelemetry();
}

TEST(NetworkInterface, SourceQueueDrainsInOrder)
{
    // Packets from the same node to the same destination must arrive
    // in creation order (same VC stream or ordered VCs): a short queue,
    // and a backlog far longer than any fixed ring the queue could
    // have started in.
    struct OrderCheck : NetworkClient
    {
        std::vector<PacketId> order;
        void
        onPacketDelivered(Network &, Packet &pkt, Cycle) override
        {
            order.push_back(pkt.id);
        }
    };

    for (int packets : {3, 240}) {
        SCOPED_TRACE(packets);
        OrderCheck check;
        Network net(makeLayoutConfig(LayoutKind::Baseline));
        net.setClient(&check);
        std::vector<PacketId> sent;
        for (int i = 0; i < packets; ++i)
            sent.push_back(net.enqueuePacket(0, 63, 6)->id);
        EXPECT_EQ(net.totalSourceQueueDepth(),
                  static_cast<std::size_t>(packets));
        net.run(400 + 10 * packets);
        EXPECT_EQ(net.totalSourceQueueDepth(), 0u);
        EXPECT_EQ(check.order, sent);
    }
}

TEST(NetworkInterface, QueueDepthVisible)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    for (int i = 0; i < 20; ++i)
        net.enqueuePacket(5, 60, 6);
    EXPECT_GT(net.totalSourceQueueDepth(), 0u);
    net.run(2000);
    EXPECT_EQ(net.totalSourceQueueDepth(), 0u);
}

} // namespace
} // namespace hnoc
