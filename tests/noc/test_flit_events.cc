/**
 * @file
 * Flit-event tests on the flight recorder: event completeness, path
 * agreement, launch timing and detaching.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "heteronoc/layout.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

/** Lifecycle counts and the head path over a recorder's held events. */
struct EventCounts
{
    explicit EventCounts(const FlightRecorder &fr)
    {
        EXPECT_EQ(fr.overwritten(), 0u) << "ring too small for the test";
        for (const FlightRecorder::Event &e : fr.snapshot()) {
            switch (static_cast<FrKind>(e.kind)) {
              case FrKind::Inject: ++created; break;
              case FrKind::Launch: ++launched; break;
              case FrKind::Eject: ++delivered; break;
              case FrKind::FlitIn:
                ++arrivals;
                if (e.head)
                    headPath.push_back(e.router);
                break;
              case FrKind::FlitOut: ++departs; break;
              default: break;
            }
        }
    }

    int created = 0;
    int launched = 0;
    int delivered = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departs = 0;
    std::vector<RouterId> headPath;
};

TEST(FlitEvents, SeesFullPacketLifecycle)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    FlightRecorder fr(1u << 12);
    net.attachFlightRecorder(&fr);

    net.enqueuePacket(0, 63, 6);
    net.run(300);

    EventCounts c(fr);
    EXPECT_EQ(c.created, 1);
    EXPECT_EQ(c.delivered, 1);
    // 15 routers on the X-Y path, 6 flits each.
    EXPECT_EQ(c.arrivals, 15u * 6u);
    EXPECT_EQ(c.departs, 15u * 6u);
    // The head's router sequence equals the routing path.
    EXPECT_EQ(c.headPath,
              std::vector<RouterId>(net.routing().path(0, 63)));
}

TEST(FlitEvents, ArrivalsEqualDepartsAfterDrain)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    FlightRecorder fr(1u << 18);
    net.attachFlightRecorder(&fr);
    for (NodeId n = 0; n < 64; ++n)
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
    net.run(4000);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EventCounts c(fr);
    EXPECT_EQ(c.arrivals, c.departs);
    EXPECT_EQ(c.created, 64);
    EXPECT_EQ(c.delivered, 64);
}

/** Records each delivered packet's injectedAt by packet id. */
class InjectedAt : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &, Packet &pkt, Cycle) override
    {
        at[static_cast<std::uint32_t>(pkt.id)] = pkt.injectedAt;
    }

    std::map<std::uint32_t, Cycle> at;
};

TEST(FlitEvents, LaunchFiresOncePerPacketAtInjection)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    InjectedAt client;
    net.setClient(&client);
    FlightRecorder fr(1u << 18);
    net.attachFlightRecorder(&fr);
    // Two packets per source queue, so the second launches late.
    for (NodeId n = 0; n < 64; ++n) {
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
        net.enqueuePacket(n, (n + 9) % 64, 1);
    }
    net.run(4000);
    ASSERT_EQ(client.at.size(), 128u);

    std::map<std::uint32_t, int> launches;
    for (const FlightRecorder::Event &e : fr.snapshot()) {
        if (static_cast<FrKind>(e.kind) != FrKind::Launch)
            continue;
        ++launches[e.pkt];
        EXPECT_EQ(e.t, client.at[e.pkt]) << "packet " << e.pkt;
    }
    EXPECT_EQ(launches.size(), 128u);
    for (const auto &[pkt, n] : launches)
        EXPECT_EQ(n, 1) << "packet " << pkt;
}

TEST(FlitEvents, DetachingStopsEvents)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    FlightRecorder fr(1u << 12);
    net.attachFlightRecorder(&fr);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    std::uint64_t recorded = fr.totalRecorded();
    EXPECT_GT(recorded, 0u);
    net.attachFlightRecorder(nullptr);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    EXPECT_EQ(fr.totalRecorded(), recorded);
}

} // namespace
} // namespace hnoc
