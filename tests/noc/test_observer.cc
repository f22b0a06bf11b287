/**
 * @file
 * NetworkObserver tests: event completeness and path agreement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "heteronoc/layout.hh"
#include "noc/network.hh"

namespace hnoc
{
namespace
{

class CollectingObserver : public NetworkObserver
{
  public:
    void
    onPacketCreated(const Packet &, Cycle) override
    {
        ++created;
    }

    void
    onFlitArrive(RouterId router, PortId, const Flit &flit,
                 Cycle) override
    {
        ++arrivals;
        if (flit.isHead())
            headPath.push_back(router);
    }

    void
    onFlitDepart(RouterId, PortId, const Flit &, Cycle) override
    {
        ++departs;
    }

    void
    onPacketDelivered(const Packet &, Cycle) override
    {
        ++delivered;
    }

    int created = 0;
    int delivered = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departs = 0;
    std::vector<RouterId> headPath;
};

TEST(Observer, SeesFullPacketLifecycle)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);

    net.enqueuePacket(0, 63, 6);
    net.run(300);

    EXPECT_EQ(obs.created, 1);
    EXPECT_EQ(obs.delivered, 1);
    // 15 routers on the X-Y path, 6 flits each.
    EXPECT_EQ(obs.arrivals, 15u * 6u);
    EXPECT_EQ(obs.departs, 15u * 6u);
    // The head's router sequence equals the routing path.
    EXPECT_EQ(obs.headPath,
              std::vector<RouterId>(net.routing().path(0, 63)));
}

TEST(Observer, ArrivalsEqualDepartsAfterDrain)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);
    for (NodeId n = 0; n < 64; ++n)
        net.enqueuePacket(n, 63 - n, cfg.dataPacketFlits());
    net.run(4000);
    EXPECT_EQ(net.packetsInFlight(), 0u);
    EXPECT_EQ(obs.arrivals, obs.departs);
    EXPECT_EQ(obs.created, 64);
    EXPECT_EQ(obs.delivered, 64);
}

TEST(Observer, ClearingStopsEvents)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    CollectingObserver obs;
    net.setObserver(&obs);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    auto arrivals = obs.arrivals;
    net.setObserver(nullptr);
    net.enqueuePacket(0, 1, 6);
    net.run(100);
    EXPECT_EQ(obs.arrivals, arrivals);
}

} // namespace
} // namespace hnoc
