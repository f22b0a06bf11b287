/**
 * @file
 * Probe fan-out: one run with every event consumer attached (metric
 * registry, flight recorder, blame collector) must simulate exactly
 * like a detached run, and each consumer must produce byte-for-byte
 * what it produces when attached alone; so must the trace rendered
 * from the recorder.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/trace.hh"

namespace hnoc
{
namespace
{

/** Which consumers a run attaches. */
struct Consumers
{
    bool registry = false;
    bool recorder = false;
    bool blame = false;
};

/** A run's simulated outcome plus each attached consumer's output. */
struct RunOutputs
{
    std::string simulated;
    std::string registry;
    std::string recorder;
    std::string trace;
    std::string blame;
};

/** Sums delivered packet latencies (a simulated result). */
class LatencySum : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &, Packet &pkt, Cycle now) override
    {
        sum += now - pkt.createdAt;
    }

    std::uint64_t sum = 0;
};

RunOutputs
runWith(const Consumers &c)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    Network net(cfg);
    LatencySum client;
    net.setClient(&client);
    std::unique_ptr<MetricRegistry> reg;
    FlightRecorder recorder(1u << 16);
    std::unique_ptr<BlameCollector> blame;
    if (c.registry) {
        reg = net.makeMetricRegistry(500);
        net.attachTelemetry(reg.get());
    }
    if (c.recorder)
        net.attachFlightRecorder(&recorder);
    if (c.blame) {
        blame = net.makeBlameCollector();
        net.attachBlame(blame.get());
    }

    // Loaded injection, then a drain so every packet is delivered.
    int nodes = net.topology().numNodes();
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         net.topology().gridCols(), 5);
    for (Cycle t = 0; t < 2500; ++t) {
        for (NodeId n = 0; t < 1500 && n < nodes; ++n) {
            if (gen.shouldInject(n, 0.03, net.now())) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
    if (reg)
        net.detachTelemetry();
    EXPECT_EQ(net.packetsInFlight(), 0u);

    RunOutputs out;
    JsonWriter w;
    w.beginObject();
    w.keyValue("cycle", static_cast<std::uint64_t>(net.now()));
    w.keyValue("injected", net.packetsInjected());
    w.keyValue("delivered", net.packetsDelivered());
    w.keyValue("flits", net.flitsDelivered());
    w.keyValue("latency_sum", client.sum);
    w.keyValue("power_w", net.powerReport().total());
    w.keyValue("combine_rate", net.combineRate());
    w.keyArray("buffer_util", net.bufferUtilizationPercent());
    w.keyArray("link_util", net.linkUtilizationPercent());
    w.endObject();
    out.simulated = w.str();
    if (reg)
        out.registry = reg->json();
    if (c.recorder) {
        JsonWriter rw;
        recorder.writeJson(rw);
        out.recorder = rw.str();
        FlitTrace trace(recorder);
        EXPECT_GT(trace.packets().size(), 0u);
        out.trace = trace.chromeTraceJson();
    }
    if (blame) {
        EXPECT_GT(blame->packets(), 0u);
        EXPECT_EQ(blame->identityViolations(), 0u);
        out.blame = blame->json();
    }
    return out;
}

TEST(ProbeFanOut, EveryConsumerMatchesDetachedAndSoloRuns)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";

    Consumers all;
    all.registry = all.recorder = all.blame = true;
    RunOutputs fan = runWith(all);
    EXPECT_EQ(fan.simulated, runWith(Consumers{}).simulated);

    Consumers solo;
    solo.registry = true;
    EXPECT_EQ(fan.registry, runWith(solo).registry);
    solo = Consumers{};
    solo.recorder = true;
    RunOutputs solo_recorder = runWith(solo);
    EXPECT_EQ(fan.recorder, solo_recorder.recorder);
    EXPECT_EQ(fan.trace, solo_recorder.trace);
    solo = Consumers{};
    solo.blame = true;
    EXPECT_EQ(fan.blame, runWith(solo).blame);

    EXPECT_NE(fan.registry.find("link_flits"), std::string::npos);
    EXPECT_FALSE(fan.recorder.empty());
    EXPECT_FALSE(fan.trace.empty());
    EXPECT_FALSE(fan.blame.empty());
}

} // namespace
} // namespace hnoc
