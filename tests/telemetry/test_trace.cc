/**
 * @file
 * TraceObserver tests: the Chrome-trace JSON round-trip (emit, then
 * parse with the strict telemetry JsonValue parser and validate the
 * event structure), the per-packet latency decomposition, the JSONL
 * flit log, and the event/packet caps. The parser accepts exactly the
 * JSON grammar (see tests/telemetry/test_json_reader.cc), so these
 * tests also pin down that the emitter never produces malformed
 * documents (trailing commas, bad escapes, NaN literals).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "noc/flit.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/trace.hh"

namespace hnoc
{
namespace
{

using Jv = JsonValue;

// ------------------------------------------------ synthetic journey --

TEST(TraceObserver, SyntheticJourneyDecomposesLatency)
{
    TraceObserver obs;

    Packet pkt;
    pkt.id = 42;
    pkt.src = 0;
    pkt.dst = 9;
    pkt.numFlits = 4;
    pkt.createdAt = 5;
    pkt.injectedAt = 8;
    pkt.ejectedAt = 40;

    Flit head;
    head.pkt = &pkt;
    head.type = FlitType::Head;
    head.seq = 0;
    head.vc = 1;

    obs.onPacketCreated(pkt, 5);
    obs.onFlitArrive(2, 3, head, 10); // router 2: 4-cycle residency
    obs.onFlitDepart(2, 1, head, 14);
    obs.onFlitArrive(7, 0, head, 16); // router 7: 5-cycle residency
    obs.onFlitDepart(7, 2, head, 21);
    obs.onPacketDelivered(pkt, 40);

    ASSERT_EQ(obs.packets().size(), 1u);
    const TraceObserver::PacketRecord &rec = obs.packets()[0];
    EXPECT_EQ(rec.id, 42u);
    EXPECT_EQ(rec.queueing(), 3u);
    EXPECT_EQ(rec.network(), 32u);
    EXPECT_EQ(rec.hopSum(), 9u);
    EXPECT_EQ(rec.serialization(), 23u);
    ASSERT_EQ(rec.hops.size(), 2u);
    EXPECT_EQ(rec.hops[0].router, 2);
    EXPECT_EQ(rec.hops[1].router, 7);

    // Round-trip the Chrome trace and check the exact events.
    Jv doc;
    ASSERT_TRUE(parseJson(obs.chromeTraceJson(), doc));
    const Jv *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    int spans_b = 0;
    int spans_e = 0;
    int slices = 0;
    std::vector<std::string> thread_names;
    for (const Jv &ev : events->array) {
        std::string ph = ev.strAt("ph");
        if (ph == "M") {
            if (ev.strAt("name") == "thread_name")
                thread_names.push_back(
                    ev.find("args")->strAt("name"));
        } else if (ph == "b") {
            ++spans_b;
            EXPECT_EQ(ev.numAt("id"), 42.0);
            EXPECT_EQ(ev.numAt("ts"), 8.0);
            EXPECT_EQ(ev.find("args")->numAt("flits"), 4.0);
        } else if (ph == "e") {
            ++spans_e;
            EXPECT_EQ(ev.numAt("ts"), 40.0);
            const Jv *args = ev.find("args");
            ASSERT_NE(args, nullptr);
            EXPECT_EQ(args->numAt("queueing_cycles"), 3.0);
            EXPECT_EQ(args->numAt("network_cycles"), 32.0);
            EXPECT_EQ(args->numAt("hop_cycles"), 9.0);
            EXPECT_EQ(args->numAt("serialization_cycles"), 23.0);
            EXPECT_EQ(args->numAt("hops"), 2.0);
        } else if (ph == "X") {
            ++slices;
            if (ev.numAt("tid") == 2.0)
                EXPECT_EQ(ev.numAt("dur"), 4.0);
            else
                EXPECT_EQ(ev.numAt("dur"), 5.0);
        }
    }
    EXPECT_EQ(spans_b, 1);
    EXPECT_EQ(spans_e, 1);
    EXPECT_EQ(slices, 2);
    ASSERT_EQ(thread_names.size(), 2u);
    EXPECT_EQ(thread_names[0], "router 2");
    EXPECT_EQ(thread_names[1], "router 7");
}

// ------------------------------------------------ end-to-end traces --

SimPointOptions
traceOptions()
{
    SimPointOptions opts;
    opts.injectionRate = 0.02;
    opts.warmupCycles = 200;
    opts.measureCycles = 800;
    opts.drainCycles = 2000;
    return opts;
}

TEST(TraceObserver, EndToEndChromeTraceRoundTrips)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg; // baseline 8x8
    SimPointOptions opts = traceOptions();
    TraceObserver obs;
    opts.observer = &obs;
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    (void)res;

    ASSERT_GT(obs.packets().size(), 0u);
    EXPECT_EQ(obs.droppedEvents(), 0u);
    EXPECT_EQ(obs.droppedPackets(), 0u);

    Jv doc;
    ASSERT_TRUE(parseJson(obs.chromeTraceJson(), doc));
    EXPECT_EQ(doc.find("otherData")->numAt("dropped_events"), 0.0);
    const Jv *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);

    std::size_t spans_b = 0;
    std::size_t spans_e = 0;
    std::size_t slices = 0;
    for (const Jv &ev : events->array) {
        std::string ph = ev.strAt("ph");
        EXPECT_NE(ev.find("pid"), nullptr);
        if (ph == "b")
            ++spans_b;
        else if (ph == "e")
            ++spans_e;
        else if (ph == "X") {
            EXPECT_GE(ev.numAt("dur"), 0.0);
            double tid = ev.numAt("tid");
            EXPECT_GE(tid, 0.0);
            EXPECT_LT(tid, 64.0);
        }
        if (ph == "X")
            ++slices;
    }
    // One b/e pair per delivered packet, at least one hop slice each.
    EXPECT_EQ(spans_b, obs.packets().size());
    EXPECT_EQ(spans_e, obs.packets().size());
    EXPECT_GE(slices, obs.packets().size());

    // Decomposition identity on every record: hop + serialization
    // reassemble the network latency exactly.
    for (const TraceObserver::PacketRecord &rec : obs.packets()) {
        EXPECT_GE(rec.hops.size(), 1u);
        EXPECT_EQ(rec.hopSum() + rec.serialization(), rec.network());
        EXPECT_GE(rec.ejected, rec.injected);
        EXPECT_GE(rec.injected, rec.created);
    }
}

TEST(TraceObserver, FlitLogLinesAreValidJson)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    opts.measureCycles = 400;
    TraceObserver obs;
    opts.observer = &obs;
    runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);

    std::string log = obs.flitLogJsonl();
    ASSERT_FALSE(log.empty());
    std::size_t lines = 0;
    std::size_t start = 0;
    while (start < log.size()) {
        std::size_t nl = log.find('\n', start);
        ASSERT_NE(nl, std::string::npos) << "log must end in newline";
        Jv line;
        ASSERT_TRUE(parseJson(log.substr(start, nl - start), line))
            << "line " << lines;
        std::string ev = line.strAt("ev");
        EXPECT_TRUE(ev == "arr" || ev == "dep") << ev;
        EXPECT_NE(line.find("t"), nullptr);
        EXPECT_NE(line.find("r"), nullptr);
        EXPECT_NE(line.find("vc"), nullptr);
        EXPECT_NE(line.find("seq"), nullptr);
        ++lines;
        start = nl + 1;
    }
    EXPECT_EQ(lines, obs.eventCount());
}

TEST(TraceObserver, CapsBoundMemoryAndAreReported)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    TraceOptions cap;
    cap.maxEvents = 64;
    cap.maxPackets = 3;
    TraceObserver obs(cap);
    opts.observer = &obs;
    runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);

    EXPECT_EQ(obs.eventCount(), 64u);
    EXPECT_GT(obs.droppedEvents(), 0u);
    EXPECT_LE(obs.packets().size(), 3u);
    EXPECT_GT(obs.droppedPackets(), 0u);

    // The truncated trace is still a valid document and reports the
    // drop counts so readers know it is partial.
    Jv doc;
    ASSERT_TRUE(parseJson(obs.chromeTraceJson(), doc));
    const Jv *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->numAt("dropped_events"),
              static_cast<double>(obs.droppedEvents()));
    EXPECT_EQ(other->numAt("dropped_packets"),
              static_cast<double>(obs.droppedPackets()));
}

TEST(TraceObserver, ResetClearsAllState)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    opts.measureCycles = 400;
    TraceObserver obs;
    opts.observer = &obs;
    runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    ASSERT_GT(obs.eventCount(), 0u);

    obs.reset();
    EXPECT_EQ(obs.eventCount(), 0u);
    EXPECT_EQ(obs.packets().size(), 0u);
    EXPECT_EQ(obs.droppedEvents(), 0u);
    EXPECT_TRUE(obs.flitLogJsonl().empty());
    Jv doc;
    ASSERT_TRUE(parseJson(obs.chromeTraceJson(), doc));
    // Only the process_name metadata event remains.
    ASSERT_NE(doc.find("traceEvents"), nullptr);
    EXPECT_EQ(doc.find("traceEvents")->array.size(), 1u);
}

} // namespace
} // namespace hnoc
