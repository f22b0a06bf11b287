/**
 * @file
 * FlitTrace tests: the Chrome-trace JSON round-trip (render from a
 * flight recorder, then parse with the strict telemetry JsonValue
 * parser and validate the event structure), the per-packet latency
 * decomposition, the JSONL flit log, and newest-window retention.
 * The parser accepts exactly the JSON grammar (see
 * tests/telemetry/test_json_reader.cc), so these tests also pin down
 * that the emitter never produces malformed documents (trailing
 * commas, bad escapes, NaN literals).
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

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

TEST(FlitTrace, SyntheticJourneyDecomposesLatency)
{
    // Packet 42, node 0 -> node 9, 4 flits: created at 5, launched at
    // 8, ejected at 40.
    FlightRecorder fr(64);
    fr.record(FrKind::Inject, 5, 0, -1, -1, 42, true, 4);
    fr.record(FrKind::Launch, 8, 0, -1, 1, 42, true);
    fr.record(FrKind::FlitIn, 10, 2, 3, 1, 42, true); // router 2: 4 cycles
    fr.record(FrKind::FlitOut, 14, 2, 1, 1, 42, true);
    fr.record(FrKind::FlitIn, 16, 7, 0, 1, 42, true); // router 7: 5 cycles
    fr.record(FrKind::FlitOut, 21, 7, 2, 1, 42, true);
    fr.record(FrKind::Eject, 40, 9, -1, -1, 42, true);
    FlitTrace obs(fr);

    ASSERT_EQ(obs.packets().size(), 1u);
    const FlitTrace::PacketRecord &rec = obs.packets()[0];
    EXPECT_EQ(rec.id, 42u);
    EXPECT_EQ(rec.src, 0);
    EXPECT_EQ(rec.dst, 9);
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
    opts.flightRecorder = true;
    opts.flightRecorderCapacity = 1u << 20;
    return opts;
}

TEST(FlitTrace, EndToEndChromeTraceRoundTrips)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg; // baseline 8x8
    SimPointResult res = runOpenLoop(cfg, TrafficPattern::UniformRandom,
                                     traceOptions());
    ASSERT_NE(res.flightRecorder, nullptr);
    FlitTrace obs(*res.flightRecorder);

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
    for (const FlitTrace::PacketRecord &rec : obs.packets()) {
        EXPECT_GE(rec.hops.size(), 1u);
        EXPECT_EQ(rec.hopSum() + rec.serialization(), rec.network());
        EXPECT_GE(rec.ejected, rec.injected);
        EXPECT_GE(rec.injected, rec.created);
    }
}

TEST(FlitTrace, FlitLogLinesAreValidJson)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    opts.measureCycles = 400;
    FlitTrace obs(*runOpenLoop(cfg, TrafficPattern::UniformRandom, opts)
                       .flightRecorder);

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

TEST(FlitTrace, KeepsTheNewestWindowAndReportsDrops)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    opts.flightRecorderCapacity = 4096;
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    const FlightRecorder &fr = *res.flightRecorder;
    FlitTrace obs(fr);

    EXPECT_LE(obs.eventCount(), fr.capacity());
    EXPECT_GT(obs.eventCount(), 0u);
    EXPECT_GT(obs.droppedEvents(), 0u);
    EXPECT_EQ(obs.droppedEvents(), fr.overwritten());
    EXPECT_GT(obs.droppedPackets(), 0u);
    // The held window is the newest, not the first: a full ring whose
    // oldest event is past warmup.
    std::vector<FlightRecorder::Event> held = fr.snapshot();
    ASSERT_EQ(held.size(), fr.capacity());
    EXPECT_GT(held.front().t, opts.warmupCycles);

    // The truncated trace is still a valid document and reports the
    // drop counts so readers know it is partial.
    Jv doc;
    ASSERT_TRUE(parseJson(obs.chromeTraceJson(), doc));
    const Jv *other = doc.find("otherData");
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->numAt("dropped_events"),
              static_cast<double>(fr.overwritten()));
    EXPECT_EQ(other->numAt("dropped_packets"),
              static_cast<double>(obs.droppedPackets()));
}

TEST(FlitTrace, ClearedRecorderRendersEmpty)
{
    if (!kTelemetryEnabled)
        GTEST_SKIP() << "hot-path hooks compiled out (HNOC_TELEMETRY=OFF)";
    NetworkConfig cfg;
    SimPointOptions opts = traceOptions();
    opts.measureCycles = 400;
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    ASSERT_GT(FlitTrace(*res.flightRecorder).eventCount(), 0u);

    res.flightRecorder->clear();
    FlitTrace obs(*res.flightRecorder);
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
