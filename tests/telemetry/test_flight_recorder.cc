/**
 * @file
 * FlightRecorder tests: power-of-two capacity rounding, ring wrap and
 * overwrite accounting, snapshot ordering and last-N-cycles clipping,
 * and the JSON postmortem section round-tripped through the strict
 * telemetry reader.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "telemetry/flight_recorder.hh"
#include "telemetry/json_reader.hh"
#include "telemetry/json_writer.hh"

namespace hnoc
{
namespace
{

TEST(FlightRecorder, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(FlightRecorder(1).capacity(), 1u);
    EXPECT_EQ(FlightRecorder(2).capacity(), 2u);
    EXPECT_EQ(FlightRecorder(3).capacity(), 4u);
    EXPECT_EQ(FlightRecorder(1000).capacity(), 1024u);
    EXPECT_EQ(FlightRecorder(1u << 16).capacity(), 1u << 16);
}

TEST(FlightRecorder, RecordsAndWraps)
{
    FlightRecorder fr(8);
    ASSERT_EQ(fr.capacity(), 8u);

    for (int i = 0; i < 5; ++i)
        fr.record(FrKind::FlitIn, static_cast<Cycle>(10 + i), i, 1, 0,
                  100 + i, i == 0);
    EXPECT_EQ(fr.size(), 5u);
    EXPECT_EQ(fr.totalRecorded(), 5u);
    EXPECT_EQ(fr.overwritten(), 0u);

    // Push past capacity: the ring keeps only the newest 8.
    for (int i = 5; i < 20; ++i)
        fr.record(FrKind::FlitOut, static_cast<Cycle>(10 + i), i, 2, 1);
    EXPECT_EQ(fr.size(), 8u);
    EXPECT_EQ(fr.totalRecorded(), 20u);
    EXPECT_EQ(fr.overwritten(), 12u);

    // Snapshot is oldest -> newest over the survivors (events 12..19).
    std::vector<FlightRecorder::Event> events = fr.snapshot();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].t, static_cast<Cycle>(10 + 12 + i));
        EXPECT_EQ(events[i].router, static_cast<std::int16_t>(12 + i));
        if (i > 0) {
            EXPECT_GE(events[i].t, events[i - 1].t);
        }
    }
}

TEST(FlightRecorder, SnapshotClipsToLastCycles)
{
    FlightRecorder fr(64);
    for (int t = 0; t < 50; ++t)
        fr.record(FrKind::FlitIn, static_cast<Cycle>(t), 0, 0, 0);

    // Newest is t=49; a 10-cycle window keeps t in [39, 49].
    std::vector<FlightRecorder::Event> tail = fr.snapshot(10);
    ASSERT_FALSE(tail.empty());
    EXPECT_EQ(tail.front().t, 39u);
    EXPECT_EQ(tail.back().t, 49u);
    EXPECT_EQ(tail.size(), 11u);

    // A window wider than history keeps everything.
    EXPECT_EQ(fr.snapshot(1000).size(), 50u);
    // 0 means "no clipping".
    EXPECT_EQ(fr.snapshot(0).size(), 50u);
}

TEST(FlightRecorder, ClearDropsHistory)
{
    FlightRecorder fr(8);
    fr.record(FrKind::Inject, 1, 0, -1, -1, 7, true);
    ASSERT_EQ(fr.size(), 1u);
    fr.clear();
    EXPECT_EQ(fr.size(), 0u);
    EXPECT_EQ(fr.totalRecorded(), 0u);
    EXPECT_TRUE(fr.snapshot().empty());
}

TEST(FlightRecorder, EventStaysCompact)
{
    // The hot-path store stays a small fixed-size write: 24 bytes
    // (8-byte timestamp alignment pads the 22 payload bytes).
    EXPECT_EQ(sizeof(FlightRecorder::Event), 24u);
}

TEST(FlightRecorder, LaunchKindAndSeqSlot)
{
    FlightRecorder fr(4);
    fr.record(FrKind::Launch, 3, 5, -1, 2, 9, true);
    fr.record(FrKind::FlitIn, 4, 5, 4, 2, 9, false, 7);
    std::vector<FlightRecorder::Event> events = fr.snapshot();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(static_cast<FrKind>(events[0].kind), FrKind::Launch);
    EXPECT_STREQ(frKindName(FrKind::Launch), "launch");
    EXPECT_EQ(events[1].seq, 7u);

    // The postmortem schema carries the kind but not the seq slot.
    JsonWriter w;
    fr.writeJson(w);
    JsonValue doc;
    ASSERT_TRUE(parseJson(w.str(), doc));
    const std::vector<JsonValue> &json = doc.arrayAt("events");
    ASSERT_EQ(json.size(), 2u);
    EXPECT_EQ(json[0].strAt("ev"), "launch");
    EXPECT_EQ(json[1].find("seq"), nullptr);
}

TEST(FlightRecorder, JsonSectionRoundTrips)
{
    FlightRecorder fr(16);
    fr.record(FrKind::Inject, 5, 3, -1, -1, 42, true);
    fr.record(FrKind::FlitIn, 6, 3, 4, 1, 42, true);
    fr.record(FrKind::VaDeny, 7, 3, 4, 1, 42);
    fr.record(FrKind::VaGrant, 8, 3, 4, 1, 42);
    fr.record(FrKind::CreditStall, 9, 3, 2, 0, 42);
    fr.record(FrKind::FlitOut, 10, 3, 2, 0, 42, true);
    fr.record(FrKind::CreditOut, 10, 3, 4, 1);
    fr.record(FrKind::CreditIn, 12, 2, 1, 0);
    fr.record(FrKind::Eject, 20, 9, -1, -1, 42, true);

    JsonWriter w;
    fr.writeJson(w);
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(w.str(), doc, &err)) << err;

    EXPECT_DOUBLE_EQ(doc.numAt("capacity"), 16.0);
    EXPECT_DOUBLE_EQ(doc.numAt("recorded"), 9.0);
    EXPECT_DOUBLE_EQ(doc.numAt("overwritten"), 0.0);
    EXPECT_DOUBLE_EQ(doc.numAt("held"), 9.0);

    const std::vector<JsonValue> &events = doc.arrayAt("events");
    ASSERT_EQ(events.size(), 9u);

    // Spot-check the first and last events and the schema kind names.
    EXPECT_EQ(events[0].strAt("ev"), "inject");
    EXPECT_DOUBLE_EQ(events[0].numAt("t"), 5.0);
    EXPECT_DOUBLE_EQ(events[0].numAt("r"), 3.0);
    EXPECT_DOUBLE_EQ(events[0].numAt("pkt"), 42.0);
    EXPECT_DOUBLE_EQ(events[0].numAt("head"), 1.0);

    EXPECT_EQ(events[1].strAt("ev"), "flit_in");
    EXPECT_EQ(events[2].strAt("ev"), "va_deny");
    EXPECT_EQ(events[3].strAt("ev"), "va_grant");
    EXPECT_EQ(events[4].strAt("ev"), "credit_stall");
    EXPECT_EQ(events[5].strAt("ev"), "flit_out");
    EXPECT_EQ(events[6].strAt("ev"), "credit_out");
    EXPECT_EQ(events[7].strAt("ev"), "credit_in");

    // pkt/head are omitted when zero (credit events carry no packet).
    EXPECT_EQ(events[7].find("pkt"), nullptr);
    EXPECT_EQ(events[7].find("head"), nullptr);

    EXPECT_EQ(events[8].strAt("ev"), "eject");
    EXPECT_DOUBLE_EQ(events[8].numAt("t"), 20.0);

    // Clipped emission honors the same cutoff as snapshot(): newest
    // t=20, window 10 -> keep t >= 10 (flit_out, credit_out,
    // credit_in, eject).
    JsonWriter w2;
    fr.writeJson(w2, 10);
    JsonValue clipped;
    ASSERT_TRUE(parseJson(w2.str(), clipped, &err)) << err;
    const std::vector<JsonValue> &tail = clipped.arrayAt("events");
    ASSERT_EQ(tail.size(), 4u);
    EXPECT_EQ(tail[0].strAt("ev"), "flit_out");
    EXPECT_EQ(tail[3].strAt("ev"), "eject");
}

} // namespace
} // namespace hnoc
