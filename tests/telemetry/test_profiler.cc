/**
 * @file
 * Profiler / MemoryAudit unit tests. The load-bearing guarantees:
 *
 *  - profiling is report-only: a network driven with a profiler
 *    attached produces bit-identical simulation results (delivery
 *    counts AND the full telemetry JSON) to the same network driven
 *    without one, so goldens never depend on whether --profile was
 *    passed;
 *  - merge() is a commutative accumulator sum, so merging the
 *    per-point profilers of a parallel sweep gives totals independent
 *    of join order;
 *  - the phase accounting identity holds: unattributedNs() ==
 *    max(0, step_total - sum of phase ns), and the JSON/table
 *    emitters expose the stable snake_case schema hnoc_inspect
 *    `profile` parses.
 *
 * MemoryAudit is covered both standalone (sum/normalize/skip-empty
 * semantics) and against a live Network::memoryAudit().
 */

#include <gtest/gtest.h>

#include <string>

#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"

namespace hnoc
{
namespace
{

// ------------------------------------------------------- accumulator --

TEST(Profiler, StartsEmptyAndAddAccumulates)
{
    Profiler p;
    for (int i = 0; i < static_cast<int>(ProfPhase::NumPhases); ++i) {
        EXPECT_EQ(p.ns(static_cast<ProfPhase>(i)), 0u);
        EXPECT_EQ(p.visits(static_cast<ProfPhase>(i)), 0u);
    }

    p.add(ProfPhase::VcAllocate, 100);
    p.add(ProfPhase::VcAllocate, 50, 3);
    EXPECT_EQ(p.ns(ProfPhase::VcAllocate), 150u);
    EXPECT_EQ(p.visits(ProfPhase::VcAllocate), 4u);

    p.reset();
    EXPECT_EQ(p.ns(ProfPhase::VcAllocate), 0u);
    EXPECT_EQ(p.visits(ProfPhase::VcAllocate), 0u);
}

TEST(Profiler, CyclesAreStepTotalVisits)
{
    Profiler p;
    p.add(ProfPhase::StepTotal, 10);
    p.add(ProfPhase::StepTotal, 12);
    EXPECT_EQ(p.cycles(), 2u);
}

TEST(Profiler, MergeIsOrderIndependent)
{
    Profiler a;
    a.add(ProfPhase::ChannelDelivery, 7, 2);
    a.add(ProfPhase::StepTotal, 100, 10);

    Profiler b;
    b.add(ProfPhase::ChannelDelivery, 13, 5);
    b.add(ProfPhase::SwitchAllocate, 41, 1);
    b.add(ProfPhase::StepTotal, 200, 20);

    Profiler ab = a;
    ab.merge(b);
    Profiler ba = b;
    ba.merge(a);

    for (int i = 0; i < static_cast<int>(ProfPhase::NumPhases); ++i) {
        auto ph = static_cast<ProfPhase>(i);
        EXPECT_EQ(ab.ns(ph), ba.ns(ph)) << profPhaseName(ph);
        EXPECT_EQ(ab.visits(ph), ba.visits(ph)) << profPhaseName(ph);
    }
    EXPECT_EQ(ab.ns(ProfPhase::ChannelDelivery), 20u);
    EXPECT_EQ(ab.visits(ProfPhase::ChannelDelivery), 7u);
    EXPECT_EQ(ab.cycles(), 30u);
    // The merged JSON documents are therefore identical too.
    EXPECT_EQ(ab.json(), ba.json());
}

// -------------------------------------------------------- accounting --

TEST(Profiler, UnattributedIsResidualOfStepTotal)
{
    Profiler p;
    p.add(ProfPhase::StepTotal, 100);
    p.add(ProfPhase::RouteCompute, 30);
    p.add(ProfPhase::SwitchAllocate, 30);
    EXPECT_EQ(p.attributedNs(), 60u);
    EXPECT_EQ(p.unattributedNs(), 40u);
}

TEST(Profiler, UnattributedClampsAtZero)
{
    // Nested scope granularity can make the phase sum exceed the
    // enclosing StepTotal by a hair; the residual must not wrap.
    Profiler p;
    p.add(ProfPhase::StepTotal, 100);
    p.add(ProfPhase::VcAllocate, 120);
    EXPECT_EQ(p.unattributedNs(), 0u);
}

// ------------------------------------------------------------ scopes --

TEST(ProfScope, DetachedScopeCollectsNothing)
{
    // The detached state is the hot-path default: hook sites resolve
    // `kTelemetryEnabled ? profiler_ : nullptr` and pass nullptr when
    // no profiler is attached.
    {
        ProfScope s(nullptr, ProfPhase::VcAllocate);
        (void)s;
    }
    SUCCEED();
}

TEST(ProfScope, AttachedScopeChargesOneVisit)
{
    Profiler p;
    {
        ProfScope s(&p, ProfPhase::NiInject);
        (void)s;
    }
    EXPECT_EQ(p.visits(ProfPhase::NiInject), 1u);
    // ns may legitimately be 0 on a coarse clock; visits must not be.
}

// ------------------------------------------------------------ schema --

TEST(Profiler, JsonCarriesStableSnakeCaseSchema)
{
    Profiler p;
    p.add(ProfPhase::StepTotal, 1000, 4);
    p.add(ProfPhase::ChannelDelivery, 250, 4);
    std::string j = p.json();

    EXPECT_NE(j.find("\"cycles\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"step_total_ns\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"unattributed_ns\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"phases\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"share_pct\""), std::string::npos) << j;
    // Every phase except the StepTotal envelope appears by name.
    for (int i = 0; i < static_cast<int>(ProfPhase::NumPhases); ++i) {
        auto ph = static_cast<ProfPhase>(i);
        if (ph == ProfPhase::StepTotal)
            continue;
        std::string key =
            std::string("\"") + profPhaseName(ph) + "\"";
        EXPECT_NE(j.find(key), std::string::npos) << key << "\n" << j;
    }
    EXPECT_EQ(j.find("\"step_total\":"), std::string::npos) << j;
}

TEST(Profiler, TableListsPhases)
{
    Profiler p;
    p.add(ProfPhase::StepTotal, 1000, 4);
    p.add(ProfPhase::VcAllocate, 100, 4);
    std::string t = p.table();
    EXPECT_NE(t.find("vc_allocate"), std::string::npos) << t;
    EXPECT_NE(t.find("channel_delivery"), std::string::npos) << t;
}

// --------------------------------------------- per-block attribution --

TEST(Profiler, BlocksAccumulateAndDeriveBytesStreamed)
{
    Profiler p;
    p.add(ProfPhase::StepTotal, 1000, 10); // 10 cycles covered
    p.enableBlocks(2);
    p.setBlockBytes(0, 100);
    p.setBlockBytes(1, 300);
    for (int i = 0; i < 10; ++i)
        p.addBlock(0, 40); // touched every cycle
    for (int i = 0; i < 5; ++i)
        p.addBlock(1, 80); // idle-skipped half the time

    EXPECT_EQ(p.numBlocks(), 2u);
    EXPECT_EQ(p.blockNs(0), 400u);
    EXPECT_EQ(p.blockVisits(0), 10u);
    EXPECT_EQ(p.blockNs(1), 400u);
    EXPECT_EQ(p.blockVisits(1), 5u);
    // (100*10 + 300*5) / 10 cycles
    EXPECT_DOUBLE_EQ(p.bytesStreamedPerCycle(), 250.0);

    // Out-of-range charges are dropped, not UB.
    p.addBlock(7, 1);
    EXPECT_EQ(p.numBlocks(), 2u);
}

TEST(Profiler, BlockJsonIsAdditiveAndMergeAware)
{
    Profiler a;
    a.add(ProfPhase::StepTotal, 1000, 4);
    // Without blocks, the JSON must not mention them (OFF-path and
    // always-step reports keep the pre-§6g shape).
    std::string bare = a.json();
    EXPECT_EQ(bare.find("\"blocks\""), std::string::npos) << bare;
    EXPECT_EQ(bare.find("\"bytes_streamed_per_cycle\""),
              std::string::npos)
        << bare;

    a.enableBlocks(1);
    a.setBlockBytes(0, 64);
    a.addBlock(0, 500);

    Profiler b;
    b.add(ProfPhase::StepTotal, 1000, 4);
    b.enableBlocks(1);
    b.setBlockBytes(0, 64);
    b.addBlock(0, 300);

    a.merge(b);
    EXPECT_EQ(a.blockNs(0), 800u);
    EXPECT_EQ(a.blockVisits(0), 2u);
    EXPECT_EQ(a.blockBytes(0), 64u); // layout fact, not accumulated

    std::string j = a.json();
    EXPECT_NE(j.find("\"blocks\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"hot_bytes\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"bytes_streamed_per_cycle\""), std::string::npos)
        << j;
    std::string t = a.table();
    EXPECT_NE(t.find("block[0]"), std::string::npos) << t;
    EXPECT_NE(t.find("bytes/cycle"), std::string::npos) << t;

    a.reset();
    EXPECT_EQ(a.blockNs(0), 0u);
    EXPECT_EQ(a.blockVisits(0), 0u);
}

TEST(Profiler, PhaseNamesAreStable)
{
    // hnoc_inspect `profile` and the run-report schema key on these.
    EXPECT_STREQ(profPhaseName(ProfPhase::ChannelDelivery),
                 "channel_delivery");
    EXPECT_STREQ(profPhaseName(ProfPhase::NiEject), "ni_eject");
    EXPECT_STREQ(profPhaseName(ProfPhase::RouteCompute),
                 "route_compute");
    EXPECT_STREQ(profPhaseName(ProfPhase::VcAllocate), "vc_allocate");
    EXPECT_STREQ(profPhaseName(ProfPhase::SwitchAllocate),
                 "switch_allocate");
    EXPECT_STREQ(profPhaseName(ProfPhase::NiInject), "ni_inject");
    EXPECT_STREQ(profPhaseName(ProfPhase::TelemetryTick),
                 "telemetry_tick");
    EXPECT_STREQ(profPhaseName(ProfPhase::StepTotal), "step_total");
}

// ------------------------------------------------------ memory audit --

TEST(MemoryAudit, TotalsAndPerTileNormalization)
{
    MemoryAudit a;
    a.tiles = 4;
    a.add("routers", 4000, 4);
    a.add("channels", 1000, 24);
    EXPECT_EQ(a.components.size(), 2u);
    EXPECT_EQ(a.totalBytes(), 5000u);
    EXPECT_DOUBLE_EQ(a.bytesPerTile(), 1250.0);
}

TEST(MemoryAudit, SkipsZeroCountPlaceholders)
{
    MemoryAudit a;
    a.tiles = 4;
    a.add("flight_recorder", 0, 0);
    EXPECT_TRUE(a.components.empty());
    EXPECT_EQ(a.totalBytes(), 0u);
    EXPECT_DOUBLE_EQ(a.bytesPerTile(), 0.0);
}

TEST(MemoryAudit, JsonAndTableListComponents)
{
    MemoryAudit a;
    a.tiles = 2;
    a.add("routers", 2048, 2);
    std::string j;
    {
        JsonWriter w;
        a.writeJson(w);
        j = w.str();
    }
    EXPECT_NE(j.find("\"tiles\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"total_bytes\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"bytes_per_tile\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"routers\""), std::string::npos) << j;
    EXPECT_NE(a.table().find("routers"), std::string::npos);
}

// ------------------------------------- report-only (the golden pin) --

/** Drive @p net with seeded UR traffic for @p cycles. */
void
driveUniformRandom(Network &net, Cycle cycles)
{
    const NetworkConfig &cfg = net.config();
    int nodes = net.topology().numNodes();
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         net.topology().gridCols(), 11);
    for (Cycle c = 0; c < cycles; ++c) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, 0.02, net.now())) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
}

TEST(Profiler, AttachedProfilerDoesNotPerturbSimulation)
{
    // Same seed, same load, same cycle count: the profiled run must be
    // bit-identical to the unprofiled one — delivery counts and the
    // full metrics JSON. This is the guarantee that lets --profile be
    // flipped on without invalidating goldens.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);

    Network plain(cfg);
    auto plain_reg = plain.makeMetricRegistry(500);
    plain.attachTelemetry(plain_reg.get());
    driveUniformRandom(plain, 3000);
    plain.detachTelemetry();

    Network profiled(cfg);
    auto prof_reg = profiled.makeMetricRegistry(500);
    profiled.attachTelemetry(prof_reg.get());
    Profiler prof;
    profiled.attachProfiler(&prof);
    driveUniformRandom(profiled, 3000);
    profiled.detachTelemetry();

    EXPECT_GT(plain.packetsDelivered(), 0u);
    EXPECT_EQ(plain.packetsDelivered(), profiled.packetsDelivered());
    EXPECT_EQ(plain.flitsDelivered(), profiled.flitsDelivered());
    EXPECT_EQ(plain.now(), profiled.now());
    EXPECT_EQ(plain_reg->json(), prof_reg->json());

    if (kTelemetryEnabled) {
        // The profiler actually observed the run...
        EXPECT_EQ(prof.cycles(), 3000u);
        EXPECT_GT(prof.ns(ProfPhase::StepTotal), 0u);
        EXPECT_GT(prof.visits(ProfPhase::SwitchAllocate), 0u);
        // ...and the accounting identity holds on real data.
        EXPECT_EQ(prof.unattributedNs(),
                  prof.ns(ProfPhase::StepTotal) > prof.attributedNs()
                      ? prof.ns(ProfPhase::StepTotal) -
                            prof.attributedNs()
                      : 0u);
    } else {
        // OFF build: hook sites constant-fold to nullptr scopes.
        EXPECT_EQ(prof.cycles(), 0u);
        EXPECT_EQ(prof.ns(ProfPhase::StepTotal), 0u);
    }
}

TEST(MemoryAudit, NetworkAuditIsConsistent)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    driveUniformRandom(net, 500);

    MemoryAudit a = net.memoryAudit();
    EXPECT_EQ(a.tiles, net.topology().numNodes());

    std::uint64_t sum = 0;
    bool routers = false, channels = false, nis = false;
    for (const auto &c : a.components) {
        sum += c.bytes;
        EXPECT_GT(c.count, 0u) << c.name;
        if (c.name == "routers") {
            routers = true;
            EXPECT_EQ(c.count, static_cast<std::uint64_t>(a.tiles));
        }
        if (c.name == "channels")
            channels = true;
        if (c.name == "network_interfaces") {
            nis = true;
            EXPECT_EQ(c.count, static_cast<std::uint64_t>(a.tiles));
        }
    }
    EXPECT_TRUE(routers);
    EXPECT_TRUE(channels);
    EXPECT_TRUE(nis);
    EXPECT_EQ(a.totalBytes(), sum);
    EXPECT_GT(a.bytesPerTile(), 0.0);
}

} // namespace
} // namespace hnoc
