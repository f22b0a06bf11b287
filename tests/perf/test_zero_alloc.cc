/**
 * @file
 * Steady-state allocation audit: once the packet arena, scratch
 * vectors, and ring buffers are warm, a loaded Network::step must not
 * touch the heap at all — under both the active-set scheduler and the
 * config.alwaysStep exhaustive loop. Enforced by replacing global
 * operator new with a counting shim (this binary only).
 *
 * This contract covers the SoA router core: its per-slot arrays,
 * request bitmasks, and per-output credit vectors are sized once in
 * RouterCore::init / connectOutput and never grow, so RC/VA/SA run
 * mask arithmetic over fixed storage. Both schedulers are audited on
 * both layouts because they drive different slot-visit patterns
 * through the same arrays.
 *
 * Telemetry is deliberately left detached: epoch rollover allocates
 * its time-series rows by design and is not part of the hot path
 * contract.
 *
 * The CMP layer above the network has the same contract once warm:
 * flat cache arrays, open-addressed directory and transaction tables
 * with pooled sharer and deferred-request storage, fixed MSHR and load
 * arrays, ring-buffer memory-controller queues and a calendar event
 * queue all stop growing at their high-water marks.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "heteronoc/layout.hh"
#include "noc/active_set.hh"
#include "noc/network.hh"
#include "noc/router_core.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"
#include "telemetry/profiler.hh"

namespace
{

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void *
countedAlloc(std::size_t n)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocs.fetch_add(1, std::memory_order_relaxed);
    void *p = std::malloc(n ? n : 1);
    if (!p)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t n)
{
    return countedAlloc(n);
}

void *
operator new[](std::size_t n)
{
    return countedAlloc(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace hnoc
{
namespace
{

/**
 * Deterministic load: one data packet per cycle, round-robin over
 * sources with a fixed stride destination (~0.14 flits/node/cycle on
 * the 8x8 mesh — comfortably loaded, nowhere near saturation).
 */
void
injectOne(Network &net, int nodes, int flits)
{
    NodeId src = static_cast<NodeId>(net.now() % nodes);
    NodeId dst = static_cast<NodeId>((src + 17) % nodes);
    if (dst == src)
        dst = static_cast<NodeId>((dst + 1) % nodes);
    net.enqueuePacket(src, dst, flits);
}

std::uint64_t
measureSteadyStateAllocs(NetworkConfig cfg)
{
    Network net(cfg);
    int nodes = net.topology().numNodes();
    int flits = net.dataPacketFlits();

    // Warm the packet arena, free list, source-queue rings, and
    // per-router scratch vectors. The traffic is periodic (period =
    // node count), so the warmed high-water marks cover the measured
    // window exactly.
    for (int c = 0; c < 20000; ++c) {
        injectOne(net, nodes, flits);
        net.step();
    }

    g_allocs.store(0);
    g_counting.store(true);
    for (int c = 0; c < 2000; ++c) {
        injectOne(net, nodes, flits);
        net.step();
    }
    g_counting.store(false);
    EXPECT_GT(net.packetsDelivered(), 0u);
    return g_allocs.load();
}

TEST(ZeroAlloc, CountingShimSeesColdStartAllocations)
{
    // Sanity: the hook must observe the allocations network
    // construction performs, or the zero assertions below are vacuous.
    g_allocs.store(0);
    g_counting.store(true);
    {
        Network net(makeLayoutConfig(LayoutKind::Baseline));
        (void)net;
    }
    g_counting.store(false);
    EXPECT_GT(g_allocs.load(), 0u);
}

TEST(ZeroAlloc, ActiveSetLoadedStepIsAllocationFree)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    EXPECT_EQ(measureSteadyStateAllocs(cfg), 0u);
}

TEST(ZeroAlloc, AlwaysStepLoadedStepIsAllocationFree)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    cfg.alwaysStep = true;
    EXPECT_EQ(measureSteadyStateAllocs(cfg), 0u);
}

TEST(ZeroAlloc, HeterogeneousDiagonalBlIsAllocationFree)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    EXPECT_EQ(measureSteadyStateAllocs(cfg), 0u);
}

TEST(ZeroAlloc, SingleTileBlocksAreAllocationFree)
{
    // blockTiles=1 maximises block-boundary traffic: every channel
    // delivery crosses the per-block active lists, so this is the
    // densest sweep over the wake/merge/compact machinery.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.blockTiles = 1;
    EXPECT_EQ(measureSteadyStateAllocs(cfg), 0u);
}

TEST(ZeroAlloc, ActiveListChurnIsAllocationFree)
{
    // Direct contract on the list itself: once reserve() has run,
    // random wake/merge/drop churn never touches the heap, and every
    // scan consults exactly the ids a naive reference predicts — those
    // woken since they were last dropped — in ascending order, and
    // visits exactly those still busy at their check.
    constexpr std::uint32_t kIds = 64;
    ActiveList list;
    list.reserve(/*id_space=*/kIds, /*max_members=*/kIds);
    bool busy[kIds] = {};
    // Reference: event stamps of each id's latest wake and drop; an id
    // is enlisted iff its latest wake is the newer event.
    std::uint64_t woke[kIds] = {};
    std::uint64_t dropped[kIds] = {};
    std::uint64_t stamp = 0;
    auto wake = [&](std::uint32_t i) {
        busy[i] = true;
        woke[i] = ++stamp;
        list.wake(i);
    };
    std::vector<std::uint32_t> expect, checked, wantVisits, visited;
    for (auto *v : {&expect, &checked, &wantVisits, &visited})
        v->reserve(kIds);
    std::mt19937 rng(7);
    int mismatches = 0;
    int idleThenWoken = 0; // enlisted, went idle, woke before the scan
    int passedWakes = 0;   // dropped this scan, re-woken later in it

    g_allocs.store(0);
    g_counting.store(true);
    for (int round = 0; round < 200; ++round) {
        for (std::uint32_t i = 0; i < kIds; ++i) {
            switch (rng() % 8) {
              case 0:
                wake(i);
                break;
              case 1:
                busy[i] = false; // goes idle without telling the list
                break;
              case 2:
                idleThenWoken += woke[i] > dropped[i];
                busy[i] = false;
                wake(i);
                break;
              default:
                break;
            }
        }

        expect.clear();
        for (std::uint32_t i = 0; i < kIds; ++i)
            if (woke[i] > dropped[i])
                expect.push_back(i);
        checked.clear();
        wantVisits.clear();
        visited.clear();
        std::uint64_t scanStart = stamp;
        list.forEachActive(
            [&](std::uint32_t id) {
                checked.push_back(id);
                if (busy[id])
                    wantVisits.push_back(id);
                else
                    dropped[id] = ++stamp;
                return busy[id];
            },
            [&](std::uint32_t id) {
                visited.push_back(id);
                switch (rng() % 4) {
                  case 0:
                    busy[id] = false; // drains itself: dropped next scan
                    break;
                  case 1: {
                    std::uint32_t j = rng() % kIds;
                    passedWakes += j < id && dropped[j] > scanStart;
                    wake(j); // not visited before the next scan
                    break;
                  }
                  default:
                    break;
                }
            });
        mismatches += checked != expect;
        mismatches += visited != wantVisits;
    }
    g_counting.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);
    EXPECT_EQ(mismatches, 0);
    EXPECT_GT(idleThenWoken, 0);
    EXPECT_GT(passedWakes, 0);
}

TEST(ZeroAlloc, HeterogeneousDiagonalBlAlwaysStepIsAllocationFree)
{
    // The exhaustive loop runs every router's RC/VA/SA every cycle,
    // so this is the densest sweep over the SoA core's bitmask paths
    // (including the wide-channel pairing retry in SA).
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.alwaysStep = true;
    EXPECT_EQ(measureSteadyStateAllocs(cfg), 0u);
}

/** The directory's audit rows (name -> bytes). */
std::vector<MemoryAudit::Component>
directoryRows(const CmpSystem &sys)
{
    std::vector<MemoryAudit::Component> rows;
    for (const auto &c : sys.memoryAudit().components)
        if (c.name == "mesi_directory" || c.name == "directory_txns")
            rows.push_back(c);
    return rows;
}

TEST(ZeroAlloc, WarmedCmpSystemIsAllocationFree)
{
    // vips on the 8x8 Baseline: its whole footprint (64 x 1024 private
    // plus 4096 shared blocks) fits every bank's directory table at its
    // current size, so a warmed system tracks new blocks without
    // growing. The settling run brings the pools, queues and calendar
    // buckets to their high-water marks.
    CmpConfig cfg;
    CmpSystem sys(makeLayoutConfig(LayoutKind::Baseline), cfg);
    sys.assignWorkloadAll(workloadByName("vips"));
    sys.warmCaches(20000);
    sys.run(20000);

    std::vector<MemoryAudit::Component> before = directoryRows(sys);
    std::uint64_t packets = sys.packetsSent();
    std::uint64_t misses = sys.l1Misses();
    g_allocs.store(0);
    g_counting.store(true);
    sys.run(5000);
    g_counting.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);

    // The window did coherence work, and the directory's storage rows
    // are byte-for-byte unchanged across it.
    EXPECT_GT(sys.packetsSent() - packets, 10000u);
    EXPECT_GT(sys.l1Misses() - misses, 1000u);
    std::vector<MemoryAudit::Component> after = directoryRows(sys);
    ASSERT_EQ(before.size(), 2u);
    ASSERT_EQ(after.size(), 2u);
    for (std::size_t i = 0; i < before.size(); ++i) {
        EXPECT_EQ(before[i].name, after[i].name);
        EXPECT_EQ(before[i].bytes, after[i].bytes) << before[i].name;
        EXPECT_GT(before[i].bytes, 0u);
    }
}

// ------------------------------------------------ sizing contracts --
//
// footprintBytes() claims to report the SoA storage from container
// capacities sized once at wiring time. Pin that claim structurally:
// the value must move by exactly the bytes the layout formula
// predicts when one sizing input changes, and must not move at all
// across steady-state stepping (the memory-side twin of the
// zero-allocation assertions above).

TEST(Footprint, RouterCoreScalesExactlyWithBufferDepth)
{
    // slot FIFO storage is total-slots x depth x sizeof(Flit); every
    // other array in the core is depth-independent.
    RouterCore shallow, deep;
    shallow.init(/*ports=*/5, /*vcs=*/3, /*depth=*/4);
    deep.init(5, 3, 8);
    EXPECT_EQ(deep.footprintBytes() - shallow.footprintBytes(),
              static_cast<std::uint64_t>(5 * 3) * 4 * sizeof(Flit));
}

TEST(Footprint, RouterCoreHotSectionsStartOnCacheLines)
{
    // The packed hot buffer promises every section its own 64-byte
    // boundary, so RC/VA/SA never split a mask or slot array across
    // the line holding a neighbouring section.
    RouterCore core;
    core.init(/*ports=*/5, /*vcs=*/3, /*depth=*/4);
    auto lineAligned = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
    };
    EXPECT_TRUE(lineAligned(core.activeMask));
    EXPECT_TRUE(lineAligned(core.rcMask));
    EXPECT_TRUE(lineAligned(core.vaReqMask));
    EXPECT_TRUE(lineAligned(core.saReqMask));
    EXPECT_TRUE(lineAligned(core.headArrive));
    EXPECT_TRUE(lineAligned(core.headSince));
    EXPECT_TRUE(lineAligned(core.pkt));
    EXPECT_TRUE(lineAligned(core.outPort));
    EXPECT_TRUE(lineAligned(core.outVc));
    EXPECT_TRUE(lineAligned(core.vcLo));
    EXPECT_TRUE(lineAligned(core.vcHi));
}

TEST(Footprint, RouterCoreCountsPackedCreditStorage)
{
    // connectOutput only records wiring facts; the packed credit
    // buffer appears at finalizeWiring(): one 64-byte-aligned row of
    // roundUp(max downVcs, 16) ints per port, plus 64 B of alignment
    // slack.
    RouterCore core;
    core.init(5, 3, 4);
    std::uint64_t unwired = core.footprintBytes();
    core.connectOutput(/*p=*/0, /*chan=*/nullptr, /*lanes=*/1,
                       /*down_vcs=*/6, /*down_depth=*/4);
    core.connectOutput(/*p=*/1, nullptr, 1, /*down_vcs=*/4, 4);
    EXPECT_EQ(core.footprintBytes(), unwired);

    core.finalizeWiring();
    std::size_t row = (6 + 15) / 16 * 16; // max downVcs rounded to 16
    EXPECT_EQ(core.footprintBytes() - unwired,
              (5 * row + 16) * sizeof(int));
    EXPECT_EQ(core.outputs[0].credits[5], 4); // initDepth landed
    EXPECT_EQ(core.outputs[1].credits[3], 4);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(
                  core.outputs[0].credits) % 64,
              0u);
}

TEST(Footprint, ArenaMovePreservesStateAndAlignment)
{
    // moveToArena relocates the packed FIFO, hot-section, and credit
    // storage into one externally owned region. The move must keep
    // every section on its own cache line, preserve live contents
    // (credits, buffered flits), and leave footprintBytes unchanged —
    // placement is a performance property, never a sizing one.
    hnoc::RouterCore core;
    core.init(/*ports=*/5, /*vcs=*/3, /*depth=*/4);
    core.connectOutput(/*p=*/0, nullptr, 1, /*down_vcs=*/6, /*depth=*/4);
    core.connectOutput(/*p=*/1, nullptr, 1, /*down_vcs=*/4, /*depth=*/4);
    core.finalizeWiring();
    core.outputs[0].credits[2] = 7; // sentinel surviving the move
    hnoc::Flit f;
    f.seq = 42;
    core.fifo[3].push_back(f);
    std::uint64_t before = core.footprintBytes();
    // Capture the quote before moving: arenaBytes() reports what a
    // move *would* carve, and the packed-FIFO section transfers
    // ownership out of the core when the move happens.
    std::size_t quoted = core.arenaBytes();

    hnoc::HotArena arena;
    arena.reserve(quoted);
    ASSERT_GT(arena.reservedBytes(), 0u);
    core.moveToArena(arena);

    auto lineAligned = [](const void *p) {
        return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
    };
    EXPECT_TRUE(lineAligned(core.activeMask));
    EXPECT_TRUE(lineAligned(core.saReqMask));
    EXPECT_TRUE(lineAligned(core.headArrive));
    EXPECT_TRUE(lineAligned(core.outputs[0].credits));
    EXPECT_EQ(core.outputs[0].credits[2], 7);
    EXPECT_EQ(core.outputs[1].credits[3], 4); // initDepth intact
    ASSERT_EQ(core.fifo[3].size(), 1u);
    EXPECT_EQ(core.fifo[3].front().seq, 42);
    EXPECT_EQ(core.footprintBytes(), before);
    // Every section landed inside the reserved region: the bump
    // cursor advanced (no section fell back to self-owned storage)
    // and never past the quoted worst case (arenaBytes rounds each
    // section up to whole lines; used() ends at the last section's
    // exact byte count).
    EXPECT_GT(arena.used(), 0u);
    EXPECT_LE(arena.used(), quoted);
    EXPECT_LE(arena.used(), arena.reservedBytes());
}

TEST(Footprint, SteadyStateMemoryAuditIsConstant)
{
    // Once warm, continued stepping performs zero allocations (proved
    // above), so no container capacity can change and the audit must
    // be byte-for-byte stable — including the packet arena's
    // high-water capacity row.
    Network net(makeLayoutConfig(LayoutKind::DiagonalBL));
    int nodes = net.topology().numNodes();
    int flits = net.dataPacketFlits();
    for (int c = 0; c < 20000; ++c) {
        injectOne(net, nodes, flits);
        net.step();
    }

    MemoryAudit warm = net.memoryAudit();
    for (int c = 0; c < 2000; ++c) {
        injectOne(net, nodes, flits);
        net.step();
    }
    MemoryAudit later = net.memoryAudit();

    ASSERT_EQ(warm.components.size(), later.components.size());
    for (std::size_t i = 0; i < warm.components.size(); ++i) {
        EXPECT_EQ(warm.components[i].name, later.components[i].name);
        EXPECT_EQ(warm.components[i].bytes, later.components[i].bytes)
            << warm.components[i].name;
    }
    EXPECT_GT(warm.totalBytes(), 0u);
    EXPECT_EQ(warm.totalBytes(), later.totalBytes());
    EXPECT_EQ(warm.tiles, nodes);
}

} // namespace
} // namespace hnoc
