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
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <map>
#include <mutex>
#include <new>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/active_set.hh"
#include "noc/network.hh"
#include "noc/router_core.hh"
#include "noc/traffic.hh"
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

    // Warm the packet slabs, free list and per-router scratch vectors.
    // The traffic is periodic (period = node count), so the warmed
    // high-water marks cover the measured window exactly.
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

TEST(ZeroAlloc, NetworkConstructionAllocationsDoNotGrowWithTheMesh)
{
    // Every component object and every array a network owns is carved
    // from its one arena. What stays on the heap — the config copy,
    // the topology and routing objects, the build's scratch vectors —
    // is a fixed handful of blocks whatever the radix; a component
    // that allocates per router, channel or block shows up here.
    auto construction_allocs = [](int radix) {
        NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL, radix);
        g_allocs.store(0);
        g_counting.store(true);
        {
            Network net(cfg);
            (void)net;
        }
        g_counting.store(false);
        return g_allocs.load();
    };
    std::uint64_t at8 = construction_allocs(8);
    EXPECT_GT(at8, 0u);
    EXPECT_LT(at8, 32u);
    EXPECT_EQ(construction_allocs(16), at8);
    EXPECT_EQ(construction_allocs(32), at8);
}

/** This process's peak resident set (VmHWM), in KiB; 0 if unknown. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            std::uint64_t kb = 0;
            status >> kb;
            return kb;
        }
        status.ignore(4096, '\n');
    }
    return 0;
}

TEST(ZeroAlloc, FreedNetworksStayWithNoThread)
{
    // glibc keeps freed memory in the malloc arena of the thread that
    // allocated it, until that thread exits. Four long-lived threads
    // take turns to build, step and destroy a short 32x32 point, and
    // none exits before the last turn ends: state a network kept on
    // the heap would stay behind in four arenas, and the process peak
    // would climb by about one network per turn. From the network's
    // own page blocks, the fourth turn reuses what the first freed.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    GTEST_SKIP() << "sanitizer allocators keep freed memory on purpose";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
    GTEST_SKIP() << "sanitizer allocators keep freed memory on purpose";
#endif
#endif
#if !defined(__GLIBC__)
    GTEST_SKIP() << "the per-thread arenas measured here are glibc's";
#endif
    if (peakRssKb() == 0)
        GTEST_SKIP() << "no VmHWM in /proc/self/status";

    constexpr int kTurns = 4;
    std::mutex m;
    std::condition_variable cv;
    int turn = 0;
    std::uint64_t peak[kTurns] = {};
    std::vector<std::thread> threads;
    for (int t = 0; t < kTurns; ++t) {
        threads.emplace_back([&, t] {
            std::unique_lock<std::mutex> lock(m);
            cv.wait(lock, [&] { return turn == t; });
            {
                Network net(makeLayoutConfig(LayoutKind::DiagonalBL, 32));
                int nodes = net.topology().numNodes();
                for (int c = 0; c < 400; ++c) {
                    injectOne(net, nodes, net.dataPacketFlits());
                    net.step();
                }
                EXPECT_GT(net.packetsDelivered(), 0u);
            }
            peak[t] = peakRssKb();
            ++turn;
            cv.notify_all();
            cv.wait(lock, [&] { return turn == kTurns; });
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_LE(peak[kTurns - 1], peak[0] + 1024)
        << "first turn " << peak[0] << " KiB, last " << peak[kTurns - 1]
        << " KiB";
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
    // Direct contract on the list itself: once place() has run,
    // random wake/merge/drop churn never touches the heap, and every
    // scan consults exactly the ids a naive reference predicts — those
    // woken since they were last dropped, and the pinned ids — in
    // ascending order, and visits exactly those still busy at their
    // check. A pinned id is never dropped, and a wake of it changes
    // nothing.
    constexpr std::uint32_t kIds = 64;
    HotArena arena;
    arena.reserve(ActiveList::arenaBytes(kIds, kIds));
    ActiveList list;
    list.place(arena, /*id_space=*/kIds, /*max_members=*/kIds);
    bool pinned[kIds] = {};
    for (std::uint32_t i : {0u, 9u, 10u, 41u, 63u}) {
        pinned[i] = true;
        list.pin(i);
    }
    bool busy[kIds] = {};
    // Reference: event stamps of each id's latest wake and drop; an
    // unpinned id is enlisted iff its latest wake is the newer event.
    std::uint64_t woke[kIds] = {};
    std::uint64_t dropped[kIds] = {};
    std::uint64_t stamp = 0;
    int pinnedWakeEffects = 0; // wakes of a pinned id that grew the list
    auto wake = [&](std::uint32_t i) {
        busy[i] = true;
        woke[i] = ++stamp;
        std::size_t before = list.size();
        list.wake(i);
        pinnedWakeEffects += pinned[i] && list.size() != before;
    };
    std::vector<std::uint32_t> expect, checked, wantVisits, visited;
    for (auto *v : {&expect, &checked, &wantVisits, &visited})
        v->reserve(kIds);
    std::mt19937 rng(7);
    int mismatches = 0;
    int idleThenWoken = 0; // enlisted, went idle, woke before the scan
    int passedWakes = 0;   // dropped this scan, re-woken later in it
    int pinnedIdle = 0;    // pinned ids kept while idle at their check

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
            if (pinned[i] || woke[i] > dropped[i])
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
                else if (pinned[id])
                    ++pinnedIdle;
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
    EXPECT_EQ(pinnedWakeEffects, 0);
    EXPECT_GT(idleThenWoken, 0);
    EXPECT_GT(passedWakes, 0);
    EXPECT_GT(pinnedIdle, 0);
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

TEST(ZeroAlloc, SourceQueueBacklogIsAllocationFree)
{
    // A backlog far past 16 packets at one NI, once the packet slabs
    // can hold it, is queued and drained without touching the heap.
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    int flits = net.dataPacketFlits();
    auto backlog = [&] {
        for (int i = 0; i < 64; ++i)
            net.enqueuePacket(0, 63, flits);
    };
    backlog();
    for (int c = 0; c < 3000; ++c)
        net.step();
    ASSERT_EQ(net.totalSourceQueueDepth(), 0u);

    std::uint64_t delivered = net.packetsDelivered();
    g_allocs.store(0);
    g_counting.store(true);
    backlog();
    std::size_t depth = net.totalSourceQueueDepth();
    for (int c = 0; c < 3000; ++c)
        net.step();
    g_counting.store(false);
    EXPECT_EQ(g_allocs.load(), 0u);
    EXPECT_EQ(depth, 64u);
    EXPECT_EQ(net.totalSourceQueueDepth(), 0u);
    EXPECT_EQ(net.packetsDelivered() - delivered, 64u);
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

/** Place @p core alone in @p arena, sized from its arenaBytes(). */
void
placeAlone(RouterCore &core, HotArena &arena)
{
    arena.reserve(core.arenaBytes());
    core.place(arena);
}

bool
lineAligned(const void *p)
{
    return reinterpret_cast<std::uintptr_t>(p) % 64 == 0;
}

TEST(Footprint, RouterCoreScalesExactlyWithBufferDepth)
{
    // slot FIFO storage is total-slots x depth x sizeof(Flit), carved
    // as whole cache lines; every other array in the core is
    // depth-independent. Placement carves that storage without
    // changing the footprint.
    RouterCore shallow, deep;
    shallow.init(/*ports=*/5, /*vcs=*/3, /*depth=*/4, /*max_down_vcs=*/3);
    deep.init(5, 3, 8, 3);
    const std::uint64_t diff =
        static_cast<std::uint64_t>(5 * 3) * 4 * sizeof(Flit);
    const std::uint64_t carved = HotArena::bytesFor<Flit>(5 * 3 * 8) -
                                 HotArena::bytesFor<Flit>(5 * 3 * 4);
    EXPECT_EQ(deep.footprintBytes() - shallow.footprintBytes(), carved);

    HotArena shallowArena, deepArena;
    placeAlone(shallow, shallowArena);
    placeAlone(deep, deepArena);
    EXPECT_EQ(deep.footprintBytes() - shallow.footprintBytes(), carved);
    EXPECT_EQ(deep.fifo[14].capacity(), 8u);
    EXPECT_EQ(deep.placedSections()[1].bytes -
                  shallow.placedSections()[1].bytes,
              diff);
}

TEST(Footprint, RouterCoreHotSectionsStartOnCacheLines)
{
    // The placed hot section promises every array its own 64-byte
    // boundary, so RC/VA/SA never split a mask or slot array across
    // the line holding a neighbouring array; all of them lie inside
    // the section place() reports.
    RouterCore core;
    core.init(/*ports=*/5, /*vcs=*/3, /*depth=*/4, /*max_down_vcs=*/3);
    HotArena arena;
    placeAlone(core, arena);
    // The wiring section's arrays lead, each on its own line too.
    EXPECT_EQ(static_cast<const void *>(core.fifo), arena.base());
    EXPECT_TRUE(lineAligned(core.outputs));
    EXPECT_TRUE(lineAligned(core.inChan));
    EXPECT_EQ(core.inChan[4], nullptr);
    const void *arrays[] = {core.activeMask, core.rcMask,
                            core.vaReqMask,  core.saReqMask,
                            core.headArrive, core.headSince,
                            core.pkt,        core.outPort,
                            core.outVc,      core.vcLo,
                            core.vcHi,       core.saGrants,
                            core.saGrantOut};
    HotSpan hot = core.placedSections()[2];
    const auto *lo = static_cast<const std::byte *>(hot.at);
    const std::byte *prev = nullptr;
    for (const void *p : arrays) {
        const auto *at = static_cast<const std::byte *>(p);
        EXPECT_TRUE(lineAligned(at));
        EXPECT_GE(at, lo);
        EXPECT_LT(at, lo + hot.bytes);
        EXPECT_GT(at, prev); // carved in declaration order
        prev = at;
    }
    EXPECT_EQ(core.outPort[14], INVALID_PORT);
    EXPECT_EQ(core.headArrive[0], CYCLE_NEVER);
    EXPECT_EQ(core.saGrantOut[4], INVALID_PORT);
}

TEST(Footprint, RouterCoreCountsPackedCreditStorage)
{
    // The widest downstream VC count sizes the credit rows: one
    // 64-byte-aligned row of roundUp(max downVcs, 16) ints per port,
    // with no alignment slack (the arena aligns the section). place()
    // carves them, wiring lands each output's initial credits in its
    // row, and neither changes the footprint.
    RouterCore rowless, core;
    rowless.init(5, 3, 4, /*max_down_vcs=*/0);
    core.init(5, 3, 4, /*max_down_vcs=*/6);
    std::size_t row = (6 + 15) / 16 * 16; // max downVcs rounded to 16
    std::uint64_t rows = 5 * row * sizeof(int);
    EXPECT_EQ(core.footprintBytes() - rowless.footprintBytes(), rows);

    HotArena arena;
    placeAlone(core, arena);
    core.connectOutput(/*p=*/0, /*chan=*/nullptr, /*lanes=*/1,
                       /*down_vcs=*/6, /*down_depth=*/4);
    core.connectOutput(/*p=*/1, nullptr, 1, /*down_vcs=*/4, 4);
    EXPECT_EQ(core.footprintBytes() - rowless.footprintBytes(), rows);
    EXPECT_EQ(core.outputs[0].credits[5], 4); // down_depth landed
    EXPECT_EQ(core.outputs[1].credits[3], 4);
    EXPECT_EQ(core.outputs[1].credits - core.outputs[0].credits,
              static_cast<std::ptrdiff_t>(row));
    EXPECT_TRUE(lineAligned(core.outputs[0].credits));
    // The credit rows are the last carve and end the arena's use.
    EXPECT_EQ(reinterpret_cast<const std::byte *>(core.outputs[4].credits +
                                                  row),
              arena.base() + arena.used());
    // An output wider than the rows is a wiring bug.
    EXPECT_DEATH(core.connectOutput(2, nullptr, 1, 7, 4), "sized for");
}

TEST(Footprint, ArenaHoldsEverySectionLineAlignedInVisitOrder)
{
    // Every component object and every array the network owns lives in
    // its one arena: line-aligned, in ascending order without overlap,
    // from the arena's base to its used() mark. The network's tables
    // (router objects, NI table, channel ends, wide channels, hop
    // lanes, five arrays of active lists, and the step team's slot
    // cut, block states and slot times) lead; then each block in a
    // slot's visit order: its five lists' storage and its eject
    // queue, its ejection channels (object, two pipes) each
    // followed by its NI (object, credits, streams),
    // its delivered channels, and its routers (wiring, FIFO, hot,
    // credit sections). 16-tile blocks give an 8x8 mesh four of them.
    constexpr std::size_t kTables = 13;
    constexpr std::size_t kBlockHead = 6; // five lists, eject queue
    for (LayoutKind kind : {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        SCOPED_TRACE(layoutName(kind));
        NetworkConfig cfg = makeLayoutConfig(kind);
        cfg.blockTiles = 16;
        Network net(cfg);
        const Topology &topo = net.topology();
        const HotArena &arena = net.arena();
        std::vector<HotSpan> sections = net.arenaSections();

        std::map<std::string, MemoryAudit::Component> rows;
        for (const auto &c : net.memoryAudit().components)
            rows[c.name] = c;
        ASSERT_EQ(net.numBlocks(), 4);
        ASSERT_EQ(sections.size(),
                  kTables + kBlockHead * 4 + 3 * rows["channels"].count +
                      3 * rows["network_interfaces"].count +
                      4 * rows["routers"].count);
        EXPECT_EQ(rows["arena_pad"].bytes,
                  arena.reservedBytes() - HotArena::lineBytes(arena.used()));

        std::map<const void *, std::size_t> index;
        const std::byte *end = arena.base();
        for (std::size_t i = 0; i < sections.size(); ++i) {
            const auto *at = static_cast<const std::byte *>(sections[i].at);
            EXPECT_TRUE(lineAligned(at)) << i;
            EXPECT_GE(at, end) << i;
            end = at + sections[i].bytes;
            index[at] = i;
        }
        EXPECT_EQ(sections.front().at, arena.base());
        EXPECT_EQ(end, arena.base() + arena.used());
        EXPECT_LE(arena.used(), arena.reservedBytes());

        auto at = [&](const auto &component) {
            return index.at(component.placedSections()[0].at);
        };
        auto eject = [&](NodeId n) {
            const Router &r = net.router(topo.routerOfNode(n));
            return at(*r.outputChannel(topo.localPortOfNode(n)));
        };
        // Each block opens with its lists and eject queue, right after
        // the previous block's routers, then its ejection channels in
        // node order,
        // each followed by its NI.
        for (NodeId n = 0; n < topo.numNodes(); ++n) {
            RouterId first = topo.routerOfNode(n) / 16 * 16;
            std::size_t open =
                first == 0 ? kTables : at(net.router(first - 1)) + 4;
            EXPECT_EQ(eject(n),
                      open + kBlockHead + 6 * static_cast<std::size_t>(n - first));
            EXPECT_EQ(sections[eject(n) + 3].bytes, sizeof(NetworkInterface));
        }
        // Routers follow in id order, and each inter-router channel
        // sits between its sink block's last NI and its routers.
        int routers = topo.numRouters();
        for (RouterId r = 1; r < routers; ++r)
            EXPECT_LT(at(net.router(r - 1)), at(net.router(r)));
        for (RouterId r = 0; r < routers; ++r) {
            for (PortId p = 0; p < topo.numDirPorts(); ++p) {
                RouterId sink = topo.peer(r, p).router;
                if (sink == INVALID_ROUTER)
                    continue;
                std::size_t chan = at(*net.router(r).outputChannel(p));
                RouterId first = sink / 16 * 16;
                EXPECT_LT(chan, at(net.router(first)));
                EXPECT_GT(chan, eject(first + 15) + 5);
            }
        }
    }
}

TEST(Footprint, AuditCoversTheArenaAndThePacketSlabs)
{
    // The audit's rows cover the whole network: the arena's rows and
    // its unused tail add up to its reservation, and once packets flow
    // the slabs they live in are the rest. Exact sizing: a formula that
    // drifts from what the components carve breaks the sum (or, short,
    // overruns the arena at construction).
    for (int radix : {8, 32}) {
        for (LayoutKind kind :
             {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
            SCOPED_TRACE(std::string(layoutName(kind)) + " " +
                         std::to_string(radix));
            Network net(makeLayoutConfig(kind, radix));
            auto rows = [&] {
                std::map<std::string, std::uint64_t> out;
                for (const auto &c : net.memoryAudit().components)
                    out[c.name] = c.bytes;
                return out;
            };
            EXPECT_EQ(net.memoryAudit().totalBytes(),
                      net.arena().reservedBytes());
            EXPECT_EQ(rows().count("packet_slabs"), 0u);
            if (radix != 8)
                continue;
            // One block: the network steps alone, with no team block.
            int nodes = net.topology().numNodes();
            for (int c = 0; c < 2000; ++c) {
                injectOne(net, nodes, net.dataPacketFlits());
                net.step();
            }
            std::uint64_t slabs = rows().at("packet_slabs");
            EXPECT_GT(slabs, 0u);
            EXPECT_EQ(net.memoryAudit().totalBytes(),
                      net.arena().reservedBytes() + slabs);

            // A backlog at one NI queues through its packets, so it
            // holds nothing outside the arena and the slabs.
            for (int i = 0; i < 96; ++i)
                net.enqueuePacket(0, nodes - 1, net.dataPacketFlits());
            for (int c = 0; c < 50; ++c)
                net.step();
            EXPECT_GE(net.totalSourceQueueDepth(), 64u);
            slabs = rows().at("packet_slabs");
            EXPECT_EQ(net.memoryAudit().totalBytes(),
                      net.arena().reservedBytes() + slabs);
        }
    }
}

TEST(Footprint, AutoSizedBlocksKeepTheirMeshRows)
{
    // Block auto-sizing divides a 768 KiB budget by the mean
    // per-tile footprint and rounds down to whole mesh rows. The
    // footprint formulas must leave these partitions as they were
    // measured when the hot state was last re-laid out: Diagonal+BL's
    // 32x32 and 48x48 quotients reach 96 tiles (three and two rows).
    const struct
    {
        int radix, baselineTiles, diagonalTiles;
    } expect[] = {{8, 64, 64}, {16, 80, 80}, {32, 64, 96}, {48, 48, 96}};
    for (const auto &e : expect) {
        for (LayoutKind kind :
             {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
            Network net(makeLayoutConfig(kind, e.radix));
            EXPECT_EQ(net.blockTiles(), kind == LayoutKind::Baseline
                                            ? e.baselineTiles
                                            : e.diagonalTiles)
                << layoutName(kind) << " " << e.radix;
        }
    }

    // On 8x8, the routers row (the core's wiring, FIFO, hot and credit
    // storage) is 128 B per router below the pinned bytes of sections
    // that each carried 64 B of alignment slack (the arena aligns them
    // instead); the channel row (the pipes) and the channel objects in
    // the component_objects row keep the channels' pinned bytes. The
    // core's bytes are pinned with 32 B FIFO ring headers.
    const struct
    {
        LayoutKind kind;
        std::uint64_t coreWithSlack, channels;
    } pinned[] = {{LayoutKind::Baseline, 331776, 202752},
                  {LayoutKind::DiagonalBL, 339968, 202752}};
    for (const auto &pin : pinned) {
        Network net(makeLayoutConfig(pin.kind));
        std::map<std::string, MemoryAudit::Component> rows;
        for (const auto &c : net.memoryAudit().components)
            rows[c.name] = c;
        std::uint64_t routers = rows["routers"].count;
        EXPECT_EQ(rows["routers"].bytes, pin.coreWithSlack - routers * 128)
            << layoutName(pin.kind);
        EXPECT_EQ(rows["channels"].bytes +
                      rows["channels"].count * sizeof(Channel),
                  pin.channels)
            << layoutName(pin.kind);
    }
}

TEST(Footprint, SteadyStateMemoryAuditIsConstant)
{
    // Once warm, continued stepping performs zero allocations (proved
    // above) and takes no page block, so no capacity can change and
    // the audit must be byte-for-byte stable — including the packet
    // slabs' and the source queues' high-water rows.
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

TEST(Footprint, AuditDoesNotDependOnTheTeam)
{
    // A network that may step on a team carves the team's state when
    // it is built, so its audit is the same whether a team formed or
    // not: a 16x16 network (four blocks) under uniform random load,
    // stepped on a 1-thread pool (no team) and on a 4-thread one.
    auto run = [](JobPool &pool, int *threads) {
        return pool
            .submit([threads] {
                Network net(makeLayoutConfig(LayoutKind::DiagonalBL, 16));
                const Topology &topo = net.topology();
                TrafficGenerator gen(TrafficPattern::UniformRandom,
                                     topo.numNodes(), topo.gridCols(), 5);
                for (int c = 0; c < 600; ++c) {
                    for (NodeId n = 0; n < topo.numNodes(); ++n) {
                        if (!gen.shouldInject(n, 0.012, net.now()))
                            continue;
                        if (NodeId dst = gen.pickDest(n); dst != INVALID_NODE)
                            net.enqueuePacket(n, dst, net.dataPacketFlits());
                    }
                    net.step();
                }
                *threads = net.stepThreads();
                return net.memoryAudit();
            })
            .get();
    };
    JobPool pool1(1);
    JobPool pool4(4);
    int t1 = 0;
    int t4 = 0;
    MemoryAudit serial = run(pool1, &t1);
    MemoryAudit team = run(pool4, &t4);

    EXPECT_EQ(t1, 1);
    ASSERT_GE(t4, 2) << "the 4-thread team never formed";
    ASSERT_EQ(serial.components.size(), team.components.size());
    for (std::size_t i = 0; i < serial.components.size(); ++i) {
        const auto &a = serial.components[i];
        const auto &b = team.components[i];
        EXPECT_EQ(a.name, b.name);
        EXPECT_EQ(a.bytes, b.bytes) << a.name;
        EXPECT_EQ(a.count, b.count) << a.name;
    }
    EXPECT_EQ(serial.totalBytes(), team.totalBytes());
}

TEST(Footprint, WarmedCmpMetadataMatchesGeometry)
{
    // Table 2(a) on 8x8: per tile an L1 of 64 sets x 4 ways, an L2
    // bank of 512 sets x 16 ways and a 4096-slot directory table. A
    // cache costs one tag word per way and one recency word per set; a
    // directory slot costs 24 B. A layout change that re-inflates this
    // metadata fails here. The workload touches private lines only, so
    // no line gains a third sharer (the pooled sharer chunks stay
    // empty), and ~2048 lines per bank stay under the tables' 3072-
    // entry growth point.
    WorkloadProfile priv = workloadByName("vips");
    priv.sharedFrac = 0.0;
    priv.privateBlocks = 2048;
    CmpSystem sys(makeLayoutConfig(LayoutKind::Baseline), CmpConfig{});
    sys.assignWorkloadAll(priv);
    sys.warmCaches(20000);

    std::map<std::string, std::uint64_t> rows;
    for (const auto &c : sys.memoryAudit().components)
        rows[c.name] = c.bytes;
    constexpr std::uint64_t kTiles = 64;
    constexpr std::uint64_t kArray = sizeof(CacheArray);
    EXPECT_EQ(rows["l1_caches"], kTiles * (256 * 8 + 64 * 8 + kArray));
    EXPECT_EQ(rows["l2_banks"], kTiles * (8192 * 8 + 512 * 8 + kArray));
    EXPECT_EQ(rows["mesi_directory"], kTiles * 4096 * 24);
}

} // namespace
} // namespace hnoc
