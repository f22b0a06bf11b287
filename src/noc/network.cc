#include "noc/network.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <type_traits>

#include "common/job_pool.hh"
#include "common/logging.hh"
#include "common/step_team.hh"
#include "common/text_file.hh"
#include "noc/config_io.hh"
#include "power/frequency_model.hh"
#include "telemetry/json_writer.hh"

namespace hnoc
{

namespace
{

/** Per-block L2 working-set budget for block auto-sizing. Half a
 *  typical 1-2 MB private L2: the block's hot state must share the
 *  cache with packets, scratch, and the next block's prefetches. */
constexpr std::uint64_t kBlockL2Bytes = 768 * 1024;

/** Team cycles before the first cut of the slots by measured cost:
 *  long enough for a network started empty to fill. */
constexpr std::uint64_t kFirstCutCycles = 256;
/** Each later cut comes this many times as many team cycles in, from
 *  the costs measured since the one before, so cuts stay rare and a
 *  slot's blocks stay in one core's cache between them. */
constexpr std::uint64_t kCutSpacing = 4;

/** One packet slab: a page block (185 packets), which any
 *  thread's network reuses once it is released (§6i). Small enough that
 *  an 8x8 CMP system, with a few hundred packets live, holds no more
 *  than it used to on the heap. */
constexpr std::size_t kPacketSlabBytes = 16 * 1024;
/** Packets per slab, after its header line. */
constexpr std::size_t kSlabPackets =
    (kPacketSlabBytes - HotArena::kLine) / sizeof(Packet);

using Clock = std::chrono::steady_clock;

/** Nanoseconds from @p from to @p to. */
std::uint64_t
nsBetween(Clock::time_point from, Clock::time_point to)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
            .count());
}

} // namespace

Network::Network(const NetworkConfig &config)
    : config_(config), topo_(Topology::create(config)),
      routing_(RoutingAlgorithm::create(config_, *topo_))
{
    if (!config_.routerVcs.empty() &&
        static_cast<int>(config_.routerVcs.size()) != topo_->numRouters())
        fatal("routerVcs size %zu != router count %d",
              config_.routerVcs.size(), topo_->numRouters());
    if (!config_.routerWidthBits.empty() &&
        static_cast<int>(config_.routerWidthBits.size()) !=
            topo_->numRouters())
        fatal("routerWidthBits size %zu != router count %d",
              config_.routerWidthBits.size(), topo_->numRouters());

    if (config_.clockGHz > 0.0) {
        clockGHz_ = config_.clockGHz;
    } else {
        // Worst-case rule of §3.4: the slowest router sets the clock.
        int max_vcs = config_.defaultVcs;
        for (RouterId r = 0; r < topo_->numRouters(); ++r)
            max_vcs = std::max(max_vcs, config_.vcsOf(r));
        clockGHz_ = FrequencyModel::networkFrequencyGHz(max_vcs);
    }

    alwaysStep_ = config_.alwaysStep;

    // The blocked step order delivers cross-block traffic in per-block
    // passes; a zero-delay channel could make a same-cycle send
    // deliverable before its receiver's pass has run, so every delay
    // (flit and credit paths both derive from linkLatency) must be
    // at least one cycle.
    if (config_.linkLatency < 1)
        fatal("linkLatency %d < 1: every channel delay must be >= 1 "
              "cycle", config_.linkLatency);
    if (config_.blockTiles < 0)
        fatal("blockTiles %d < 0 (0 means auto-size)",
              config_.blockTiles);

    build();

    // Point every router's and NI's wake hook at the active list that
    // schedules it (build() hooked the channels). The lists are carved
    // for good. Every component is still idle here, so no list needs
    // seeding.
    for (std::size_t i = 0; i < routers_.size(); ++i)
        routers_[i].setWakeHook(
            &blockRouters_[static_cast<std::size_t>(
                blockOf(static_cast<RouterId>(i)))],
            static_cast<std::uint32_t>(i));
    for (std::size_t i = 0; i < nis_.size(); ++i) {
        RouterId r = topo_->routerOfNode(static_cast<NodeId>(i));
        nis_[i]->setWakeHook(
            &blockNis_[static_cast<std::size_t>(blockOf(r))],
            static_cast<std::uint32_t>(i));
    }
}

Network::~Network()
{
    // The team's helpers leave before the state they stepped goes.
    team_.reset();
    // The arena runs no destructors, and none of its objects needs one.
    static_assert(std::is_trivially_destructible_v<Channel>);
    static_assert(std::is_trivially_destructible_v<NetworkInterface>);
    static_assert(std::is_trivially_destructible_v<ActiveList>);
    static_assert(std::is_trivially_destructible_v<Router>);
    static_assert(std::is_trivially_destructible_v<BlockState>);
    while (packetSlabs_ != nullptr) {
        PacketSlab *next = packetSlabs_->next;
        detail::keepPagedBlock(packetSlabs_, kPacketSlabBytes);
        packetSlabs_ = next;
    }
}

template <typename Fn>
void
Network::forEachEnd(Fn &&fn) const
{
    // Inter-router channels: one per directed (router, dir-port) pair.
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        for (PortId p = 0; p < topo_->numDirPorts(); ++p) {
            const PortPeer &peer = topo_->peer(r, p);
            if (peer.router == INVALID_ROUTER)
                continue;
            ChannelEnds e;
            e.sinkIsRouter = true;
            e.sinkRouter = peer.router;
            e.sinkPort = peer.port;
            e.driverIsRouter = true;
            e.driverRouter = r;
            e.driverPort = p;
            fn(e);
        }
    }
    // Local channels: each node's injection (NI -> router), then its
    // ejection.
    for (NodeId n = 0; n < topo_->numNodes(); ++n) {
        RouterId r = topo_->routerOfNode(n);
        PortId lp = topo_->localPortOfNode(n);
        ChannelEnds ei;
        ei.sinkIsRouter = true;
        ei.sinkRouter = r;
        ei.sinkPort = lp;
        ei.driverIsRouter = false;
        ei.driverNode = n;
        fn(ei);
        ChannelEnds ee;
        ee.sinkIsRouter = false;
        ee.sinkNode = n;
        ee.driverIsRouter = true;
        ee.driverRouter = r;
        ee.driverPort = lp;
        fn(ee);
    }
}

Network::ChannelShape
Network::shapeOf(const ChannelEnds &e) const
{
    // A router-driven channel's flits also cross the sender's switch
    // traversal stage; an NI injects straight onto the link.
    int inter_delay = (config_.pipelineStages - 1) + config_.linkLatency;
    ChannelShape c;
    if (e.driverIsRouter && e.sinkIsRouter)
        c.widthBits = config_.channelBits(e.driverRouter, e.sinkRouter);
    else
        c.widthBits = config_.localChannelBits(
            e.sinkIsRouter ? e.sinkRouter : e.driverRouter);
    c.lanes = std::max(1, c.widthBits / config_.flitWidthBits);
    c.flitDelay = e.driverIsRouter ? inter_delay : config_.linkLatency;
    c.creditDelay = config_.linkLatency;
    return c;
}

int
Network::maxDownVcs(RouterId r) const
{
    // Local ports feed the NI sink, which takes the router's own VCs.
    int down = config_.vcsOf(r);
    for (PortId p = 0; p < topo_->numDirPorts(); ++p)
        if (RouterId peer = topo_->peer(r, p).router; peer != INVALID_ROUTER)
            down = std::max(down, config_.vcsOf(peer));
    return down;
}

template <typename Lanes>
std::size_t
Network::teamStateBytes(std::size_t nb, Lanes &&lanes)
{
    const std::size_t ms = nb / 2;
    std::size_t bytes = HotArena::bytesFor<int>(ms + 1) +
                        HotArena::bytesFor<BlockState>(nb) +
                        HotArena::bytesFor<TeamSlotNs>(ms);
    for (std::size_t b = 0; b < nb; ++b)
        bytes += HotArena::bytesFor<EjectedPacket>(lanes(b));
    return bytes;
}

void
Network::build()
{
    const auto nr = static_cast<std::size_t>(topo_->numRouters());
    const auto nn = static_cast<std::size_t>(topo_->numNodes());
    const int ports = topo_->portsPerRouter();
    const int depth = config_.bufferDepth;

    // Every component's footprint, from the formulas alone: the block
    // partition and the arena's size both follow from them.
    std::size_t n_ends = 0;
    std::size_t n_wide = 0;
    std::uint64_t tile_bytes = 0;
    forEachEnd([&](const ChannelEnds &e) {
        ChannelShape c = shapeOf(e);
        ++n_ends;
        n_wide += c.lanes > 1;
        tile_bytes +=
            Channel::footprintBytes(c.lanes, c.flitDelay, c.creditDelay);
    });
    for (RouterId r = 0; r < static_cast<RouterId>(nr); ++r)
        tile_bytes += Router::footprintBytes(ports, config_.vcsOf(r), depth,
                                             maxDownVcs(r));
    for (NodeId n = 0; n < static_cast<NodeId>(nn); ++n)
        tile_bytes += NetworkInterface::footprintBytes(
            config_.vcsOf(topo_->routerOfNode(n)));
    setupBlocks(tile_bytes);
    // A team needs at least two blocks per thread (§6h).
    teamEligible_ = !alwaysStep_ && numBlocks_ >= 4;

    // Each block's active lists hold exactly their possible members,
    // so the steady state never outgrows them.
    const auto nb = static_cast<std::size_t>(numBlocks_);
    enum Role : std::size_t
    {
        kEject,
        kFlits,
        kCredits,
        kRouters,
        kNis,
        kRoles
    };
    std::vector<std::size_t> members(kRoles * nb, 0);
    auto count = [&](Role role, RouterId r) {
        ++members[kRoles * static_cast<std::size_t>(blockOf(r)) + role];
    };
    // A block's eject pass completes at most one packet per lane of
    // its ejection channels per cycle.
    std::vector<std::size_t> eject_lanes(nb, 0);
    forEachEnd([&](const ChannelEnds &e) {
        if (!e.sinkIsRouter) {
            count(kEject, e.driverRouter);
            eject_lanes[static_cast<std::size_t>(blockOf(e.driverRouter))] +=
                static_cast<std::size_t>(shapeOf(e).lanes);
            return;
        }
        count(kFlits, e.sinkRouter);
        count(kCredits, e.driverIsRouter ? e.driverRouter : e.sinkRouter);
    });
    for (RouterId r = 0; r < static_cast<RouterId>(nr); ++r)
        count(kRouters, r);
    for (NodeId n = 0; n < static_cast<NodeId>(nn); ++n)
        count(kNis, topo_->routerOfNode(n));
    auto list_space = [&](std::size_t role) {
        return role == kRouters ? nr : role == kNis ? nn : n_ends;
    };
    std::size_t list_bytes = 0;
    for (std::size_t i = 0; i < members.size(); ++i)
        list_bytes +=
            ActiveList::arenaBytes(list_space(i % kRoles), members[i]);
    const std::size_t team_bytes = teamStateBytes(
        nb, [&](std::size_t b) { return eject_lanes[b]; });

    // The router objects are one array; every other component object
    // is a carve of its own (its footprint formula counts both).
    arena_.reserve(HotArena::bytesFor<Router>(nr) +
                   HotArena::bytesFor<NetworkInterface *>(nn) +
                   HotArena::bytesFor<ChannelEnds>(n_ends) +
                   HotArena::bytesFor<Channel *>(n_wide) +
                   HotArena::bytesFor<std::uint8_t>(
                       nr * static_cast<std::size_t>(ports)) +
                   kRoles * HotArena::bytesFor<ActiveList>(nb) + list_bytes +
                   team_bytes + tile_bytes - nr * sizeof(Router));

    // The network's tables lead the arena.
    routers_ = {arena_.take<Router>(nr), nr};
    for (RouterId r = 0; r < static_cast<RouterId>(nr); ++r)
        ::new (static_cast<void *>(&routers_[static_cast<std::size_t>(r)]))
            Router(r, ports, config_.vcsOf(r), depth, maxDownVcs(r),
                   *routing_, config_.escapeThreshold,
                   config_.intraPacketPairing);
    nis_ = {arena_.carve<NetworkInterface *>(nn, nullptr), nn};
    ends_ = {arena_.carve<ChannelEnds>(n_ends), n_ends};
    std::size_t i = 0;
    forEachEnd([&](const ChannelEnds &e) { ends_[i++] = e; });
    wideChannels_ = {arena_.carve<Channel *>(n_wide, nullptr), n_wide};
    hopLanes_ =
        arena_.carve<std::uint8_t>(nr * static_cast<std::size_t>(ports));
    for (std::span<ActiveList> *lists :
         {&blockEjectEnds_, &blockFlitEnds_, &blockCreditEnds_,
          &blockRouters_, &blockNis_})
        *lists = {arena_.carveArray<ActiveList>(nb), nb};
    // The blocks' states, and the team's slot tables for the most
    // slots the network can have, whatever the thread count (§6h);
    // the slot spans take their length when a team forms.
    slotBlocks_ = {arena_.carve<int>(nb / 2 + 1), 0};
    blocks_ = {arena_.carveArray<BlockState>(nb), nb};
    slotNs_ = {arena_.carveArray<TeamSlotNs>(nb / 2), 0};

    // Then each block in visit order, so the per-cycle stream walks the
    // arena front to back: its lists' storage, its eject queue,
    // its ejection channels each followed by its NI, its delivered
    // channels, its routers.
    forEachInVisitOrder(
        [&](std::size_t b) {
            const std::size_t *m = &members[kRoles * b];
            blockEjectEnds_[b].place(arena_, n_ends, m[kEject]);
            blockFlitEnds_[b].place(arena_, n_ends, m[kFlits]);
            blockCreditEnds_[b].place(arena_, n_ends, m[kCredits]);
            blockRouters_[b].place(arena_, nr, m[kRouters]);
            blockNis_[b].place(arena_, nn, m[kNis]);
            blocks_[b].ejected = {
                arena_.carve<EjectedPacket>(eject_lanes[b]), eject_lanes[b]};
        },
        [&](std::uint32_t id) {
            ChannelEnds &e = ends_[id];
            ChannelShape c = shapeOf(e);
            e.chan = arena_.make<Channel>(static_cast<int>(id), c.widthBits,
                                          c.lanes, c.flitDelay,
                                          c.creditDelay);
            e.chan->place(arena_);
            if (e.sinkIsRouter)
                return;
            auto n = static_cast<std::size_t>(e.sinkNode);
            nis_[n] = arena_.make<NetworkInterface>(
                e.sinkNode, this, config_.vcsOf(e.driverRouter));
            nis_[n]->place(arena_);
        },
        [&](std::size_t r) { routers_[r].place(arena_); });

    // Wire every end, in channel-id order.
    std::size_t wide = 0;
    for (std::size_t id = 0; id < n_ends; ++id) {
        ChannelEnds &e = ends_[id];
        Channel *ch = e.chan;
        if (ch->lanes() > 1)
            wideChannels_[wide++] = ch;
        if (e.sinkIsRouter)
            routers_[static_cast<std::size_t>(e.sinkRouter)].connectInput(
                e.sinkPort, ch);
        if (e.driverIsRouter) {
            Router &driver = routers_[static_cast<std::size_t>(e.driverRouter)];
            RouterId down = e.sinkIsRouter ? e.sinkRouter : e.driverRouter;
            driver.connectOutput(e.driverPort, ch, config_.vcsOf(down),
                                 depth);
            hopLanes_[static_cast<std::size_t>(e.driverRouter * ports +
                                               e.driverPort)] =
                static_cast<std::uint8_t>(ch->lanes());
        } else {
            nis_[static_cast<std::size_t>(e.driverNode)]->connectInjection(
                ch, depth,
                &routers_[static_cast<std::size_t>(e.sinkRouter)].activity(),
                config_.intraPacketPairing);
        }
        if (!e.sinkIsRouter) {
            routers_[static_cast<std::size_t>(e.driverRouter)]
                .markEjectionPort(e.driverPort);
            nis_[static_cast<std::size_t>(e.sinkNode)]->connectEjection(ch);
        }
        // An end between two blocks is pinned in both its lists and
        // keeps null hooks, so no send wakes another block's list.
        auto i32 = static_cast<std::uint32_t>(id);
        if (e.driverIsRouter && e.sinkIsRouter &&
            blockOf(e.driverRouter) != blockOf(e.sinkRouter)) {
            flitListOf(e).pin(i32);
            creditListOf(e).pin(i32);
        } else {
            ch->setWakeHooks(&flitListOf(e), &creditListOf(e), i32);
        }
    }
}

void
Network::setupBlocks(std::uint64_t tile_bytes)
{
    int n_routers = topo_->numRouters();

    int tiles = config_.blockTiles;
    if (tiles <= 0) {
        // Auto-size: fit one block's component state (routers +
        // channels + NIs, from their footprint formulas) in the
        // L2 budget, rounded down to whole mesh rows so blocks stay
        // spatially contiguous.
        std::uint64_t per_router =
            std::max<std::uint64_t>(1, tile_bytes /
                static_cast<std::uint64_t>(n_routers));
        tiles = static_cast<int>(
            std::min<std::uint64_t>(static_cast<std::uint64_t>(n_routers),
                                    kBlockL2Bytes / per_router));
        int cols = topo_->gridCols();
        if (tiles > cols)
            tiles = tiles / cols * cols;
        if (tiles < 1)
            tiles = 1;
    }
    blockTiles_ = std::min(tiles, n_routers);
    numBlocks_ = (n_routers + blockTiles_ - 1) / blockTiles_;
}

template <typename BlockFn, typename EndFn, typename RouterFn>
void
Network::forEachInVisitOrder(BlockFn &&on_block, EndFn &&on_end,
                             RouterFn &&on_router) const
{
    // The blocked step loop's order as a team slot walks it (§6g,
    // §6h): for each block its terminal ejection ends (its eject
    // pass), its delivered ends, then its routers. Ends group by
    // (block, role) with a counting sort, in id order within a group.
    const auto groups = 2 * static_cast<std::size_t>(numBlocks_);
    auto group = [&](const ChannelEnds &e) {
        return 2 * static_cast<std::size_t>(blockOf(
                       e.sinkIsRouter ? e.sinkRouter : e.driverRouter)) +
               e.sinkIsRouter;
    };
    std::vector<std::uint32_t> start(groups + 1, 0);
    for (const ChannelEnds &e : ends_)
        ++start[group(e) + 1];
    for (std::size_t g = 0; g < groups; ++g)
        start[g + 1] += start[g];
    std::vector<std::uint32_t> order(ends_.size());
    {
        std::vector<std::uint32_t> next(start.begin(), start.end() - 1);
        for (std::size_t i = 0; i < ends_.size(); ++i)
            order[next[group(ends_[i])]++] = static_cast<std::uint32_t>(i);
    }
    auto n_routers = static_cast<RouterId>(routers_.size());
    for (int b = 0; b < numBlocks_; ++b) {
        auto bb = static_cast<std::size_t>(b);
        on_block(bb);
        for (std::uint32_t k = start[2 * bb]; k < start[2 * bb + 2]; ++k)
            on_end(order[k]);
        auto lo = static_cast<RouterId>(b) *
                  static_cast<RouterId>(blockTiles_);
        RouterId hi = std::min(
            lo + static_cast<RouterId>(blockTiles_), n_routers);
        for (RouterId r = lo; r < hi; ++r)
            on_router(static_cast<std::size_t>(r));
    }
}

std::vector<HotSpan>
Network::arenaSections() const
{
    std::vector<HotSpan> out;
    auto add = [&](const auto &sections) {
        out.insert(out.end(), sections.begin(), sections.end());
    };
    auto table = [&](const auto &span) {
        out.push_back({span.data(), span.size_bytes()});
    };
    table(routers_);
    table(nis_);
    table(ends_);
    table(wideChannels_);
    out.push_back({hopLanes_, routers_.size() * static_cast<std::size_t>(
                                  topo_->portsPerRouter())});
    for (auto lists : {blockEjectEnds_, blockFlitEnds_, blockCreditEnds_,
                       blockRouters_, blockNis_})
        table(lists);
    const std::size_t ms = blocks_.size() / 2;
    out.push_back({slotBlocks_.data(), (ms + 1) * sizeof(int)});
    table(blocks_);
    out.push_back({slotNs_.data(), ms * sizeof(TeamSlotNs)});
    forEachInVisitOrder(
        [&](std::size_t b) {
            for (auto lists : {blockEjectEnds_, blockFlitEnds_,
                               blockCreditEnds_, blockRouters_, blockNis_})
                out.push_back(lists[b].placedSpan());
            table(blocks_[b].ejected);
        },
        [&](std::uint32_t id) {
            const ChannelEnds &e = ends_[id];
            add(e.chan->placedSections());
            if (!e.sinkIsRouter)
                add(nis_[static_cast<std::size_t>(e.sinkNode)]
                        ->placedSections());
        },
        [&](std::size_t r) { add(routers_[r].placedSections()); });
    return out;
}


Packet *
Network::allocPacket()
{
    if (freePackets_ == nullptr) {
        // A new slab: its header on the first line, then packets, the
        // lowest address first out.
        auto *slab = static_cast<std::byte *>(
            detail::takePagedBlock(kPacketSlabBytes));
        packetSlabs_ = ::new (slab) PacketSlab{packetSlabs_};
        ++numPacketSlabs_;
        for (std::size_t i = kSlabPackets; i-- > 0;)
            freePacket(slab + HotArena::kLine + i * sizeof(Packet));
    }
    FreePacket *slot = freePackets_;
    freePackets_ = slot->next;
    return ::new (static_cast<void *>(slot)) Packet{};
}

void
Network::freePacket(void *slot)
{
    freePackets_ = ::new (slot) FreePacket{freePackets_};
}

Packet *
Network::enqueuePacket(NodeId src, NodeId dst, int num_flits,
                       std::uint64_t tag, void *context)
{
    if (src < 0 || src >= topo_->numNodes() || dst < 0 ||
        dst >= topo_->numNodes())
        panic("enqueuePacket: invalid endpoints %d -> %d", src, dst);
    if (src == dst)
        panic("enqueuePacket: src == dst (%d)", src);
    Packet *pkt = allocPacket();
    pkt->id = nextPacketId_++;
    pkt->src = src;
    pkt->dst = dst;
    pkt->numFlits = num_flits;
    pkt->createdAt = cycle_;
    pkt->tag = tag;
    pkt->context = context;
    if (config_.routing == RoutingMode::TableXY) {
        const auto &table =
            static_cast<const TableXYRouting &>(*routing_);
        pkt->tableRouted = table.isTableNode(src) || table.isTableNode(dst);
    } else if (config_.routing == RoutingMode::O1Turn) {
        // Alternate dimension orders deterministically by packet id.
        pkt->yxRouted = (pkt->id & 1) != 0;
    }
    nis_[static_cast<std::size_t>(src)]->enqueue(pkt);
    ++packetsInjected_;
    ++livePackets_;
    // The Inject event arms the blame ledger: allocPacket() hands out a
    // fresh Packet, so detached runs carry none.
    if (Probe *pr = probe())
        pr->inject(cycle_, *pkt, livePackets_, config_.linkLatency);
    return pkt;
}

void
Network::rewireProbe()
{
    probe_ = attached_.attached() ? &attached_ : nullptr;
    for (auto &r : routers_)
        r.setProbe(probe_);
    for (auto &ni : nis_)
        ni->setProbe(probe_);
}

std::unique_ptr<MetricRegistry>
Network::makeMetricRegistry(Cycle epoch_cycles) const
{
    MetricRegistry::Dims dims;
    dims.routers = topo_->numRouters();
    dims.ports = topo_->portsPerRouter();
    dims.vcs = config_.defaultVcs;
    for (RouterId r = 0; r < topo_->numRouters(); ++r)
        dims.vcs = std::max(dims.vcs, config_.vcsOf(r));
    dims.gridCols = topo_->gridCols();

    return std::make_unique<MetricRegistry>(dims, epoch_cycles);
}

MetricRegistry::EpochRow
Network::activityTotals() const
{
    MetricRegistry::EpochRow t;
    t.occupancyFlitCycles.reserve(routers_.size());
    t.flitsRouted.reserve(routers_.size());
    for (const Router &r : routers_) {
        t.occupancyFlitCycles.push_back(r.occupancySum());
        t.flitsRouted.push_back(r.activity().bufferReads);
    }
    t.linkFlits.assign(routers_.size(), 0);
    for (const ChannelEnds &e : ends_)
        if (e.driverIsRouter)
            t.linkFlits[static_cast<std::size_t>(e.driverRouter)] +=
                e.chan->flitsSent();
    return t;
}

void
Network::attachTelemetry(MetricRegistry *reg)
{
    attached_.registry = reg;
    rewireProbe();
    if (reg)
        reg->beginWindow(cycle_, activityTotals());
}

void
Network::detachTelemetry()
{
    if (attached_.registry)
        attached_.registry->finish(activityTotals());
    attachTelemetry(nullptr);
}

void
Network::attachProfiler(Profiler *prof)
{
    profiler_ = prof;
    for (auto &r : routers_)
        r.setProfiler(prof);
    if (prof && !alwaysStep_) {
        // Arm per-block attribution: each block's time plus its
        // steady-state hot footprint (what the block walks: channels
        // keyed by the block that takes their flits, NIs with their
        // ejection channels, routers), from which reports derive
        // bytes-streamed-per-cycle.
        auto nb = static_cast<std::size_t>(numBlocks_);
        prof->enableBlocks(nb);
        std::vector<std::uint64_t> bytes(nb, 0);
        std::size_t block = 0;
        forEachInVisitOrder(
            [&](std::size_t b) { block = b; },
            [&](std::uint32_t id) {
                const ChannelEnds &e = ends_[id];
                bytes[block] += e.chan->footprintBytes();
                if (!e.sinkIsRouter)
                    bytes[block] += nis_[static_cast<std::size_t>(e.sinkNode)]
                                        ->footprintBytes();
            },
            [&](std::size_t r) {
                bytes[block] += routers_[r].footprintBytes();
            });
        for (std::size_t b = 0; b < nb; ++b)
            prof->setBlockBytes(b, bytes[b]);
    }
}

std::unique_ptr<BlameCollector>
Network::makeBlameCollector() const
{
    BlameCollector::Dims dims;
    dims.routers = topo_->numRouters();
    dims.ports = topo_->portsPerRouter();
    dims.gridCols = topo_->gridCols();

    auto bc = std::make_unique<BlameCollector>(dims);
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        // The paper's router classes: "big" means more VCs or a wider
        // local datapath than the baseline mesh router.
        bool big = config_.vcsOf(r) > config_.defaultVcs ||
                   config_.localChannelBits(r) > config_.flitWidthBits;
        bc->setRouterClass(r, big);
    }
    for (const ChannelEnds &e : ends_) {
        if (!e.driverIsRouter)
            continue;
        BlameLinkClass cls =
            !e.sinkIsRouter ? BlameLinkClass::Local
            : e.chan->lanes() > 1 ? BlameLinkClass::Wide
                                  : BlameLinkClass::Narrow;
        bc->setPortLinkClass(e.driverRouter, e.driverPort, cls);
    }
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        bc->setNodeRouter(n, topo_->routerOfNode(n));
    return bc;
}

MemoryAudit
Network::memoryAudit() const
{
    MemoryAudit a;
    a.tiles = topo_->numNodes();
    const std::size_t nr = routers_.size();
    const std::size_t nn = nis_.size();
    const std::size_t ne = ends_.size();

    // The arena's rows: each component's carved storage, the objects,
    // the channel-end tables, the active lists and the unused tail.
    std::uint64_t b = 0;
    for (const Router &r : routers_)
        b += r.arenaBytes();
    a.add("routers", b, nr);

    b = 0;
    for (const ChannelEnds &e : ends_)
        b += e.chan->arenaBytes();
    a.add("channels", b, ne);

    b = 0;
    for (const NetworkInterface *ni : nis_)
        b += ni->arenaBytes();
    a.add("network_interfaces", b, nn);

    a.add("component_objects",
          HotArena::bytesFor<Router>(nr) +
              HotArena::bytesFor<NetworkInterface *>(nn) +
              ne * HotArena::bytesFor<Channel>(1) +
              nn * HotArena::bytesFor<NetworkInterface>(1),
          nr + ne + nn);

    a.add("channel_ends",
          HotArena::bytesFor<ChannelEnds>(ne) +
              HotArena::bytesFor<Channel *>(wideChannels_.size()) +
              HotArena::bytesFor<std::uint8_t>(
                  nr * static_cast<std::size_t>(topo_->portsPerRouter())),
          ne);

    std::uint64_t lists = 0;
    for (auto role : {blockEjectEnds_, blockFlitEnds_, blockCreditEnds_,
                      blockRouters_, blockNis_}) {
        lists += HotArena::bytesFor<ActiveList>(role.size());
        for (const ActiveList &l : role)
            lists += l.footprintBytes();
    }
    a.add("active_set", lists, ne + nr + nn);

    // The blocks' eject queues and costs and the team's tables,
    // carved for every network, whatever the thread count (§6h).
    a.add("step_team",
          teamStateBytes(blocks_.size(),
                         [&](std::size_t b) {
                             return blocks_[b].ejected.size();
                         }),
          blocks_.size());

    if (arena_.reservedBytes() > 0)
        a.add("arena_pad",
              arena_.reservedBytes() - HotArena::lineBytes(arena_.used()),
              1);

    if (numPacketSlabs_ > 0)
        a.add("packet_slabs", numPacketSlabs_ * kPacketSlabBytes,
              numPacketSlabs_);

    if (attached_.registry)
        a.add("metric_registry", attached_.registry->footprintBytes(), 1);
    if (attached_.recorder)
        a.add("flight_recorder", attached_.recorder->footprintBytes(), 1);
    if (attached_.blame)
        a.add("blame_collector", attached_.blame->footprintBytes(), 1);
    return a;
}

bool
Network::auditCreditConservation(std::string *err) const
{
    for (const ChannelEnds &e : ends_) {
        // The downstream buffer being credited: a router input port,
        // or the NI ejection sink (which consumes instantly, so its
        // occupancy is always zero).
        int vcs = e.sinkIsRouter
                      ? routers_[static_cast<std::size_t>(e.sinkRouter)]
                            .vcsPerPort()
                      : routers_[static_cast<std::size_t>(e.driverRouter)]
                            .outputVcCount(e.driverPort);
        for (VcId v = 0; v < vcs; ++v) {
            int driver_credits =
                e.driverIsRouter
                    ? routers_[static_cast<std::size_t>(e.driverRouter)]
                          .outputCredits(e.driverPort, v)
                    : nis_[static_cast<std::size_t>(e.driverNode)]
                          ->injectionCredits(v);
            int in_flight_flits = e.chan->pipeFlits(v);
            int in_flight_credits = e.chan->pipeCredits(v);
            int sink_occ =
                e.sinkIsRouter
                    ? routers_[static_cast<std::size_t>(e.sinkRouter)]
                          .inputVcOccupancy(e.sinkPort, v)
                    : 0;
            int total = driver_credits + in_flight_flits +
                        in_flight_credits + sink_occ;
            if (total != config_.bufferDepth) {
                if (err) {
                    char buf[256];
                    std::snprintf(
                        buf, sizeof(buf),
                        "channel %d vc %d: credits %d + pipe flits %d + "
                        "pipe credits %d + sink occupancy %d = %d, "
                        "expected buffer depth %d",
                        e.chan->id(), v, driver_credits, in_flight_flits,
                        in_flight_credits, sink_occ, total,
                        config_.bufferDepth);
                    *err = buf;
                }
                return false;
            }
        }
    }
    return true;
}

std::string
Network::postmortemJson(const std::string &reason) const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("schema", "hnoc-postmortem-v1");
    w.keyValue("reason", reason);
    w.keyValue("cycle", static_cast<std::uint64_t>(cycle_));
    w.keyValue("packets_injected", packetsInjected_);
    w.keyValue("packets_delivered", packetsDelivered_);
    w.keyValue("flits_delivered", flitsDelivered_);
    w.keyValue("packets_in_flight",
               static_cast<std::uint64_t>(livePackets_));
    w.keyValue("source_queue_depth",
               static_cast<std::uint64_t>(totalSourceQueueDepth()));
    w.keyValue("last_delivery_cycle",
               static_cast<std::uint64_t>(lastDelivery_));

    w.key("config").beginObject();
    w.keyValue("topology", topologyName(config_.topology));
    w.keyValue("routers", topo_->numRouters());
    w.keyValue("ports", topo_->portsPerRouter());
    w.keyValue("grid_cols", topo_->gridCols());
    w.keyValue("buffer_depth", config_.bufferDepth);
    w.endObject();

    // Per-router pipeline snapshot. Idle state is the common case in a
    // postmortem's healthy regions, so only waiting/allocated VCs are
    // emitted.
    w.key("routers").beginArray();
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        const Router &router = routers_[static_cast<std::size_t>(r)];
        w.beginObject();
        w.keyValue("id", r);
        w.keyValue("occupancy", router.bufferOccupancy());
        w.key("input_vcs").beginArray();
        for (PortId p = 0; p < router.numPorts(); ++p) {
            for (VcId v = 0; v < router.vcsPerPort(); ++v) {
                Router::InputVcView view = router.inputVcView(p, v);
                if (view.occupancy == 0 && !view.active)
                    continue;
                w.beginObject();
                w.keyValue("port", p);
                w.keyValue("vc", v);
                w.keyValue("occupancy", view.occupancy);
                w.keyValue("active", view.active);
                w.keyValue("out_port", view.outPort);
                w.keyValue("out_vc", view.outVc);
                w.keyValue("head_since",
                           static_cast<std::uint64_t>(view.headSince));
                w.keyValue("pkt", view.pkt);
                w.endObject();
            }
        }
        w.endArray();
        w.key("output_vcs").beginArray();
        for (PortId p = 0; p < router.numPorts(); ++p) {
            for (VcId v = 0; v < router.outputVcCount(p); ++v) {
                bool allocated = router.outputAllocated(p, v);
                int credits = router.outputCredits(p, v);
                if (!allocated && credits == config_.bufferDepth)
                    continue;
                w.beginObject();
                w.keyValue("port", p);
                w.keyValue("vc", v);
                w.keyValue("credits", credits);
                w.keyValue("allocated", allocated);
                w.endObject();
            }
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();

    w.key("source_queues").beginArray();
    for (const auto &ni : nis_) {
        if (ni->sourceQueueDepth() == 0)
            continue;
        w.beginObject();
        w.keyValue("node", ni->node());
        w.keyValue("depth",
                   static_cast<std::uint64_t>(ni->sourceQueueDepth()));
        w.endObject();
    }
    w.endArray();

    std::string audit_err;
    bool audit_ok = auditCreditConservation(&audit_err);
    w.key("conservation").beginObject();
    w.keyValue("ok", audit_ok);
    if (!audit_ok)
        w.keyValue("error", audit_err);
    w.endObject();

    if (attached_.recorder) {
        w.key("flight_recorder");
        attached_.recorder->writeJson(w);
    }
    if (attached_.registry) {
        w.key("telemetry");
        attached_.registry->writeJson(w);
    }
    w.endObject();
    return w.str();
}

bool
Network::writePostmortem(const std::string &path,
                         const std::string &reason) const
{
    return writeTextFile(path, postmortemJson(reason), "HNOC_JSON_DIR");
}

void
Network::deliverFlitsOf(ChannelEnds &e, Cycle now)
{
    // Flits are handed straight to their receiver — router input-VC
    // SoA arrays or the NI — without staging in a scratch vector;
    // per-channel delivery order (oldest first) is unchanged.
    if (e.sinkIsRouter) {
        Router &r = routers_[static_cast<std::size_t>(e.sinkRouter)];
        e.chan->deliverFlitsTo(now, [&](const Flit &f) {
            r.receiveFlit(e.sinkPort, f, now);
        });
        return;
    }
    NetworkInterface &ni = *nis_[static_cast<std::size_t>(e.sinkNode)];
    e.chan->deliverFlitsTo(now, [&](const Flit &f) {
        ++flitsDelivered_;
        if (Probe *pr = probe())
            pr->flitEject(now, f,
                          config_.intraPacketPairing && e.chan->lanes() > 1);
        if (Packet *done = ni.receiveFlit(f, now))
            deliverPacket(*done, now);
    });
}

void
Network::deliverPacket(Packet &pkt, Cycle now)
{
    ++packetsDelivered_;
    --livePackets_;
    lastDelivery_ = now;
    if (Probe *pr = probe())
        pr->eject(now, pkt);
    if (client_)
        client_->onPacketDelivered(*this, pkt, now);
    if (Probe *pr = probe())
        pr->retire(pkt);
    freePacket(&pkt);
}

void
Network::deliverCreditsOf(ChannelEnds &e, Cycle now)
{
    if (e.driverIsRouter) {
        Router &r = routers_[static_cast<std::size_t>(e.driverRouter)];
        e.chan->deliverCreditsTo(now, [&](VcId vc) {
            r.receiveCredit(e.driverPort, vc, now);
        });
    } else {
        NetworkInterface &ni = *nis_[static_cast<std::size_t>(e.driverNode)];
        e.chan->deliverCreditsTo(now, [&](VcId vc) { ni.receiveCredit(vc); });
    }
}

void
Network::ejectBlock(std::size_t b, Cycle now)
{
    // Per end: flit consumption, each completed packet queued for
    // deliverEjected(), then the credit return to the driver router's
    // ejection port.
    BlockState &q = blocks_[b];
    const bool look_ahead = numBlocks_ > 1;
    blockEjectEnds_[b].forEachActive(
        [&](std::uint32_t i) { return !ends_[i].chan->idle(); },
        [&](std::uint32_t i) {
            ChannelEnds &e = ends_[i];
            NetworkInterface &ni = *nis_[static_cast<std::size_t>(e.sinkNode)];
            e.chan->deliverFlitsTo(now, [&](const Flit &f) {
                ++q.flits;
                if (Probe *pr = probe())
                    pr->flitEject(now, f,
                                  config_.intraPacketPairing &&
                                      e.chan->lanes() > 1);
                if (Packet *done = ni.receiveFlit(f, now))
                    q.ejected[q.count++] = {done, q.flits};
            });
            deliverCreditsOf(e, now);
        },
        [&](std::uint32_t i) {
            if (look_ahead) {
                ends_[i].chan->prefetchFlits();
                ends_[i].chan->prefetchCredits();
            }
        });
}

void
Network::deliverBlock(std::size_t b, Cycle now)
{
    // Prefetch look-ahead pays only when the chip's working set
    // exceeds one cache block (multi-block networks streaming from
    // L3); on a single-block network everything is already resident
    // and the extra per-entry work is pure scan overhead.
    const bool look_ahead = numBlocks_ > 1;
    blockFlitEnds_[b].forEachActive(
        [&](std::uint32_t i) { return ends_[i].chan->hasFlits(); },
        [&](std::uint32_t i) { deliverFlitsOf(ends_[i], now); },
        [&](std::uint32_t i) {
            if (look_ahead)
                ends_[i].chan->prefetchFlits();
        });
    blockCreditEnds_[b].forEachActive(
        [&](std::uint32_t i) { return ends_[i].chan->hasCredits(); },
        [&](std::uint32_t i) { deliverCreditsOf(ends_[i], now); },
        [&](std::uint32_t i) {
            if (look_ahead)
                ends_[i].chan->prefetchCredits();
        });
}

void
Network::stepBlock(std::size_t b, Cycle now, Profiler *prof)
{
    const bool look_ahead = numBlocks_ > 1;
    blockRouters_[b].forEachActive(
        [&](std::uint32_t i) { return routers_[i].busy(); },
        [&](std::uint32_t i) { routers_[i].step(now); },
        [&](std::uint32_t i) {
            if (look_ahead)
                routers_[i].prefetchStep();
        });
    ProfScope s(prof, ProfPhase::NiInject);
    blockNis_[b].forEachActive(
        [&](std::uint32_t i) { return nis_[i]->busy(); },
        [&](std::uint32_t i) { nis_[i]->stepInject(now); });
}

void
Network::step()
{
    Cycle now = cycle_;

    // A big network may run the cycle on its team (§6h): the client's
    // preCycle on this thread while the team ejects and delivers, the
    // delivery callbacks on this thread, then every block's steps.
    // Otherwise this thread runs the same cycle alone.
    if (teamEligible_) {
        // Team accounting (report-only) times the leader from here.
        Clock::time_point start;
        if (kTelemetryEnabled)
            start = Clock::now();
        if (stepOnTeam()) {
            finishTeamCycle(start);
            ++cycle_;
            return;
        }
    }

    if (client_)
        client_->preCycle(*this, now);

    // Self-profiling (report-only): the StepTotal scope opens after
    // the client callback, so step_total covers network work only and
    // the unattributed residual is active-set scan + loop overhead.
    // With no profiler attached each scope costs one branch; the OFF
    // build folds `prof` to nullptr and compiles the timers away.
    Profiler *prof = kTelemetryEnabled ? profiler_ : nullptr;
    ProfScope stepScope(prof, ProfPhase::StepTotal);

    // Channel delivery (flits, then credits) is split into a flit
    // role and a credit role so the cache-blocked path can run each
    // in its receiver's block pass; per-channel delivery order
    // (flits, then credits, each oldest-first) is unchanged.
    auto deliverEnd = [&](ChannelEnds &e) {
        deliverFlitsOf(e, now);
        deliverCreditsOf(e, now);
    };

    if (alwaysStep_) {
        // Exhaustive phase-major reference loop: every channel end,
        // every router, every NI, in canonical index order.
        for (std::size_t i = 0, n = ends_.size(); i < n; ++i) {
            if (ends_[i].chan->idle())
                continue;
            if (prof) {
                // Router-sink channels file under channel_delivery;
                // the terminal ejection channels (flit consumption +
                // credit return at the NI) under ni_eject.
                ProfScope s(prof, ends_[i].sinkIsRouter
                                      ? ProfPhase::ChannelDelivery
                                      : ProfPhase::NiEject);
                deliverEnd(ends_[i]);
            } else {
                deliverEnd(ends_[i]);
            }
        }
        for (auto &r : routers_)
            r.step(now);
        {
            ProfScope s(prof, ProfPhase::NiInject);
            for (auto &ni : nis_)
                ni->stepInject(now);
        }
    } else {
        // The cycle of §6h, with one slot holding every block.
        const bool timed = prof != nullptr;
        walkBlocks(0, 0, numBlocks_, timed);
        {
            ProfScope s(prof, ProfPhase::NiEject);
            deliverEjected();
        }
        walkBlocks(1, 0, numBlocks_, timed);
    }

    if (Probe *pr = probe()) {
        ProfScope s(prof, ProfPhase::TelemetryTick);
        if (pr->tick())
            attached_.registry->closeEpoch(activityTotals());
    }

    ++cycle_;
}

int
Network::stepThreads() const
{
    return team_ ? team_->peakThreads() : 1;
}

bool
Network::stepOnTeam()
{
    // Attached instruments see events in serial order, so they keep
    // the cycle on this thread.
    if (probe_ != nullptr || profiler_ != nullptr)
        return false;
    // Helpers come from the pool running this thread, else the shared
    // pool. A team stays with the pool it formed on: stepped from a
    // thread of another pool, the network steps serially.
    JobPool *pool = JobPool::current();
    if (pool == nullptr)
        pool = &JobPool::shared();
    if (!team_) {
        // A pool busy with other points has no worker to lend; form
        // the team once it does.
        if (pool->idleWorkers() == 0)
            return false;
        formTeam(*pool);
        if (!team_)
            return false;
    }
    if (&team_->pool() != pool)
        return false;
    if (kTelemetryEnabled)
        teamMarks_[0] = Clock::now();
    if (!team_->runCycle())
        return false;
    if (kTelemetryEnabled)
        teamMarks_[3] = Clock::now();
    return true;
}

void
Network::formTeam(JobPool &pool)
{
    // The pool's size (HNOC_THREADS) bounds the team, leader included,
    // and so do the host's cores: team threads wait on each other
    // every phase, so one more than the cores would always wait.
    int threads = std::min(pool.threadCount(), numBlocks_ / 2);
    if (unsigned hw = std::thread::hardware_concurrency(); hw >= 1)
        threads = std::min(threads, static_cast<int>(hw));
    if (threads < 2) {
        teamEligible_ = false;
        return;
    }

    // One slot per team thread: contiguous block ranges, even by count
    // until the first cut by cost. build() carved the state.
    auto ns = static_cast<std::size_t>(threads);
    slotBlocks_ = {slotBlocks_.data(), ns + 1};
    slotNs_ = {slotNs_.data(), ns};
    for (int s = 0; s <= threads; ++s)
        slotBlocks_[static_cast<std::size_t>(s)] = numBlocks_ * s / threads;
    nextCut_ = kFirstCutCycles;
    teamStats_.slots = threads;
    team_ = std::make_unique<StepTeam>(pool, threads, &Network::teamSlot,
                                       this, &Network::teamOpening,
                                       &Network::teamBetween);
}

void
Network::cutSlotsByCost()
{
    // The smallest bound on a slot's cost that contiguous ranges can
    // meet (binary search over a greedy fill), then the cut that
    // meets it with every slot non-empty. Contiguous ranges keep a
    // slot's blocks neighbours in the arena and on one core. The
    // leader's slot also carries the leader's opening section.
    const auto nb = static_cast<std::size_t>(numBlocks_);
    const std::size_t ns = slotBlocks_.size() - 1;
    auto cost = [&](std::size_t b) { return blocks_[b].costNs; };
    std::uint64_t lo = openingCostNs_ + cost(0);
    std::uint64_t hi = openingCostNs_;
    for (std::size_t b = 0; b < nb; ++b) {
        lo = std::max(lo, cost(b));
        hi += cost(b);
    }
    auto fits = [&](std::uint64_t bound) {
        std::size_t slots = 1;
        std::uint64_t sum = openingCostNs_;
        for (std::size_t b = 0; b < nb; ++b) {
            if (sum + cost(b) > bound) {
                ++slots;
                sum = 0;
            }
            sum += cost(b);
        }
        return slots <= ns;
    };
    while (lo < hi) {
        std::uint64_t mid = lo + (hi - lo) / 2;
        if (fits(mid))
            hi = mid;
        else
            lo = mid + 1;
    }
    // Fill each slot up to the bound, but leave a block for each
    // slot after it. The team reads the cut only inside a cycle.
    std::size_t b = 0;
    for (std::size_t s = 0; s < ns; ++s) {
        slotBlocks_[s] = static_cast<int>(b);
        std::uint64_t sum = (s == 0 ? openingCostNs_ : 0) + cost(b++);
        while (b < nb && nb - b > ns - 1 - s &&
               (s + 1 == ns || sum + cost(b) <= lo))
            sum += cost(b++);
    }
    slotBlocks_[ns] = numBlocks_;

    for (BlockState &bs : blocks_)
        bs.costNs = 0;
    openingCostNs_ = 0;
}

std::uint64_t
Network::walkBlocks(int phase, int lo, int hi, bool timed)
{
    // Every channel delay is >= 1 cycle, so nothing sent this cycle is
    // deliverable this cycle: every block's eject and delivery before
    // any block's steps delivers what an interleaved order would
    // (§6g, §6h). Each list scan asks the component's own predicate
    // before the visit and drops entries with no work (active_set.hh).
    const Cycle now = cycle_;
    Profiler *prof = kTelemetryEnabled ? profiler_ : nullptr;
    Clock::time_point start;
    if (timed)
        start = Clock::now();
    Clock::time_point t = start;
    for (int b = lo; b < hi; ++b) {
        auto bb = static_cast<std::size_t>(b);
        BlockState &bs = blocks_[bb];
        // A pass with empty lists is skipped. A block is touched in a
        // cycle in which a delivery or step list of it has work: one
        // visit to its profiler row.
        if (phase == 0) {
            if (blockEjectEnds_[bb].size() > 0) {
                ProfScope s(prof, ProfPhase::NiEject);
                ejectBlock(bb, now);
            }
            bs.touched = blockFlitEnds_[bb].size() > 0 ||
                         blockCreditEnds_[bb].size() > 0;
            if (bs.touched) {
                ProfScope s(prof, ProfPhase::ChannelDelivery);
                deliverBlock(bb, now);
            }
        } else if (blockRouters_[bb].size() > 0 || blockNis_[bb].size() > 0) {
            bs.touched = true;
            stepBlock(bb, now, prof);
        }
        if (!timed)
            continue;
        // One clock per block and phase: the cut's cost and the
        // profiler's block row.
        Clock::time_point t1 = Clock::now();
        std::uint64_t ns = nsBetween(t, t1);
        t = t1;
        bs.costNs += ns;
        if (prof)
            prof->addBlock(bb, ns, phase == 1 && bs.touched);
    }
    return timed ? nsBetween(start, t) : 0;
}

void
Network::teamSlot(void *net, int phase, int slot)
{
    auto &n = *static_cast<Network *>(net);
    auto s = static_cast<std::size_t>(slot);
    std::uint64_t ns = n.walkBlocks(phase, n.slotBlocks_[s],
                                    n.slotBlocks_[s + 1], true);
    if (kTelemetryEnabled)
        n.slotNs_[s].ns[phase] = ns;
}

void
Network::teamOpening(void *net)
{
    auto &n = *static_cast<Network *>(net);
    n.openingNs_ = 0;
    if (!n.client_)
        return;
    const Clock::time_point start = Clock::now();
    n.client_->preCycle(n, n.cycle_);
    n.openingNs_ = nsBetween(start, Clock::now());
    n.openingCostNs_ += n.openingNs_;
}

void
Network::deliverEjected()
{
    // Block order is node order, and each block queued its packets in
    // node order: the alwaysStep loop's callback order, and its counter
    // values at each callback.
    for (BlockState &bs : blocks_) {
        std::uint64_t base = flitsDelivered_;
        for (std::size_t i = 0; i < bs.count; ++i) {
            auto [pkt, flits] = bs.ejected[i];
            flitsDelivered_ = base + flits;
            deliverPacket(*pkt, cycle_);
        }
        flitsDelivered_ = base + bs.flits;
        bs.count = 0;
        bs.flits = 0;
    }
}

void
Network::teamBetween(void *net)
{
    auto &n = *static_cast<Network *>(net);
    if (kTelemetryEnabled)
        n.teamMarks_[1] = Clock::now();
    n.deliverEjected();
    if (kTelemetryEnabled)
        n.teamMarks_[2] = Clock::now();
}

void
Network::finishTeamCycle(Clock::time_point start)
{
    if (++teamCycles_ == nextCut_) {
        cutSlotsByCost();
        nextCut_ *= kCutSpacing;
    }
    if (!kTelemetryEnabled)
        return;
    // The leader's opening runs in phase 0 and delays its home slot.
    slotNs_[0].ns[0] += openingNs_;
    const auto *m = teamMarks_;
    teamStats_.serialNs += nsBetween(start, m[0]) + nsBetween(m[1], m[2]) +
                           nsBetween(m[3], Clock::now());
    ++teamStats_.cycles;
    for (int phase = 0; phase < 2; ++phase) {
        std::uint64_t slowest = 0;
        for (const TeamSlotNs &slot : slotNs_) {
            slowest = std::max(slowest, slot.ns[phase]);
            teamStats_.slotNs[phase] += slot.ns[phase];
        }
        teamStats_.slowestSlotNs[phase] += slowest;
    }
}

Cycle
Network::minTransferCycles(NodeId src, NodeId dst, int num_flits) const
{
    // Delivery callbacks call this per packet: walk the route into
    // storage this thread keeps, not a fresh vector.
    thread_local std::vector<RouteHop> hops;
    routing_->fillPath(src, dst, hops);
    auto n_hops = static_cast<Cycle>(hops.size());
    Cycle head = static_cast<Cycle>(config_.linkLatency) +
                 n_hops * static_cast<Cycle>(config_.pipelineStages +
                                             config_.linkLatency);

    // Serialization lower bound: the narrowest channel on the path
    // limits how fast the tail can follow the head. With intra-packet
    // pairing, wide (multi-lane) channels move two flits per cycle.
    // The injection channel is as wide as the source router's ejection
    // channel; every hop's lanes come from the channel it leaves by.
    int min_lanes = 1;
    if (config_.intraPacketPairing) {
        const auto ports =
            static_cast<std::size_t>(topo_->portsPerRouter());
        auto lanes = [&](RouterId r, PortId p) {
            return static_cast<int>(
                hopLanes_[static_cast<std::size_t>(r) * ports +
                          static_cast<std::size_t>(p)]);
        };
        min_lanes =
            lanes(topo_->routerOfNode(src), topo_->localPortOfNode(src));
        for (const RouteHop &h : hops)
            min_lanes = std::min(min_lanes, lanes(h.router, h.port));
    }

    auto serialization = static_cast<Cycle>(
        (num_flits - 1 + min_lanes - 1) / min_lanes);
    return head + serialization;
}

double
NetLatencyStats::add(const Network &net, const Packet &pkt,
                     Cycle transfer_cycles)
{
    double ns = net.nsPerCycle();
    auto total = static_cast<double>(pkt.ejectedAt - pkt.createdAt);
    auto queuing = static_cast<double>(pkt.queuingLatency());
    auto transfer = static_cast<double>(transfer_cycles);
    double blocking = std::max(0.0, total - queuing - transfer);
    totalNs.add(total * ns);
    queuingNs.add(queuing * ns);
    transferNs.add(transfer * ns);
    blockingNs.add(blocking * ns);
    return total;
}

void
Network::resetMeasurement()
{
    measureStart_ = cycle_;
    assert(!attached_.registry &&
           "resetMeasurement() would break the registry's epoch baseline");
    for (auto &r : routers_) {
        r.activity() = RouterActivity{};
        r.resetOccupancy();
    }
    for (ChannelEnds &e : ends_)
        e.chan->resetStats();
    teamStats_ = TeamStats{};
    teamStats_.slots = static_cast<int>(slotNs_.size());
}

std::vector<double>
Network::bufferUtilizationPercent() const
{
    std::vector<double> util;
    util.reserve(routers_.size());
    double cycles = static_cast<double>(measuredCycles());
    for (const auto &r : routers_) {
        double cap = static_cast<double>(r.bufferCapacity());
        util.push_back(cycles > 0.0
                           ? 100.0 * static_cast<double>(r.occupancySum()) /
                                 (cap * cycles)
                           : 0.0);
    }
    return util;
}

std::vector<double>
Network::linkUtilizationPercent() const
{
    // Average lane utilization of each router's outgoing directional
    // channels.
    std::vector<double> util(routers_.size(), 0.0);
    std::vector<int> count(routers_.size(), 0);
    Cycle cycles = measuredCycles();
    for (const ChannelEnds &e : ends_) {
        if (!e.driverIsRouter || !e.sinkIsRouter)
            continue; // only inter-router links, as in Fig 1(b)
        util[static_cast<std::size_t>(e.driverRouter)] +=
            100.0 * e.chan->laneUtilization(cycles);
        ++count[static_cast<std::size_t>(e.driverRouter)];
    }
    for (std::size_t i = 0; i < util.size(); ++i)
        if (count[i] > 0)
            util[i] /= count[i];
    return util;
}

PowerBreakdown
Network::powerReport() const
{
    PowerBreakdown total;
    int ports = topo_->portsPerRouter();
    // Routers no longer count their own stepped cycles (idle cycles
    // may be skipped); the power model's time denominator is the
    // measurement window, identical to what the exhaustive loop
    // accumulated one cycle at a time.
    Cycle window = measuredCycles();
    for (RouterId r = 0; r < topo_->numRouters(); ++r) {
        auto model = RouterPowerModel::calibrated(
            config_.physParamsOf(r, ports), clockGHz_);
        RouterActivity act =
            routers_[static_cast<std::size_t>(r)].activity();
        act.cycles = window;
        total += model.power(act);
    }
    return total;
}

double
Network::combineRate() const
{
    std::uint64_t busy = 0;
    std::uint64_t paired = 0;
    for (const Channel *c : wideChannels_) {
        busy += c->busyCycles();
        paired += c->pairedCycles();
    }
    return busy ? static_cast<double>(paired) / static_cast<double>(busy)
                : 0.0;
}

std::size_t
Network::totalSourceQueueDepth() const
{
    std::size_t n = 0;
    for (const auto &ni : nis_)
        n += ni->sourceQueueDepth();
    return n;
}

std::string
Network::dumpState() const
{
    char buf[64];
    std::string out = "network state @ cycle ";
    std::snprintf(buf, sizeof(buf), "%llu\n",
                  static_cast<unsigned long long>(cycle_));
    out += buf;
    out += "buffer occupancy (flits) per router:\n";
    int cols = topo_->gridCols();
    for (int r = 0; r < topo_->numRouters(); ++r) {
        std::snprintf(buf, sizeof(buf), "%4d",
                      routers_[static_cast<std::size_t>(r)]
                          .bufferOccupancy());
        out += buf;
        if ((r + 1) % cols == 0)
            out += '\n';
    }
    bool any_queue = false;
    for (const auto &ni : nis_) {
        if (ni->sourceQueueDepth() > 0) {
            if (!any_queue) {
                out += "non-empty source queues:\n";
                any_queue = true;
            }
            std::snprintf(buf, sizeof(buf), "  node %d: %zu\n",
                          ni->node(), ni->sourceQueueDepth());
            out += buf;
        }
    }
    std::snprintf(buf, sizeof(buf), "in flight: %zu packets\n",
                  livePackets_);
    out += buf;
    return out;
}

} // namespace hnoc
