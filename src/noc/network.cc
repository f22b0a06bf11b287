#include "noc/network.hh"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <thread>

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
    setupBlocks();
    packHotArena();

    // Point every component's wake hooks at the active lists that
    // schedule it. The hooks keep raw pointers into the per-block list
    // vectors, which setupBlocks() sized for good. Every component is
    // still idle here, so no list needs seeding.
    for (std::size_t i = 0; i < ends_.size(); ++i)
        ends_[i].chan->setWakeHooks(&flitListOf(ends_[i]),
                                    &creditListOf(ends_[i]),
                                    static_cast<std::uint32_t>(i));
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

    // A team needs at least two blocks per thread (§6h).
    teamEligible_ = !alwaysStep_ && numBlocks_ >= 4;
}

Network::~Network() = default;

Channel *
Network::makeChannel(int width_bits, int flit_delay, int credit_delay)
{
    int lanes = std::max(1, width_bits / config_.flitWidthBits);
    channels_.push_back(std::make_unique<Channel>(
        static_cast<int>(channels_.size()), width_bits, lanes, flit_delay,
        credit_delay));
    Channel *c = channels_.back().get();
    if (lanes > 1)
        wideChannels_.push_back(c);
    return c;
}

void
Network::build()
{
    int n_routers = topo_->numRouters();
    int ports = topo_->portsPerRouter();
    int inter_delay = (config_.pipelineStages - 1) + config_.linkLatency;

    // Routers live by value in one contiguous vector: the per-cycle
    // step pass walks them in index (= block) order, so the object
    // headers stream linearly instead of chasing per-router heap
    // pointers. reserve() pins the addresses before wiring takes
    // them.
    routers_.reserve(static_cast<std::size_t>(n_routers));
    for (RouterId r = 0; r < n_routers; ++r) {
        routers_.emplace_back(
            r, ports, config_.vcsOf(r), config_.bufferDepth, *routing_,
            config_.escapeThreshold, config_.intraPacketPairing,
            config_.saPolicy);
    }

    // Inter-router channels: one per directed (router, dir-port) pair.
    for (RouterId r = 0; r < n_routers; ++r) {
        for (PortId p = 0; p < topo_->numDirPorts(); ++p) {
            const PortPeer &peer = topo_->peer(r, p);
            if (peer.router == INVALID_ROUTER)
                continue;
            Channel *ch =
                makeChannel(config_.channelBits(r, peer.router),
                            inter_delay, config_.linkLatency);
            routers_[static_cast<std::size_t>(r)].connectOutput(
                p, ch, config_.vcsOf(peer.router), config_.bufferDepth);
            routers_[static_cast<std::size_t>(peer.router)].connectInput(
                peer.port, ch);

            ChannelEnds e;
            e.chan = ch;
            e.sinkIsRouter = true;
            e.sinkRouter = peer.router;
            e.sinkPort = peer.port;
            e.driverIsRouter = true;
            e.driverRouter = r;
            e.driverPort = p;
            ends_.push_back(e);
        }
    }

    // Local channels: injection (NI -> router) and ejection.
    int n_nodes = topo_->numNodes();
    nis_.reserve(static_cast<std::size_t>(n_nodes));
    for (NodeId n = 0; n < n_nodes; ++n) {
        RouterId r = topo_->routerOfNode(n);
        PortId lp = topo_->localPortOfNode(n);
        Router &router = routers_[static_cast<std::size_t>(r)];
        nis_.push_back(std::make_unique<NetworkInterface>(n, this));
        NetworkInterface &ni = *nis_.back();

        int local_bits = config_.localChannelBits(r);

        Channel *inj =
            makeChannel(local_bits, config_.linkLatency,
                        config_.linkLatency);
        router.connectInput(lp, inj);
        ni.connectInjection(inj, config_.vcsOf(r), config_.bufferDepth,
                            &router.activity(),
                            config_.intraPacketPairing);
        ChannelEnds ei;
        ei.chan = inj;
        ei.sinkIsRouter = true;
        ei.sinkRouter = r;
        ei.sinkPort = lp;
        ei.driverIsRouter = false;
        ei.driverNode = n;
        ends_.push_back(ei);

        Channel *ej = makeChannel(local_bits, inter_delay,
                                  config_.linkLatency);
        router.connectOutput(lp, ej, config_.vcsOf(r),
                             config_.bufferDepth);
        router.markEjectionPort(lp);
        ni.connectEjection(ej);
        ChannelEnds ee;
        ee.chan = ej;
        ee.sinkIsRouter = false;
        ee.sinkNode = n;
        ee.driverIsRouter = true;
        ee.driverRouter = r;
        ee.driverPort = lp;
        ends_.push_back(ee);
    }

    // All ports are wired: pack each router's per-output credit
    // counters into their aligned hot rows.
    for (auto &router : routers_)
        router.finalizeWiring();
}

void
Network::setupBlocks()
{
    int n_routers = topo_->numRouters();

    int tiles = config_.blockTiles;
    if (tiles <= 0) {
        // Auto-size: fit one block's component state (routers +
        // channels + NIs, measured from the real footprints) in the
        // L2 budget, rounded down to whole mesh rows so blocks stay
        // spatially contiguous.
        std::uint64_t bytes = 0;
        for (const auto &r : routers_)
            bytes += r.footprintBytes();
        for (const auto &c : channels_)
            bytes += c->footprintBytes();
        for (const auto &ni : nis_)
            bytes += ni->footprintBytes();
        std::uint64_t per_router =
            std::max<std::uint64_t>(1, bytes /
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

    // Size each block's active lists to its exact membership so the
    // steady state never reallocates.
    auto nb = static_cast<std::size_t>(numBlocks_);
    std::vector<std::size_t> flit_count(nb, 0);
    std::vector<std::size_t> credit_count(nb, 0);
    std::vector<std::size_t> router_count(nb, 0);
    std::vector<std::size_t> ni_count(nb, 0);
    std::size_t eject_count = 0;
    for (const ChannelEnds &e : ends_) {
        if (!e.sinkIsRouter) {
            ++eject_count;
            continue;
        }
        ++flit_count[static_cast<std::size_t>(blockOf(e.sinkRouter))];
        RouterId cr = e.driverIsRouter ? e.driverRouter : e.sinkRouter;
        ++credit_count[static_cast<std::size_t>(blockOf(cr))];
    }
    for (RouterId r = 0; r < n_routers; ++r)
        ++router_count[static_cast<std::size_t>(blockOf(r))];
    for (NodeId n = 0; n < topo_->numNodes(); ++n)
        ++ni_count[static_cast<std::size_t>(
            blockOf(topo_->routerOfNode(n)))];

    ejectEnds_.reserve(ends_.size(), eject_count);
    blockFlitEnds_.resize(nb);
    blockCreditEnds_.resize(nb);
    blockRouters_.resize(nb);
    blockNis_.resize(nb);
    for (std::size_t b = 0; b < nb; ++b) {
        blockFlitEnds_[b].reserve(ends_.size(), flit_count[b]);
        blockCreditEnds_[b].reserve(ends_.size(), credit_count[b]);
        blockRouters_[b].reserve(routers_.size(), router_count[b]);
        blockNis_[b].reserve(nis_.size(), ni_count[b]);
    }
}

void
Network::packHotArena()
{
    std::size_t bytes = 0;
    for (const auto &r : routers_)
        bytes += r.coreArenaBytes();
    for (const auto &c : channels_)
        bytes += c->arenaBytes();
    hotArena_.reserve(bytes);

    // Carve in the blocked step loop's visit order (§6g): terminal
    // ejection channels first (the global eject pass), then for each
    // block its delivered channels followed by its routers, so the
    // per-cycle stream walks the arena front to back.
    for (const ChannelEnds &e : ends_)
        if (!e.sinkIsRouter)
            e.chan->moveToArena(hotArena_);
    auto n_routers = static_cast<RouterId>(routers_.size());
    for (int b = 0; b < numBlocks_; ++b) {
        for (const ChannelEnds &e : ends_)
            if (e.sinkIsRouter && blockOf(e.sinkRouter) == b)
                e.chan->moveToArena(hotArena_);
        auto lo = static_cast<RouterId>(b) *
                  static_cast<RouterId>(blockTiles_);
        RouterId hi = std::min(
            lo + static_cast<RouterId>(blockTiles_), n_routers);
        for (RouterId r = lo; r < hi; ++r)
            routers_[static_cast<std::size_t>(r)].moveCoreToArena(
                hotArena_);
    }
}

Packet *
Network::allocPacket()
{
    if (!freeList_.empty()) {
        Packet *p = freeList_.back();
        freeList_.pop_back();
        return p;
    }
    packetArena_.push_back(std::make_unique<Packet>());
    return packetArena_.back().get();
}

void
Network::freePacket(Packet *pkt)
{
    freeList_.push_back(pkt);
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
    *pkt = Packet{};
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
    // The Inject event arms the blame ledger: `*pkt = Packet{}` above
    // resets the pointer on arena recycle, so detached runs carry none.
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
        // Arm per-block attribution: each block's pass time plus its
        // steady-state hot footprint (routers, channels keyed by the
        // block that delivers their flits, attached NIs), from which
        // reports derive bytes-streamed-per-cycle.
        auto nb = static_cast<std::size_t>(numBlocks_);
        prof->enableBlocks(nb);
        std::vector<std::uint64_t> bytes(nb, 0);
        for (std::size_t i = 0; i < routers_.size(); ++i)
            bytes[static_cast<std::size_t>(
                blockOf(static_cast<RouterId>(i)))] +=
                routers_[i].footprintBytes();
        for (const ChannelEnds &e : ends_) {
            RouterId r = e.sinkIsRouter ? e.sinkRouter : e.driverRouter;
            bytes[static_cast<std::size_t>(blockOf(r))] +=
                e.chan->footprintBytes();
        }
        for (std::size_t i = 0; i < nis_.size(); ++i)
            bytes[static_cast<std::size_t>(blockOf(
                topo_->routerOfNode(static_cast<NodeId>(i))))] +=
                nis_[i]->footprintBytes();
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

    std::uint64_t b = 0;
    for (const auto &r : routers_)
        b += r.footprintBytes();
    a.add("routers", b, routers_.size());

    b = 0;
    for (const auto &c : channels_)
        b += c->footprintBytes();
    a.add("channels", b, channels_.size());

    b = 0;
    for (const auto &ni : nis_)
        b += ni->footprintBytes();
    a.add("network_interfaces", b, nis_.size());

    a.add("packet_arena",
          packetArena_.capacity() * sizeof(std::unique_ptr<Packet>) +
              packetArena_.size() * sizeof(Packet) +
              freeList_.capacity() * sizeof(Packet *),
          packetArena_.size());

    std::uint64_t lists = ejectEnds_.footprintBytes();
    for (const ActiveList *vec :
         {blockFlitEnds_.data(), blockCreditEnds_.data(),
          blockRouters_.data(), blockNis_.data()})
        for (std::size_t i = 0; i < static_cast<std::size_t>(numBlocks_);
             ++i)
            lists += vec[i].footprintBytes() + sizeof(ActiveList);
    a.add("active_set", ends_.capacity() * sizeof(ChannelEnds) + lists,
          ends_.size() + routers_.size() + nis_.size());

    // The stepping team's outboxes exist only once a team has formed,
    // which depends on HNOC_THREADS and the host's cores (§6h), so
    // this row, unlike the others, is not fixed by the seed alone.
    if (team_) {
        std::uint64_t outbox = 0;
        for (const auto *outboxes : {&slotFlitOutbox_, &slotCreditOutbox_})
            for (const ActiveList &l : *outboxes)
                outbox += l.footprintBytes() + sizeof(ActiveList);
        a.add("step_team_outboxes", outbox, slotFlitOutbox_.size());
    }

    if (hotArena_.reservedBytes() > 0)
        a.add("hot_arena_pad",
              hotArena_.reservedBytes() - hotArena_.used(), 1);

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
        Packet *done = ni.receiveFlit(f, now);
        if (done) {
            ++packetsDelivered_;
            --livePackets_;
            lastDelivery_ = now;
            if (Probe *pr = probe())
                pr->eject(now, *done);
            if (client_)
                client_->onPacketDelivered(*this, *done, now);
            if (Probe *pr = probe())
                pr->retire(*done);
            freePacket(done);
        }
    });
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
        // Cache-blocked tile-major passes (§6g). Every channel delay
        // is >= 1 cycle, so nothing sent this cycle becomes
        // deliverable this cycle, and deliveries to distinct
        // receivers commute — the per-receiver event order (one
        // point-to-point channel per receiver, FIFO pipes) and the
        // canonical node order of terminal ejections are what the
        // results depend on, and both are preserved. See DESIGN.md
        // §6g for the full bit-identity argument.
        //
        // Each list scan asks the component's own predicate before the
        // visit and drops entries with no work (active_set.hh).
        //
        // Eject pass first: terminal (NI-sink) ends in canonical node
        // order — flit consumption, delivery callbacks, and the
        // credit return to the driver router's ejection port (a
        // commutative counter increment that precedes every router
        // step).
        if (ejectEnds_.size() > 0) {
            ProfScope s(prof, ProfPhase::NiEject);
            const bool look_ahead = numBlocks_ > 1;
            ejectEnds_.forEachActive(
                [&](std::uint32_t i) { return !ends_[i].chan->idle(); },
                [&](std::uint32_t i) { deliverEnd(ends_[i]); },
                [&](std::uint32_t i) {
                    if (look_ahead) {
                        ends_[i].chan->prefetchFlits();
                        ends_[i].chan->prefetchCredits();
                    }
                });
        }
        // Then per block: deliver the block's inbound flits and
        // outbound-channel credits, step its routers, inject from its
        // NIs — touching each block's packed hot state once per cycle
        // while it is cache-resident. A big network may instead run
        // all deliveries, then all steps, on its team (§6h).
        if (!(teamEligible_ && stepOnTeam())) {
            for (std::size_t b = 0, nb = static_cast<std::size_t>(numBlocks_);
                 b < nb; ++b) {
                if (blockFlitEnds_[b].size() == 0 &&
                    blockCreditEnds_[b].size() == 0 &&
                    blockRouters_[b].size() == 0 &&
                    blockNis_[b].size() == 0)
                    continue;
                std::chrono::steady_clock::time_point t0;
                if (prof)
                    t0 = std::chrono::steady_clock::now();
                {
                    ProfScope s(prof, ProfPhase::ChannelDelivery);
                    deliverBlock(b, now);
                }
                stepBlock(b, now, prof);
                if (prof)
                    prof->addBlock(
                        b, static_cast<std::uint64_t>(
                               std::chrono::duration_cast<
                                   std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now() - t0)
                                   .count()));
            }
        }
        if (team_)
            mergeWakeOutboxes();
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
    // the serial loop.
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
    return &team_->pool() == pool && team_->runCycle();
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

    // One slot per team thread: a contiguous, static block partition.
    auto ns = static_cast<std::size_t>(threads);
    slotBlocks_.resize(ns + 1);
    std::vector<int> block_slot(static_cast<std::size_t>(numBlocks_));
    for (int s = 0; s <= threads; ++s)
        slotBlocks_[static_cast<std::size_t>(s)] = numBlocks_ * s / threads;
    for (int s = 0; s < threads; ++s)
        for (int b = slotBlocks_[static_cast<std::size_t>(s)];
             b < slotBlocks_[static_cast<std::size_t>(s) + 1]; ++b)
            block_slot[static_cast<std::size_t>(b)] = s;
    auto slot_of = [&](RouterId r) {
        return static_cast<std::size_t>(
            block_slot[static_cast<std::size_t>(blockOf(r))]);
    };

    // A send in the step phase (router steps, NI injection) may wake
    // a list that another slot scans, or the leader's eject list;
    // those wakes go to the sending slot's outbox. A router-driven
    // end's flits are sent by its driver, its credits by its sink; an
    // NI-driven end lives inside one block, and an ejection end's
    // credits are sent by the leader's eject pass.
    slotFlitOutbox_.resize(ns);
    slotCreditOutbox_.resize(ns);
    std::vector<std::size_t> flit_count(ns, 0);
    std::vector<std::size_t> credit_count(ns, 0);
    for (std::size_t i = 0; i < ends_.size(); ++i) {
        const ChannelEnds &e = ends_[i];
        ActiveList *flits = &flitListOf(e);
        ActiveList *credits = &creditListOf(e);
        if (e.driverIsRouter) {
            std::size_t driver = slot_of(e.driverRouter);
            std::size_t sink =
                e.sinkIsRouter ? slot_of(e.sinkRouter) : ns; // eject list
            if (sink != driver) {
                flits = &slotFlitOutbox_[driver];
                ++flit_count[driver];
            }
            if (sink != driver && sink < ns) {
                credits = &slotCreditOutbox_[sink];
                ++credit_count[sink];
            }
        }
        e.chan->setWakeHooks(flits, credits, static_cast<std::uint32_t>(i));
    }
    for (std::size_t s = 0; s < ns; ++s) {
        slotFlitOutbox_[s].reserve(ends_.size(), flit_count[s]);
        slotCreditOutbox_[s].reserve(ends_.size(), credit_count[s]);
    }
    team_ = std::make_unique<StepTeam>(pool, threads, &Network::teamSlot,
                                       this);
}

void
Network::teamSlot(void *net, int phase, int slot)
{
    auto &n = *static_cast<Network *>(net);
    auto s = static_cast<std::size_t>(slot);
    for (int b = n.slotBlocks_[s]; b < n.slotBlocks_[s + 1]; ++b) {
        if (phase == 0)
            n.deliverBlock(static_cast<std::size_t>(b), n.cycle_);
        else
            n.stepBlock(static_cast<std::size_t>(b), n.cycle_, nullptr);
    }
}

void
Network::mergeWakeOutboxes()
{
    for (std::size_t s = 0; s < slotFlitOutbox_.size(); ++s) {
        slotFlitOutbox_[s].drainPending(
            [&](std::uint32_t i) { flitListOf(ends_[i]).wake(i); });
        slotCreditOutbox_[s].drainPending(
            [&](std::uint32_t i) { creditListOf(ends_[i]).wake(i); });
    }
}

Cycle
Network::minTransferCycles(NodeId src, NodeId dst, int num_flits) const
{
    auto path = routing_->path(src, dst);
    auto hops = static_cast<Cycle>(path.size());
    Cycle head = static_cast<Cycle>(config_.linkLatency) +
                 hops * static_cast<Cycle>(config_.pipelineStages +
                                           config_.linkLatency);

    // Serialization lower bound: the narrowest channel on the path
    // limits how fast the tail can follow the head. With intra-packet
    // pairing, wide (multi-lane) channels move two flits per cycle.
    int min_lanes =
        std::max(1, config_.localChannelBits(path.front()) /
                        config_.flitWidthBits);
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        int lanes = std::max(
            1, config_.channelBits(path[i], path[i + 1]) /
                   config_.flitWidthBits);
        min_lanes = std::min(min_lanes, lanes);
    }
    min_lanes = std::min(
        min_lanes, std::max(1, config_.localChannelBits(path.back()) /
                                   config_.flitWidthBits));
    if (!config_.intraPacketPairing)
        min_lanes = 1;

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
    for (auto &c : channels_)
        c->resetStats();
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
