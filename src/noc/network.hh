/**
 * @file
 * The Network: owns routers, channels, NIs, packet storage, routing,
 * and the per-cycle simulation loop. Clients (traffic harnesses, the
 * CMP system) inject packets and receive delivery callbacks.
 */

#ifndef HNOC_NOC_NETWORK_HH
#define HNOC_NOC_NETWORK_HH

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/hot_arena.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "noc/channel.hh"
#include "noc/flit.hh"
#include "noc/network_config.hh"
#include "noc/network_interface.hh"
#include "noc/probe.hh"
#include "noc/router.hh"
#include "noc/routing.hh"
#include "noc/topology.hh"
#include "power/router_power.hh"
#include "telemetry/profiler.hh"

namespace hnoc
{

class JobPool;
class Network;
class StepTeam;

/**
 * Where the cycles a stepping team ran went (DESIGN.md §6h):
 * report-only, zero on a network that never formed a team, and
 * compiled out (left zero) under -DHNOC_TELEMETRY=OFF.
 */
struct TeamStats
{
    std::uint64_t cycles = 0;   ///< cycles stepped on the team
    int slots = 0;              ///< slots per phase (team threads)
    /** Leader-only time of those cycles: step() outside the two
     *  phases, mostly the delivery callbacks between them. (The
     *  client's preCycle runs in phase 0, alongside the helpers.) */
    std::uint64_t serialNs = 0;
    /** Per phase, the slowest slot's time, summed over the cycles;
     *  the leader's slot counts the preCycle it waited for. */
    std::uint64_t slowestSlotNs[2] = {0, 0};
    /** Per phase, every slot's time, summed over the cycles. */
    std::uint64_t slotNs[2] = {0, 0};

    double
    serialNsPerCycle() const
    {
        return cycles ? static_cast<double>(serialNs) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    /** Slowest slot over mean slot, both phases together: 1 when the
     *  slots take equally long, 0 with no team cycle. */
    double
    slotImbalance() const
    {
        double mean = static_cast<double>(slotNs[0] + slotNs[1]) /
                      std::max(slots, 1);
        return mean > 0.0 ? static_cast<double>(slowestSlotNs[0] +
                                                slowestSlotNs[1]) /
                                mean
                          : 0.0;
    }
};

/** Callback interface for packet producers/consumers. */
class NetworkClient
{
  public:
    virtual ~NetworkClient() = default;

    /**
     * Called at the start of every cycle; inject via enqueuePacket.
     * On a cycle stepped by a team (DESIGN.md §6h) it runs while the
     * team delivers that cycle's flits, so read no router or channel
     * state here.
     */
    virtual void
    preCycle(Network &net, Cycle now)
    {
        (void)net;
        (void)now;
    }

    /**
     * Called when a packet's tail reaches its destination NI. The
     * packet is recycled after this returns; copy what you need.
     * A cycle's deliveries come in canonical node order, on the
     * thread that calls step(), before any router step or NI
     * injection of that cycle, with the delivery counters as they
     * stand after that packet. Every channel delivery of the cycle
     * has already run (DESIGN.md §6h; the alwaysStep reference loop
     * interleaves them), so read no router or channel state here.
     */
    virtual void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now)
    {
        (void)net;
        (void)pkt;
        (void)now;
    }
};

/** A complete network instance. */
class Network
{
  public:
    explicit Network(const NetworkConfig &config);
    ~Network();

    Network(const Network &) = delete;
    Network &operator=(const Network &) = delete;

    /** Install the packet producer/consumer. */
    void setClient(NetworkClient *client) { client_ = client; }

    /**
     * @return true when the exhaustive per-cycle reference loop
     * (config alwaysStep) is in force instead of active-set
     * scheduling. Results are bit-identical either way; the reference
     * loop exists to prove it.
     */
    bool alwaysStep() const { return alwaysStep_; }

    /**
     * @return routers per spatial block of the cache-blocked step
     * order (§6g), after resolving config.blockTiles and L2
     * auto-sizing.
     * Results are bit-identical for every block size.
     */
    int blockTiles() const { return blockTiles_; }

    /** @return block count of the cache-blocked step order. */
    int numBlocks() const { return numBlocks_; }

    /**
     * @return the most threads that have stepped one cycle of this
     * network together: 1 until a stepping team forms (DESIGN.md
     * §6h). Results are bit-identical for every count.
     */
    int stepThreads() const;

    /** Team accounting since the last resetMeasurement() (report-only,
     *  DESIGN.md §6h). */
    const TeamStats &teamStats() const { return teamStats_; }

    /** Advance one clock cycle. */
    void step();

    /** Advance @p cycles cycles. */
    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            step();
    }

    /** @return the current cycle. */
    Cycle now() const { return cycle_; }

    /**
     * Create a packet and place it in @p src's source queue.
     * @param num_flits packet length in flits
     * @param tag / @p context opaque client data carried to delivery
     * @return the live packet (owned by the network)
     */
    Packet *enqueuePacket(NodeId src, NodeId dst, int num_flits,
                          std::uint64_t tag = 0, void *context = nullptr);

    /** @name Introspection */
    ///@{
    const NetworkConfig &config() const { return config_; }
    const Topology &topology() const { return *topo_; }
    const RoutingAlgorithm &routing() const { return *routing_; }

    /** Network clock (worst-case router frequency, §3.4). */
    double clockGHz() const { return clockGHz_; }
    double nsPerCycle() const { return 1.0 / clockGHz_; }

    /** Flits per data (cache-line) packet for this configuration. */
    int dataPacketFlits() const { return config_.dataPacketFlits(); }

    /**
     * Contention-free packet latency in cycles from source-queue head
     * to tail ejection: head pipeline latency plus serialization.
     */
    Cycle minTransferCycles(NodeId src, NodeId dst, int num_flits) const;
    ///@}

    /** @name Measurement window */
    ///@{
    /** Zero all activity/utilization/channel counters. */
    void resetMeasurement();

    /** Cycles elapsed since the last resetMeasurement(). */
    Cycle measuredCycles() const { return cycle_ - measureStart_; }

    /** Per-router average buffer utilization, percent (Fig 1a/2). */
    std::vector<double> bufferUtilizationPercent() const;

    /** Per-router mean outgoing-link utilization, percent (Fig 1b). */
    std::vector<double> linkUtilizationPercent() const;

    /** Aggregate network power over the measurement window. */
    PowerBreakdown powerReport() const;

    /** Fraction of busy wide-channel cycles that carried two flits. */
    double combineRate() const;

    std::uint64_t packetsInjected() const { return packetsInjected_; }
    std::uint64_t packetsDelivered() const { return packetsDelivered_; }
    std::uint64_t flitsDelivered() const { return flitsDelivered_; }
    Cycle lastDeliveryCycle() const { return lastDelivery_; }

    /** @return live (created, not yet delivered) packets. */
    std::size_t packetsInFlight() const { return livePackets_; }

    /** Sum of all source-queue depths (for queue-health checks). */
    std::size_t totalSourceQueueDepth() const;

    /** Read-only view of router @p r (introspection and tests). */
    const Router &
    router(RouterId r) const
    {
        return routers_[static_cast<std::size_t>(r)];
    }

    /**
     * Human-readable snapshot of buffer occupancy (a grid) and
     * non-empty source queues — the first thing to print when
     * debugging a stall.
     */
    std::string dumpState() const;
    ///@}

    /** @name Telemetry */
    ///@{
    /** Create a registry sized for this network. */
    std::unique_ptr<MetricRegistry>
    makeMetricRegistry(Cycle epoch_cycles = 1000) const;

    /**
     * Attach @p reg as a probe consumer and start its measurement
     * window at the current cycle; its first epoch row counts from the
     * activity counters' values now, so do not resetMeasurement()
     * while it is attached. Pass nullptr (or call detachTelemetry) to
     * stop collecting.
     */
    void attachTelemetry(MetricRegistry *reg);

    /** Detach and finish() the registry (closes the partial epoch). */
    void detachTelemetry();

    /** @return the attached registry, or nullptr. */
    MetricRegistry *telemetry() const { return attached_.registry; }

    /** Attach a flight recorder as a probe consumer (nullptr to
     *  detach). */
    void
    attachFlightRecorder(FlightRecorder *fr)
    {
        attached_.recorder = fr;
        rewireProbe();
    }

    /** @return the attached flight recorder, or nullptr. */
    FlightRecorder *flightRecorder() const { return attached_.recorder; }

    /**
     * Attach a self-profiler to the step loop and every router
     * (nullptr to detach). Wall-clock phase attribution is report-only
     * — simulation results are bit-identical with and without a
     * profiler attached — and the hooks compile out under
     * -DHNOC_TELEMETRY=OFF like the registry/recorder hooks.
     */
    void attachProfiler(Profiler *prof);

    /** @return the attached profiler, or nullptr. */
    Profiler *profiler() const { return profiler_; }

    /**
     * Create a BlameCollector sized for this network, with router
     * class (big/small), per-output link class (local/narrow/wide)
     * and node-to-router metadata filled in.
     */
    std::unique_ptr<BlameCollector> makeBlameCollector() const;

    /**
     * Attach a blame collector as a probe consumer, arming per-packet
     * ledger allocation (nullptr to detach). Report-only: attribution
     * never alters simulated behavior. Packets already in flight at
     * attach time carry no ledger and are skipped at delivery.
     */
    void
    attachBlame(BlameCollector *b)
    {
        attached_.blame = b;
        rewireProbe();
    }

    /** @return the attached blame collector, or nullptr. */
    BlameCollector *blame() const { return attached_.blame; }

    /**
     * Memory breakdown of everything the network owns: the arena's
     * rows — router cores, channel pipes, NI arrays, the component
     * objects, the channel ends, the active lists, the blocks' eject
     * queues with the stepping team's tables, and the arena's unused
     * tail — then the packet slabs and any attached
     * registry/recorder/collector. Without those attachments, the total
     * is the arena's reserved bytes plus the packet slabs, whatever the
     * thread count and however long the source queues.
     */
    MemoryAudit memoryAudit() const;

    /** The arena every component object and its storage live in. */
    const HotArena &arena() const { return arena_; }

    /** Every section carved from the arena, in carve order: the
     *  network's tables (the team's among them), then per block (=
     *  visit order) its active lists' storage, its eject queue,
     *  its ejection channels each followed by its NI, its delivered
     *  channels and its routers' sections. */
    std::vector<HotSpan> arenaSections() const;
    ///@}

    /** @name Diagnostics */
    ///@{
    /**
     * Credit/buffer-conservation audit: for every channel and VC,
     * driver credits + flits in flight + credits in flight + sink
     * buffer occupancy must equal the buffer depth. Valid at step
     * boundaries. On violation returns false and, when @p err is
     * non-null, describes the first broken channel.
     */
    bool auditCreditConservation(std::string *err = nullptr) const;

    /**
     * Serialize an `hnoc-postmortem-v1` document: run state, the
     * per-router pipeline snapshot, conservation-audit result, the
     * flight-recorder ring (when attached) and the telemetry registry
     * (when attached).
     */
    std::string postmortemJson(const std::string &reason) const;

    /** Write postmortemJson() to @p path (honors HNOC_JSON_DIR);
     *  false when the file could not be written in full. */
    bool writePostmortem(const std::string &path,
                         const std::string &reason) const;
    ///@}

  private:
    /** Wiring record: who consumes a channel's flits and credits. */
    struct ChannelEnds
    {
        Channel *chan = nullptr;
        bool sinkIsRouter = false;
        RouterId sinkRouter = INVALID_ROUTER;
        PortId sinkPort = INVALID_PORT;
        NodeId sinkNode = INVALID_NODE;
        bool driverIsRouter = false;
        RouterId driverRouter = INVALID_ROUTER;
        PortId driverPort = INVALID_PORT;
        NodeId driverNode = INVALID_NODE;
    };

    /** Width, lanes and delays of the channel of an end (§6g). */
    struct ChannelShape
    {
        int widthBits = 0;
        int lanes = 1;
        int flitDelay = 0;
        int creditDelay = 0;
    };

    /** A fixed slab of packets in one page block; slabs link through
     *  this header, on the slab's first cache line. */
    struct PacketSlab
    {
        PacketSlab *next;
    };

    /** A free packet's storage, linked into the free list. */
    struct FreePacket
    {
        FreePacket *next;
    };

    /** Size the arena from every component's footprint formula, carve
     *  and construct every component in visit order, then wire them. */
    void build();
    /** Call @p fn(const ChannelEnds &) for every channel end the
     *  topology calls for, in channel-id order (chan left null). */
    template <typename Fn>
    void forEachEnd(Fn &&fn) const;
    ChannelShape shapeOf(const ChannelEnds &e) const;
    /** The widest VC count router @p r's outputs feed. */
    int maxDownVcs(RouterId r) const;
    /** Point probe_, every router and every NI at attached_ or
     *  nullptr. */
    void rewireProbe();

    /** The live probe; folds to nullptr under HNOC_TELEMETRY=OFF. */
    Probe *probe() const { return kTelemetryEnabled ? probe_ : nullptr; }

    /** Per-router cumulative occupancy, link-flit (over the channels
     *  each router drives) and buffer-read counts: the totals the
     *  registry's epoch rows difference. */
    MetricRegistry::EpochRow activityTotals() const;

    /** Resolve blockTiles_ and numBlocks_, auto-sizing from
     *  @p tile_bytes, the footprint of every router, channel and NI. */
    void setupBlocks(std::uint64_t tile_bytes);

    /** @name The list each channel-end role wakes (§6a) */
    ///@{
    /** Flit role: the sink router's block, or for an ejection end
     *  its driver router's block's eject list. */
    ActiveList &
    flitListOf(const ChannelEnds &e)
    {
        return e.sinkIsRouter
                   ? blockFlitEnds_[static_cast<std::size_t>(
                         blockOf(e.sinkRouter))]
                   : blockEjectEnds_[static_cast<std::size_t>(
                         blockOf(e.driverRouter))];
    }

    /** Credit role: the block of the router that receives the
     *  credits — the driver router, or for NI-driven injection
     *  channels the sink router, whose block steps the NI — or for an
     *  ejection end its block's eject list. */
    ActiveList &
    creditListOf(const ChannelEnds &e)
    {
        if (!e.sinkIsRouter)
            return flitListOf(e);
        RouterId r = e.driverIsRouter ? e.driverRouter : e.sinkRouter;
        return blockCreditEnds_[static_cast<std::size_t>(blockOf(r))];
    }
    ///@}

    /** @name Per-cycle passes (§6g) */
    ///@{
    /** Deliver the flits of @p e due at @p now to its sink; an NI sink
     *  (the alwaysStep loop's) delivers its packets at once. */
    void deliverFlitsOf(ChannelEnds &e, Cycle now);
    /** A packet whose tail was ejected at @p now: the delivery
     *  counters, the client's callback, then recycling. */
    void deliverPacket(Packet &pkt, Cycle now);
    /** Deliver the credits of @p e due at @p now to its driver. */
    void deliverCreditsOf(ChannelEnds &e, Cycle now);
    /** A packet an eject pass completed, with its block's ejection
     *  flits up to its tail. */
    using EjectedPacket = std::pair<Packet *, std::uint64_t>;
    /** A block's cycle state, written by the thread walking it; a
     *  cache line apart from its neighbours'. */
    struct alignas(64) BlockState
    {
        /** The packets its eject pass completed this cycle: room for
         *  one per lane of its ejection channels, carved by build(). */
        std::span<EjectedPacket> ejected;
        std::size_t count = 0;
        std::uint64_t flits = 0;  ///< ejection flits this cycle
        std::uint64_t costNs = 0; ///< both phases, since the last cut
        bool touched = false;     ///< this cycle found work (profiler)
    };

    /** Block @p b's eject pass: its NIs consume their ejection flits
     *  and return the credits, in node order, and completed packets
     *  queue on the block for deliverEjected(). */
    void ejectBlock(std::size_t b, Cycle now);
    /** Block @p b's deliveries: its inbound flits, then the credits
     *  its routers and NIs receive. */
    void deliverBlock(std::size_t b, Cycle now);
    /** Block @p b's router steps, then its NI injections (timed as
     *  NiInject on @p prof). */
    void stepBlock(std::size_t b, Cycle now, Profiler *prof);
    /** Phase @p phase of the active-set cycle (§6h) over blocks
     *  [@p lo, @p hi): phase 0 ejects, then delivers, each block;
     *  phase 1 steps each block. With @p timed, each block's time
     *  feeds the cut by cost and an attached profiler's block rows.
     *  @return the range's time when @p timed, else 0. */
    std::uint64_t walkBlocks(int phase, int lo, int hi, bool timed);
    /** Between the phases: the callbacks of every block's ejected
     *  packets, in block (= node) order. */
    void deliverEjected();
    ///@}

    /** @name Stepping team (§6h) */
    ///@{
    /** Run this cycle's block passes on the team. @return false, with
     *  nothing run, when the cycle must step serially. */
    bool stepOnTeam();
    /** Bytes build() carves for the blocks' and the team's state: the
     *  slot tables for at most nb / 2 slots and the nb blocks' state,
     *  block b's eject queue holding @p lanes(b) packets. */
    template <typename Lanes>
    static std::size_t teamStateBytes(std::size_t nb, Lanes &&lanes);
    /** Pick the team's thread count and the first even cut, and
     *  create team_ on @p pool, or rule the team out for good. */
    void formTeam(JobPool &pool);
    /** Re-cut the slots into contiguous block ranges of even measured
     *  cost. */
    void cutSlotsByCost();
    /** StepTeam item: phase @p phase of the blocks of slot @p slot. */
    static void teamSlot(void *net, int phase, int slot);
    /** StepTeam opening: the client's preCycle, on the leader while
     *  the helpers eject and deliver. */
    static void teamOpening(void *net);
    /** StepTeam between section: deliverEjected(), marked for the
     *  team's accounting. */
    static void teamBetween(void *net);
    /** After a team cycle: its accounting and the cut schedule.
     *  @p start is when step() began. */
    void finishTeamCycle(std::chrono::steady_clock::time_point start);
    ///@}

    /** Call @p on_block(block), then @p on_end(end index) for each of
     *  its ends and @p on_router(router index) for each of its routers,
     *  block by block in the blocked step loop's visit order: its
     *  terminal ejection ends, its delivered ends, then its routers. */
    template <typename BlockFn, typename EndFn, typename RouterFn>
    void forEachInVisitOrder(BlockFn &&on_block, EndFn &&on_end,
                             RouterFn &&on_router) const;
    /** A fresh packet from the free list, which takes a new slab when
     *  it runs dry. */
    Packet *allocPacket();
    /** Link the storage at @p slot (a retired packet's, or a new
     *  slab's) into the free list. */
    void freePacket(void *slot);

    /** Spatial block of router @p r (contiguous id ranges). */
    int
    blockOf(RouterId r) const
    {
        return r / blockTiles_;
    }

    NetworkConfig config_;
    std::unique_ptr<Topology> topo_;
    std::unique_ptr<RoutingAlgorithm> routing_;
    double clockGHz_ = 2.2;

    /**
     * The one home of the network's state (§6g): every span below,
     * every component object and every array a component owns is
     * carved from it, sized once by build(). It is one page block
     * (page_allocator.hh), so a destroyed network's memory goes back
     * to one process-wide pool, or to the OS, whichever thread built
     * it. Routers live by value, in step (= block) order, so the
     * per-cycle pass streams the object headers linearly; channels and
     * NIs sit in visit order next to their pipes and arrays.
     */
    HotArena arena_;
    std::span<Router> routers_;
    std::span<NetworkInterface *> nis_; ///< by node
    std::span<ChannelEnds> ends_;       ///< by channel id
    std::span<Channel *> wideChannels_;
    /** Lanes of the channel leaving router r's port p, at
     *  [r * ports + p] (minTransferCycles). */
    std::uint8_t *hopLanes_ = nullptr;

    bool alwaysStep_ = false;

    /**
     * Cache-blocked step order (§6g): routers partition into
     * contiguous-id spatial blocks of blockTiles_ routers. Active-list
     * membership is the only activity record (active_set.hh); each
     * block owns one list per role:
     *  - blockFlitEnds_: channel ends whose flits its routers receive,
     *    woken by sendFlit, dropped once the flit pipe is empty;
     *  - blockCreditEnds_: ends whose credits its routers (or their
     *    NIs) receive, woken by sendCredit, dropped once the credit
     *    pipe is empty;
     *  - blockRouters_: woken by receiveFlit, dropped by !busy();
     *  - blockNis_: NIs of its routers, woken by enqueue, dropped by
     *    !busy();
     *  - blockEjectEnds_: terminal ejection ends (NI sink) of its
     *    routers, woken by both sends, dropped once both pipes are
     *    empty. Every block's eject list is scanned before any
     *    router step of the cycle.
     * An end between two blocks is pinned instead (active_set.hh) in
     * its sink's flit list and its driver's credit list, so no send
     * wakes another block's list. Nodes number their routers in
     * order, so block order is node order. Components hold raw
     * pointers to these lists, which are carved once and never move.
     */
    int blockTiles_ = 0;
    int numBlocks_ = 1;

    std::span<ActiveList> blockEjectEnds_;
    std::span<ActiveList> blockFlitEnds_;
    std::span<ActiveList> blockCreditEnds_;
    std::span<ActiveList> blockRouters_;
    std::span<ActiveList> blockNis_;

    NetworkClient *client_ = nullptr;
    Probe attached_;          ///< event consumers, as attached
    Probe *probe_ = nullptr;  ///< &attached_ while it has a consumer
    Profiler *profiler_ = nullptr;

    Cycle cycle_ = 0;
    Cycle measureStart_ = 0;
    Cycle lastDelivery_ = 0;

    std::uint64_t packetsInjected_ = 0;
    std::uint64_t packetsDelivered_ = 0;
    std::uint64_t flitsDelivered_ = 0;
    std::size_t livePackets_ = 0;
    PacketId nextPacketId_ = 1;

    /** Packet storage: fixed slabs of page blocks, shared by every
     *  thread once released, with an intrusive free list. */
    PacketSlab *packetSlabs_ = nullptr;
    std::size_t numPacketSlabs_ = 0;
    FreePacket *freePackets_ = nullptr;

    /**
     * Stepping team (§6h). Only an active-set network with at least
     * two blocks per team thread is eligible; the team forms at the
     * first step with nothing attached. Slot s steps the blocks
     * [slotBlocks_[s], slotBlocks_[s + 1]), re-cut by measured cost
     * after teamCycles_ reaches nextCut_. build() carves the team's
     * state from arena_ for every network, sized for numBlocks_ / 2
     * slots; the slot spans take their length when the team forms.
     */
    bool teamEligible_ = false;
    std::span<int> slotBlocks_;
    std::uint64_t teamCycles_ = 0;
    std::uint64_t nextCut_ = 0;

    std::span<BlockState> blocks_;
    /** This cycle's time of each slot's two items (team accounting). */
    struct alignas(64) TeamSlotNs
    {
        std::uint64_t ns[2] = {0, 0};
    };
    std::span<TeamSlotNs> slotNs_;
    std::uint64_t openingNs_ = 0;     ///< this cycle's leader opening
    std::uint64_t openingCostNs_ = 0; ///< the openings since the last cut
    /** The leader's marks of this cycle's team phases: runCycle()'s
     *  start, the between section's start and end, runCycle()'s
     *  return. */
    std::chrono::steady_clock::time_point teamMarks_[4];
    TeamStats teamStats_;

    /** Declared last, so it is destroyed first: its helpers are told
     *  to leave before the state they stepped goes away. */
    std::unique_ptr<StepTeam> team_;
};

/** Per-packet network latency aggregates (Fig 11 style), in ns. */
struct NetLatencyStats
{
    RunningStat totalNs;
    RunningStat queuingNs;
    RunningStat blockingNs;
    RunningStat transferNs;

    /**
     * Add delivered packet @p pkt: total (created -> ejected) splits
     * into source queuing, the contention-free transfer time of
     * @p net, and the in-network blocking that remains.
     * @return the total in cycles.
     */
    double
    add(const Network &net, const Packet &pkt)
    {
        return add(net, pkt,
                   net.minTransferCycles(pkt.src, pkt.dst, pkt.numFlits));
    }

    /** add(@p net, @p pkt) with the packet's minTransferCycles
     *  supplied by a caller that caches it per route. */
    double add(const Network &net, const Packet &pkt,
               Cycle transfer_cycles);

    void
    reset()
    {
        totalNs.reset();
        queuingNs.reset();
        blockingNs.reset();
        transferNs.reset();
    }
};

} // namespace hnoc

#endif // HNOC_NOC_NETWORK_HH
