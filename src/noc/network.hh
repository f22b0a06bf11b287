/**
 * @file
 * The Network: owns routers, channels, NIs, packet storage, routing,
 * and the per-cycle simulation loop. Clients (traffic harnesses, the
 * CMP system) inject packets and receive delivery callbacks.
 */

#ifndef HNOC_NOC_NETWORK_HH
#define HNOC_NOC_NETWORK_HH

#include <memory>
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

/** Callback interface for packet producers/consumers. */
class NetworkClient
{
  public:
    virtual ~NetworkClient() = default;

    /** Called at the start of every cycle; inject via enqueuePacket. */
    virtual void
    preCycle(Network &net, Cycle now)
    {
        (void)net;
        (void)now;
    }

    /**
     * Called when a packet's tail reaches its destination NI. The
     * packet is recycled after this returns; copy what you need.
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
     * Per-component steady-state memory breakdown: routers (SoA core
     * + scratch), channels (pipes), NIs, the packet arena, the
     * active lists, and any attached registry/recorder. Byte
     * counts come from container capacities, so the audit reflects
     * grown high-water marks, not just construction-time sizes.
     */
    MemoryAudit memoryAudit() const;
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

    void build();
    /** Point probe_, every router and every NI at attached_ or
     *  nullptr. */
    void rewireProbe();

    /** The live probe; folds to nullptr under HNOC_TELEMETRY=OFF. */
    Probe *probe() const { return kTelemetryEnabled ? probe_ : nullptr; }

    /** Per-router cumulative occupancy, link-flit (over the channels
     *  each router drives) and buffer-read counts: the totals the
     *  registry's epoch rows difference. */
    MetricRegistry::EpochRow activityTotals() const;

    Channel *makeChannel(int width_bits, int flit_delay, int credit_delay);
    void setupBlocks();

    /** @name The list each channel-end role wakes (§6a) */
    ///@{
    /** Flit role: the sink router's block, or the eject list. */
    ActiveList &
    flitListOf(const ChannelEnds &e)
    {
        return e.sinkIsRouter
                   ? blockFlitEnds_[static_cast<std::size_t>(
                         blockOf(e.sinkRouter))]
                   : ejectEnds_;
    }

    /** Credit role: the block of the router that receives the
     *  credits — the driver router, or for NI-driven injection
     *  channels the sink router, whose block steps the NI — or the
     *  eject list. */
    ActiveList &
    creditListOf(const ChannelEnds &e)
    {
        if (!e.sinkIsRouter)
            return ejectEnds_;
        RouterId r = e.driverIsRouter ? e.driverRouter : e.sinkRouter;
        return blockCreditEnds_[static_cast<std::size_t>(blockOf(r))];
    }
    ///@}

    /** @name Per-cycle passes (§6g) */
    ///@{
    /** Deliver the flits of @p e due at @p now to its sink. */
    void deliverFlitsOf(ChannelEnds &e, Cycle now);
    /** Deliver the credits of @p e due at @p now to its driver. */
    void deliverCreditsOf(ChannelEnds &e, Cycle now);
    /** Block @p b's deliveries: its inbound flits, then the credits
     *  its routers and NIs receive. */
    void deliverBlock(std::size_t b, Cycle now);
    /** Block @p b's router steps, then its NI injections (timed as
     *  NiInject on @p prof). */
    void stepBlock(std::size_t b, Cycle now, Profiler *prof);
    ///@}

    /** @name Stepping team (§6h) */
    ///@{
    /** Run this cycle's block passes on the team. @return false, with
     *  nothing run, when the cycle must step serially. */
    bool stepOnTeam();
    /** Partition the blocks into slots, route cross-slot wakes to
     *  outboxes and create team_ on @p pool, or rule the team out for
     *  good. */
    void formTeam(JobPool &pool);
    /** StepTeam item: phase 0 delivers, phase 1 steps, the blocks of
     *  slot @p slot. */
    static void teamSlot(void *net, int phase, int slot);
    /** Hand the cycle's outboxed wakes to their lists, in slot
     *  order. */
    void mergeWakeOutboxes();
    ///@}

    void packHotArena();
    Packet *allocPacket();
    void freePacket(Packet *pkt);

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

    /** Contiguous, by value, in step (= block) order — the per-cycle
     *  pass streams the object headers linearly (§6g). Addresses are
     *  pinned by the build-time reserve(). */
    std::vector<Router> routers_;
    std::vector<std::unique_ptr<NetworkInterface>> nis_;
    std::vector<std::unique_ptr<Channel>> channels_;
    std::vector<ChannelEnds> ends_;
    std::vector<Channel *> wideChannels_;

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
     *    !busy().
     * Terminal ejection ends (NI sink) live in one global list woken
     * by both sends, scanned first each cycle in canonical order and
     * dropped once both pipes are empty. Components hold raw pointers
     * into these vectors, so setupBlocks() sizes them once and they
     * never reallocate.
     */
    int blockTiles_ = 0;
    int numBlocks_ = 1;

    /** Block-ordered, huge-page-backed storage for router cores and
     *  channel pipes (§6g); sized once by packHotArena(). */
    HotArena hotArena_;
    ActiveList ejectEnds_;
    std::vector<ActiveList> blockFlitEnds_;
    std::vector<ActiveList> blockCreditEnds_;
    std::vector<ActiveList> blockRouters_;
    std::vector<ActiveList> blockNis_;

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

    std::vector<std::unique_ptr<Packet>> packetArena_;
    std::vector<Packet *> freeList_;

    /**
     * Stepping team (§6h). Only an active-set network with at least
     * two blocks per team thread is eligible; the team forms at the
     * first step with nothing attached. Slot s steps the blocks
     * [slotBlocks_[s], slotBlocks_[s + 1]). A send whose wake belongs
     * to a list another slot scans (or to the eject list) wakes the
     * sending slot's outbox instead, merged after the cycle.
     */
    bool teamEligible_ = false;
    std::vector<int> slotBlocks_;
    std::vector<ActiveList> slotFlitOutbox_;
    std::vector<ActiveList> slotCreditOutbox_;
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
