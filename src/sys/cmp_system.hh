/**
 * @file
 * The 64-tile CMP of Table 2(a): trace-driven out-of-order-style cores
 * with private L1s, a shared banked L2 with a blocking directory-based
 * MESI protocol, and memory controllers — all communicating over a
 * hnoc::Network. Drives the system-level experiments (Figs 10-14).
 *
 * Clock domains: cores run at a fixed 2.2 GHz; the network runs at its
 * own (worst-case router) clock. The system steps in network cycles
 * and scales core instruction budgets and core-cycle latencies by the
 * clock ratio, so latency comparisons across network configurations
 * are time-correct.
 */

#ifndef HNOC_SYS_CMP_SYSTEM_HH
#define HNOC_SYS_CMP_SYSTEM_HH

#include <array>
#include <deque>
#include <memory>
#include <vector>

#include "common/ring_buffer.hh"
#include "common/stats.hh"
#include "noc/network.hh"
#include "sys/cache.hh"
#include "sys/dir_table.hh"
#include "sys/mc_placement.hh"
#include "sys/protocol.hh"
#include "sys/workloads.hh"

namespace hnoc
{

/** CMP parameters (defaults = Table 2(a)). */
struct CmpConfig
{
    double coreClockGHz = 2.2;

    /** Large/default core: 3-wide, 64-entry window, 16 MSHRs. */
    int issueWidth = 3;
    int windowInstrs = 64;
    int maxOutstanding = 16;

    /** Asymmetric small core (case study II): 1-wide in-order. */
    int smallIssueWidth = 1;
    int smallWindowInstrs = 1;
    int smallMaxOutstanding = 1;
    /** Tiles hosting large cores; empty = all cores are large/default. */
    std::vector<NodeId> largeCoreTiles;
    /** When true, only largeCoreTiles get the big-core parameters and
     *  all other tiles get the small-core parameters. */
    bool asymmetric = false;

    std::uint64_t l1Bytes = 32 * 1024;
    int l1Ways = 4;
    int l1LatencyCoreCycles = 2;

    std::uint64_t l2BankBytes = 1024 * 1024;
    int l2Ways = 16;
    int l2LatencyCoreCycles = 6;

    int blockBytes = 128;

    int dramLatencyCoreCycles = 400;
    /** MC service bandwidth: one request per this many network cycles. */
    int mcServiceInterval = 2;
    McPlacement mcPlacement = McPlacement::Corners;

    std::uint64_t seed = 1;
};

/** The full system. */
class CmpSystem : public NetworkClient
{
  public:
    CmpSystem(const NetworkConfig &net_config, const CmpConfig &config);
    ~CmpSystem() override;

    /** Run the same workload on every core. */
    void assignWorkloadAll(const WorkloadProfile &profile);

    /** Run @p profile on one core (others keep their assignment). */
    void assignWorkload(NodeId core, const WorkloadProfile &profile);

    /** Idle a core (no trace; used for IPC-alone runs). */
    void idleCore(NodeId core);

    /**
     * Functional cache warmup: play @p memops_per_core memory
     * operations per core directly against the cache arrays and
     * directory (no timing, no network traffic), eliminating the
     * compulsory-miss cold-start phase before timing simulation.
     * Uses separate generator instances so the timed trace stream is
     * unaffected.
     */
    void warmCaches(int memops_per_core);

    /** Advance the system by @p net_cycles network cycles. */
    void run(Cycle net_cycles);

    /** Clear measurement state (after cache/network warmup). */
    void resetStats();

    /** @name Metrics */
    ///@{
    /** Instructions per core-cycle for @p core over the window. */
    double ipc(NodeId core) const;

    /** Mean IPC over all non-idle cores. */
    double avgIpc() const;

    const NetLatencyStats &netLatency() const { return netStats_; }

    /** Load-miss round trip (issue to data back), core cycles. */
    const RunningStat &roundTripCoreCycles() const { return roundTrip_; }

    PowerBreakdown networkPower() const { return net_->powerReport(); }

    std::uint64_t l1Misses() const;
    std::uint64_t packetsSent() const { return packetsSent_; }

    /** Messages of @p type sent (network + same-tile) since start. */
    std::uint64_t
    msgCount(MsgType type) const
    {
        return msgCounts_[static_cast<std::size_t>(type)];
    }
    ///@}

    Network &network() { return *net_; }
    const CmpConfig &config() const { return config_; }

    /**
     * Per-component memory breakdown: the network's audit extended
     * with the L1/L2 arrays, the full-map MESI directory (table slots
     * plus the pooled sharer chunks), live directory transactions
     * (table slots plus the pooled deferred requests), the message
     * arena, and the event calendar, memory-controller queues and
     * transfer-time table. Every row is exact: capacities of the flat
     * tables and pools. Directory bytes grow with tracked lines, so
     * run it after warmup for a representative number.
     */
    MemoryAudit memoryAudit() const;

    /** NetworkClient interface. */
    void preCycle(Network &net, Cycle now) override;
    void onPacketDelivered(Network &net, Packet &pkt, Cycle now) override;

  private:
    struct OutstandingLoad
    {
        Addr block;
        std::uint64_t atInstr; ///< retired-instruction count at issue
    };

    struct Mshr
    {
        Addr block = 0;
        Cycle issuedAt = 0;
        bool isWrite = false;
        bool invalidatedWhilePending = false;
    };

    struct Core
    {
        bool idle = true;
        std::unique_ptr<TraceGenerator> gen;
        std::unique_ptr<CacheArray> l1;

        double issueRate = 3.0; ///< instructions per network cycle
        int window = 64;
        int maxOutstanding = 16;

        double budget = 0.0;
        std::uint64_t retired = 0;
        TraceRecord pending;
        bool hasPending = false;
        int nonMemLeft = 0;

        /** Loads in issue order (fixed capacity maxOutstanding, in
         *  CmpSystem::loadSlots_). */
        RingBuffer<OutstandingLoad> loads;
        /** Outstanding misses, unordered; reserved to maxOutstanding,
         *  which issueMemOp never exceeds. */
        std::vector<Mshr> mshrs;

        std::uint64_t l1Hits = 0;
        std::uint64_t l1Misses = 0;
        std::uint64_t retiredAtReset = 0;
    };

    /** Blocking-directory transaction state for one block. */
    struct Txn
    {
        MsgType req = MsgType::GetS;
        NodeId requester = INVALID_NODE;
        int pendingInvAcks = 0;
        bool waitingMem = false;
        bool waitingOwner = false;
        bool upgrade = false; ///< requester already held the line shared
        MsgFifo deferred;     ///< in Bank::deferredPool, arrival order
    };

    /** 16 B: with its key, a directory slot is 24 B. */
    struct DirEntry
    {
        /** The E/M holder, or INVALID_NODE when none holds the line
         *  exclusively (see SharerId for the width). */
        SharerId owner = INVALID_NODE;
        SharerList sharers; ///< in Bank::sharerPool, insertion order

        bool owned() const { return owner != INVALID_NODE; }
        void setOwner(NodeId id) { owner = static_cast<SharerId>(id); }
    };

    struct Bank
    {
        std::unique_ptr<CacheArray> l2;
        AddrTable<DirEntry> dir;
        AddrTable<Txn> busy;
        SharerPool sharerPool;
        MsgPool deferredPool;
    };

    struct MemController
    {
        bool present = false;
        MsgFifo queue; ///< in CmpSystem::mcPool_, arrival order
        Cycle nextFree = 0;
    };

    /** Deferred message processing (models controller latencies). */
    struct Event
    {
        NodeId tile; ///< handler tile, or destination when isSend
        Msg msg;
        bool isSend = false; ///< emit msg from its sender to tile
    };

    // --- helpers -------------------------------------------------------
    Cycle coreToNet(int core_cycles) const;
    NodeId homeTile(Addr block) const;
    /** Queue @p ev for the preCycle of cycle @p at (> now). */
    void schedule(Cycle at, const Event &ev);
    static Mshr *findMshr(Core &core, Addr block);
    /** Apply one functional warm-up access by core @p id to @p block,
     *  whose home bank is @p bank. */
    void warmAccess(NodeId id, Core &core, Bank &bank, Addr block,
                    bool is_write);
    void stepCore(NodeId id, Core &core, Cycle now);
    bool issueMemOp(NodeId id, Core &core, const TraceRecord &rec,
                    Cycle now);
    void installLine(NodeId id, Core &core, Addr block, CacheState state,
                     Cycle now);

    /** Send a @p type message for @p block from @p src (its sender)
     *  to @p dst on behalf of @p requester. */
    void sendMsg(NodeId src, NodeId dst, MsgType type, Addr block,
                 NodeId requester, Cycle now);
    void handleMsg(NodeId tile, const Msg &msg, Cycle now);

    void coreHandle(NodeId tile, const Msg &msg, Cycle now);
    void dirHandle(NodeId tile, const Msg &msg, Cycle now);
    void mcHandle(NodeId tile, const Msg &msg, Cycle now);

    void dirStartTxn(NodeId tile, const Msg &msg, Cycle now);
    void dirFinishTxn(NodeId tile, Addr block, Cycle now);
    void dirRespond(NodeId tile, Addr block, Txn &txn, Cycle now);
    /** Fill @p block into @p tile's L2 bank as @p state and write a
     *  Modified victim back to its memory controller. */
    void fillL2(NodeId tile, Addr block, CacheState state, Cycle now);

    Msg *allocMsg(const Msg &proto);
    void freeMsg(Msg *msg);

    // --- state ---------------------------------------------------------
    CmpConfig config_;
    std::unique_ptr<Network> net_;
    double clkRatio_ = 1.0; ///< coreClock / netClock

    std::vector<Core> cores_;
    std::vector<Bank> banks_;
    std::vector<MemController> mcs_;
    std::vector<NodeId> mcTiles_;
    /** Every core's loads ring storage, sized once and never moved. */
    std::vector<OutstandingLoad> loadSlots_;
    MsgPool mcPool_; ///< every memory controller's queue

    int blockShift_ = 0; ///< log2(blockBytes)

    /** Controller latencies in network cycles (each >= 1). */
    Cycle l1Net_ = 1;
    Cycle l2Net_ = 1;
    Cycle dramNet_ = 1;

    /** Calendar queue: one FIFO per cycle, indexed cycle & mask, all
     *  in one node pool. Every delay is in [1, horizon), so a bucket
     *  only ever holds events of the next cycle that maps to it
     *  (DESIGN.md §6i). */
    std::vector<PoolFifo<Event>> calendar_;
    ChainPool<Event> eventPool_;
    Cycle calendarMask_ = 0;
    Cycle now_ = 0; ///< cycle of the latest preCycle

    std::deque<Msg> msgArena_; ///< stable addresses: packet contexts
    std::vector<Msg *> msgFree_;

    // measurement
    /** Network::minTransferCycles per (src, dst, carries data). */
    std::vector<Cycle> transferCycles_;
    NetLatencyStats netStats_;
    RunningStat roundTrip_;
    Cycle statsStart_ = 0;
    std::uint64_t packetsSent_ = 0;
    std::array<std::uint64_t, 16> msgCounts_{};
};

} // namespace hnoc

#endif // HNOC_SYS_CMP_SYSTEM_HH
