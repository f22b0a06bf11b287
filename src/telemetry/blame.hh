/**
 * @file
 * Per-packet latency blame attribution.
 *
 * Every cycle a packet's head flit fails to advance, the router (or
 * the source NI) classifies the stall into one cause from a fixed
 * taxonomy and charges it to the packet's BlameLedger. On delivery the
 * ledger is committed to a BlameCollector, which maintains the exact
 * accounting identity
 *
 *     ejectedAt - createdAt ==   sourceQueueing
 *                              + minHeadCycles        (zero-load head path)
 *                              + routePending + vaConflictLost
 *                              + saConflictLost + creditStarved
 *                              + ejectBackpressure
 *                              + minSerCycles         (zero-load tail ser.)
 *                              + linkSerialization    (residual tail drag)
 *
 * for every packet — no stall cycle is double-charged or dropped, and
 * every term is non-negative. The collector aggregates causes per
 * router (heat maps), per router class x link class (the paper's
 * big/small x wide/narrow split), and into a latency-bucketed ladder
 * so tail percentiles (p50/p90/p99/p99.9) can be decomposed by cause.
 *
 * Blame is report-only observation: attaching a collector never
 * changes simulated behavior, and the whole layer compiles out under
 * -DHNOC_TELEMETRY=OFF (acquire() is never called, the Packet ledger
 * pointer stays null, hook sites constant-fold away).
 */

#ifndef HNOC_TELEMETRY_BLAME_HH
#define HNOC_TELEMETRY_BLAME_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hnoc
{

class JsonWriter;

/** Stall-cause taxonomy. Order is the report emission order. */
enum class BlameCause : int {
    SourceQueueing,    ///< waiting in the source NI queue (pre-injection)
    RoutePending,      ///< buffered head waiting for route compute
    VaConflictLost,    ///< route known, no downstream VC won
    SaConflictLost,    ///< VC held, lost the switch to a competing flit
    CreditStarved,     ///< VC held, downstream buffer out of credits
    EjectBackpressure, ///< stalled specifically at the ejection funnel
    LinkSerialization, ///< tail drag behind the head beyond the
                       ///< zero-load serialization bound
    NumCauses,
};

constexpr int kNumBlameCauses = static_cast<int>(BlameCause::NumCauses);

/** snake_case name used in reports and JSON keys. */
const char *blameCauseName(BlameCause c);

/** Classification of the channel a blamed output port drives. */
enum class BlameLinkClass : int {
    None,   ///< no port association (e.g. route-pending, source queue)
    Local,  ///< ejection channel into an NI
    Narrow, ///< baseline-width router-to-router link
    Wide,   ///< multi-lane (2x flit) router-to-router link
    NumClasses,
};

constexpr int kNumBlameLinkClasses =
    static_cast<int>(BlameLinkClass::NumClasses);

const char *blameLinkClassName(BlameLinkClass c);

/**
 * Per-packet stall account, carried by Packet::blame while the packet
 * is in flight. Plain data; the network charges it directly (POD
 * stores, no virtual calls) so the hot path stays branch-predictable.
 */
struct BlameLedger {
    /** Stall cycles charged per cause (in-network causes only;
     *  SourceQueueing and LinkSerialization are derived at commit). */
    std::array<std::uint64_t, kNumBlameCauses> cycles{};

    /** Zero-load cycles the head spends on its *actual* route: the
     *  injection-link delay at arming plus (switch + channel delay)
     *  at every hop's SA grant, so table/escape/O1TURN detours are
     *  priced at their own length, not the minimal path's. */
    std::uint64_t minHeadCycles = 0;

    /** Zero-load serialization bound for the packet's tail through
     *  the ejection funnel: ceil(numFlits / effLanes) - 1, set when
     *  the head is delivered to the destination NI. */
    std::uint64_t minSerCycles = 0;

    /** Cycle the head flit was delivered to the destination NI. */
    Cycle headEjectAt = CYCLE_NEVER;

    void
    reset()
    {
        cycles.fill(0);
        minHeadCycles = 0;
        minSerCycles = 0;
        headEjectAt = CYCLE_NEVER;
    }

    void
    charge(BlameCause c, std::uint64_t n = 1)
    {
        cycles[static_cast<std::size_t>(c)] += n;
    }
};

/**
 * Aggregates committed BlameLedgers for one simulation point.
 *
 * Deterministic: all state is a pure function of the committed
 * ledgers and the charge() stream, both of which are derived from
 * simulated events only. merge() folds per-shard collectors in input
 * order, so a multi-thread sweep merged shard-by-shard serializes to
 * byte-identical JSON regardless of worker count.
 */
class BlameCollector
{
  public:
    struct Dims {
        int routers = 0;
        int ports = 0;   ///< max ports per router
        int gridCols = 0; ///< router grid width for heat maps
    };

    explicit BlameCollector(const Dims &dims);

    /** Copies metadata and aggregates but not the live ledger pool
     *  (pools are per-run scratch; copies are for reporting/merging). */
    BlameCollector(const BlameCollector &other);
    BlameCollector &operator=(const BlameCollector &) = delete;

    /** @name Topology metadata (set once after construction) */
    ///@{
    void setRouterClass(RouterId r, bool big);
    void setPortLinkClass(RouterId r, PortId p, BlameLinkClass cls);
    void setNodeRouter(NodeId n, RouterId r);
    ///@}

    /** @name Ledger pool (arena-recycled, no steady-state allocation) */
    ///@{
    BlameLedger *acquire();
    void release(BlameLedger *l);
    ///@}

    /**
     * Charge @p n stall cycles of cause @p c observed at router @p r
     * toward output port @p p (INVALID_PORT when the head has not
     * been assigned an output yet). Also charged to the matching
     * router-class x link-class bucket.
     */
    void
    charge(RouterId r, PortId p, BlameCause c, std::uint64_t n = 1)
    {
        auto ci = static_cast<std::size_t>(c);
        perRouterCause_[static_cast<std::size_t>(r) * kNumBlameCauses +
                        ci] += n;
        classCause_[classIndex(r, p)][ci] += n;
    }

    /**
     * Commit a delivered packet's ledger. @p createdAt/@p injectedAt/
     * @p ejectedAt come from the Packet; the source-queueing and
     * link-serialization terms are derived here, then the accounting
     * identity is checked exactly (violations are counted, never
     * clamped silently).
     */
    void commit(PacketId id, NodeId src, NodeId dst, Cycle createdAt,
                Cycle injectedAt, Cycle ejectedAt, const BlameLedger &l);

    /** Fold @p other into this collector (shapes must match). */
    void merge(const BlameCollector &other);

    /** @name Inspection */
    ///@{
    std::uint64_t packets() const { return packets_; }
    std::uint64_t identityViolations() const { return identityViolations_; }
    std::uint64_t totalLatency() const { return totalLatency_; }
    std::uint64_t totalCause(BlameCause c) const;
    std::uint64_t totalMinHead() const { return totalMinHead_; }
    std::uint64_t totalMinSer() const { return totalMinSer_; }
    std::uint64_t footprintBytes() const;
    ///@}

    /** One row of the worst-packet leaderboard. */
    struct WorstPacket {
        PacketId id = 0;
        NodeId src = 0;
        NodeId dst = 0;
        std::uint64_t latency = 0;
        std::uint64_t minHead = 0;
        std::uint64_t minSer = 0;
        std::array<std::uint64_t, kNumBlameCauses> cycles{};
    };

    const std::vector<WorstPacket> &worstPackets() const { return worst_; }

    /** Emit the `latency_blame` report section (an object value). */
    void writeJson(JsonWriter &w) const;

    /** Standalone JSON document (writeJson wrapped). */
    std::string json() const;

    /** Human-readable summary with per-router blame heat maps. */
    std::string table() const;

  private:
    /** A percentile rung resolved from the latency bucket ladder. */
    struct Rung {
        double pct = 0.0;
        std::uint64_t latency = 0; ///< bucket-resolution percentile
        std::uint64_t tailPackets = 0;
        double meanLatency = 0.0;
        std::array<double, kNumBlameCauses> meanCause{};
        double meanMinHead = 0.0;
        double meanMinSer = 0.0;
    };

    std::size_t
    classIndex(RouterId r, PortId p) const
    {
        int rc = routerBig_[static_cast<std::size_t>(r)] ? 1 : 0;
        int lc = static_cast<int>(BlameLinkClass::None);
        if (p >= 0)
            lc = static_cast<int>(
                portLinkClass_[static_cast<std::size_t>(r) *
                                   static_cast<std::size_t>(dims_.ports) +
                               static_cast<std::size_t>(p)]);
        return static_cast<std::size_t>(rc * kNumBlameLinkClasses + lc);
    }

    std::size_t bucketOf(std::uint64_t latency) const;
    std::vector<Rung> ladder() const;

    // Latency-bucket ladder: fixed bucket count over [0, kLadderMax)
    // cycles (top bucket absorbs overflow); per bucket the packet
    // count plus per-cause/min-term sums, enough to decompose the mean
    // blame of any latency tail without storing per-packet records.
    static constexpr std::size_t kLadderBuckets = 1024;
    static constexpr std::uint64_t kLadderMax = 4096;
    static constexpr int kWorstN = 8;

    struct Bucket {
        std::uint64_t count = 0;
        std::uint64_t latency = 0;
        std::array<std::uint64_t, kNumBlameCauses> cause{};
        std::uint64_t minHead = 0;
        std::uint64_t minSer = 0;
    };

    Dims dims_;
    std::vector<std::uint8_t> routerBig_;
    std::vector<BlameLinkClass> portLinkClass_;
    std::vector<RouterId> nodeRouter_;

    // Aggregates.
    std::uint64_t packets_ = 0;
    std::uint64_t identityViolations_ = 0;
    std::uint64_t totalLatency_ = 0;
    std::uint64_t totalMinHead_ = 0;
    std::uint64_t totalMinSer_ = 0;
    std::array<std::uint64_t, kNumBlameCauses> totalCause_{};
    std::vector<std::uint64_t> perRouterCause_; ///< [routers x causes]
    std::array<std::array<std::uint64_t, kNumBlameCauses>,
               2 * kNumBlameLinkClasses>
        classCause_{};
    std::vector<Bucket> buckets_;
    std::vector<WorstPacket> worst_; ///< sorted by latency desc, id asc

    // Ledger pool.
    std::vector<std::unique_ptr<BlameLedger>> slabs_;
    std::vector<BlameLedger *> free_;
};

} // namespace hnoc

#endif // HNOC_TELEMETRY_BLAME_HH
