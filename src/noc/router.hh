/**
 * @file
 * The wormhole-switched virtual-channel router (paper §3, §4).
 *
 * Two-stage pipeline: buffer write / route compute in stage 1; VC
 * allocation and switch allocation (two sub-stage separable allocator,
 * Fig 6) in stage 2, with switch traversal folded into the channel
 * delay. Heterogeneity: per-router VC counts and datapath widths, and
 * wide output channels that accept two combined flits per cycle from
 * two different VCs (same or different input ports — Fig 4 cases (c),
 * (d); §3.3 cases (a), (b)).
 *
 * State layout: the per-cycle hot path runs on a data-oriented
 * structure-of-arrays core (RouterCore) — dense parallel arrays per
 * (port, VC) slot plus bitmask request sets — so VA and SA visit only
 * actual requesters via count-trailing-zeros iteration instead of
 * scanning every slot. Grant order is unchanged: the bitmask walk
 * follows the exact rotating-priority sequence of the legacy loops
 * (DESIGN.md "SoA router core").
 *
 * Active-set scheduling: the router exposes busy() — true while any
 * input VC holds a flit — and the Network steps only busy routers.
 * This is exact, not heuristic: RC, VA, SA, telemetry and occupancy
 * sampling are all no-ops on a flitless router, and the round-robin
 * pointers are derived from the cycle number (plus a grant offset that
 * only moves on granting, i.e. busy, cycles) so arbitration state
 * advances identically whether idle cycles are stepped or skipped.
 */

#ifndef HNOC_NOC_ROUTER_HH
#define HNOC_NOC_ROUTER_HH

#include "common/types.hh"
#include "noc/active_set.hh"
#include "noc/channel.hh"
#include "noc/flit.hh"
#include "noc/network_config.hh"
#include "noc/probe.hh"
#include "noc/router_core.hh"
#include "noc/routing.hh"
#include "power/router_power.hh"
#include "telemetry/profiler.hh"

namespace hnoc
{

/** One router instance. Wiring is performed by Network. */
class Router
{
  public:
    /** @param max_down_vcs the widest VC count any output port feeds
     *  (sizes the credit rows, RouterCore::init). */
    Router(RouterId id, int num_ports, int vcs, int buffer_depth,
           int max_down_vcs, const RoutingAlgorithm &routing,
           int escape_threshold, bool intra_packet_pairing);

    RouterId id() const { return id_; }
    int numPorts() const { return core_.ports; }
    int vcsPerPort() const { return core_.vcs; }
    int bufferDepth() const { return core_.depth; }

    /** Attach the channel whose flits arrive at input port @p p
     *  (after place()). */
    void connectInput(PortId p, Channel *chan);

    /**
     * Attach the channel driven by output port @p p (after place()).
     * @param down_vcs VC count at the downstream input port
     * @param down_depth buffer depth per downstream VC (credits)
     */
    void connectOutput(PortId p, Channel *chan, int down_vcs,
                       int down_depth);

    /** Buffer-write: a flit delivered by the input channel at @p p. */
    void receiveFlit(PortId p, Flit flit, Cycle now);

    /** A credit returned for output port @p p, VC @p vc. */
    void receiveCredit(PortId p, VcId vc, Cycle now = 0);

    /** Run RC / VA / SA / ST for this cycle. */
    void step(Cycle now);

    /** Prefetch the step working set (issued one active-list entry
     *  ahead by the Network's blocked step loop, §6g). */
    void
    prefetchStep() const
    {
        bitops::prefetch(this);
        core_.prefetchStep();
    }

    /** Bytes place() carves from the arena. */
    std::size_t arenaBytes() const { return core_.arenaBytes(); }

    /** Carve the core's wiring, FIFO, hot and credit storage from
     *  @p arena (RouterCore::place, §6g). Call exactly once, before
     *  wiring. */
    void place(HotArena &arena) { core_.place(arena); }

    /** Start and size of each placed section, in carve order. */
    std::array<HotSpan, 4>
    placedSections() const
    {
        return core_.placedSections();
    }

    /**
     * @return true if stepping this cycle can have any effect. Exactly
     * the flit-holding condition: every pipeline stage requires a
     * buffered flit to act (an active-but-empty VC merely waits for
     * its next flit, which re-marks the router busy on arrival).
     */
    bool busy() const { return flitCount_ > 0; }

    /** Set the active list that receiveFlit wakes with id @p id. */
    void
    setWakeHook(ActiveList *list, std::uint32_t id)
    {
        wake_ = {list, id};
    }

    /** @name Statistics */
    ///@{
    RouterActivity &activity() { return activity_; }
    const RouterActivity &activity() const { return activity_; }

    /** @return flits currently buffered (for occupancy stats). */
    int bufferOccupancy() const { return flitCount_; }

    /** @return total buffer slots. */
    int
    bufferCapacity() const
    {
        return core_.total * core_.depth;
    }

    /** Accumulated occupancy-cycles for buffer-utilization heat maps. */
    std::uint64_t occupancySum() const { return occupancySum_; }
    void resetOccupancy() { occupancySum_ = 0; }
    ///@}

    /** @return true if any input VC holds a flit (watchdog helper). */
    bool hasBufferedFlits() const { return flitCount_ > 0; }

    /** Attach the event probe (nullptr when no consumer is attached).
     *  While detached each hook site costs one branch. */
    void setProbe(Probe *probe) { probe_ = probe; }

    /** Attach a self-profiler (nullptr to detach). While detached the
     *  cost is one branch per pipeline sub-phase per stepped cycle;
     *  while attached each sub-phase pays two steady_clock reads.
     *  Report-only: profiling never alters simulation results. */
    void setProfiler(Profiler *prof) { profiler_ = prof; }

    /** Mark @p p as the port driving the ejection channel, so blame
     *  can classify stalls at the ejection funnel separately. */
    void markEjectionPort(PortId p) { ejectPort_ = p; }

    /** Memory footprint of a router of these sizes: the SoA core as
     *  carved plus the object itself. */
    static std::uint64_t
    footprintBytes(int num_ports, int vcs, int buffer_depth,
                   int max_down_vcs)
    {
        return sizeof(Router) + RouterCore::arenaBytes(num_ports, vcs,
                                                       buffer_depth,
                                                       max_down_vcs);
    }

    std::uint64_t
    footprintBytes() const
    {
        return sizeof(*this) + core_.footprintBytes();
    }

    /** @name Introspection (conservation audit, postmortem and
     *        state dumps). Reads the SoA core directly — the
     *        dense arrays are the single source of truth. */
    ///@{
    /** Flits buffered at input port @p p, VC @p v. */
    int
    inputVcOccupancy(PortId p, VcId v) const
    {
        return static_cast<int>(
            core_.fifo[static_cast<std::size_t>(core_.slot(p, v))]
                .size());
    }

    /** Downstream VC count credited at output port @p p (0 when the
     *  port drives no channel). */
    int
    outputVcCount(PortId p) const
    {
        return core_.outputs[static_cast<std::size_t>(p)].downVcs;
    }

    /** Credits held for output port @p p, downstream VC @p v. */
    int
    outputCredits(PortId p, VcId v) const
    {
        return core_.outputs[static_cast<std::size_t>(p)]
            .credits[static_cast<std::size_t>(v)];
    }

    /** Channel driven by output port @p p (nullptr when unwired). */
    const Channel *
    outputChannel(PortId p) const
    {
        return core_.outputs[static_cast<std::size_t>(p)].chan;
    }

    /** Is downstream VC @p v at output port @p p allocated? */
    bool
    outputAllocated(PortId p, VcId v) const
    {
        return (core_.outputs[static_cast<std::size_t>(p)].allocMask >>
                v) &
               1u;
    }

    /** Snapshot of one input VC's pipeline state (postmortem dump). */
    struct InputVcView
    {
        int occupancy = 0;
        bool active = false;
        PortId outPort = INVALID_PORT;
        VcId outVc = INVALID_VC;
        Cycle headSince = 0;
        std::uint64_t pkt = 0; ///< packet id (0 = none)
    };

    InputVcView inputVcView(PortId p, VcId v) const;
    ///@}

  private:
    void routeCompute(Cycle now);
    void vcAllocate(Cycle now);
    void switchAllocate(Cycle now);
    void switchAllocatePort(PortId o, Cycle now);

    /** Fire one Stall event for every head still pending after SA;
     *  runs only while the probe consumes stalls. */
    void stallPass(Cycle now, Probe &probe);

    /** The attached probe; folds to nullptr under HNOC_TELEMETRY=OFF. */
    Probe *probe() const { return kTelemetryEnabled ? probe_ : nullptr; }

    /** Handle the table-routing escape timeout for a stalled head
     *  occupying slot @p s. */
    void maybeEscape(int s, Cycle now);

    // flitCount_ leads the object so busy() — the router list's drop
    // predicate — reads the line prefetchStep() pulls first.
    int flitCount_ = 0; ///< total buffered flits across all input VCs
    RouterId id_;
    WakeHook wake_;
    const RoutingAlgorithm &routing_;
    int escapeThreshold_;
    bool intraPacketPairing_;

    RouterCore core_;

    RouterActivity activity_;
    std::uint64_t occupancySum_ = 0;
    Probe *probe_ = nullptr;
    Profiler *profiler_ = nullptr;
    PortId ejectPort_ = INVALID_PORT;
};

} // namespace hnoc

#endif // HNOC_NOC_ROUTER_HH
