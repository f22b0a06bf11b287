/**
 * @file
 * The probe seam: one vocabulary of router-pipeline and network-edge
 * events (the FlightRecorder's FrKind set plus flit eject, stall,
 * occupancy sample and epoch tick), fanned out to the attached
 * report-only instruments. Router, NetworkInterface and Network hold
 * one Probe pointer, null unless a consumer is attached and folded to
 * nullptr under -DHNOC_TELEMETRY=OFF, so a detached run pays one
 * branch per hook site. Only this file decides which instrument sees which event; the
 * table in docs/OBSERVABILITY.md lists the mapping.
 */

#ifndef HNOC_NOC_PROBE_HH
#define HNOC_NOC_PROBE_HH

#include <cstddef>
#include <cstdint>

#include "common/types.hh"
#include "noc/flit.hh"
#include "telemetry/blame.hh"
#include "telemetry/flight_recorder.hh"
#include "telemetry/metrics.hh"

namespace hnoc
{

/** The attached event consumers and the event -> consumer mapping. */
struct Probe
{
    MetricRegistry *registry = nullptr;
    FlightRecorder *recorder = nullptr;
    BlameCollector *blame = nullptr;

    bool
    attached() const
    {
        return registry || recorder || blame;
    }

    /** FlitIn: buffer write of @p f at (router @p r, in port @p p). */
    void
    flitIn(Cycle now, RouterId r, PortId p, const Flit &f)
    {
        if (recorder)
            recorder->record(FrKind::FlitIn, now, r, p, f.vc, idOf(f.pkt),
                             f.isHead(), f.seq);
    }

    /** CreditIn: a credit for (out port @p p, @p vc) reached @p r. */
    void
    creditIn(Cycle now, RouterId r, PortId p, VcId vc)
    {
        if (recorder)
            recorder->record(FrKind::CreditIn, now, r, p, vc);
    }

    /** VaGrant / VaDeny for the head at (in port @p p, @p vc). */
    void
    vcAlloc(Cycle now, RouterId r, PortId p, VcId vc, const Packet *pkt,
            bool granted)
    {
        if (registry && !granted)
            registry->add(Ctr::VaConflicts, r, p, vc);
        if (recorder)
            recorder->record(granted ? FrKind::VaGrant : FrKind::VaDeny,
                             now, r, p, vc, idOf(pkt));
    }

    /** CreditStall: an SA request for (out port @p o, @p vc) found no
     *  credit. */
    void
    creditStall(Cycle now, RouterId r, PortId o, VcId vc,
                const Packet *pkt)
    {
        if (registry)
            registry->add(Ctr::CreditStalls, r, o);
        if (recorder)
            recorder->record(FrKind::CreditStall, now, r, o, vc,
                             idOf(pkt));
    }

    /**
     * FlitOut + CreditOut: SA grant of @p f (relabelled to its
     * downstream VC) from (@p in, @p in_vc) to out port @p o, whose
     * channel delay is @p link_delay.
     */
    void
    flitOut(Cycle now, RouterId r, PortId o, PortId in, VcId in_vc,
            const Flit &f, int link_delay)
    {
        if (recorder) {
            recorder->record(FrKind::FlitOut, now, r, o, f.vc, idOf(f.pkt),
                             f.isHead(), f.seq);
            recorder->record(FrKind::CreditOut, now, r, in, in_vc);
        }
        // Zero-load head path: one switch cycle plus the channel delay
        // per hop actually taken (detours included).
        if (blame && f.isHead() && f.pkt->blame)
            f.pkt->blame->minHeadCycles +=
                1 + static_cast<std::uint64_t>(link_delay);
    }

    /** @return true when the router must fire Stall events for every
     *  head still pending after SA. */
    bool chargesStalls() const { return blame != nullptr; }

    /** Stall: @p pkt's head waited @p n cycles at @p r toward out
     *  port @p p (INVALID_PORT before route compute) for @p cause. */
    void
    stall(RouterId r, PortId p, BlameCause cause, Packet *pkt,
          std::uint64_t n = 1)
    {
        if (!blame || !pkt || !pkt->blame)
            return;
        pkt->blame->charge(cause, n);
        blame->charge(r, p, cause, n);
    }

    /** OccupancySample: @p occ flits buffered at @p r after SA. */
    void
    occupancy(RouterId r, int occ)
    {
        if (registry)
            registry->gaugeMax(Gauge::PeakOccupancy, r,
                               static_cast<std::uint64_t>(occ));
    }

    /** Inject: @p pkt entered its source queue, leaving @p live in
     *  flight. Arms its blame ledger, whose zero-load head path starts
     *  with the @p link_delay cycles of the injection link. */
    void
    inject(Cycle now, Packet &pkt, std::size_t live, int link_delay)
    {
        if (blame) {
            pkt.blame = blame->acquire();
            pkt.blame->minHeadCycles =
                static_cast<std::uint64_t>(link_delay);
        }
        if (registry) {
            registry->add(Ctr::PacketsInjected);
            registry->gaugeMax(Gauge::PeakInFlight,
                               static_cast<std::uint64_t>(live));
        }
        if (recorder)
            recorder->record(FrKind::Inject, now, pkt.src, -1, -1, pkt.id,
                             true, pkt.numFlits);
    }

    /** Launch: @p pkt's head flit left its source NI on @p vc. */
    void
    launch(Cycle now, const Packet &pkt, VcId vc)
    {
        if (recorder)
            recorder->record(FrKind::Launch, now, pkt.src, -1, vc, pkt.id,
                             true);
    }

    /** FlitEject: @p f reached its destination NI; @p pairs when the
     *  ejection link carries two flits per cycle. */
    void
    flitEject(Cycle now, const Flit &f, bool pairs)
    {
        if (registry)
            registry->add(Ctr::FlitsEjected);
        // Head delivery fixes the tail-serialization bound: the tail
        // cannot eject before headEjectAt + ceil(n / eff) - 1.
        if (f.isHead() && f.pkt->blame) {
            int eff = pairs ? 2 : 1;
            f.pkt->blame->headEjectAt = now;
            f.pkt->blame->minSerCycles = static_cast<std::uint64_t>(
                (f.pkt->numFlits + eff - 1) / eff - 1);
        }
    }

    /** Eject: @p pkt's tail reached its destination NI (before the
     *  client's delivery callback). */
    void
    eject(Cycle now, const Packet &pkt)
    {
        if (registry) {
            registry->add(Ctr::PacketsDelivered);
            registry->histAdd(Hist::PacketLatencyCycles,
                              static_cast<double>(now - pkt.createdAt));
            registry->histAdd(Hist::NetworkLatencyCycles,
                              static_cast<double>(now - pkt.injectedAt));
        }
        if (recorder)
            recorder->record(FrKind::Eject, now, pkt.dst, -1, -1, pkt.id,
                             true);
    }

    /** Retire: after the client callback, which may still read the
     *  finished ledger, commit and release @p pkt's blame ledger. */
    void
    retire(Packet &pkt)
    {
        if (blame && pkt.blame) {
            blame->commit(pkt.id, pkt.src, pkt.dst, pkt.createdAt,
                          pkt.injectedAt, pkt.ejectedAt, *pkt.blame);
            blame->release(pkt.blame);
        }
        pkt.blame = nullptr;
    }

    /** EpochTick: end of one Network::step. @return true when the
     *  registry's epoch is full and the network must close its row. */
    bool
    tick()
    {
        return registry && registry->tick();
    }

  private:
    static std::uint64_t idOf(const Packet *pkt) { return pkt ? pkt->id : 0; }
};

} // namespace hnoc

#endif // HNOC_NOC_PROBE_HH
