/**
 * @file
 * Observer hooks for flit-level events: packet injection/ejection and
 * per-router flit arrival/departure. Used for debugging, trace dumps
 * and per-hop latency analysis. A Probe consumer: costs nothing when
 * unset, and never called under -DHNOC_TELEMETRY=OFF.
 */

#ifndef HNOC_NOC_OBSERVER_HH
#define HNOC_NOC_OBSERVER_HH

#include "common/types.hh"
#include "noc/flit.hh"

namespace hnoc
{

/** Receive flit-level simulation events. All callbacks optional. */
class NetworkObserver
{
  public:
    virtual ~NetworkObserver() = default;

    /** A packet entered a source queue. */
    virtual void
    onPacketCreated(const Packet &pkt, Cycle now)
    {
        (void)pkt;
        (void)now;
    }

    /** A flit was written into a router input buffer. */
    virtual void
    onFlitArrive(RouterId router, PortId port, const Flit &flit,
                 Cycle now)
    {
        (void)router;
        (void)port;
        (void)flit;
        (void)now;
    }

    /** A flit won switch allocation and left through an output port. */
    virtual void
    onFlitDepart(RouterId router, PortId port, const Flit &flit,
                 Cycle now)
    {
        (void)router;
        (void)port;
        (void)flit;
        (void)now;
    }

    /** A packet's tail reached its destination interface. */
    virtual void
    onPacketDelivered(const Packet &pkt, Cycle now)
    {
        (void)pkt;
        (void)now;
    }
};

} // namespace hnoc

#endif // HNOC_NOC_OBSERVER_HH
