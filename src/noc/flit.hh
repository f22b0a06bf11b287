/**
 * @file
 * Flits and packets: the units of transfer in the wormhole network.
 */

#ifndef HNOC_NOC_FLIT_HH
#define HNOC_NOC_FLIT_HH

#include <cstdint>

#include "common/types.hh"

namespace hnoc
{

struct BlameLedger;

/** Position of a flit within its packet. */
enum class FlitType : std::uint8_t
{
    Head,     ///< first flit; carries routing information
    Body,     ///< middle flit
    Tail,     ///< last flit; releases the virtual channels it held
    HeadTail, ///< single-flit packet (address/control packets)
};

/**
 * A packet in flight. Flits reference their packet; the Network owns
 * packet storage and recycles it after ejection.
 */
struct Packet
{
    PacketId id = 0;
    NodeId src = INVALID_NODE;
    NodeId dst = INVALID_NODE;
    int numFlits = 1;

    /** Cycle the client handed the packet to the source queue. */
    Cycle createdAt = 0;
    /** Cycle the head flit left the network interface. */
    Cycle injectedAt = CYCLE_NEVER;
    /** Cycle the tail flit arrived at the destination interface. */
    Cycle ejectedAt = CYCLE_NEVER;

    /** Routers traversed (filled in as the head advances). */
    int hops = 0;

    /** Case-study II: route via the big-router table where available. */
    bool tableRouted = false;
    /** Set once the packet fell back to the X-Y escape layer. */
    bool escaped = false;
    /** O1TURN: this packet routes Y-first (upper VC class). */
    bool yxRouted = false;

    /** Client-defined tag (e.g. coherence message kind). */
    std::uint64_t tag = 0;
    /** Client-owned payload (coherence message, MC request, ...). */
    void *context = nullptr;

    /** Stall-cause ledger while a BlameCollector is attached; owned
     *  by the collector's pool, null otherwise (and always null under
     *  HNOC_TELEMETRY=OFF). Report-only: never read by the model. */
    BlameLedger *blame = nullptr;

    /** The next packet in its source's queue while queued
     *  (NetworkInterface::enqueue until stepInject takes it). */
    Packet *queueNext = nullptr;

    /** @return total network residency in cycles (eject - inject). */
    Cycle
    networkLatency() const
    {
        return ejectedAt - injectedAt;
    }

    /** @return source-queue waiting time in cycles. */
    Cycle
    queuingLatency() const
    {
        return injectedAt - createdAt;
    }
};

/** One flit. Stored by value inside VC FIFOs and channel pipes. */
struct Flit
{
    Packet *pkt = nullptr;
    FlitType type = FlitType::HeadTail;
    std::uint16_t seq = 0;      ///< index within the packet
    VcId vc = 0;                ///< VC id on the channel being traversed
    Cycle arrivedAt = 0;        ///< buffer-write cycle at current router

    bool
    isHead() const
    {
        return type == FlitType::Head || type == FlitType::HeadTail;
    }

    bool
    isTail() const
    {
        return type == FlitType::Tail || type == FlitType::HeadTail;
    }
};

} // namespace hnoc

#endif // HNOC_NOC_FLIT_HH
