/**
 * @file
 * Flit/packet tracing rendered from a FlightRecorder after the run:
 * (1) Chrome-trace-format JSON loadable in chrome://tracing or
 * Perfetto, and (2) a compact JSONL flit log for scripted analysis.
 * The recorder's ring is the only store of flit events; a traced run
 * attaches a recorder sized kRingCapacity, and FlitTrace walks its
 * snapshot once.
 *
 * The Chrome trace maps routers to threads (tid = router id) of one
 * process; each head flit's residency at a router becomes a complete
 * ("X") slice, and each packet's network lifetime becomes an async
 * b/e span keyed by packet id. Timestamps are simulation cycles
 * written as microseconds (1 cycle = 1 us on the trace-viewer axis).
 *
 * Each delivered packet's latency is decomposed into
 *   queueing      source-queue wait (created -> injected),
 *   per-hop       head-flit residency at each router,
 *   serialization network time not spent buffered at routers
 *                 (wire traversal + tail serialization),
 * and the breakdown is attached to the packet's end event.
 *
 * Retention is the ring's: the newest capacity() events. A delivered
 * packet whose Inject event was overwritten is left out and counted
 * in droppedPackets().
 */

#ifndef HNOC_TELEMETRY_TRACE_HH
#define HNOC_TELEMETRY_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "telemetry/flight_recorder.hh"

namespace hnoc
{

/** Chrome trace and JSONL flit log of one recorder's held events. */
class FlitTrace
{
  public:
    /** Ring capacity (events) of a traced run: 2^21 events (48 MB)
     *  hold the whole documented hnoc_cli run at HNOC_SIM_SCALE=0.1
     *  (~1.7 M events). */
    static constexpr std::size_t kRingCapacity = std::size_t{1} << 21;

    explicit FlitTrace(const FlightRecorder &recorder);

    /** One router visit of a packet's head flit. */
    struct HopRecord
    {
        RouterId router = INVALID_ROUTER;
        PortId inPort = INVALID_PORT;
        VcId vc = INVALID_VC;
        Cycle arrive = 0;
        Cycle depart = CYCLE_NEVER;
    };

    /** Full journey of one delivered packet. */
    struct PacketRecord
    {
        PacketId id = 0;
        NodeId src = INVALID_NODE;
        NodeId dst = INVALID_NODE;
        int numFlits = 0;
        Cycle created = 0;
        Cycle injected = 0;
        Cycle ejected = 0;
        std::vector<HopRecord> hops;

        /** @name Latency decomposition (cycles) */
        ///@{
        Cycle queueing() const { return injected - created; }
        Cycle network() const { return ejected - injected; }
        Cycle hopSum() const;
        /** Network time not buffered at routers: wires + tail
         *  serialization behind the head. */
        Cycle serialization() const;
        ///@}
    };

    /** Delivered packets in delivery order. */
    const std::vector<PacketRecord> &packets() const { return done_; }
    /** Flit-log events (held FlitIn/FlitOut records). */
    std::uint64_t eventCount() const { return flits_.size(); }
    /** Events the ring overwrote before the snapshot. */
    std::uint64_t droppedEvents() const { return droppedEvents_; }
    /** Delivered packets left out because their Inject was
     *  overwritten. */
    std::uint64_t droppedPackets() const { return droppedPackets_; }

    /** @name Export */
    ///@{
    /** The full trace as a Chrome-trace JSON document. */
    std::string chromeTraceJson() const;

    /** One JSON object per line: the compact flit event log. */
    std::string flitLogJsonl() const;

    bool writeChromeTrace(const std::string &path) const;
    bool writeFlitLog(const std::string &path) const;
    ///@}

  private:
    std::vector<FlightRecorder::Event> flits_;
    std::vector<PacketRecord> done_;
    std::uint64_t droppedEvents_ = 0;
    std::uint64_t droppedPackets_ = 0;
};

} // namespace hnoc

#endif // HNOC_TELEMETRY_TRACE_HH
