/**
 * @file
 * Always-on flight recorder: a fixed-size ring buffer of recent
 * router-pipeline events (buffer writes, VA grants/denials, switch
 * grants, credit traffic, injections, launches, ejections). Recording one event
 * is a masked store into a preallocated ring — cheap enough to leave
 * attached for a whole 10M-cycle run — and the ring keeps only the
 * most recent `capacity` events, so memory is bounded no matter how
 * long the run.
 *
 * On a watchdog trip, panic, or explicit request the recorder's
 * contents become the `flight_recorder` section of an
 * `hnoc-postmortem-v1` document (see Network::writePostmortem and
 * docs/OBSERVABILITY.md), answering "what was the pipeline doing in
 * the cycles before it stopped?" without rerunning. After a run the
 * same ring renders as a Chrome trace and a JSONL flit log
 * (telemetry/trace.hh).
 *
 * The recorder consumes Probe events (noc/probe.hh) like the
 * MetricRegistry, and its hooks compile out under -DHNOC_TELEMETRY=OFF.
 */

#ifndef HNOC_TELEMETRY_FLIGHT_RECORDER_HH
#define HNOC_TELEMETRY_FLIGHT_RECORDER_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace hnoc
{

class JsonWriter;

/** Kinds of recorded pipeline events. */
enum class FrKind : std::uint8_t
{
    FlitIn,      ///< buffer write at (router, in port, vc)
    FlitOut,     ///< SA grant / switch traversal (router, out port, vc)
    VaGrant,     ///< VC allocation succeeded (router, in port, in vc)
    VaDeny,      ///< VC allocation failed (router, in port, in vc)
    CreditStall, ///< SA request blocked on zero credits (router, out port, vc)
    CreditIn,    ///< credit received for (router, out port, vc)
    CreditOut,   ///< credit returned upstream from (router, in port, vc)
    Inject,      ///< packet entered a source queue (router = src node)
    Launch,      ///< head flit left its source NI (router = src node)
    Eject,       ///< packet fully delivered (router = dst node)
};

/** @return the stable short name of @p k (postmortem schema). */
const char *frKindName(FrKind k);

/** Fixed-capacity ring of recent pipeline events. */
class FlightRecorder
{
  public:
    /** One recorded event; 24 bytes (22 payload + alignment pad). */
    struct Event
    {
        Cycle t = 0;
        std::uint32_t pkt = 0;     ///< truncated packet id (0 = n/a)
        std::int16_t router = -1;  ///< router id (node id for
                                   ///< Inject/Launch/Eject)
        std::int8_t port = -1;
        std::int8_t vc = -1;
        std::uint8_t kind = 0;     ///< FrKind
        std::uint8_t head = 0;     ///< head flit? (FlitIn/FlitOut)
        /** Flit sequence number (FlitIn/FlitOut); the packet's flit
         *  count (Inject). */
        std::uint16_t seq = 0;
    };

    /** @param capacity event slots; rounded up to a power of two. */
    explicit FlightRecorder(std::size_t capacity = 1u << 16);

    /** Hot-path hook: overwrite the oldest slot with a new event. */
    void
    record(FrKind k, Cycle t, int router, int port, int vc,
           std::uint64_t pkt = 0, bool head = false, int seq = 0)
    {
        Event &e = ring_[static_cast<std::size_t>(next_) & mask_];
        ++next_;
        e.t = t;
        e.pkt = static_cast<std::uint32_t>(pkt);
        e.router = static_cast<std::int16_t>(router);
        e.port = static_cast<std::int8_t>(port);
        e.vc = static_cast<std::int8_t>(vc);
        e.kind = static_cast<std::uint8_t>(k);
        e.head = head ? 1 : 0;
        e.seq = static_cast<std::uint16_t>(seq);
    }

    std::size_t capacity() const { return ring_.size(); }

    /** Steady-state memory footprint: the ring plus the object. */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               static_cast<std::uint64_t>(ring_.capacity()) *
                   sizeof(Event);
    }

    /** Events recorded over the recorder's lifetime. */
    std::uint64_t totalRecorded() const { return next_; }

    /** Events currently held (≤ capacity). */
    std::size_t size() const;

    /** Events overwritten (lifetime − held). */
    std::uint64_t overwritten() const;

    /** Drop all recorded events. */
    void clear();

    /**
     * Copy out the held events oldest → newest. When @p last_cycles is
     * non-zero only events with t > newest.t − last_cycles are kept.
     */
    std::vector<Event> snapshot(Cycle last_cycles = 0) const;

    /**
     * Emit the `flight_recorder` postmortem section: capacity /
     * recorded / overwritten bookkeeping plus the event array
     * (oldest → newest, optionally clipped to the last @p last_cycles
     * cycles of history).
     */
    void writeJson(JsonWriter &w, Cycle last_cycles = 0) const;

  private:
    std::vector<Event> ring_;
    std::size_t mask_;
    std::uint64_t next_ = 0;
};

} // namespace hnoc

#endif // HNOC_TELEMETRY_FLIGHT_RECORDER_HH
