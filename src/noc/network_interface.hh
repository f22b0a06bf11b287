/**
 * @file
 * Network interface (NI): the attach point of a terminal node.
 *
 * Injection side: an unbounded source queue (the client regulates
 * admission), per-VC credit tracking against the router's local input
 * port, and one packet stream per VC (wormhole: flits of a packet stay
 * in order on one VC). Ejection side: an always-consuming sink that
 * immediately returns credits (the "consumption assumption").
 *
 * The source queue is a growable ring buffer whose backing store is
 * retained across drain/refill cycles, so the steady state enqueues
 * and dequeues without touching the heap.
 *
 * Active-set scheduling: the NI is busy while the source queue holds a
 * packet or any per-VC stream is mid-packet. stepInject on an NI
 * outside that state is provably a no-op (every VC falls through), and
 * the VC round-robin pointer is a pure function of the cycle number,
 * so skipping such cycles is bit-identical to stepping them.
 */

#ifndef HNOC_NOC_NETWORK_INTERFACE_HH
#define HNOC_NOC_NETWORK_INTERFACE_HH

#include <vector>

#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "noc/active_set.hh"
#include "noc/channel.hh"
#include "noc/flit.hh"
#include "noc/probe.hh"
#include "power/router_power.hh"

namespace hnoc
{

class Network;

/** Terminal-node adapter between a client and its router. */
class NetworkInterface
{
  public:
    NetworkInterface(NodeId node, Network *net)
        : node_(node), net_(net),
          sourceQueue_(kInitialQueueCapacity, /*growable=*/true)
    {}

    /** Wire the injection channel toward the router's local port.
     *  @param intra_pairing allow two same-packet flits per cycle on
     *  wide local channels (mirrors the in-network §3.2 pairing). */
    void
    connectInjection(Channel *chan, int router_vcs, int buffer_depth,
                     RouterActivity *link_activity, bool intra_pairing)
    {
        inj_ = chan;
        credits_.assign(static_cast<std::size_t>(router_vcs), buffer_depth);
        streams_.assign(static_cast<std::size_t>(router_vcs), Stream{});
        linkActivity_ = link_activity;
        intraPairing_ = intra_pairing;
    }

    /** Wire the ejection channel from the router's local port. */
    void connectEjection(Channel *chan) { ej_ = chan; }

    /** Queue a packet for injection. */
    void
    enqueue(Packet *pkt)
    {
        sourceQueue_.push_back(pkt);
        wake_.wake();
    }

    /** Send up to lane-limit flits this cycle. */
    void stepInject(Cycle now);

    /** A credit returned by the router's local input port. */
    void
    receiveCredit(VcId vc)
    {
        ++credits_[static_cast<std::size_t>(vc)];
    }

    /** A flit delivered for ejection. Returns the completed packet
     *  (tail arrived) or nullptr. */
    Packet *receiveFlit(const Flit &flit, Cycle now);

    std::size_t sourceQueueDepth() const { return sourceQueue_.size(); }

    /**
     * @return true if stepInject this cycle can have any effect:
     * a queued packet awaits a stream, or a stream is mid-packet
     * (possibly stalled on credits — stalled streams stay busy so the
     * credit return needs no wakeup hook of its own).
     */
    bool busy() const { return !sourceQueue_.empty() || activeStreams_ > 0; }

    /** Set the probe that sees Launch events (nullptr: none). */
    void setProbe(Probe *probe) { probe_ = probe; }

    /** Set the active list that enqueue wakes with id @p id. */
    void
    setWakeHook(ActiveList *list, std::uint32_t id)
    {
        wake_ = {list, id};
    }

    /** Credits held toward the router's local input VC @p vc
     *  (conservation audit). */
    int
    injectionCredits(VcId vc) const
    {
        return credits_[static_cast<std::size_t>(vc)];
    }

    NodeId node() const { return node_; }

    /** Steady-state memory footprint: credit/stream arrays plus the
     *  source-queue ring's grown high-water capacity. */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               static_cast<std::uint64_t>(credits_.capacity()) *
                   sizeof(int) +
               static_cast<std::uint64_t>(streams_.capacity()) *
                   sizeof(Stream) +
               static_cast<std::uint64_t>(sourceQueue_.capacity()) *
                   sizeof(Packet *);
    }

  private:
    /** An in-progress packet transmission bound to one VC. */
    struct Stream
    {
        Packet *pkt = nullptr;
        int nextSeq = 0;
    };

    static constexpr std::size_t kInitialQueueCapacity = 16;

    /** The live probe; folds to nullptr under HNOC_TELEMETRY=OFF. */
    Probe *probe() const { return kTelemetryEnabled ? probe_ : nullptr; }

    // Hot-first member order (§6g): the stepInject path reads the
    // queue, streams, credits and pairing flag every active cycle;
    // the stats attachment trails as the cold tail.
    NodeId node_;
    Network *net_;
    Channel *inj_ = nullptr;
    Channel *ej_ = nullptr;
    std::vector<int> credits_;
    std::vector<Stream> streams_;
    RingBuffer<Packet *> sourceQueue_;
    int activeStreams_ = 0; ///< streams with a packet in flight
    bool intraPairing_ = true;
    WakeHook wake_;
    RouterActivity *linkActivity_ = nullptr;
    Probe *probe_ = nullptr;
};

} // namespace hnoc

#endif // HNOC_NOC_NETWORK_INTERFACE_HH
