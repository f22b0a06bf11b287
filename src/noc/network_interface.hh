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
 * The NI object and its per-VC credit and stream arrays are carved
 * from the network's arena (place()). The source queue is an intrusive
 * FIFO linked through the queued packets (Packet::queueNext), so it
 * holds any backlog without storage of its own and never touches the
 * heap.
 *
 * Active-set scheduling: the NI is busy while the source queue holds a
 * packet or any per-VC stream is mid-packet. stepInject on an NI
 * outside that state is provably a no-op (every VC falls through), and
 * the VC round-robin pointer is a pure function of the cycle number,
 * so skipping such cycles is bit-identical to stepping them.
 */

#ifndef HNOC_NOC_NETWORK_INTERFACE_HH
#define HNOC_NOC_NETWORK_INTERFACE_HH

#include <array>

#include "common/hot_arena.hh"
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
    /** An NI toward a router with @p router_vcs local input VCs. */
    NetworkInterface(NodeId node, Network *net, int router_vcs)
        : node_(node), net_(net), vcs_(router_vcs)
    {}

    /** Bytes place() carves for an NI toward @p router_vcs VCs. */
    static constexpr std::size_t
    arenaBytes(int router_vcs)
    {
        auto v = static_cast<std::size_t>(router_vcs);
        return HotArena::bytesFor<int>(v) + HotArena::bytesFor<Stream>(v);
    }

    /** Carve the credit and stream arrays from @p arena. Call once,
     *  before wiring. */
    void
    place(HotArena &arena)
    {
        auto v = static_cast<std::size_t>(vcs_);
        credits_ = arena.carve<int>(v);
        streams_ = arena.carve<Stream>(v);
    }

    /** Start and size of the NI object and of each array place()
     *  carved, in carve order. */
    std::array<HotSpan, 3>
    placedSections() const
    {
        auto v = static_cast<std::size_t>(vcs_);
        return {{{this, sizeof(*this)},
                 {credits_, v * sizeof(int)},
                 {streams_, v * sizeof(Stream)}}};
    }

    /** Wire the injection channel toward the router's local port.
     *  @param intra_pairing allow two same-packet flits per cycle on
     *  wide local channels (mirrors the in-network §3.2 pairing). */
    void
    connectInjection(Channel *chan, int buffer_depth,
                     RouterActivity *link_activity, bool intra_pairing)
    {
        inj_ = chan;
        std::fill_n(credits_, vcs_, buffer_depth);
        linkActivity_ = link_activity;
        intraPairing_ = intra_pairing;
    }

    /** Wire the ejection channel from the router's local port. */
    void connectEjection(Channel *chan) { ej_ = chan; }

    /** Queue a packet for injection, behind every packet queued
     *  before it. The packet's link belongs to the queue until
     *  stepInject takes it. */
    void
    enqueue(Packet *pkt)
    {
        pkt->queueNext = nullptr;
        if (queueTail_ == nullptr)
            queueHead_ = pkt;
        else
            queueTail_->queueNext = pkt;
        queueTail_ = pkt;
        ++queued_;
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

    std::size_t sourceQueueDepth() const { return queued_; }

    /**
     * @return true if stepInject this cycle can have any effect:
     * a queued packet awaits a stream, or a stream is mid-packet
     * (possibly stalled on credits — stalled streams stay busy so the
     * credit return needs no wakeup hook of its own).
     */
    bool busy() const { return queued_ > 0 || activeStreams_ > 0; }

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

    std::size_t arenaBytes() const { return arenaBytes(vcs_); }

    /** Memory footprint of an NI toward @p router_vcs VCs: the object
     *  and its carved arrays (queued packets live in the packet
     *  slabs). */
    static std::uint64_t
    footprintBytes(int router_vcs)
    {
        return HotArena::bytesFor<NetworkInterface>(1) +
               arenaBytes(router_vcs);
    }

    std::uint64_t footprintBytes() const { return footprintBytes(vcs_); }

  private:
    /** An in-progress packet transmission bound to one VC. */
    struct Stream
    {
        Packet *pkt = nullptr;
        int nextSeq = 0;
    };

    /** The live probe; folds to nullptr under HNOC_TELEMETRY=OFF. */
    Probe *probe() const { return kTelemetryEnabled ? probe_ : nullptr; }

    // Hot-first member order (§6g): the stepInject path reads the
    // queue, streams, credits and pairing flag every active cycle;
    // the stats attachment trails as the cold tail.
    NodeId node_;
    Network *net_;
    int vcs_; ///< per-VC streams and credits
    Channel *inj_ = nullptr;
    Channel *ej_ = nullptr;
    int *credits_ = nullptr;
    Stream *streams_ = nullptr;
    Packet *queueHead_ = nullptr; ///< source queue, oldest first
    Packet *queueTail_ = nullptr;
    std::size_t queued_ = 0;
    int activeStreams_ = 0; ///< streams with a packet in flight
    bool intraPairing_ = true;
    WakeHook wake_;
    RouterActivity *linkActivity_ = nullptr;
    Probe *probe_ = nullptr;
};

} // namespace hnoc

#endif // HNOC_NOC_NETWORK_INTERFACE_HH
