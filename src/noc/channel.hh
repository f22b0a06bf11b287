/**
 * @file
 * Unidirectional flit channel with a reverse credit path.
 *
 * A channel has a fixed width in bits; its lane count (width divided by
 * the network flit width) is the number of flits it can carry per cycle.
 * Wide 256 b channels in HeteroNoC carry two combined 128 b flits per
 * cycle (§3.2). Delivery is a simple constant-delay pipe.
 *
 * Both pipes are fixed-capacity ring buffers sized from the channel's
 * rate and latency: at most max(lanes, 2) entries enter per cycle and
 * every entry is drained within delay + 1 cycles of being sent (the
 * Network scans every non-idle channel every cycle), so
 * max(lanes, 2) * (delay + 2) slots can never overflow. A channel is
 * constructed with sizes only; place() carves both pipes from the
 * network's arena (§6g), right after the network carved the channel
 * object itself, so the steady state allocates nothing.
 */

#ifndef HNOC_NOC_CHANNEL_HH
#define HNOC_NOC_CHANNEL_HH

#include <array>
#include <cstdint>

#include "common/bitops.hh"
#include "common/hot_arena.hh"
#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "noc/active_set.hh"
#include "noc/flit.hh"

namespace hnoc
{

/** Constant-latency flit pipe plus reverse credit pipe. */
class alignas(64) Channel
{
  public:
    /**
     * @param width_bits physical wire width
     * @param lanes flits transferable per cycle (width / flit width)
     * @param flit_delay cycles from send to delivery (includes the
     *        sender's switch-traversal stage)
     * @param credit_delay cycles for the reverse credit path
     */
    Channel(int id, int width_bits, int lanes, int flit_delay,
            int credit_delay)
        : id_(id), widthBits_(width_bits), lanes_(lanes),
          flitDelay_(flit_delay), creditDelay_(credit_delay)
    {}

    int id() const { return id_; }
    int widthBits() const { return widthBits_; }
    int lanes() const { return lanes_; }
    int flitDelay() const { return flitDelay_; }

    /** Send a flit; it is delivered at now + flitDelay. */
    void
    sendFlit(const Flit &flit, Cycle now)
    {
        if (now == lastSendCycle_) {
            ++sendsThisCycle_;
            if (sendsThisCycle_ > lanes_)
                panic("channel %d oversubscribed (%d lanes)", id_, lanes_);
            if (sendsThisCycle_ == 2)
                ++pairedCycles_;
        } else {
            lastSendCycle_ = now;
            sendsThisCycle_ = 1;
            ++busyCycles_;
        }
        ++flitsSent_;
        flitPipe_.push_back(
            {now + static_cast<Cycle>(flitDelay_), flit});
        flitWake_.wake();
    }

    /** Send a credit for @p vc back to the channel's driver. */
    void
    sendCredit(VcId vc, Cycle now)
    {
        creditPipe_.push_back(
            {now + static_cast<Cycle>(creditDelay_), vc});
        creditWake_.wake();
    }

    /**
     * Deliver flits arriving at @p now straight to @p sink (called as
     * sink(const Flit &)). The hot credit/flit return path hands each
     * entry to the receiving router or NI without staging it in a
     * scratch vector. @return count delivered.
     */
    template <typename Sink>
    int
    deliverFlitsTo(Cycle now, Sink &&sink)
    {
        int n = 0;
        while (!flitPipe_.empty() && flitPipe_.front().at <= now) {
            sink(flitPipe_.front().flit);
            flitPipe_.pop_front();
            ++n;
        }
        return n;
    }

    /** Deliver credits arriving at @p now straight to @p sink (called
     *  as sink(VcId)). @return count delivered. */
    template <typename Sink>
    int
    deliverCreditsTo(Cycle now, Sink &&sink)
    {
        int n = 0;
        while (!creditPipe_.empty() && creditPipe_.front().at <= now) {
            sink(creditPipe_.front().vc);
            creditPipe_.pop_front();
            ++n;
        }
        return n;
    }

    /** @name Drop predicates of the channel's active-list roles (§6a) */
    ///@{
    bool hasFlits() const { return !flitPipe_.empty(); }
    bool hasCredits() const { return !creditPipe_.empty(); }
    bool idle() const { return !hasFlits() && !hasCredits(); }
    ///@}

    /** Bytes place() carves from the arena for a channel of @p lanes
     *  lanes and these delays (each pipe rounded up to whole cache
     *  lines). */
    static std::size_t
    arenaBytes(int lanes, int flit_delay, int credit_delay)
    {
        return HotArena::bytesFor<TimedFlit>(pipeSlots(lanes, flit_delay)) +
               HotArena::bytesFor<TimedCredit>(
                   pipeSlots(lanes, credit_delay));
    }

    std::size_t
    arenaBytes() const
    {
        return arenaBytes(lanes_, flitDelay_, creditDelay_);
    }

    /** Carve both pipes from @p arena (§6g). Call once, before the
     *  first send. */
    void
    place(HotArena &arena)
    {
        std::size_t f = pipeSlots(lanes_, flitDelay_);
        flitPipe_.bindStorage(arena.carve<TimedFlit>(f), f);
        std::size_t c = pipeSlots(lanes_, creditDelay_);
        creditPipe_.bindStorage(arena.carve<TimedCredit>(c), c);
    }

    /** Start and size of the channel object and of each placed pipe,
     *  in carve order (the network carves the object, then place() the
     *  pipes). */
    std::array<HotSpan, 3>
    placedSections() const
    {
        return {{{this, sizeof(*this)},
                 {flitPipe_.data(), flitPipeBytes()},
                 {creditPipe_.data(), creditPipeBytes()}}};
    }

    /** @name Prefetch one active-list entry ahead of a delivery (§6g):
     *  the pipe's header (the line its drop predicate reads) and its
     *  front slot. */
    ///@{
    void
    prefetchFlits() const
    {
        bitops::prefetch(&flitPipe_);
        flitPipe_.prefetchFront();
    }

    void
    prefetchCredits() const
    {
        bitops::prefetch(&creditPipe_);
        creditPipe_.prefetchFront();
    }
    ///@}

    /** Set the active lists this channel's sends wake, both with id
     *  @p id: @p flits on sendFlit, @p credits on sendCredit (§6a). A
     *  channel between two blocks keeps none: it is pinned in both of
     *  its lists (active_set.hh). */
    void
    setWakeHooks(ActiveList *flits, ActiveList *credits, std::uint32_t id)
    {
        flitWake_ = {flits, id};
        creditWake_ = {credits, id};
    }

    /** @name In-flight introspection (conservation audit) */
    ///@{
    /** Flits for @p vc currently in the forward pipe. */
    int
    pipeFlits(VcId vc) const
    {
        int n = 0;
        for (std::size_t i = 0; i < flitPipe_.size(); ++i)
            if (flitPipe_[i].flit.vc == vc)
                ++n;
        return n;
    }

    /** Credits for @p vc currently in the reverse pipe. */
    int
    pipeCredits(VcId vc) const
    {
        int n = 0;
        for (std::size_t i = 0; i < creditPipe_.size(); ++i)
            if (creditPipe_[i].vc == vc)
                ++n;
        return n;
    }
    ///@}

    /** @name Measurement counters (reset via resetStats). */
    ///@{
    std::uint64_t flitsSent() const { return flitsSent_; }
    std::uint64_t busyCycles() const { return busyCycles_; }
    std::uint64_t pairedCycles() const { return pairedCycles_; }

    void
    resetStats()
    {
        flitsSent_ = 0;
        busyCycles_ = 0;
        pairedCycles_ = 0;
    }

    /** Flit-lane utilization over @p cycles elapsed cycles. */
    double
    laneUtilization(std::uint64_t cycles) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(flitsSent_) /
               (static_cast<double>(lanes_) * static_cast<double>(cycles));
    }
    ///@}

    /** Memory footprint: both pipes as carved plus the object, a
     *  pure function of the constructor's sizes. */
    static std::uint64_t
    footprintBytes(int lanes, int flit_delay, int credit_delay)
    {
        return HotArena::bytesFor<Channel>(1) +
               arenaBytes(lanes, flit_delay, credit_delay);
    }

    std::uint64_t
    footprintBytes() const
    {
        return footprintBytes(lanes_, flitDelay_, creditDelay_);
    }

  private:
    struct TimedFlit
    {
        Cycle at = 0;
        Flit flit;
    };

    struct TimedCredit
    {
        Cycle at = 0;
        VcId vc = 0;
    };

    /** Ring slots of a pipe with @p delay on @p lanes lanes: the
     *  occupancy bound of <= max(lanes, 2) sends per cycle, each
     *  drained within delay + 1 cycles (+1 slack for the same-cycle
     *  window), rounded up to the ring's power of two. */
    static std::size_t
    pipeSlots(int lanes, int delay)
    {
        int rate = lanes > 2 ? lanes : 2;
        return RingBuffer<TimedFlit>::boundCapacity(
            static_cast<std::size_t>(rate) *
            static_cast<std::size_t>(delay + 2));
    }

    std::size_t
    flitPipeBytes() const
    {
        return pipeSlots(lanes_, flitDelay_) * sizeof(TimedFlit);
    }

    std::size_t
    creditPipeBytes() const
    {
        return pipeSlots(lanes_, creditDelay_) * sizeof(TimedCredit);
    }

    // Line-per-role member order (§6g): on a line-aligned object each
    // pipe header shares one cache line with the wake hook its sends
    // call, so a flit-list scan (predicate + delivery) touches line 0
    // only and a credit-list scan line 1 only.
    RingBuffer<TimedFlit> flitPipe_;
    WakeHook flitWake_;
    alignas(64) RingBuffer<TimedCredit> creditPipe_;
    WakeHook creditWake_;

    int id_;
    int widthBits_;
    int lanes_;
    int flitDelay_;
    int creditDelay_;
    Cycle lastSendCycle_ = CYCLE_NEVER;
    int sendsThisCycle_ = 0;
    std::uint64_t flitsSent_ = 0;
    std::uint64_t busyCycles_ = 0;
    std::uint64_t pairedCycles_ = 0;
};

} // namespace hnoc

#endif // HNOC_NOC_CHANNEL_HH
