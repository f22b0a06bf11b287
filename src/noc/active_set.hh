/**
 * @file
 * Active-set scheduling shared by routers, channels, and NIs.
 *
 * The Network keeps one record of which components have work: their
 * membership in sorted ActiveLists, one list per (block, role). Two
 * sides keep it exact:
 *
 *  - wake: every producer event calls the consumer's WakeHook —
 *    Router::receiveFlit wakes the router, Channel::sendFlit and
 *    Channel::sendCredit wake the channel on its flit-delivery and
 *    credit-delivery lists, NetworkInterface::enqueue wakes the NI.
 *    wake() is idempotent, so calling it on every event is safe;
 *  - drop: each scan asks the component's own exact predicate before
 *    visiting it and drops the entry when it has no work — a router
 *    without a buffered flit (Router::busy), a channel whose pipe for
 *    that list's role is empty, an NI with no queued packet or open
 *    stream (NetworkInterface::busy).
 *
 * Nothing marks itself idle: a component that drains simply fails its
 * predicate at the next scan. A flitless router has empty rcMask /
 * vaReqMask / saReqMask request sets, so RC, VA, SA and occupancy
 * sampling are all provably no-ops on it (DESIGN.md §6a, "SoA router
 * core"); the same holds for the other kinds, so skipping a dropped
 * entry is bit-identical to visiting it.
 *
 * Newly woken ids are sort-merged before each scan, so visits run in
 * canonical ascending id order (§6g) and cost O(active). A list is
 * woken only by the thread that scans it: when a network steps on a
 * team (§6h), a send whose list another thread scans wakes the
 * sender's outbox, an ActiveList that is never scanned; as the next
 * cycle opens, each scanning thread reads every other outbox
 * (forEachPending()) and wakes its own lists, and each sender then
 * empties its own (drainPending()). All storage is reserved once, at
 * construction (an outbox's when its team forms), so the steady state
 * allocates nothing. WakeHooks hold raw pointers into the Network's
 * per-block std::vector<ActiveList>s, which therefore must never
 * reallocate once the hooks are set.
 */

#ifndef HNOC_NOC_ACTIVE_SET_HH
#define HNOC_NOC_ACTIVE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hnoc
{

/**
 * Sorted dense list of component ids that may have work.
 *
 * wake(i) is O(1) and idempotent (an in-list byte suppresses duplicate
 * appends); woken ids collect unsorted in a pending vector until the
 * next scan merges them. A dropped id clears its in-list byte, so a
 * later wake re-appends it. An id woken during a scan after its
 * position was passed is visited at the next scan, not this one.
 */
class ActiveList
{
    /** forEachActive's default look-ahead: no prefetch. */
    struct NoPrefetch
    {
        void operator()(std::uint32_t) const {}
    };

  public:
    /**
     * Size all storage once, at network construction: membership
     * bytes cover ids [0, id_space), and the member vectors hold up
     * to @p max_members entries (the ids that can ever wake this
     * list). Nothing below ever reallocates afterwards.
     */
    void
    reserve(std::size_t id_space, std::size_t max_members)
    {
        items_.clear();
        items_.reserve(max_members);
        pending_.clear();
        pending_.reserve(max_members);
        scratch_.reserve(max_members);
        inList_.assign(id_space, 0);
    }

    /** Enlist id @p i (idempotent). */
    void
    wake(std::uint32_t i)
    {
        if (inList_[i] == 0) {
            inList_[i] = 1;
            pending_.push_back(i);
        }
    }

    /**
     * Merge newly woken ids, then visit, in ascending id order, every
     * member for which @p busy(id) holds and drop the rest
     * (write-index compaction). The predicate runs before the visit,
     * so a visit that drains its own component keeps the entry for
     * one more (dropping) scan — deterministic either way.
     * @p pre(next_id) runs one entry ahead of each visit, a window to
     * prefetch the next member while the current one is processed; it
     * may fire for an entry that is about to be dropped (a wasted
     * prefetch, never a visible effect).
     */
    template <typename Busy, typename Fn, typename Pre = NoPrefetch>
    void
    forEachActive(Busy &&busy, Fn &&fn, Pre &&pre = Pre{})
    {
        mergePending();
        std::size_t keep = 0;
        std::size_t n = items_.size();
        if (n > 0)
            pre(items_[0]);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t id = items_[i];
            if (i + 1 < n)
                pre(items_[i + 1]);
            if (busy(id)) {
                fn(id);
                items_[keep++] = id;
            } else {
                inList_[id] = 0;
            }
        }
        items_.resize(keep);
    }

    /**
     * Use as a wake outbox (a list that is never scanned): hand every
     * id woken since the last drain to @p fn, in wake order, and
     * forget it, so the next wake enlists it again.
     */
    template <typename Fn>
    void
    drainPending(Fn &&fn)
    {
        for (std::uint32_t id : pending_) {
            inList_[id] = 0;
            fn(id);
        }
        pending_.clear();
    }

    /** Hand every id woken since the last drain to @p fn, in wake
     *  order, and keep it: an outbox that other threads read before
     *  its owner drains it. */
    template <typename Fn>
    void
    forEachPending(Fn &&fn) const
    {
        for (std::uint32_t id : pending_)
            fn(id);
    }

    /** Current member count (entries that have gone idle included
     *  until the next scan drops them). */
    std::size_t size() const { return items_.size() + pending_.size(); }

    /** Steady-state storage (reserved once; memory-audit row). */
    std::uint64_t
    footprintBytes() const
    {
        return (items_.capacity() + pending_.capacity() +
                scratch_.capacity()) *
                   sizeof(std::uint32_t) +
               inList_.capacity();
    }

  private:
    /** Sort the pending batch and merge it into the (sorted) member
     *  list, restoring canonical ascending order. */
    void
    mergePending()
    {
        if (pending_.empty())
            return;
        std::sort(pending_.begin(), pending_.end());
        scratch_.clear();
        std::size_t a = 0;
        std::size_t b = 0;
        while (a < items_.size() && b < pending_.size())
            scratch_.push_back(items_[a] < pending_[b] ? items_[a++]
                                                       : pending_[b++]);
        while (a < items_.size())
            scratch_.push_back(items_[a++]);
        while (b < pending_.size())
            scratch_.push_back(pending_[b++]);
        items_.swap(scratch_);
        pending_.clear();
    }

    std::vector<std::uint32_t> items_;   ///< sorted current members
    std::vector<std::uint32_t> pending_; ///< woken since last merge
    std::vector<std::uint32_t> scratch_; ///< merge target (swapped)
    std::vector<std::uint8_t> inList_;   ///< membership byte per index
};

/** A component's link into the ActiveList that schedules it: the list
 *  plus the component's id there. Unset (a component built outside a
 *  Network) it does nothing. */
struct WakeHook
{
    ActiveList *list = nullptr;
    std::uint32_t id = 0;

    void
    wake() const
    {
        if (list)
            list->wake(id);
    }
};

} // namespace hnoc

#endif // HNOC_NOC_ACTIVE_SET_HH
