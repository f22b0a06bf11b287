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
 * canonical ascending id order (§6g) and cost O(active). Every wake
 * comes from the list's own block: a channel end whose sender sits in
 * another block is instead a *pinned* member of its receiving list
 * (pin()): enlisted for good, never dropped, visited only while its
 * predicate holds, and its sends wake nothing. So when a network
 * steps on a team (§6h) no send touches a list another thread scans.
 * All storage is carved once from the network's arena, so the steady
 * state allocates nothing. WakeHooks hold raw pointers to the lists,
 * which never move once the hooks are set.
 */

#ifndef HNOC_NOC_ACTIVE_SET_HH
#define HNOC_NOC_ACTIVE_SET_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/hot_arena.hh"

namespace hnoc
{

/**
 * Sorted dense list of component ids that may have work.
 *
 * wake(i) is O(1) and idempotent (an in-list byte suppresses duplicate
 * appends); woken ids collect unsorted in a pending array until the
 * next scan merges them. A dropped id clears its in-list byte, so a
 * later wake re-appends it. An id woken during a scan after its
 * position was passed is visited at the next scan, not this one. A
 * pinned id's byte stays set, so it is never dropped or re-woken.
 */
class ActiveList
{
    /** forEachActive's default look-ahead: no prefetch. */
    struct NoPrefetch
    {
        void operator()(std::uint32_t) const {}
    };

  public:
    /** Bytes place(@p id_space, @p max_members) carves. */
    static constexpr std::size_t
    arenaBytes(std::size_t id_space, std::size_t max_members)
    {
        return 3 * HotArena::bytesFor<std::uint32_t>(max_members) +
               HotArena::bytesFor<std::uint8_t>(id_space);
    }

    /**
     * Carve all storage once from @p arena: membership bytes cover ids
     * [0, id_space), and the member arrays hold up to @p max_members
     * entries (the ids that can ever be enlisted). Nothing below
     * ever allocates afterwards.
     */
    void
    place(HotArena &arena, std::size_t id_space, std::size_t max_members)
    {
        items_ = arena.carve<std::uint32_t>(max_members);
        storage_ = items_;
        pending_ = arena.carve<std::uint32_t>(max_members);
        scratch_ = arena.carve<std::uint32_t>(max_members);
        inList_ = arena.carve<std::uint8_t>(id_space);
        numItems_ = 0;
        numPending_ = 0;
        idSpace_ = id_space;
        maxMembers_ = max_members;
    }

    /** Enlist id @p i (idempotent; a no-op on a pinned id). */
    void
    wake(std::uint32_t i)
    {
        if (inList_[i] == 0) {
            inList_[i] = 1;
            pending_[numPending_++] = i;
        }
    }

    /** Make @p i a pinned member: enlisted from the next scan on and
     *  never dropped, so its producer need not wake this list. Scans
     *  still visit it only while its predicate holds. */
    void
    pin(std::uint32_t i)
    {
        if (inList_[i] == 0)
            pending_[numPending_++] = i;
        inList_[i] = kPinned;
    }

    /**
     * Merge newly woken ids, then visit, in ascending id order, every
     * member for which @p busy(id) holds and drop the unpinned rest
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
        std::size_t n = numItems_;
        if (n > 0)
            pre(items_[0]);
        for (std::size_t i = 0; i < n; ++i) {
            std::uint32_t id = items_[i];
            if (i + 1 < n)
                pre(items_[i + 1]);
            if (busy(id)) {
                fn(id);
                items_[keep++] = id;
            } else if (inList_[id] == kPinned) {
                items_[keep++] = id;
            } else {
                inList_[id] = 0;
            }
        }
        numItems_ = keep;
    }

    /** Current member count (entries that have gone idle included
     *  until the next scan drops them). */
    std::size_t size() const { return numItems_ + numPending_; }

    /** Start and size of the storage place() carved. */
    HotSpan
    placedSpan() const
    {
        return {storage_, arenaBytes(idSpace_, maxMembers_)};
    }

    /** Storage carved once by place() (memory-audit row). */
    std::uint64_t
    footprintBytes() const
    {
        return arenaBytes(idSpace_, maxMembers_);
    }

  private:
    /** inList_ value of a pinned id (1: enlisted until dropped). */
    static constexpr std::uint8_t kPinned = 2;

    /** Sort the pending batch and merge it into the (sorted) member
     *  list, restoring canonical ascending order. */
    void
    mergePending()
    {
        if (numPending_ == 0)
            return;
        std::sort(pending_, pending_ + numPending_);
        std::size_t a = 0;
        std::size_t b = 0;
        std::size_t out = 0;
        while (a < numItems_ && b < numPending_)
            scratch_[out++] =
                items_[a] < pending_[b] ? items_[a++] : pending_[b++];
        while (a < numItems_)
            scratch_[out++] = items_[a++];
        while (b < numPending_)
            scratch_[out++] = pending_[b++];
        std::swap(items_, scratch_);
        numItems_ = out;
        numPending_ = 0;
    }

    std::uint32_t *items_ = nullptr;   ///< sorted current members
    std::uint32_t *pending_ = nullptr; ///< woken since last merge
    std::uint32_t *scratch_ = nullptr; ///< merge target (swapped)
    std::uint8_t *inList_ = nullptr;   ///< 0 out, 1 in, kPinned per index
    const void *storage_ = nullptr;    ///< first carve (placedSpan)
    std::size_t numItems_ = 0;
    std::size_t numPending_ = 0;
    std::size_t idSpace_ = 0;
    std::size_t maxMembers_ = 0;
};

/** A component's link into the ActiveList that schedules it: the list
 *  plus the component's id there. Unset (a component built outside a
 *  Network, or a pinned channel end) it does nothing. */
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
