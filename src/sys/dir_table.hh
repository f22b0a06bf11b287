/**
 * @file
 * Flat, pooled storage for the CMP's MESI directory and event queue
 * (DESIGN.md §6i).
 *
 *  - AddrTable: an open-addressed, linearly probed map from block
 *    address to a small trivially copyable value, with backward-shift
 *    erase (no tombstones). The directory and the live-transaction
 *    table of every L2 bank use it.
 *  - ChainPool: a free-listed vector of linked nodes. Storage grows
 *    to the high-water mark and is then reused, so steady-state
 *    operation never touches the heap.
 *  - SharerList: a directory entry's sharers in insertion order, two
 *    inline and the rest in pooled chunks. The order is observable:
 *    invalidations fan out in it.
 *  - PoolFifo: a FIFO over a ChainPool (a transaction's deferred
 *    requests; one cycle's events of the CMP calendar queue; a memory
 *    controller's requests).
 */

#ifndef HNOC_SYS_DIR_TABLE_HH
#define HNOC_SYS_DIR_TABLE_HH

#include <array>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/page_allocator.hh"
#include "common/types.hh"
#include "sys/protocol.hh"

namespace hnoc
{

/** fmix64: spreads block addresses that differ only in high bits. */
struct AddrHash
{
    std::uint64_t
    operator()(Addr a) const
    {
        a ^= a >> 33;
        a *= 0xff51afd7ed558ccdULL;
        a ^= a >> 33;
        a *= 0xc4ceb9fe1a85ec53ULL;
        a ^= a >> 33;
        return a;
    }
};

/**
 * Open-addressed map Addr -> V. The all-ones address marks an empty
 * slot and is not a valid key (block addresses are aligned). The table
 * doubles when it would pass 3/4 full. Pointers returned by find() and
 * references from findOrInsert() stay valid only until the next
 * insertion or erase.
 */
template <typename V, typename Hash = AddrHash>
class AddrTable
{
    static_assert(std::is_trivially_copyable_v<V>,
                  "AddrTable moves values by copy");

  public:
    static constexpr Addr EMPTY_KEY = ~static_cast<Addr>(0);

    /** @param min_capacity initial slots (rounded up to a power of 2) */
    explicit AddrTable(std::size_t min_capacity = 16)
    {
        std::size_t cap = 4;
        while (cap < min_capacity)
            cap <<= 1;
        slots_.assign(cap, Slot{});
        mask_ = cap - 1;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return slots_.size(); }

    V *
    find(Addr key)
    {
        return const_cast<V *>(std::as_const(*this).find(key));
    }

    const V *
    find(Addr key) const
    {
        if (key == EMPTY_KEY)
            return nullptr;
        for (std::size_t i = home(key);; i = (i + 1) & mask_) {
            const Slot &s = slots_[i];
            if (s.key == key)
                return &s.value;
            if (s.key == EMPTY_KEY)
                return nullptr;
        }
    }

    /** @return the value for @p key, value-initialized if new. */
    V &
    findOrInsert(Addr key)
    {
        if (key == EMPTY_KEY)
            panic("AddrTable: the all-ones address is not a valid key");
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return slots_[i].value;
            if (slots_[i].key == EMPTY_KEY)
                break;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3) {
            rehashDoubled();
            i = home(key);
            while (slots_[i].key != EMPTY_KEY)
                i = (i + 1) & mask_;
        }
        slots_[i].key = key;
        slots_[i].value = V{};
        ++size_;
        return slots_[i].value;
    }

    /** @return true if @p key was present. */
    bool
    erase(Addr key)
    {
        if (key == EMPTY_KEY)
            return false;
        std::size_t i = home(key);
        for (;; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                break;
            if (slots_[i].key == EMPTY_KEY)
                return false;
        }
        // Backward shift: pull each later entry of the probe run into
        // the hole unless its home lies cyclically in (hole, entry].
        for (std::size_t j = (i + 1) & mask_; slots_[j].key != EMPTY_KEY;
             j = (j + 1) & mask_) {
            std::size_t h = home(slots_[j].key);
            if (((j - h) & mask_) >= ((j - i) & mask_)) {
                slots_[i] = slots_[j];
                i = j;
            }
        }
        slots_[i] = Slot{};
        --size_;
        return true;
    }

    /** Bytes of slot storage (exact: the table owns nothing else). */
    std::uint64_t
    footprintBytes() const
    {
        return slots_.capacity() * sizeof(Slot);
    }

  private:
    struct Slot
    {
        Addr key = EMPTY_KEY;
        V value{};
    };

    std::size_t
    home(Addr key) const
    {
        return static_cast<std::size_t>(Hash{}(key)) & mask_;
    }

    /** Double the slots and reinsert every entry. */
    void
    rehashDoubled()
    {
        std::vector<Slot, PageAllocator<Slot>> old(slots_.size() * 2,
                                                   Slot{});
        old.swap(slots_);
        mask_ = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.key == EMPTY_KEY)
                continue;
            std::size_t i = home(s.key);
            while (slots_[i].key != EMPTY_KEY)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot, PageAllocator<Slot>> slots_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

/** A free-listed pool of singly linked nodes, addressed by index. */
template <typename T>
class ChainPool
{
  public:
    static constexpr std::uint32_t NIL = 0xffffffffu;

    struct Node
    {
        T value{};
        std::uint32_t next = NIL;
    };

    /** @return a fresh node (next = NIL). May move the node storage:
     *  references into the pool do not survive it; indices do. */
    std::uint32_t
    alloc()
    {
        std::uint32_t i;
        if (free_ != NIL) {
            i = free_;
            free_ = nodes_[i].next;
        } else {
            i = static_cast<std::uint32_t>(nodes_.size());
            nodes_.emplace_back();
        }
        nodes_[i].next = NIL;
        ++live_;
        return i;
    }

    void
    release(std::uint32_t i)
    {
        nodes_[i].next = free_;
        free_ = i;
        --live_;
    }

    Node &operator[](std::uint32_t i) { return nodes_[i]; }
    const Node &operator[](std::uint32_t i) const { return nodes_[i]; }

    /** Nodes currently allocated. */
    std::size_t live() const { return live_; }

    /** Bytes of node storage (exact: the pool owns nothing else). */
    std::uint64_t
    footprintBytes() const
    {
        return nodes_.capacity() * sizeof(Node);
    }

  private:
    std::vector<Node> nodes_;
    std::uint32_t free_ = NIL;
    std::size_t live_ = 0;
};

/** A sharer id: CmpSystem rejects more than INT16_MAX tiles. */
using SharerId = std::int16_t;
/** 14 ids and the link: 32 B per pooled node. */
using SharerChunk = std::array<SharerId, 14>;
using SharerPool = ChainPool<SharerChunk>;

/**
 * A sharer list in insertion order: the first INLINE ids in the entry,
 * the rest in a chain of pooled chunks. Holds no duplicates only if
 * the caller checks contains() before append(), as the directory does.
 * Ids are stored in 16 bits, so the list is 12 B.
 */
class SharerList
{
  public:
    static constexpr std::uint32_t INLINE = 2;
    static constexpr std::uint32_t CHUNK =
        static_cast<std::uint32_t>(std::tuple_size_v<SharerChunk>);

    bool empty() const { return count_ == 0; }
    std::uint32_t size() const { return count_; }

    /** @return true at the first sharer, in insertion order, for
     *  which @p pred(id) holds. */
    template <typename Pred>
    bool
    any(const SharerPool &pool, Pred &&pred) const
    {
        std::uint32_t n = count_ < INLINE ? count_ : INLINE;
        for (std::uint32_t i = 0; i < n; ++i)
            if (pred(NodeId{inline_[i]}))
                return true;
        std::uint32_t left = count_ - n;
        for (std::uint32_t c = spill_; left > 0; c = pool[c].next) {
            std::uint32_t k = left < CHUNK ? left : CHUNK;
            for (std::uint32_t i = 0; i < k; ++i)
                if (pred(NodeId{pool[c].value[i]}))
                    return true;
            left -= k;
        }
        return false;
    }

    /** Call @p f(id) for every sharer in insertion order. */
    template <typename F>
    void
    forEach(const SharerPool &pool, F &&f) const
    {
        any(pool, [&](NodeId id) {
            f(id);
            return false;
        });
    }

    bool
    contains(const SharerPool &pool, NodeId id) const
    {
        return any(pool, [id](NodeId s) { return s == id; });
    }

    void
    append(SharerPool &pool, NodeId id)
    {
        auto sid = static_cast<SharerId>(id);
        if (count_ < INLINE) {
            inline_[count_++] = sid;
            return;
        }
        std::uint32_t pos = count_ - INLINE;
        std::uint32_t tail = spill_;
        for (std::uint32_t k = 1; k < (pos + CHUNK - 1) / CHUNK; ++k)
            tail = pool[tail].next;
        if (pos % CHUNK == 0) {
            std::uint32_t fresh = pool.alloc();
            if (pos == 0)
                spill_ = fresh;
            else
                pool[tail].next = fresh;
            tail = fresh;
        }
        pool[tail].value[pos % CHUNK] = sid;
        ++count_;
    }

    void
    clear(SharerPool &pool)
    {
        std::uint32_t chunks =
            count_ > INLINE ? (count_ - INLINE + CHUNK - 1) / CHUNK : 0;
        for (std::uint32_t c = spill_; chunks > 0; --chunks) {
            std::uint32_t next = pool[c].next;
            pool.release(c);
            c = next;
        }
        count_ = 0;
        spill_ = SharerPool::NIL;
    }

  private:
    std::uint16_t count_ = 0;
    SharerId inline_[INLINE] = {};
    std::uint32_t spill_ = SharerPool::NIL; ///< first chunk
};

/**
 * A FIFO whose elements live in a ChainPool: a transaction's deferred
 * requests, one cycle's events in the CMP's calendar queue, or a
 * memory controller's waiting requests. Many FIFOs share one pool, so
 * together they stop allocating once the pool reaches the high-water
 * mark of their combined length.
 */
template <typename T>
struct PoolFifo
{
    using Pool = ChainPool<T>;

    std::uint32_t head = Pool::NIL;
    std::uint32_t tail = Pool::NIL;

    bool empty() const { return head == Pool::NIL; }

    void
    push(Pool &pool, const T &value)
    {
        std::uint32_t n = pool.alloc();
        pool[n].value = value;
        if (tail == Pool::NIL)
            head = n;
        else
            pool[tail].next = n;
        tail = n;
    }

    /** Pop the oldest element (the FIFO must not be empty). */
    T
    pop(Pool &pool)
    {
        T value = pool[head].value;
        std::uint32_t next = pool[head].next;
        pool.release(head);
        head = next;
        if (head == Pool::NIL)
            tail = Pool::NIL;
        return value;
    }

    /** Pop and pass each element to @p f in push order. Each node is
     *  released before @p f sees its copy, so @p f may push to this or
     *  any FIFO of the pool (elements pushed here are drained too). */
    template <typename F>
    void
    drain(Pool &pool, F &&f)
    {
        while (head != Pool::NIL)
            f(pop(pool));
    }
};

using MsgPool = ChainPool<Msg>;
using MsgFifo = PoolFifo<Msg>;

} // namespace hnoc

#endif // HNOC_SYS_DIR_TABLE_HH
