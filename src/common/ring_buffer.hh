/**
 * @file
 * Fixed-capacity ring buffer over caller-carved storage.
 *
 * The NoC hot path (VC FIFOs, channel flit/credit pipes) and a core's
 * outstanding loads have an exact occupancy bound known from config
 * (VC depth, channel latency, MSHR count). Their owner carves storage
 * for that bound once (the network from its arena) and binds the ring
 * to it, so the ring itself never allocates. Capacity is rounded up
 * to a power of two for mask indexing, and pushing onto a full ring
 * is a fatal error: overflow means a protocol bug. Unbounded queues
 * are linked FIFOs instead (the NI source queue through its packets,
 * PoolFifo in the CMP).
 *
 * The ring is a plain header over storage it does not own: trivially
 * copyable and destructible, so it can itself live in an arena.
 */

#ifndef HNOC_COMMON_RING_BUFFER_HH
#define HNOC_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <type_traits>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hnoc
{

template <typename T>
class RingBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "rings copy their elements into raw storage");

  public:
    /** Round up to the slots bindStorage(@p capacity) uses. */
    static std::size_t
    boundCapacity(std::size_t capacity)
    {
        std::size_t p = 1;
        while (p < capacity)
            p <<= 1;
        return p;
    }

    /**
     * Bind to caller-owned storage of exactly boundCapacity(@p
     * capacity) slots (drops contents). The storage must outlive this
     * buffer and never move.
     */
    void
    bindStorage(T *storage, std::size_t capacity)
    {
        ptr_ = storage;
        cap_ = boundCapacity(capacity);
        head_ = 0;
        count_ = 0;
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return cap_; }
    const T *data() const { return ptr_; }

    void
    push_back(const T &v)
    {
        if (count_ == cap_)
            fatal("ring buffer overflow (fixed capacity %zu)", cap_);
        ptr_[(head_ + count_) & (cap_ - 1)] = v;
        ++count_;
    }

    T &
    front()
    {
        return ptr_[head_];
    }

    const T &
    front() const
    {
        return ptr_[head_];
    }

    /** Prefetch the front slot (safe on an empty buffer — the slot
     *  exists, it just holds no live element). */
    void
    prefetchFront() const
    {
        bitops::prefetch(ptr_ + head_);
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & (cap_ - 1);
        --count_;
    }

    /** @return the @p i-th element from the front (0 = front). */
    const T &
    operator[](std::size_t i) const
    {
        return ptr_[(head_ + i) & (cap_ - 1)];
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Remove every element matching @p pred; the rest keep their
     *  order. */
    template <typename Pred>
    void
    eraseIf(Pred pred)
    {
        std::size_t kept = 0;
        for (std::size_t i = 0; i < count_; ++i) {
            T &v = ptr_[(head_ + i) & (cap_ - 1)];
            if (pred(v))
                continue;
            if (kept != i)
                ptr_[(head_ + kept) & (cap_ - 1)] = std::move(v);
            ++kept;
        }
        count_ = kept;
    }

  private:
    T *ptr_ = nullptr; ///< element base (caller-owned)
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace hnoc

#endif // HNOC_COMMON_RING_BUFFER_HH
