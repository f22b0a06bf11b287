/**
 * @file
 * Fixed-capacity ring buffer for hot-path FIFOs.
 *
 * The NoC hot path (VC FIFOs, channel flit/credit pipes, NI source
 * queues) used std::deque, which allocates chunk-wise as it grows.
 * RingBuffer allocates its backing store once — sized from config
 * (VC depth, channel latency) — so the steady-state simulation loop
 * performs zero heap allocations. Capacity is rounded up to a power
 * of two for mask indexing.
 *
 * Two overflow policies, chosen at construction:
 *  - fixed (default): push_back on a full ring is a fatal error. Used
 *    where an exact occupancy bound exists (credit-clamped VC FIFOs,
 *    delay-bounded channel pipes) — overflow means a protocol bug.
 *  - growable: capacity doubles, retaining the storage afterwards (a
 *    pooled backing store). Used by the NI source queue, which is
 *    unbounded by design (the client regulates admission).
 */

#ifndef HNOC_COMMON_RING_BUFFER_HH
#define HNOC_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <memory>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"

namespace hnoc
{

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity, bool growable = false)
    {
        reset(capacity, growable);
    }

    /** (Re)size to hold at least @p capacity elements; drops contents. */
    void
    reset(std::size_t capacity, bool growable = false)
    {
        cap_ = roundUpPow2(capacity < 1 ? 1 : capacity);
        buf_ = std::make_unique<T[]>(cap_);
        ptr_ = buf_.get();
        head_ = 0;
        count_ = 0;
        growable_ = growable;
    }

    /** Round up to the capacity reset(@p capacity) would allocate. */
    static std::size_t
    boundCapacity(std::size_t capacity)
    {
        return roundUpPow2(capacity < 1 ? 1 : capacity);
    }

    /**
     * Bind to caller-owned storage of exactly boundCapacity(@p
     * capacity) slots (drops contents; the buffer becomes
     * fixed-capacity). The storage must outlive this buffer and never
     * move — used to pack many FIFOs into one contiguous hot
     * allocation (§6g).
     */
    void
    bindStorage(T *storage, std::size_t capacity)
    {
        buf_.reset();
        ptr_ = storage;
        cap_ = boundCapacity(capacity);
        head_ = 0;
        count_ = 0;
        growable_ = false;
    }

    /**
     * Move the live contents into caller-owned @p storage of the same
     * capacity (elements keep their ring positions, so head/count are
     * preserved) and bind to it; the previously owned storage is
     * released and the buffer becomes fixed-capacity.
     */
    void
    moveStorageTo(T *storage)
    {
        for (std::size_t i = 0; i < count_; ++i) {
            std::size_t s = (head_ + i) & (cap_ - 1);
            storage[s] = std::move(ptr_[s]);
        }
        buf_.reset();
        ptr_ = storage;
        growable_ = false;
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return cap_; }

    void
    push_back(const T &v)
    {
        if (count_ == cap_) {
            if (!growable_)
                fatal("ring buffer overflow (fixed capacity %zu)", cap_);
            grow();
        }
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
    static std::size_t
    roundUpPow2(std::size_t n)
    {
        std::size_t p = 1;
        while (p < n)
            p <<= 1;
        return p;
    }

    void
    grow()
    {
        std::size_t new_cap = cap_ ? cap_ * 2 : 1;
        auto next = std::make_unique<T[]>(new_cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = std::move(ptr_[(head_ + i) & (cap_ - 1)]);
        buf_ = std::move(next);
        ptr_ = buf_.get();
        cap_ = new_cap;
        head_ = 0;
    }

    std::unique_ptr<T[]> buf_; ///< owned storage (null when bound)
    T *ptr_ = nullptr;         ///< element base (owned or bound)
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    bool growable_ = false;
};

} // namespace hnoc

#endif // HNOC_COMMON_RING_BUFFER_HH
