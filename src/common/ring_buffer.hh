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
 *  - growable: a full ring moves to storage of twice its capacity and
 *    keeps it afterwards (a pooled backing store). Used by the NI
 *    source queue, which is unbounded by design (the client regulates
 *    admission): its first ring is carved from the network's arena,
 *    and a ring that outgrows it moves to a PageAllocator block.
 *
 * Storage the ring owns (reset()'s, or grown) comes from PageAllocator
 * (page_allocator.hh): from 64 KiB up, page blocks that any thread can
 * reuse once the ring releases them; below that, std::allocator.
 */

#ifndef HNOC_COMMON_RING_BUFFER_HH
#define HNOC_COMMON_RING_BUFFER_HH

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/page_allocator.hh"

namespace hnoc
{

template <typename T>
class RingBuffer
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "rings copy their elements into raw storage");

  public:
    RingBuffer() = default;

    explicit RingBuffer(std::size_t capacity, bool growable = false)
    {
        reset(capacity, growable);
    }

    ~RingBuffer() { release(); }

    RingBuffer(const RingBuffer &) = delete;
    RingBuffer &operator=(const RingBuffer &) = delete;

    RingBuffer(RingBuffer &&other) noexcept { *this = std::move(other); }

    RingBuffer &
    operator=(RingBuffer &&other) noexcept
    {
        if (this != &other) {
            release();
            ptr_ = std::exchange(other.ptr_, nullptr);
            cap_ = std::exchange(other.cap_, 0);
            head_ = std::exchange(other.head_, 0);
            count_ = std::exchange(other.count_, 0);
            owned_ = std::exchange(other.owned_, false);
            growable_ = other.growable_;
        }
        return *this;
    }

    /** (Re)size to hold at least @p capacity elements; drops contents. */
    void
    reset(std::size_t capacity, bool growable = false)
    {
        release();
        cap_ = roundUpPow2(capacity < 1 ? 1 : capacity);
        ptr_ = PageAllocator<T>{}.allocate(cap_);
        std::uninitialized_value_construct_n(ptr_, cap_);
        owned_ = true;
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
     * capacity) slots (drops contents). The storage must outlive this
     * buffer and never move — used to carve the NoC's FIFOs, pipes and
     * first source-queue rings from one arena (§6g). A @p growable
     * buffer leaves the storage for storage of its own when it fills.
     */
    void
    bindStorage(T *storage, std::size_t capacity, bool growable = false)
    {
        release();
        ptr_ = storage;
        cap_ = boundCapacity(capacity);
        head_ = 0;
        count_ = 0;
        growable_ = growable;
    }

    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == cap_; }
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return cap_; }
    const T *data() const { return ptr_; }

    /** Bytes of the storage the ring owns (0 while bound). */
    std::size_t ownedBytes() const { return owned_ ? cap_ * sizeof(T) : 0; }

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

    /** Move the contents to owned storage of twice the capacity. */
    void
    grow()
    {
        std::size_t new_cap = cap_ ? cap_ * 2 : 1;
        T *next = PageAllocator<T>{}.allocate(new_cap);
        for (std::size_t i = 0; i < count_; ++i)
            next[i] = ptr_[(head_ + i) & (cap_ - 1)];
        release();
        ptr_ = next;
        owned_ = true;
        cap_ = new_cap;
        head_ = 0;
    }

    /** Free the storage the ring owns; bound storage belongs to its
     *  caller. */
    void
    release()
    {
        if (owned_)
            PageAllocator<T>{}.deallocate(ptr_, cap_);
        owned_ = false;
    }

    T *ptr_ = nullptr; ///< element base
    std::size_t cap_ = 0;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    bool owned_ = false; ///< ptr_ is reset()'s or grown storage
    bool growable_ = false;
};

} // namespace hnoc

#endif // HNOC_COMMON_RING_BUFFER_HH
