/**
 * @file
 * One contiguous region for all of a network's state (§6g).
 *
 * The blocked step loop streams every component's hot state once per
 * cycle. When that state lives in thousands of small heap allocations
 * it is scattered across the address space: the stream costs one DTLB
 * entry per 4 KiB page it crosses, and big meshes (a 32x32 network's
 * hot state spans several megabytes) thrash the TLB long before they
 * exhaust cache bandwidth. Heap allocations also stay behind in the
 * malloc arena of the thread that made them once the network is gone
 * (§6i). The arena fixes all of it: every component object and every
 * array it owns is carved from one region, in block visit order, and
 * the region is one page block (page_allocator.hh), which from 1 MiB
 * up is 2 MiB-aligned and advised huge-page backing.
 *
 * Carving is monotonic and permanent — there is no free(); the arena
 * is sized once from the components' declared needs and released as a
 * whole. Every carve starts on a fresh cache line, so packed sections
 * never share a line. The arena is the only home of that storage:
 * carving past the reservation is a sizing bug and panics, and a
 * failed reservation throws std::bad_alloc.
 */

#ifndef HNOC_COMMON_HOT_ARENA_HH
#define HNOC_COMMON_HOT_ARENA_HH

#include <cstddef>
#include <memory>
#include <new>
#include <utility>

#include "common/logging.hh"
#include "common/page_allocator.hh"

namespace hnoc
{

/** One section a component carved from the arena (layout checks). */
struct HotSpan
{
    const void *at = nullptr;
    std::size_t bytes = 0;
};

/** Monotonic bump allocator over one page block. */
class HotArena
{
  public:
    static constexpr std::size_t kLine = 64;

    HotArena() = default;
    ~HotArena() { release(); }
    HotArena(const HotArena &) = delete;
    HotArena &operator=(const HotArena &) = delete;

    /** Round @p bytes up to whole cache lines: what a carve of that
     *  size takes from the arena at most. */
    static constexpr std::size_t
    lineBytes(std::size_t bytes)
    {
        return (bytes + kLine - 1) / kLine * kLine;
    }

    /** Reserve a block of at least @p bytes
     *  (detail::pagedBlockBytes), dropping any previous region. */
    void
    reserve(std::size_t bytes)
    {
        release();
        if (bytes == 0)
            return;
        std::size_t size = detail::pagedBlockBytes(bytes);
        base_ = static_cast<std::byte *>(detail::takePagedBlock(size));
        size_ = size;
    }

    /** Room for @p n T on a fresh cache line, uninitialised: the
     *  caller constructs them. */
    template <typename T>
    T *
    take(std::size_t n)
    {
        static_assert(alignof(T) <= kLine);
        std::size_t off = lineBytes(used_);
        if (off + n * sizeof(T) > size_)
            panic("hot arena: a %zu-byte carve at offset %zu overruns "
                  "the %zu-byte reservation", n * sizeof(T), off, size_);
        used_ = off + n * sizeof(T);
        return reinterpret_cast<T *>(base_ + off);
    }

    /** Carve @p n copies of @p init on a fresh cache line. */
    template <typename T>
    T *
    carve(std::size_t n, const T &init = T{})
    {
        T *p = take<T>(n);
        std::uninitialized_fill_n(p, n, init);
        return p;
    }

    /** Carve @p n value-initialised T on a fresh cache line (for
     *  types that cannot be copied from an initial value). */
    template <typename T>
    T *
    carveArray(std::size_t n)
    {
        T *p = take<T>(n);
        std::uninitialized_value_construct_n(p, n);
        return p;
    }

    /** Construct one T from @p args on a fresh cache line. The arena
     *  never runs destructors: an owner whose objects hold resources
     *  outside the arena destroys them before the arena goes. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        return ::new (static_cast<void *>(take<T>(1)))
            T(std::forward<Args>(args)...);
    }

    /** Bytes a carve of @p n T takes from the arena at most. */
    template <typename T>
    static constexpr std::size_t
    bytesFor(std::size_t n)
    {
        return lineBytes(n * sizeof(T));
    }

    const std::byte *base() const { return base_; }
    std::size_t used() const { return used_; }
    std::size_t reservedBytes() const { return size_; }

  private:
    void
    release()
    {
        if (base_ != nullptr)
            detail::keepPagedBlock(base_, size_);
        base_ = nullptr;
        size_ = 0;
        used_ = 0;
    }

    std::byte *base_ = nullptr;
    std::size_t size_ = 0;
    std::size_t used_ = 0;
};

} // namespace hnoc

#endif // HNOC_COMMON_HOT_ARENA_HH
