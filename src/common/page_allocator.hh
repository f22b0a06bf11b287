/**
 * @file
 * A standard allocator that keeps large blocks out of malloc's
 * per-thread arenas.
 *
 * malloc keeps freed memory in the arena of the thread that allocated
 * it, and glibc raises its mmap threshold after the first large block
 * is freed, so later blocks of that size are carved from the arenas
 * too. A process that builds and destroys CmpSystems one after another
 * on several pool threads then keeps each arena's own high-water mark
 * resident, and how much that is depends on which thread ran which
 * system, and when: peak RSS moves by whole systems from one run to
 * the next. Blocks of at least kMinPagedBytes (a 64 KiB L2 tag array,
 * a directory table) come from one process-wide set of free lists
 * instead, one list per block size, shared by every thread. A freed
 * block waits there for the next request of its size, so the process
 * holds the high-water mark of the blocks alive at once, whichever
 * threads they lived on, and a reused block is already resident. New
 * blocks are mapped straight from the OS (page-aligned, populated in
 * the same call, since the containers fill every slot at once). Pooled
 * blocks are never returned to the OS. Smaller blocks use
 * std::allocator.
 */

#ifndef HNOC_COMMON_PAGE_ALLOCATOR_HH
#define HNOC_COMMON_PAGE_ALLOCATOR_HH

#include <cstddef>
#include <memory>

namespace hnoc
{

namespace detail
{

/** A block of exactly @p bytes: a pooled one of that size, else a new
 *  mapping. Throws std::bad_alloc. */
void *takePagedBlock(std::size_t bytes);

/** Return @p p, of @p bytes, to the pool for its size. */
void keepPagedBlock(void *p, std::size_t bytes) noexcept;

} // namespace detail

template <typename T>
class PageAllocator
{
  public:
    using value_type = T;

    static constexpr std::size_t kMinPagedBytes = 64 * 1024;

    PageAllocator() = default;
    template <typename U>
    PageAllocator(const PageAllocator<U> &) noexcept
    {
    }

    T *
    allocate(std::size_t n)
    {
        if (paged(n))
            return static_cast<T *>(detail::takePagedBlock(n * sizeof(T)));
        return std::allocator<T>{}.allocate(n);
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        if (paged(n))
            detail::keepPagedBlock(p, n * sizeof(T));
        else
            std::allocator<T>{}.deallocate(p, n);
    }

    template <typename U>
    bool
    operator==(const PageAllocator<U> &) const noexcept
    {
        return true;
    }

  private:
    static bool
    paged(std::size_t n)
    {
        return n >= kMinPagedBytes / sizeof(T);
    }
};

} // namespace hnoc

#endif // HNOC_COMMON_PAGE_ALLOCATOR_HH
