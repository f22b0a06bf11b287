/**
 * @file
 * The one page-level allocator: a standard allocator that keeps large
 * blocks out of malloc's per-thread arenas, and the page blocks under
 * every network's hot arena (hot_arena.hh).
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
 * threads they lived on, and a reused block is already resident. Past
 * 64 KiB, block sizes come in four steps per doubling, so requests of
 * nearby sizes (the arenas of networks that differ only in their VC
 * counts) share one list instead of each pooling blocks of its own. New
 * blocks are mapped straight from the OS (page-aligned, populated in
 * the same call, since the containers fill every slot at once). Pooled
 * blocks are never returned to the OS. Smaller blocks use
 * std::allocator.
 *
 * A block of half a huge page (1 MiB) or more is different: it is
 * rounded up to whole 2 MiB pages, mapped 2 MiB-aligned and advised
 * MADV_HUGEPAGE, so the kernel can back it with huge pages (one TLB
 * entry per 2 MiB; a 32x32 network's hot arena is several MB). It is
 * left unpopulated, so the first touch faults in huge pages, and it is
 * unmapped on release instead of pooled. Below 1 MiB a huge page would
 * keep 2 MiB resident for little TLB gain, so those blocks stay on
 * 4 KiB pages.
 */

#ifndef HNOC_COMMON_PAGE_ALLOCATOR_HH
#define HNOC_COMMON_PAGE_ALLOCATOR_HH

#include <bit>
#include <cstddef>
#include <memory>

namespace hnoc
{

namespace detail
{

constexpr std::size_t kPage = 4096;
constexpr std::size_t kHugePage = 2u * 1024 * 1024;

/** Size of the block takePagedBlock(@p bytes) returns: whole huge
 *  pages from half a huge page up; below, whole 4 KiB pages up to
 *  64 KiB, and past that a multiple of a quarter of the power of two
 *  below (four sizes per doubling: 80, 96, 112, 128 KiB, 160 KiB...). */
constexpr std::size_t
pagedBlockBytes(std::size_t bytes)
{
    std::size_t unit = kPage;
    if (bytes >= kHugePage / 2)
        unit = kHugePage;
    else if (bytes > 16 * kPage)
        unit = std::bit_floor(bytes - 1) / 4;
    return (bytes + unit - 1) / unit * unit;
}

/** A block of pagedBlockBytes(@p bytes): 2 MiB-aligned and advised
 *  huge-page backing from 1 MiB up, else page-aligned, pooled or newly
 *  mapped. Throws std::bad_alloc. */
void *takePagedBlock(std::size_t bytes);

/** Release @p p, taken for @p bytes: unmap a huge block, pool the
 *  rest for their size. */
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
