/**
 * @file
 * One contiguous, huge-page-friendly backing region for per-cycle hot
 * state (§6g).
 *
 * The blocked step loop streams every component's hot state once per
 * cycle. When that state lives in thousands of small heap allocations
 * it is scattered across the address space: the stream costs one DTLB
 * entry per 4 KiB page it crosses, and big meshes (a 32x32 network's
 * hot state spans several megabytes) thrash the TLB long before they
 * exhaust cache bandwidth. The arena fixes both halves: components
 * carve their hot storage from one region laid out in block visit
 * order, and a region of half a huge page or more is 2 MiB-aligned and
 * MADV_HUGEPAGE-advised so the kernel can back it with huge pages (one
 * TLB entry per 2 MiB). A smaller region is rounded to 4 KiB pages
 * only: a huge page would keep 2 MiB resident for it, and its few
 * pages fit the TLB anyway. Such a region is a pooled page block
 * (page_allocator.hh), so networks built and dropped on several
 * threads reuse one set of blocks instead of leaving freed regions
 * resident in each thread's malloc arena.
 *
 * Carving is monotonic and permanent — there is no free(); the arena
 * is sized once from the components' declared needs and released as a
 * whole. Every alloc() is cache-line aligned by default, so packed
 * sections keep the alignment guarantees they had as standalone
 * allocations. Exhaustion (or a failed reservation) degrades
 * gracefully: alloc() returns nullptr and callers keep their
 * self-owned storage — placement is a pure performance property,
 * never a correctness one.
 */

#ifndef HNOC_COMMON_HOT_ARENA_HH
#define HNOC_COMMON_HOT_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "common/page_allocator.hh"

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hnoc
{

/** Monotonic bump allocator over one page-aligned region. */
class HotArena
{
  public:
    static constexpr std::size_t kHugePage = 2u * 1024 * 1024;
    static constexpr std::size_t kPage = 4096;

    HotArena() = default;
    ~HotArena() { release(); }
    HotArena(const HotArena &) = delete;
    HotArena &operator=(const HotArena &) = delete;

    /** Reserve room for @p bytes. From half a huge page up, the region
     *  is rounded up to whole huge pages and advised huge-page
     *  backing; below that, rounded up to whole 4 KiB pages. Drops any
     *  previous region. A failed reservation leaves the arena empty,
     *  which every alloc() reports as exhaustion. */
    void
    reserve(std::size_t bytes)
    {
        release();
        if (bytes == 0)
            return;
        if (bytes < kHugePage / 2) {
            std::size_t size = (bytes + kPage - 1) / kPage * kPage;
            try {
                base_ = static_cast<std::byte *>(
                    detail::takePagedBlock(size));
            } catch (const std::bad_alloc &) {
                return;
            }
            size_ = size;
            return;
        }
        size_ = (bytes + kHugePage - 1) / kHugePage * kHugePage;
        base_ = static_cast<std::byte *>(
            std::aligned_alloc(kHugePage, size_));
        if (base_ == nullptr) {
            size_ = 0;
            return;
        }
#if defined(__linux__)
        ::madvise(base_, size_, MADV_HUGEPAGE);
#endif
    }

    /** Carve @p bytes at @p align (power of two); nullptr when the
     *  arena is unreserved or the carve does not fit. */
    std::byte *
    alloc(std::size_t bytes, std::size_t align = 64)
    {
        if (base_ == nullptr)
            return nullptr;
        std::size_t off = (used_ + align - 1) & ~(align - 1);
        if (off + bytes > size_)
            return nullptr;
        used_ = off + bytes;
        return base_ + off;
    }

    std::size_t used() const { return used_; }
    std::size_t reservedBytes() const { return size_; }

  private:
    void
    release()
    {
        // Pooled regions are below half a huge page; advised ones are
        // whole huge pages.
        if (size_ >= kHugePage)
            std::free(base_);
        else if (base_ != nullptr)
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
