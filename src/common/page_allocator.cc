#include "common/page_allocator.hh"

#include <array>
#include <cstdint>
#include <mutex>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace hnoc
{
namespace detail
{
namespace
{

/** Free blocks of one size, linked through their first word. */
struct PagedBin
{
    std::size_t bytes = 0; ///< 0: bin unused
    void *head = nullptr;
};

/** One bin per block size. A system uses two or three sizes; a block
 *  of a size beyond the last bin goes back to the OS instead. */
constexpr std::size_t kBins = 16;

std::mutex binMutex;
std::array<PagedBin, kBins> bins;

bool
huge(std::size_t bytes)
{
    return bytes >= kHugePage / 2;
}

#if !defined(__linux__)
/** Elsewhere blocks are aligned the same way (a HotArena's 64-B
 *  carves rely on it), with no advice to give. */
std::align_val_t
alignOf(std::size_t bytes)
{
    return std::align_val_t{huge(bytes) ? kHugePage : kPage};
}
#endif

} // namespace

void *
takePagedBlock(std::size_t bytes)
{
    bytes = pagedBlockBytes(bytes);
    if (!huge(bytes)) {
        std::lock_guard<std::mutex> lock(binMutex);
        for (PagedBin &bin : bins) {
            if (bin.bytes != bytes || bin.head == nullptr)
                continue;
            void *p = bin.head;
            bin.head = *static_cast<void **>(p);
            return p;
        }
    }
#if defined(__linux__)
    // A huge block is over-mapped by one huge page and trimmed to the
    // aligned window. It is left unpopulated, so that first touch
    // after the advice faults in huge pages.
    std::size_t slack = huge(bytes) ? kHugePage : 0;
    void *raw = ::mmap(nullptr, bytes + slack, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS |
                           (slack == 0 ? MAP_POPULATE : 0),
                       -1, 0);
    if (raw == MAP_FAILED)
        throw std::bad_alloc();
    if (slack == 0)
        return raw;
    auto *p = static_cast<std::byte *>(raw);
    std::size_t head =
        (kHugePage - reinterpret_cast<std::uintptr_t>(p) % kHugePage) %
        kHugePage;
    if (head != 0)
        ::munmap(p, head);
    ::munmap(p + head + bytes, slack - head);
    ::madvise(p + head, bytes, MADV_HUGEPAGE);
    return p + head;
#else
    return ::operator new(bytes, alignOf(bytes));
#endif
}

void
keepPagedBlock(void *p, std::size_t bytes) noexcept
{
    bytes = pagedBlockBytes(bytes);
    if (!huge(bytes)) {
        std::lock_guard<std::mutex> lock(binMutex);
        for (PagedBin &bin : bins) {
            if (bin.bytes == 0)
                bin.bytes = bytes;
            if (bin.bytes != bytes)
                continue;
            *static_cast<void **>(p) = bin.head;
            bin.head = p;
            return;
        }
    }
#if defined(__linux__)
    ::munmap(p, bytes);
#else
    ::operator delete(p, alignOf(bytes));
#endif
}

} // namespace detail
} // namespace hnoc
