#include "common/page_allocator.hh"

#include <array>
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

} // namespace

void *
takePagedBlock(std::size_t bytes)
{
    {
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
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_POPULATE, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    return p;
#else
    return ::operator new(bytes);
#endif
}

void
keepPagedBlock(void *p, std::size_t bytes) noexcept
{
    {
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
    ::operator delete(p);
#endif
}

} // namespace detail
} // namespace hnoc
