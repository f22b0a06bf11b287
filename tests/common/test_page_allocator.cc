#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <vector>

#include "common/page_allocator.hh"

#if defined(__linux__)
#include <unistd.h>
#endif

namespace hnoc
{
namespace
{

using Words = std::vector<std::uint64_t, PageAllocator<std::uint64_t>>;

constexpr std::size_t kPagedWords =
    PageAllocator<std::uint64_t>::kMinPagedBytes / sizeof(std::uint64_t);

TEST(PageAllocator, SmallAndMappedBlocksHoldTheirValues)
{
    for (std::size_t n : {std::size_t{16}, kPagedWords - 1, kPagedWords,
                          4 * kPagedWords + 3}) {
        Words v(n);
        for (std::size_t i = 0; i < n; ++i)
            v[i] = i * 0x9e3779b97f4a7c15ULL;
        Words copy = v;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(copy[i], i * 0x9e3779b97f4a7c15ULL) << n << " " << i;
    }
}

TEST(PageAllocator, GrowthAcrossTheThresholdKeepsContents)
{
    Words v;
    for (std::size_t i = 0; i < 3 * kPagedWords; ++i)
        v.push_back(i ^ 0x5a5a);
    for (std::size_t i = 0; i < v.size(); ++i)
        ASSERT_EQ(v[i], i ^ 0x5a5a) << i;
}

TEST(PageAllocator, FreedBlockServesTheNextRequestOfItsSizeOnAnyThread)
{
    PageAllocator<std::uint64_t> alloc;
    std::uint64_t *a = alloc.allocate(kPagedWords);
    std::uint64_t *b = alloc.allocate(2 * kPagedWords);
    // A reused block keeps what it held (past the free-list link); a
    // fresh mapping would read zero.
    a[1] = 0xfeed;
    alloc.deallocate(a, kPagedWords);
    alloc.deallocate(b, 2 * kPagedWords);

    // A block of another size never hands out a freed one.
    std::uint64_t *c = alloc.allocate(3 * kPagedWords);
    EXPECT_NE(c, a);
    EXPECT_NE(c, b);

    std::uint64_t *again = nullptr;
    std::thread other([&] { again = alloc.allocate(kPagedWords); });
    other.join();
    EXPECT_EQ(again, a);
    EXPECT_EQ(again[1], 0xfeedu);
    EXPECT_EQ(alloc.allocate(2 * kPagedWords), b);

    alloc.deallocate(again, kPagedWords);
    alloc.deallocate(b, 2 * kPagedWords);
    alloc.deallocate(c, 3 * kPagedWords);
}

#if defined(__linux__)
TEST(PageAllocator, NewBlocksArePageAligned)
{
    PageAllocator<std::uint64_t> alloc;
    std::uint64_t *p = alloc.allocate(5 * kPagedWords);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) %
                  static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE)),
              0u);
    alloc.deallocate(p, 5 * kPagedWords);
}
#endif

TEST(PageAllocator, HugePagesOnlyFromHalfAHugePage)
{
    using detail::kHugePage;
    using detail::kPage;
    auto block = [](std::size_t bytes, std::size_t align) {
        void *p = detail::takePagedBlock(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % align, 0u)
            << bytes;
        // The whole rounded block is usable.
        std::size_t size = detail::pagedBlockBytes(bytes);
        static_cast<unsigned char *>(p)[size - 1] = 1;
        detail::keepPagedBlock(p, bytes);
        return size;
    };
    // An 8x8 network's state (~0.6 MB) keeps to 4 KiB pages: whole
    // pages up to 64 KiB, then four block sizes per doubling, so the
    // arenas of the 8x8 layouts (149-152 pages) share one size.
    EXPECT_EQ(block(1, kPage), kPage);
    EXPECT_EQ(block(64 * 1024, kPage), 16 * kPage);
    EXPECT_EQ(block(64 * 1024 + 1, kPage), 80 * 1024);
    EXPECT_EQ(block(96 * 1024, kPage), 96 * 1024);
    EXPECT_EQ(block(149 * kPage, kPage), 640 * 1024);
    EXPECT_EQ(block(152 * kPage, kPage), 640 * 1024);
    EXPECT_EQ(block(kHugePage / 2 - 1, kPage), kHugePage / 2);
    // From 1 MiB up, whole huge pages, 2 MiB-aligned.
    EXPECT_EQ(block(kHugePage / 2, kHugePage), kHugePage);
    EXPECT_EQ(block(kHugePage + 1, kHugePage), 2 * kHugePage);

    // A huge block goes back to the OS, never to a free list: the
    // allocator's containers take that path too.
    PageAllocator<std::uint64_t> alloc;
    std::size_t words = kHugePage / sizeof(std::uint64_t);
    std::uint64_t *p = alloc.allocate(words);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kHugePage, 0u);
    p[words - 1] = 7;
    alloc.deallocate(p, words);
}

} // namespace
} // namespace hnoc
