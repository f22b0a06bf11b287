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

} // namespace
} // namespace hnoc
