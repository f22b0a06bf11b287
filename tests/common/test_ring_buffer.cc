/**
 * @file
 * RingBuffer unit tests: wraparound, full/empty edges, the fatal
 * overflow, capacity rounding, and binding config-sized storage the
 * way the NoC hot path carves it. Every ring binds local storage.
 */

#include <array>
#include <type_traits>

#include <gtest/gtest.h>

#include "common/ring_buffer.hh"

namespace hnoc
{
namespace
{

/** A ring bound to @p capacity slots of local storage. */
template <std::size_t N>
struct BoundRing
{
    explicit BoundRing(std::size_t capacity)
    {
        ring.bindStorage(slots.data(), capacity);
    }

    std::array<int, N> slots{};
    RingBuffer<int> ring;
};

TEST(RingBuffer, StartsEmpty)
{
    BoundRing<4> b(4);
    EXPECT_TRUE(b.ring.empty());
    EXPECT_FALSE(b.ring.full());
    EXPECT_EQ(b.ring.size(), 0u);
    EXPECT_EQ(b.ring.capacity(), 4u);
    EXPECT_EQ(b.ring.data(), b.slots.data());
}

TEST(RingBuffer, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(RingBuffer<int>::boundCapacity(1), 1u);
    EXPECT_EQ(RingBuffer<int>::boundCapacity(2), 2u);
    EXPECT_EQ(RingBuffer<int>::boundCapacity(3), 4u);
    EXPECT_EQ(RingBuffer<int>::boundCapacity(5), 8u);
    EXPECT_EQ(RingBuffer<int>::boundCapacity(8), 8u);
    EXPECT_EQ(RingBuffer<int>::boundCapacity(9), 16u);
    // Degenerate request still yields a usable ring.
    EXPECT_EQ(RingBuffer<int>::boundCapacity(0), 1u);
    BoundRing<16> b(9);
    EXPECT_EQ(b.ring.capacity(), 16u);
}

TEST(RingBuffer, IsAPlainHeaderOverItsOwnersStorage)
{
    // Rings live in the network's arena, which runs no destructors.
    EXPECT_TRUE(std::is_trivially_destructible_v<RingBuffer<int>>);
    EXPECT_TRUE(std::is_trivially_copyable_v<RingBuffer<int>>);
    EXPECT_EQ(sizeof(RingBuffer<int>), 4 * sizeof(void *));
}

TEST(RingBuffer, FifoOrderAcrossWraparound)
{
    BoundRing<4> b(4);
    RingBuffer<int> &rb = b.ring;
    // Cycle the head around the backing store several times.
    for (int round = 0; round < 10; ++round) {
        rb.push_back(3 * round);
        rb.push_back(3 * round + 1);
        rb.push_back(3 * round + 2);
        EXPECT_EQ(rb.size(), 3u);
        EXPECT_EQ(rb.front(), 3 * round);
        rb.pop_front();
        EXPECT_EQ(rb.front(), 3 * round + 1);
        rb.pop_front();
        EXPECT_EQ(rb.front(), 3 * round + 2);
        rb.pop_front();
        EXPECT_TRUE(rb.empty());
    }
}

TEST(RingBuffer, IndexingIsFrontRelative)
{
    BoundRing<4> b(4);
    RingBuffer<int> &rb = b.ring;
    rb.push_back(0);
    rb.push_back(1);
    rb.pop_front(); // head no longer at slot 0
    rb.push_back(2);
    rb.push_back(3);
    rb.push_back(4); // wraps physically
    ASSERT_EQ(rb.size(), 4u);
    EXPECT_TRUE(rb.full());
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], static_cast<int>(i) + 1);
    // The elements sit in the bound storage.
    EXPECT_EQ(b.slots[0], 4);
    EXPECT_EQ(b.slots[1], 1);
}

TEST(RingBuffer, EraseIfKeepsTheOrderOfTheRest)
{
    BoundRing<8> b(8);
    RingBuffer<int> &rb = b.ring;
    for (int i = 0; i < 5; ++i)
        rb.push_back(-1);
    for (int i = 0; i < 5; ++i)
        rb.pop_front(); // the live run wraps past the last slot
    for (int i = 0; i < 7; ++i)
        rb.push_back(i);
    rb.eraseIf([](int v) { return v % 2 == 1; });
    ASSERT_EQ(rb.size(), 4u);
    for (std::size_t i = 0; i < rb.size(); ++i)
        EXPECT_EQ(rb[i], 2 * static_cast<int>(i));
}

TEST(RingBuffer, FixedOverflowIsFatal)
{
    BoundRing<2> b(2);
    b.ring.push_back(1);
    b.ring.push_back(2);
    EXPECT_TRUE(b.ring.full());
    EXPECT_DEATH(b.ring.push_back(3), "ring buffer overflow");
}

TEST(RingBuffer, ClearEmptiesWithoutReleasingCapacity)
{
    BoundRing<8> b(8);
    RingBuffer<int> &rb = b.ring;
    rb.push_back(1);
    rb.push_back(2);
    rb.clear();
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 8u);
    rb.push_back(7);
    EXPECT_EQ(rb.front(), 7);
}

TEST(RingBuffer, BindStorageSizesFromConfigValues)
{
    // The VC FIFO pattern: a default-constructed header, bound later
    // to storage carved for the configured buffer depth. Rebinding
    // drops the contents.
    std::array<int, 8> storage{};
    RingBuffer<int> rb;
    EXPECT_EQ(rb.capacity(), 0u);
    rb.bindStorage(storage.data(), 5);
    EXPECT_EQ(rb.capacity(), 8u);
    for (int i = 0; i < 5; ++i)
        rb.push_back(i);
    rb.bindStorage(storage.data() + 4, 3);
    EXPECT_TRUE(rb.empty());
    EXPECT_EQ(rb.capacity(), 4u);
    EXPECT_EQ(rb.data(), storage.data() + 4);
    for (int i = 0; i < 4; ++i)
        rb.push_back(10 + i);
    EXPECT_TRUE(rb.full());
    EXPECT_EQ(storage[4], 10); // the first ring's slot 4, overwritten
    EXPECT_EQ(storage[3], 3);  // the first ring's slots stay the caller's
}

} // namespace
} // namespace hnoc
