/**
 * @file
 * Unit tests for the common substrate: statistics, RNG, geometry.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/geometry.hh"
#include "common/hot_arena.hh"
#include "common/rng.hh"
#include "common/stats.hh"

namespace hnoc
{
namespace
{

TEST(RunningStat, BasicMoments)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), 2.0, 1e-12);
    EXPECT_EQ(s.min(), 2.0);
    EXPECT_EQ(s.max(), 9.0);
}

TEST(RunningStat, MergeEqualsCombined)
{
    RunningStat a;
    RunningStat b;
    RunningStat all;
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double x = rng.uniform() * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-6);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.stddev(), 0.0);
}

TEST(RunningStat, EmptyMinMaxIsNaN)
{
    RunningStat s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_TRUE(std::isnan(s.max()));
    // A single 0.0 sample is distinguishable from "no data".
    s.add(0.0);
    EXPECT_FALSE(s.empty());
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
    s.reset();
    EXPECT_TRUE(std::isnan(s.min()));
}

TEST(RunningStat, MergeWithEmptySides)
{
    RunningStat empty;
    RunningStat one;
    one.add(3.0);
    RunningStat a = one;
    a.merge(empty); // empty rhs: unchanged
    EXPECT_EQ(a.count(), 1u);
    EXPECT_EQ(a.min(), 3.0);
    RunningStat b;
    b.merge(one); // empty lhs: adopts rhs
    EXPECT_EQ(b.count(), 1u);
    EXPECT_EQ(b.max(), 3.0);
}

TEST(Histogram, MergeAddsBuckets)
{
    Histogram a(0.0, 10.0, 10);
    Histogram b(0.0, 10.0, 10);
    a.add(1.5);
    a.add(2.5);
    b.add(2.5);
    b.add(9.5);
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), (1.5 + 2.5 + 2.5 + 9.5) / 4.0);
    EXPECT_EQ(a.buckets()[2], 2u);
    EXPECT_EQ(a.buckets()[9], 1u);
}

TEST(Histogram, MeanAndPercentiles)
{
    Histogram h(0.0, 100.0, 100);
    for (int i = 0; i < 100; ++i)
        h.add(i + 0.4);
    EXPECT_EQ(h.count(), 100u);
    EXPECT_NEAR(h.mean(), 49.9, 0.01);
    EXPECT_NEAR(h.percentile(0.5), 50.0, 1.5);
    EXPECT_NEAR(h.percentile(0.95), 95.0, 1.5);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 10.0, 10);
    h.add(-5.0);
    h.add(100.0);
    EXPECT_EQ(h.count(), 2u);
    EXPECT_EQ(h.buckets().front(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(UtilizationCounter, CapacityScaling)
{
    UtilizationCounter u(4.0);
    for (int i = 0; i < 10; ++i)
        u.tick(2.0);
    EXPECT_DOUBLE_EQ(u.utilization(), 0.5);
}

TEST(Rng, DeterministicAndUniform)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());

    Rng r(7);
    double sum = 0.0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowInRange)
{
    Rng r(9);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.below(17);
        EXPECT_LT(v, 17u);
    }
}

TEST(Rng, ParetoBounded)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double v = r.pareto(1.5, 10.0, 1000.0);
        EXPECT_GE(v, 10.0);
        EXPECT_LE(v, 1000.0 + 1e-9);
    }
}

TEST(Geometry, RoundTrip)
{
    for (RouterId id = 0; id < 64; ++id) {
        Coord c = idToCoord(id, 8);
        EXPECT_EQ(coordToId(c, 8), id);
    }
}

TEST(Geometry, ManhattanAndDiagonal)
{
    EXPECT_EQ(manhattan({0, 0}, {7, 7}), 14);
    EXPECT_EQ(manhattan({3, 4}, {3, 4}), 0);
    EXPECT_TRUE(onDiagonal({3, 3}, 8));
    EXPECT_TRUE(onDiagonal({5, 2}, 8));
    EXPECT_FALSE(onDiagonal({1, 4}, 8));
}

TEST(HeatMap, Formats)
{
    std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
    std::string s = formatHeatMap(v, 2, "t");
    EXPECT_NE(s.find("1.0"), std::string::npos);
    EXPECT_NE(s.find("4.0"), std::string::npos);
}

TEST(HotArena, CarvesInitialisedLinesAndPanicsPastItsReservation)
{
    HotArena arena;
    arena.reserve(200);
    // The reservation is one page block (page_allocator.hh).
    EXPECT_EQ(arena.reservedBytes(), detail::kPage);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(arena.base()) %
                  detail::kPage,
              0u);

    // Every carve starts a fresh cache line and holds copies of its
    // initial value, whatever the block held before.
    int *a = arena.carve<int>(3, -1);
    auto *b = arena.carve<std::uint64_t>(2);
    EXPECT_EQ(reinterpret_cast<const std::byte *>(a), arena.base());
    EXPECT_EQ(reinterpret_cast<const std::byte *>(b),
              arena.base() + HotArena::kLine);
    EXPECT_EQ(arena.used(), HotArena::kLine + 2 * sizeof(std::uint64_t));
    EXPECT_EQ(a[2], -1);
    EXPECT_EQ(b[1], 0u);

    // Carving past the reservation is a sizing bug, not a fallback.
    EXPECT_DEATH((void)arena.carve<char>(detail::kPage), "overruns");

    // Releasing the arena pools its block: the next block of that
    // size is the same memory, contents and all (a fresh mapping
    // would read zero).
    const std::byte *base = arena.base();
    std::size_t mark =
        reinterpret_cast<const std::byte *>(arena.carve<int>(1, 0x5eed)) -
        base;
    arena.reserve(0);
    EXPECT_EQ(arena.reservedBytes(), 0u);
    void *again = detail::takePagedBlock(detail::kPage);
    EXPECT_EQ(again, base);
    EXPECT_EQ(*reinterpret_cast<int *>(static_cast<std::byte *>(again) +
                                       mark),
              0x5eed);
    detail::keepPagedBlock(again, detail::kPage);
}

} // namespace
} // namespace hnoc
