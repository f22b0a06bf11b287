/**
 * @file
 * CacheArray unit tests: lookup/insert/invalidate semantics, LRU
 * replacement, state transitions, set-index mixing, and a differential
 * check of the packed flat arrays against a one-struct-per-line
 * reference model.
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sys/cache.hh"

namespace hnoc
{
namespace
{

constexpr int BLOCK = 128;

TEST(CacheArray, MissThenHit)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    EXPECT_EQ(c.lookup(0x1000), CacheState::Invalid);
    EXPECT_FALSE(c.insert(0x1000, CacheState::Shared, victim, vstate));
    EXPECT_EQ(c.lookup(0x1000), CacheState::Shared);
    // Same block, different offset.
    EXPECT_EQ(c.lookup(0x1000 + 64), CacheState::Shared);
    // Different block.
    EXPECT_EQ(c.lookup(0x1000 + BLOCK), CacheState::Invalid);
}

TEST(CacheArray, StateUpdateInPlace)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    c.insert(0x2000, CacheState::Exclusive, victim, vstate);
    c.setState(0x2000, CacheState::Modified);
    EXPECT_EQ(c.lookup(0x2000), CacheState::Modified);
}

TEST(CacheArray, InvalidateRemoves)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    c.insert(0x3000, CacheState::Modified, victim, vstate);
    c.invalidate(0x3000);
    EXPECT_EQ(c.lookup(0x3000), CacheState::Invalid);
    c.invalidate(0x3000); // idempotent on absent lines
}

TEST(CacheArray, LruEvictsColdestWay)
{
    // Direct construction of set conflicts is awkward with index
    // mixing, so fill far beyond capacity and verify eviction
    // accounting instead.
    CacheArray c(2 * 1024, 2, BLOCK); // 16 lines
    Addr victim;
    CacheState vstate;
    int evictions = 0;
    for (int i = 0; i < 64; ++i) {
        if (c.insert(static_cast<Addr>(i) * BLOCK, CacheState::Shared,
                     victim, vstate))
            ++evictions;
    }
    EXPECT_GE(evictions, 64 - 16);
    EXPECT_EQ(c.evictions, static_cast<std::uint64_t>(evictions));
}

TEST(CacheArray, TouchProtectsFromEviction)
{
    // Behavioral LRU check robust to index mixing: a continuously
    // touched line must survive a stream of conflicting inserts.
    Addr victim;
    CacheState vstate;
    CacheArray lru(4 * 1024, 4, BLOCK);
    lru.insert(0x100 * BLOCK, CacheState::Shared, victim, vstate);
    for (int i = 0; i < 200; ++i) {
        lru.touch(0x100 * BLOCK);
        lru.insert(static_cast<Addr>(i) * BLOCK, CacheState::Shared,
                   victim, vstate);
    }
    EXPECT_NE(lru.lookup(0x100 * BLOCK), CacheState::Invalid)
        << "continuously touched line must stay resident";
}

TEST(CacheArray, HighBitsDontAlias)
{
    // Per-core private bases differ only above bit 32; they must not
    // all collapse into the same sets.
    CacheArray c(32 * 1024, 4, BLOCK); // 256 lines
    Addr victim;
    CacheState vstate;
    int evictions = 0;
    for (int core = 0; core < 64; ++core) {
        Addr base = static_cast<Addr>(core + 1) << 32;
        for (int b = 0; b < 4; ++b)
            if (c.insert(base + static_cast<Addr>(b) * BLOCK,
                         CacheState::Shared, victim, vstate))
                ++evictions;
    }
    // 256 inserts into 256 lines: with good index mixing, few
    // evictions; with aliasing, ~192.
    EXPECT_LT(evictions, 120);
}

TEST(CacheArray, TouchReportsResidency)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    Addr victim;
    CacheState vstate;
    EXPECT_FALSE(c.touch(0x4000));
    c.insert(0x4000, CacheState::Shared, victim, vstate);
    EXPECT_TRUE(c.touch(0x4000 + 1));
    c.invalidate(0x4000);
    EXPECT_FALSE(c.touch(0x4000));
}

TEST(CacheArrayDeathTest, SetCountMustBePowerOfTwo)
{
    // 3 sets of 4 ways: sets are indexed with a mask, so a set count
    // that is not a power of two is rejected up front.
    EXPECT_DEATH(CacheArray(3 * 4 * BLOCK, 4, BLOCK), "power of two");
    EXPECT_DEATH(CacheArray(4 * 1024, 4, 96), "power of two");
}

/**
 * Reference model: one struct per line (tag, state, LRU stamp), a
 * remainder set index and three passes per insert — the layout the
 * packed arrays replaced. Any divergence in a return value, victim or
 * victim state is a behaviour change of the simulator.
 */
class RefCache
{
  public:
    RefCache(std::uint64_t size_bytes, int ways, int block_bytes)
        : ways_(ways), blockBytes_(block_bytes)
    {
        std::uint64_t lines =
            size_bytes / static_cast<std::uint64_t>(block_bytes);
        numSets_ = static_cast<std::size_t>(
            lines / static_cast<std::uint64_t>(ways));
        if (numSets_ == 0)
            numSets_ = 1;
        lines_.resize(numSets_ * static_cast<std::size_t>(ways_));
    }

    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes_ - 1);
    }

    CacheState
    lookup(Addr addr) const
    {
        Addr tag = blockAddr(addr);
        std::size_t base = setIndex(addr) * static_cast<std::size_t>(ways_);
        for (int w = 0; w < ways_; ++w) {
            const Line &line = lines_[base + static_cast<std::size_t>(w)];
            if (line.state != CacheState::Invalid && line.tag == tag)
                return line.state;
        }
        return CacheState::Invalid;
    }

    void
    setState(Addr addr, CacheState state)
    {
        if (Line *line = find(addr)) {
            line->state = state;
            line->lastUse = ++useClock_;
        }
    }

    bool
    insert(Addr addr, CacheState state, Addr &victim_addr,
           CacheState &victim_state)
    {
        Addr tag = blockAddr(addr);
        std::size_t base = setIndex(addr) * static_cast<std::size_t>(ways_);
        if (Line *line = find(addr)) {
            line->state = state;
            line->lastUse = ++useClock_;
            return false;
        }
        for (int w = 0; w < ways_; ++w) {
            Line &line = lines_[base + static_cast<std::size_t>(w)];
            if (line.state == CacheState::Invalid) {
                line.tag = tag;
                line.state = state;
                line.lastUse = ++useClock_;
                return false;
            }
        }
        int victim = 0;
        for (int w = 1; w < ways_; ++w) {
            if (lines_[base + static_cast<std::size_t>(w)].lastUse <
                lines_[base + static_cast<std::size_t>(victim)].lastUse)
                victim = w;
        }
        Line &line = lines_[base + static_cast<std::size_t>(victim)];
        victim_addr = line.tag;
        victim_state = line.state;
        line.tag = tag;
        line.state = state;
        line.lastUse = ++useClock_;
        ++evictions;
        return true;
    }

    void
    invalidate(Addr addr)
    {
        if (Line *line = find(addr))
            line->state = CacheState::Invalid;
    }

    bool
    touch(Addr addr)
    {
        Line *line = find(addr);
        if (line)
            line->lastUse = ++useClock_;
        return line != nullptr;
    }

    std::uint64_t evictions = 0;

  private:
    struct Line
    {
        Addr tag = 0;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
    };

    std::size_t
    setIndex(Addr addr) const
    {
        Addr h = addr / static_cast<Addr>(blockBytes_);
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        return static_cast<std::size_t>(h % numSets_);
    }

    Line *
    find(Addr addr)
    {
        Addr tag = blockAddr(addr);
        std::size_t base = setIndex(addr) * static_cast<std::size_t>(ways_);
        for (int w = 0; w < ways_; ++w) {
            Line &line = lines_[base + static_cast<std::size_t>(w)];
            if (line.state != CacheState::Invalid && line.tag == tag)
                return &line;
        }
        return nullptr;
    }

    int ways_;
    int blockBytes_;
    std::size_t numSets_;
    std::vector<Line> lines_;
    std::uint64_t useClock_ = 0;
};

/**
 * Drive the packed array and the reference with the same seeded random
 * call stream over a block pool ~3x the capacity (so most inserts
 * evict), comparing every result. Addresses mix two regions that
 * differ only above bit 32, include block 0 (tag 0), and carry random
 * in-block offsets.
 */
void
differential(std::uint64_t size_bytes, int ways, std::uint32_t seed)
{
    SCOPED_TRACE(::testing::Message() << size_bytes << " B, " << ways
                                      << "-way, seed " << seed);
    CacheArray dut(size_bytes, ways, BLOCK);
    RefCache ref(size_bytes, ways, BLOCK);
    std::mt19937_64 rng(seed);
    const std::uint64_t pool = 3 * size_bytes / BLOCK;
    auto pick = [&] {
        std::uint64_t b = rng() % pool;
        Addr region = (b & 1) ? (static_cast<Addr>(7) << 32) : 0;
        return region + (b >> 1) * BLOCK + rng() % BLOCK;
    };
    auto state = [&] {
        return static_cast<CacheState>(1 + rng() % 3); // S, E or M
    };

    int mismatches = 0;
    int evicted = 0;
    int hits = 0;
    for (int i = 0; i < 120000 && mismatches < 10; ++i) {
        Addr a = pick();
        switch (rng() % 5) {
          case 0: {
            Addr dv = 1, rv = 2;
            CacheState ds = CacheState::Invalid, rs = CacheState::Shared;
            CacheState st = state();
            bool d = dut.insert(a, st, dv, ds);
            bool r = ref.insert(a, st, rv, rs);
            mismatches += d != r;
            if (d && r) {
                mismatches += dv != rv;
                mismatches += ds != rs;
                ++evicted;
            }
            break;
          }
          case 1: {
            CacheState r = ref.lookup(a);
            mismatches += dut.lookup(a) != r;
            hits += r != CacheState::Invalid;
            break;
          }
          case 2:
            if (ref.lookup(a) != CacheState::Invalid) {
                CacheState st = state();
                dut.setState(a, st);
                ref.setState(a, st);
            }
            break;
          case 3:
            dut.invalidate(a);
            ref.invalidate(a);
            break;
          default:
            mismatches += dut.touch(a) != ref.touch(a);
            break;
        }
        mismatches += dut.lookup(a) != ref.lookup(a);
    }
    EXPECT_EQ(mismatches, 0);
    EXPECT_EQ(dut.evictions, ref.evictions);
    // The stream must actually exercise both replacement and hits.
    EXPECT_GT(evicted, 5000);
    EXPECT_GT(hits, 2000);
}

TEST(CacheArray, MatchesReferenceModelTwoWay)
{
    differential(2 * 1024, 2, 1);   // 8 sets x 2 ways
    differential(4 * 1024, 2, 2);   // 16 sets x 2 ways
}

TEST(CacheArray, MatchesReferenceModelSixteenWay)
{
    differential(16 * 1024, 16, 3); // 8 sets x 16 ways
    differential(64 * 1024, 16, 4); // 32 sets x 16 ways
}

TEST(CacheArray, BlockAlignment)
{
    CacheArray c(4 * 1024, 4, BLOCK);
    EXPECT_EQ(c.blockAddr(0x12345), static_cast<Addr>(0x12345) & ~0x7FULL);
    EXPECT_EQ(c.blockBytes(), BLOCK);
}

} // namespace
} // namespace hnoc
