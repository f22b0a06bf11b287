/**
 * @file
 * Directory storage tests: AddrTable against std::unordered_map under
 * random insert/find/erase with forced collisions, and SharerList
 * against a std::vector sharer list, including its insertion order
 * across the inline-to-pool spill.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <unordered_map>
#include <vector>

#include "sys/dir_table.hh"

namespace hnoc
{
namespace
{

struct Value
{
    std::uint64_t a = 0;
    std::uint32_t b = 0;
};

/** Every key homes to one of the last three slots, so probe runs are
 *  long and wrap past the end of the slot array. */
struct CollidingHash
{
    std::uint64_t
    operator()(Addr key) const
    {
        return ~static_cast<std::uint64_t>(0) - (key >> 7) % 3;
    }
};

/** Equal sizes and every reference key found with its value: the
 *  table holds exactly the reference's entries. */
template <typename Table>
void
expectSameContents(const Table &table,
                   const std::unordered_map<Addr, Value> &ref)
{
    ASSERT_EQ(table.size(), ref.size());
    for (const auto &[key, want] : ref) {
        const Value *v = table.find(key);
        ASSERT_NE(v, nullptr) << std::hex << key;
        EXPECT_EQ(v->a, want.a);
        EXPECT_EQ(v->b, want.b);
    }
}

template <typename Hash>
void
randomOps(std::uint32_t seed, std::uint64_t key_space, int ops)
{
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    AddrTable<Value, Hash> table(4);
    std::unordered_map<Addr, Value> ref;
    std::mt19937_64 rng(seed);
    std::size_t start_cap = table.capacity();
    std::size_t peak = 0;
    int mismatches = 0;
    for (int i = 0; i < ops && mismatches < 10; ++i) {
        Addr key = (rng() % key_space) << 7; // block-aligned
        switch (rng() % 4) {
          case 0:
          case 1: {
            Value &v = table.findOrInsert(key);
            auto [it, fresh] = ref.try_emplace(key);
            if (fresh)
                mismatches += v.a != 0 || v.b != 0; // value-initialized
            v.a = rng();
            v.b = static_cast<std::uint32_t>(i);
            it->second = v;
            break;
          }
          case 2:
            mismatches += table.erase(key) != (ref.erase(key) == 1);
            break;
          default: {
            const Value *v = std::as_const(table).find(key);
            auto it = ref.find(key);
            mismatches += (v != nullptr) != (it != ref.end());
            if (v && it != ref.end())
                mismatches += v->a != it->second.a || v->b != it->second.b;
            break;
          }
        }
        mismatches += table.size() != ref.size();
        peak = std::max(peak, ref.size());
        if (i % 997 == 0)
            expectSameContents(table, ref);
    }
    EXPECT_EQ(mismatches, 0);
    expectSameContents(table, ref);
    // Load stays at or under 3/4, and the table grew to get there.
    EXPECT_LE(table.size() * 4, table.capacity() * 3);
    EXPECT_GT(table.capacity(), start_cap);
    EXPECT_GT(peak * 4, start_cap * 3) << "no resize was exercised";
}

TEST(AddrTable, MatchesUnorderedMapWithCollidingKeys)
{
    // ~100 live keys all homed on three slots: every probe run wraps.
    randomOps<CollidingHash>(1, 200, 30000);
    randomOps<CollidingHash>(2, 64, 30000);
}

TEST(AddrTable, MatchesUnorderedMapWithDefaultHash)
{
    randomOps<AddrHash>(3, 5000, 200000);
}

TEST(AddrTable, EraseKeepsWrappedRunsReachable)
{
    // Fill one colliding run that wraps, erase from its middle, and
    // check every survivor is still found (backward shift, no
    // tombstones).
    AddrTable<Value, CollidingHash> table(16);
    std::vector<Addr> keys;
    for (Addr k = 0; k < 10; ++k) {
        keys.push_back(k * 3 << 7); // all home on the very last slot
        table.findOrInsert(keys.back()).a = k + 1;
    }
    ASSERT_EQ(table.capacity(), 16u);
    for (std::size_t victim : {4u, 0u, 9u, 5u}) {
        ASSERT_TRUE(table.erase(keys[victim]));
        EXPECT_FALSE(table.erase(keys[victim]));
        keys[victim] = AddrTable<Value, CollidingHash>::EMPTY_KEY;
        for (std::size_t k = 0; k < keys.size(); ++k) {
            if (keys[k] == AddrTable<Value, CollidingHash>::EMPTY_KEY)
                continue;
            const Value *v = table.find(keys[k]);
            ASSERT_NE(v, nullptr) << "key " << k;
            EXPECT_EQ(v->a, k + 1);
        }
    }
    EXPECT_EQ(table.size(), 6u);
    EXPECT_EQ(table.find(AddrTable<Value, CollidingHash>::EMPTY_KEY),
              nullptr);
}

TEST(AddrTable, FootprintIsSlotCapacity)
{
    AddrTable<Value> table(100);
    EXPECT_EQ(table.capacity(), 128u);
    EXPECT_EQ(table.footprintBytes(), 128 * (sizeof(Addr) + sizeof(Value)));
}

std::vector<NodeId>
contents(const SharerList &list, const SharerPool &pool)
{
    std::vector<NodeId> out;
    list.forEach(pool, [&](NodeId id) { out.push_back(id); });
    return out;
}

std::size_t
chunksFor(std::size_t n)
{
    return n > SharerList::INLINE
               ? (n - SharerList::INLINE + SharerList::CHUNK - 1) /
                     SharerList::CHUNK
               : 0;
}

TEST(SharerList, MatchesVectorInInsertionOrder)
{
    // Several lists share one pool, as the entries of one bank do, so
    // chunks freed by one list's clear() are reused by another's spill.
    constexpr int kLists = 6;
    constexpr int kNodes = 64;
    SharerPool pool;
    std::vector<SharerList> lists(kLists);
    std::vector<std::vector<NodeId>> ref(kLists);
    std::mt19937 rng(11);
    int mismatches = 0;
    std::size_t longest = 0;
    int spilled_clears = 0;
    for (int i = 0; i < 100000 && mismatches < 10; ++i) {
        int l = static_cast<int>(rng() % kLists);
        NodeId id = static_cast<NodeId>(rng() % kNodes);
        SharerList &list = lists[static_cast<std::size_t>(l)];
        std::vector<NodeId> &want = ref[static_cast<std::size_t>(l)];
        bool has = std::find(want.begin(), want.end(), id) != want.end();
        mismatches += list.contains(pool, id) != has;
        if (rng() % 64 == 0) {
            spilled_clears += want.size() > SharerList::INLINE;
            list.clear(pool);
            want.clear();
        } else if (!has) {
            list.append(pool, id);
            want.push_back(id);
        }
        mismatches += list.size() != want.size();
        mismatches += list.empty() != want.empty();
        mismatches += contents(list, pool) != want;
        longest = std::max(longest, want.size());

        std::size_t chunks = 0;
        for (const auto &w : ref)
            chunks += chunksFor(w.size());
        mismatches += pool.live() != chunks;
    }
    EXPECT_EQ(mismatches, 0);
    // The stream spilled past several chunks and recycled them.
    EXPECT_GT(longest, SharerList::INLINE + 3 * SharerList::CHUNK);
    EXPECT_GT(spilled_clears, 100);
}

TEST(SharerList, OrderSurvivesSpillBoundaries)
{
    SharerPool pool;
    SharerList list;
    std::vector<NodeId> want;
    for (NodeId id = 63; id >= 0; id -= 3) {
        list.append(pool, id);
        want.push_back(id);
        ASSERT_EQ(contents(list, pool), want) << "after " << want.size();
    }
    EXPECT_EQ(pool.live(), chunksFor(want.size()));
    list.clear(pool);
    EXPECT_TRUE(list.empty());
    EXPECT_EQ(pool.live(), 0u);
    EXPECT_TRUE(contents(list, pool).empty());
}

TEST(PoolFifo, DrainsInPushOrderAndRecyclesNodes)
{
    MsgPool pool;
    std::uint64_t first_round_bytes = 0;
    for (int round = 0; round < 3; ++round) {
        MsgFifo fifo, other;
        EXPECT_TRUE(fifo.empty());
        for (int i = 0; i < 20; ++i) {
            Msg m;
            m.block = static_cast<Addr>(i) << 7;
            m.sender = i;
            fifo.push(pool, m);
        }
        EXPECT_EQ(pool.live(), 20u);
        // A drained element may push more work, here or elsewhere (a
        // replayed request that re-blocks; an event scheduling one).
        std::vector<NodeId> order;
        fifo.drain(pool, [&](const Msg &m) {
            order.push_back(m.sender);
            Msg more = m;
            more.sender = m.sender + 100;
            if (m.sender < 3)
                fifo.push(pool, more);
            else if (m.sender < 6)
                other.push(pool, more);
        });
        EXPECT_TRUE(fifo.empty());
        std::vector<NodeId> want;
        for (NodeId i = 0; i < 20; ++i)
            want.push_back(i);
        for (NodeId i = 0; i < 3; ++i)
            want.push_back(i + 100);
        EXPECT_EQ(order, want);
        EXPECT_EQ(pool.live(), 3u);
        order.clear();
        other.drain(pool, [&](const Msg &m) { order.push_back(m.sender); });
        EXPECT_EQ(order, (std::vector<NodeId>{103, 104, 105}));
        EXPECT_EQ(pool.live(), 0u);
        // Later rounds reuse the first round's nodes.
        if (round == 0)
            first_round_bytes = pool.footprintBytes();
        EXPECT_EQ(pool.footprintBytes(), first_round_bytes);
    }
}

} // namespace
} // namespace hnoc
