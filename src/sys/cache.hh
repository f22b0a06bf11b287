/**
 * @file
 * Set-associative cache arrays with per-line coherence state and LRU
 * replacement. Used for both the private L1s and the shared L2 banks
 * of Table 2(a).
 */

#ifndef HNOC_SYS_CACHE_HH
#define HNOC_SYS_CACHE_HH

#include <cstdint>
#include <vector>

#include "common/page_allocator.hh"
#include "common/types.hh"

namespace hnoc
{

/** MESI line states (L1) / presence states (L2 data array). */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

/**
 * A set-associative array of coherence-tracked lines.
 * Pure state container: controllers decide what to do on evictions.
 *
 * Storage is two flat arrays (DESIGN.md §6i): one word per way holding
 * the block-aligned tag with the CacheState in its low two bits, and
 * one recency word per set listing its way ids in 4-bit fields, most
 * recently used first. A set scan reads only the packed words. At most
 * 16 ways; block size and set count must be powers of two, and sets
 * are indexed with a mask.
 */
class CacheArray
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @param block_bytes line size
     */
    CacheArray(std::uint64_t size_bytes, int ways, int block_bytes);

    /** @return line state (Invalid if absent). */
    CacheState lookup(Addr addr) const;

    /** Update the state of a resident line; touch LRU. */
    void setState(Addr addr, CacheState state);

    /**
     * Install @p addr with @p state, evicting the LRU way if needed.
     * @param victim_addr out: evicted block address (valid lines only)
     * @param victim_state out: its state
     * @return true if a valid line was evicted
     */
    bool insert(Addr addr, CacheState state, Addr &victim_addr,
                CacheState &victim_state);

    /** Drop the line (invalidate) if present. */
    void invalidate(Addr addr);

    /** Mark as most-recently used.
     *  @return false (and no effect) if the line is not resident */
    bool touch(Addr addr);

    int blockBytes() const { return blockBytes_; }

    /** @return block-aligned address. */
    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes_ - 1);
    }

    /** Valid lines displaced by insert(). */
    std::uint64_t evictions = 0;

    /** Simulator-memory footprint of the line arrays (tag/state/LRU
     *  metadata — no data payloads are simulated). */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               lines_.capacity() * sizeof(Addr) +
               recency_.capacity() * sizeof(std::uint64_t);
    }

  private:
    static constexpr Addr STATE_MASK = 3;
    /** Ways one recency word can order. */
    static constexpr int MAX_WAYS = 16;

    /** @return the index of @p addr's set. */
    std::size_t setOf(Addr addr) const;

    std::size_t
    baseOf(std::size_t set) const
    {
        return set * static_cast<std::size_t>(ways_);
    }

    /** @return the way of @p set_base holding valid block @p tag, or
     *  -1. */
    int findWay(std::size_t set_base, Addr tag) const;

    /** Make @p way the most recently used of @p set. */
    void promote(std::size_t set, int way);

    int ways_;
    int blockBytes_;
    int blockShift_;
    std::size_t setMask_;
    /** numSets * ways: tag | state */
    std::vector<Addr, PageAllocator<Addr>> lines_;
    /** numSets: way ids, field 0 (low nibble) most recent; fields at
     *  or past ways_ hold 0xF */
    std::vector<std::uint64_t> recency_;
};

} // namespace hnoc

#endif // HNOC_SYS_CACHE_HH
