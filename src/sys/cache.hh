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
 * the block-aligned tag with the CacheState in its low two bits, and a
 * parallel LRU stamp per way. A set scan reads only the packed words.
 * Block size and set count must be powers of two; sets are indexed
 * with a mask.
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
               lastUse_.capacity() * sizeof(std::uint64_t);
    }

  private:
    static constexpr Addr STATE_MASK = 3;

    /** @return the first way index of @p addr's set. */
    std::size_t setBase(Addr addr) const;

    /** @return the way of @p set_base holding valid block @p tag, or
     *  -1. */
    int findWay(std::size_t set_base, Addr tag) const;

    int ways_;
    int blockBytes_;
    int blockShift_;
    std::size_t setMask_;
    /** numSets * ways: tag | state */
    std::vector<Addr, PageAllocator<Addr>> lines_;
    /** numSets * ways */
    std::vector<std::uint64_t, PageAllocator<std::uint64_t>> lastUse_;
    std::uint64_t useClock_ = 0;
};

} // namespace hnoc

#endif // HNOC_SYS_CACHE_HH
