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

    /** Mark as most-recently used. */
    void touch(Addr addr);

    int blockBytes() const { return blockBytes_; }

    /** @return block-aligned address. */
    Addr
    blockAddr(Addr addr) const
    {
        return addr & ~static_cast<Addr>(blockBytes_ - 1);
    }

    /** Valid lines displaced by insert(). */
    std::uint64_t evictions = 0;

    /** Simulator-memory footprint of the line array (tag/state/LRU
     *  metadata — no data payloads are simulated). */
    std::uint64_t
    footprintBytes() const
    {
        return static_cast<std::uint64_t>(sizeof(*this)) +
               lines_.capacity() * sizeof(Line);
    }

  private:
    struct Line
    {
        Addr tag = 0;
        CacheState state = CacheState::Invalid;
        std::uint64_t lastUse = 0;
    };

    std::size_t setIndex(Addr addr) const;

    int ways_;
    int blockBytes_;
    std::size_t numSets_;
    std::vector<Line> lines_; ///< numSets * ways
    std::uint64_t useClock_ = 0;
};

} // namespace hnoc

#endif // HNOC_SYS_CACHE_HH
