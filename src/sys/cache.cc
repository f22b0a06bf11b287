#include "sys/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace hnoc
{

CacheArray::CacheArray(std::uint64_t size_bytes, int ways, int block_bytes)
    : ways_(ways), blockBytes_(block_bytes)
{
    if (ways <= 0 || block_bytes <= 0 || size_bytes == 0)
        fatal("CacheArray: invalid geometry");
    // The state lives in the low two bits of the block-aligned tag.
    if (block_bytes < 4 ||
        !std::has_single_bit(static_cast<unsigned>(block_bytes)))
        fatal("CacheArray: block size %d is not a power of two >= 4",
              block_bytes);
    blockShift_ = std::countr_zero(static_cast<unsigned>(block_bytes));
    std::uint64_t lines = size_bytes / static_cast<std::uint64_t>(block_bytes);
    std::uint64_t sets = lines / static_cast<std::uint64_t>(ways);
    if (sets == 0)
        sets = 1;
    if (!std::has_single_bit(sets))
        fatal("CacheArray: %llu sets is not a power of two",
              static_cast<unsigned long long>(sets));
    setMask_ = static_cast<std::size_t>(sets - 1);
    std::size_t n = static_cast<std::size_t>(sets) *
                    static_cast<std::size_t>(ways_);
    lines_.assign(n, 0);
    lastUse_.assign(n, 0);
}

std::size_t
CacheArray::setBase(Addr addr) const
{
    // Full avalanche mix (fmix64) so per-core private regions — which
    // differ only above bit 32 in the synthetic address map — spread
    // over all sets instead of aliasing onto the same few.
    Addr h = addr >> blockShift_;
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    return (static_cast<std::size_t>(h) & setMask_) *
           static_cast<std::size_t>(ways_);
}

int
CacheArray::findWay(std::size_t set_base, Addr tag) const
{
    // A valid line of this block holds tag | state with state 1..3, so
    // (line ^ tag) - 1 wraps past 2 for an invalid line (0) and for
    // any other tag (>= 4 once the state bits are ignored).
    const Addr *set = lines_.data() + set_base;
    for (int w = 0; w < ways_; ++w)
        if (((set[w] ^ tag) - 1) < STATE_MASK)
            return w;
    return -1;
}

CacheState
CacheArray::lookup(Addr addr) const
{
    std::size_t base = setBase(addr);
    int w = findWay(base, blockAddr(addr));
    if (w < 0)
        return CacheState::Invalid;
    return static_cast<CacheState>(lines_[base + w] & STATE_MASK);
}

void
CacheArray::setState(Addr addr, CacheState state)
{
    Addr tag = blockAddr(addr);
    std::size_t base = setBase(addr);
    int w = findWay(base, tag);
    if (w < 0)
        panic("CacheArray::setState: line %llx not resident",
              static_cast<unsigned long long>(tag));
    lines_[base + w] = tag | static_cast<Addr>(state);
    lastUse_[base + w] = ++useClock_;
}

bool
CacheArray::insert(Addr addr, CacheState state, Addr &victim_addr,
                   CacheState &victim_state)
{
    Addr tag = blockAddr(addr);
    std::size_t base = setBase(addr);
    Addr *set = lines_.data() + base;
    std::uint64_t *use = lastUse_.data() + base;

    // Already resident: update in place. Otherwise take the first free
    // way, or else the LRU way (the first of equal stamps).
    int free_way = -1;
    for (int w = 0; w < ways_; ++w) {
        if (((set[w] ^ tag) - 1) < STATE_MASK) {
            set[w] = tag | static_cast<Addr>(state);
            use[w] = ++useClock_;
            return false;
        }
        if (free_way < 0 && (set[w] & STATE_MASK) == 0)
            free_way = w;
    }
    if (free_way >= 0) {
        set[free_way] = tag | static_cast<Addr>(state);
        use[free_way] = ++useClock_;
        return false;
    }

    int victim = 0;
    for (int w = 1; w < ways_; ++w)
        if (use[w] < use[victim])
            victim = w;
    victim_addr = set[victim] & ~STATE_MASK;
    victim_state = static_cast<CacheState>(set[victim] & STATE_MASK);
    set[victim] = tag | static_cast<Addr>(state);
    use[victim] = ++useClock_;
    ++evictions;
    return true;
}

void
CacheArray::invalidate(Addr addr)
{
    std::size_t base = setBase(addr);
    int w = findWay(base, blockAddr(addr));
    if (w >= 0)
        lines_[base + w] = 0;
}

bool
CacheArray::touch(Addr addr)
{
    std::size_t base = setBase(addr);
    int w = findWay(base, blockAddr(addr));
    if (w < 0)
        return false;
    lastUse_[base + w] = ++useClock_;
    return true;
}

} // namespace hnoc
