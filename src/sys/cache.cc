#include "sys/cache.hh"

#include <bit>

#include "common/logging.hh"

namespace hnoc
{

namespace
{

constexpr std::uint64_t NIBBLE_ONES = 0x1111111111111111ULL;
constexpr std::uint64_t NIBBLE_HIGHS = 0x8888888888888888ULL;

} // namespace

CacheArray::CacheArray(std::uint64_t size_bytes, int ways, int block_bytes)
    : ways_(ways), blockBytes_(block_bytes)
{
    if (ways <= 0 || block_bytes <= 0 || size_bytes == 0)
        fatal("CacheArray: invalid geometry");
    // A recency word holds one 4-bit way id per way.
    if (ways > MAX_WAYS)
        fatal("CacheArray: %d ways, at most %d supported", ways, MAX_WAYS);
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
    // Way w in field w, unused fields 0xF. The starting order is never
    // observed: the victim is read only once every way holds a valid
    // line, and each got there through promote().
    std::uint64_t order = ~std::uint64_t{0};
    for (int w = 0; w < ways_; ++w)
        order ^= (std::uint64_t{0xF} ^ static_cast<std::uint64_t>(w))
                 << (4 * w);
    recency_.assign(static_cast<std::size_t>(sets), order);
}

std::size_t
CacheArray::setOf(Addr addr) const
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
    return static_cast<std::size_t>(h) & setMask_;
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

void
CacheArray::promote(std::size_t set, int way)
{
    // Every way id is in exactly one field, and 0xF is never a way id
    // below 16 ways, so the lowest zero nibble of word ^ (way in every
    // field) is the way's field. The subtraction's borrow can flag
    // nibbles above the first zero one, never below it.
    std::uint64_t word = recency_[set];
    std::uint64_t x = word ^ (static_cast<std::uint64_t>(way) * NIBBLE_ONES);
    std::uint64_t zero = (x - NIBBLE_ONES) & ~x & NIBBLE_HIGHS;
    int shift = std::countr_zero(zero) & ~3;
    // Fields below the way's move up one; the way goes to field 0.
    std::uint64_t below = (std::uint64_t{1} << shift) - 1;
    std::uint64_t moved = (below << 4) | 0xF;
    recency_[set] = (word & ~moved) | ((word & below) << 4) |
                    static_cast<std::uint64_t>(way);
}

CacheState
CacheArray::lookup(Addr addr) const
{
    std::size_t base = baseOf(setOf(addr));
    int w = findWay(base, blockAddr(addr));
    if (w < 0)
        return CacheState::Invalid;
    return static_cast<CacheState>(lines_[base + w] & STATE_MASK);
}

void
CacheArray::setState(Addr addr, CacheState state)
{
    Addr tag = blockAddr(addr);
    std::size_t set = setOf(addr);
    std::size_t base = baseOf(set);
    int w = findWay(base, tag);
    if (w < 0)
        panic("CacheArray::setState: line %llx not resident",
              static_cast<unsigned long long>(tag));
    lines_[base + w] = tag | static_cast<Addr>(state);
    promote(set, w);
}

bool
CacheArray::insert(Addr addr, CacheState state, Addr &victim_addr,
                   CacheState &victim_state)
{
    Addr tag = blockAddr(addr);
    std::size_t set = setOf(addr);
    Addr *lines = lines_.data() + baseOf(set);

    // Already resident: update in place. Otherwise take the first free
    // way, or else the least recently used one.
    int free_way = -1;
    for (int w = 0; w < ways_; ++w) {
        if (((lines[w] ^ tag) - 1) < STATE_MASK) {
            lines[w] = tag | static_cast<Addr>(state);
            promote(set, w);
            return false;
        }
        if (free_way < 0 && (lines[w] & STATE_MASK) == 0)
            free_way = w;
    }
    if (free_way >= 0) {
        lines[free_way] = tag | static_cast<Addr>(state);
        promote(set, free_way);
        return false;
    }

    int victim = static_cast<int>((recency_[set] >> (4 * (ways_ - 1))) & 0xF);
    victim_addr = lines[victim] & ~STATE_MASK;
    victim_state = static_cast<CacheState>(lines[victim] & STATE_MASK);
    lines[victim] = tag | static_cast<Addr>(state);
    promote(set, victim);
    ++evictions;
    return true;
}

void
CacheArray::invalidate(Addr addr)
{
    std::size_t base = baseOf(setOf(addr));
    int w = findWay(base, blockAddr(addr));
    if (w >= 0)
        lines_[base + w] = 0;
}

bool
CacheArray::touch(Addr addr)
{
    std::size_t set = setOf(addr);
    int w = findWay(baseOf(set), blockAddr(addr));
    if (w < 0)
        return false;
    promote(set, w);
    return true;
}

} // namespace hnoc
