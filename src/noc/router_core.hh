/**
 * @file
 * Data-oriented (structure-of-arrays) router state.
 *
 * The per-cycle router hot path used to traverse per-port/per-VC
 * objects; at mid load that traversal — not idle-component iteration —
 * is the dominant cost (VA scanned every slot, SA scanned every slot
 * once per output port). RouterCore packs the per-input-VC pipeline
 * state into parallel arrays indexed by slot = port * vcs + vc, and
 * keeps the allocator request sets as bitmasks with one bit per slot:
 *
 *  - rcMask:    head flit buffered, route not yet computed;
 *  - vaReqMask: route computed, no downstream VC allocated yet;
 *  - saReqMask: per output port — slots whose packet holds a VC on
 *               that port (the SA candidate set).
 *
 * VA/SA then iterate only the set bits, in the same rotating-priority
 * order as the legacy per-candidate loops (bitops::forEachSetCyclic),
 * so grant sequences — and therefore simulation results — are
 * bit-identical; see DESIGN.md "SoA router core".
 *
 * Hot/cold packing (§6g): the slot FIFOs, the parallel arrays with the
 * request masks, and the per-output downstream credit counters (one
 * 64-byte-aligned row per output port) are raw pointers into packed
 * sections of the network's arena, each array starting on its own
 * cache line, after a wiring section that holds the FIFO ring headers
 * and the per-port input channels and output records. A cycle's
 * RC/VA/SA work therefore streams one contiguous region per router
 * instead of a dozen scattered heap blocks — the unit the
 * cache-blocked Network step order is sized around.
 *
 * A core is sized by init() (ports, VCs, depth and the widest
 * downstream VC count, which sets the credit rows) and then placed
 * once: place() carves and initialises every section straight from the
 * arena, and connectOutput() wires each output into its carved record.
 * The arena is the storage's only home, so neither construction nor
 * the steady state touches the heap (test_perf_zero_alloc, which also
 * pins the sizing formulas below).
 */

#ifndef HNOC_NOC_ROUTER_CORE_HH
#define HNOC_NOC_ROUTER_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>

#include "common/bitops.hh"
#include "common/hot_arena.hh"
#include "common/logging.hh"
#include "common/ring_buffer.hh"
#include "common/types.hh"
#include "noc/flit.hh"

namespace hnoc
{

class Channel;

/** SoA input-VC state plus per-output-port allocator state. */
struct RouterCore
{
    /** Output-port allocator state. Downstream-VC credit counts live
     *  in a per-port row of the packed credit section (indexed by
     *  downstream VC); the allocated set is a single word, bounding
     *  downstream VC counts at 64. */
    struct Output
    {
        Channel *chan = nullptr;
        int lanes = 1;
        int downVcs = 0;
        std::uint64_t allocMask = 0; ///< allocated downstream VCs
        int *credits = nullptr;      ///< per downstream VC (packed row)
        /** Grant-driven part of the SA rotating pointer; the
         *  per-cycle part is implicit (ptr = (rrOffset + now) %
         *  total), so skipped idle cycles cannot desynchronise it. */
        unsigned rrOffset = 0;
    };

    int ports = 0;
    int vcs = 0;
    int total = 0; ///< ports * vcs input-VC slots
    int words = 0; ///< 64-bit words per slot mask
    int depth = 0; ///< flits per input VC
    int maxDownVcs = 0; ///< widest downstream VC count (credit rows)

    /** @name Per-slot parallel arrays (slot = port * vcs + vc),
     *  pointing into the placed hot section */
    ///@{
    RingBuffer<Flit> *fifo = nullptr; ///< fixed capacity = depth
    PortId *outPort = nullptr;
    VcId *outVc = nullptr; ///< INVALID until VA succeeds
    VcId *vcLo = nullptr;  ///< admissible downstream VC range
    VcId *vcHi = nullptr;
    Cycle *headSince = nullptr;  ///< when the head became ready
    Cycle *headArrive = nullptr; ///< head flit's buffer-write cycle
                                 ///< (CYCLE_NEVER while empty)
    Packet **pkt = nullptr;
    ///@}

    /** @name Request bitmasks, one bit per slot (hot section) */
    ///@{
    std::uint64_t *activeMask = nullptr; ///< slot owns a route
    std::uint64_t *rcMask = nullptr;     ///< head awaiting RC
    std::uint64_t *vaReqMask = nullptr;  ///< awaiting a VC grant
    /** SA candidates per output port, flattened [port * words]. */
    std::uint64_t *saReqMask = nullptr;
    ///@}

    /** @name Per-input-port SA scratch (hot section): grants issued
     *  this cycle and the output port they fed (the DSET two-reads /
     *  same-output constraint). Living in the packed section keeps the
     *  per-cycle reset off scattered heap lines. */
    ///@{
    int *saGrants = nullptr;
    PortId *saGrantOut = nullptr;
    ///@}

    /** @name Wiring section: per input port, per output port */
    ///@{
    Channel **inChan = nullptr; ///< upstream channel per input port
    Output *outputs = nullptr;
    ///@}

    /** Size the core for @p num_ports x @p num_vcs input VCs of
     *  @p buffer_depth flits each, and outputs toward at most
     *  @p max_down_vcs downstream VCs (capped at 64 by the single-word
     *  allocated/credit masks); place() provides the storage. */
    void
    init(int num_ports, int num_vcs, int buffer_depth, int max_down_vcs)
    {
        if (max_down_vcs > bitops::kWordBits)
            fatal("router core: %d downstream VCs exceed the 64-wide "
                  "allocator mask", max_down_vcs);
        ports = num_ports;
        vcs = num_vcs;
        total = num_ports * num_vcs;
        words = bitops::maskWords(total);
        depth = buffer_depth;
        maxDownVcs = max_down_vcs;
    }

    int
    slot(PortId p, VcId v) const
    {
        return p * vcs + v;
    }

    bool
    active(int s) const
    {
        return bitops::maskTest(activeMask, s);
    }

    /** SA candidate mask of output port @p p. */
    std::uint64_t *
    saReq(PortId p)
    {
        return saReqMask + static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(words);
    }

    const std::uint64_t *
    saReq(PortId p) const
    {
        return saReqMask + static_cast<std::size_t>(p) *
                               static_cast<std::size_t>(words);
    }

    /** Wire output port @p p toward @p down_vcs downstream VCs (at most
     *  init()'s max_down_vcs) of @p down_depth credits each. Call after
     *  place(). */
    void
    connectOutput(PortId p, Channel *chan, int chan_lanes, int down_vcs,
                  int down_depth)
    {
        if (down_vcs > maxDownVcs)
            fatal("router core: %d downstream VCs exceed the %d the core "
                  "was sized for", down_vcs, maxDownVcs);
        Output &op = outputs[static_cast<std::size_t>(p)];
        op.chan = chan;
        op.lanes = chan_lanes;
        op.downVcs = down_vcs;
        op.allocMask = 0;
        std::fill_n(op.credits, down_vcs, down_depth);
    }

    /** Bytes place() carves from the arena for a core of these sizes
     *  (each section rounded up to whole cache lines). */
    static std::size_t
    arenaBytes(int ports, int vcs, int depth, int max_down_vcs)
    {
        auto n = static_cast<std::size_t>(ports * vcs);
        auto np = static_cast<std::size_t>(ports);
        return wiringBytes(n, np) +
               HotArena::bytesFor<Flit>(n * fifoCap(depth)) +
               hotBytes(n, np, static_cast<std::size_t>(
                                   bitops::maskWords(ports * vcs))) +
               HotArena::bytesFor<int>(np * creditRowInts(max_down_vcs));
    }

    std::size_t
    arenaBytes() const
    {
        return arenaBytes(ports, vcs, depth, maxDownVcs);
    }

    /**
     * Carve and initialise the wiring, FIFO, hot and credit sections
     * from @p arena, in that order: the wiring section holds the FIFO
     * ring headers, the output records and the input channels, each on
     * its own line; slot i's FIFO owns [i*cap, (i+1)*cap) of the
     * second; each hot array starts a cache line of the third (masks
     * first); and output port p's credits are row p of the fourth,
     * roundUp(max_down_vcs, 16) ints wide. Call once, before wiring.
     */
    void
    place(HotArena &arena)
    {
        auto n = static_cast<std::size_t>(total);
        auto np = static_cast<std::size_t>(ports);
        auto w = static_cast<std::size_t>(words);
        fifo = arena.carveArray<RingBuffer<Flit>>(n);
        outputs = arena.carve<Output>(np);
        inChan = arena.carve<Channel *>(np, nullptr);

        std::size_t cap = fifoCap(depth);
        fifoBase_ = arena.carve<Flit>(n * cap);
        for (std::size_t i = 0; i < n; ++i)
            fifo[i].bindStorage(fifoBase_ + i * cap,
                                static_cast<std::size_t>(depth));

        activeMask = arena.carve<std::uint64_t>(w);
        rcMask = arena.carve<std::uint64_t>(w);
        vaReqMask = arena.carve<std::uint64_t>(w);
        saReqMask = arena.carve<std::uint64_t>(w * np);
        headArrive = arena.carve<Cycle>(n, CYCLE_NEVER);
        headSince = arena.carve<Cycle>(n);
        pkt = arena.carve<Packet *>(n);
        outPort = arena.carve<PortId>(n, INVALID_PORT);
        outVc = arena.carve<VcId>(n, INVALID_VC);
        vcLo = arena.carve<VcId>(n);
        vcHi = arena.carve<VcId>(n);
        saGrants = arena.carve<int>(np);
        saGrantOut = arena.carve<PortId>(np, INVALID_PORT);

        std::size_t row = creditRowInts(maxDownVcs);
        creditBase_ = arena.carve<int>(np * row);
        for (std::size_t p = 0; p < np; ++p)
            outputs[p].credits = creditBase_ + p * row;
    }

    /** Start and size of each placed section, in carve order. */
    std::array<HotSpan, 4>
    placedSections() const
    {
        auto n = static_cast<std::size_t>(total);
        auto np = static_cast<std::size_t>(ports);
        auto w = static_cast<std::size_t>(words);
        const auto *wiring = reinterpret_cast<const std::byte *>(fifo);
        const auto *wired = reinterpret_cast<const std::byte *>(inChan + np);
        return {{{fifo, static_cast<std::size_t>(wired - wiring)},
                 {fifoBase_, n * fifoCap(depth) * sizeof(Flit)},
                 {activeMask, hotBytes(n, np, w)},
                 {creditBase_, np * creditRowInts(maxDownVcs) *
                                   sizeof(int)}}};
    }

    /**
     * Memory footprint, a pure function of ports, VCs, depth and the
     * widest downstream VC count: every section as carved. The sizing
     * contract tests pin it against these formulas.
     */
    std::uint64_t
    footprintBytes() const
    {
        return arenaBytes();
    }

    /** Pull the step working set toward the cache one active-list
     *  entry ahead of the step call (§6g): the leading request-mask
     *  lines of the hot section (the hardware prefetcher streams the
     *  rest of the contiguous section), the credit rows, and the FIFO
     *  storage. */
    void
    prefetchStep() const
    {
        bitops::prefetch(fifo);
        bitops::prefetch(activeMask);
        bitops::prefetch(saReqMask);
        bitops::prefetch(creditBase_);
        bitops::prefetch(fifoBase_);
    }

    /** Mirror the head-of-FIFO arrival cycle after a pop. */
    void
    refreshHead(int s)
    {
        auto i = static_cast<std::size_t>(s);
        headArrive[i] =
            fifo[i].empty() ? CYCLE_NEVER : fifo[i].front().arrivedAt;
    }

  private:
    /** Slots per FIFO ring (depth rounded up to a power of two). */
    static std::size_t
    fifoCap(int depth)
    {
        return RingBuffer<Flit>::boundCapacity(
            static_cast<std::size_t>(depth));
    }

    /** The wiring section: @p n FIFO ring headers, then @p np output
     *  records and @p np input channels. */
    static std::size_t
    wiringBytes(std::size_t n, std::size_t np)
    {
        return HotArena::bytesFor<RingBuffer<Flit>>(n) +
               HotArena::bytesFor<Output>(np) +
               HotArena::bytesFor<Channel *>(np);
    }

    /** The hot section of @p n slots, @p np ports and @p w mask words:
     *  every array place() carves between the FIFOs and the credits,
     *  each rounded up to whole cache lines. */
    static std::size_t
    hotBytes(std::size_t n, std::size_t np, std::size_t w)
    {
        auto lines = HotArena::lineBytes;
        return 3 * lines(w * sizeof(std::uint64_t)) +
               lines(w * np * sizeof(std::uint64_t)) +
               2 * lines(n * sizeof(Cycle)) + lines(n * sizeof(Packet *)) +
               lines(n * sizeof(PortId)) + 3 * lines(n * sizeof(VcId)) +
               lines(np * sizeof(int)) + lines(np * sizeof(PortId));
    }

    /** Ints per credit row: @p max_down_vcs rounded up to whole cache
     *  lines. */
    static std::size_t
    creditRowInts(int max_down_vcs)
    {
        return static_cast<std::size_t>((max_down_vcs + 15) / 16) * 16;
    }

    Flit *fifoBase_ = nullptr;  ///< placed FIFO storage (prefetch)
    int *creditBase_ = nullptr; ///< placed credit rows (prefetch)
};

} // namespace hnoc

#endif // HNOC_NOC_ROUTER_CORE_HH
