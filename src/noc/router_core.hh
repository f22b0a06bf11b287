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
 * 64-byte-aligned row per output port) are raw pointers into three
 * packed sections of the network's hot arena, each array starting on
 * its own cache line. A cycle's RC/VA/SA work therefore streams one
 * contiguous region per router instead of a dozen scattered heap
 * blocks — the unit the cache-blocked Network step order is sized
 * around.
 *
 * A core is sized in two steps, init() (ports, VCs, depth) and
 * connectOutput() (downstream VC counts, heterogeneous and known only
 * after wiring), and then placed once: place() carves and initialises
 * every section straight from the arena. The arena is the storage's
 * only home, so the steady state performs zero heap allocations
 * (test_perf_zero_alloc, which also pins the sizing formulas below).
 */

#ifndef HNOC_NOC_ROUTER_CORE_HH
#define HNOC_NOC_ROUTER_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

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
        /** Initial credit count, held until place(). */
        int initDepth = 0;
    };

    int ports = 0;
    int vcs = 0;
    int total = 0; ///< ports * vcs input-VC slots
    int words = 0; ///< 64-bit words per slot mask
    int depth = 0; ///< flits per input VC

    /** @name Per-slot parallel arrays (slot = port * vcs + vc),
     *  pointing into the placed hot section */
    ///@{
    std::vector<RingBuffer<Flit>> fifo; ///< fixed capacity = depth
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

    std::vector<Channel *> inChan; ///< upstream channel per input port
    std::vector<Output> outputs;

    /** Size the core for @p num_ports x @p num_vcs input VCs of
     *  @p buffer_depth flits each; place() provides the storage. */
    void
    init(int num_ports, int num_vcs, int buffer_depth)
    {
        ports = num_ports;
        vcs = num_vcs;
        total = num_ports * num_vcs;
        words = bitops::maskWords(total);
        depth = buffer_depth;
        fifo.resize(static_cast<std::size_t>(total));
        inChan.assign(static_cast<std::size_t>(ports), nullptr);
        outputs.assign(static_cast<std::size_t>(ports), Output{});
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

    /** Wire output port @p p. @p down_vcs is capped at 64 by the
     *  single-word allocated/credit masks. Credit counters become
     *  live when place() carves them. */
    void
    connectOutput(PortId p, Channel *chan, int chan_lanes, int down_vcs,
                  int down_depth)
    {
        if (down_vcs > bitops::kWordBits)
            fatal("router core: %d downstream VCs exceed the 64-wide "
                  "allocator mask", down_vcs);
        Output &op = outputs[static_cast<std::size_t>(p)];
        op.chan = chan;
        op.lanes = chan_lanes;
        op.downVcs = down_vcs;
        op.allocMask = 0;
        op.credits = nullptr;
        op.initDepth = down_depth;
    }

    /** Bytes place() carves from the arena (each section rounded up to
     *  whole cache lines). */
    std::size_t
    arenaBytes() const
    {
        return HotArena::lineBytes(fifoBytes()) + hotBytes() +
               HotArena::lineBytes(creditBytes());
    }

    /**
     * Carve and initialise the FIFO, hot and credit sections from
     * @p arena, in that order: slot i's FIFO owns [i*cap, (i+1)*cap)
     * of the first, each hot array starts a cache line of the second
     * (masks first), and output port p's
     * credits are row p of the third, roundUp(max downVcs, 16) ints
     * wide. Call once, after the last connectOutput().
     */
    void
    place(HotArena &arena)
    {
        auto n = static_cast<std::size_t>(total);
        auto np = static_cast<std::size_t>(ports);
        auto w = static_cast<std::size_t>(words);
        std::size_t cap = fifoCap();
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

        std::size_t row = creditRowInts();
        creditBase_ = arena.carve<int>(np * row);
        for (std::size_t p = 0; p < np; ++p) {
            Output &op = outputs[p];
            op.credits = creditBase_ + p * row;
            std::fill_n(op.credits, op.downVcs, op.initDepth);
        }
    }

    /** Start and size of each placed section, in carve order. */
    std::array<HotSpan, 3>
    placedSections() const
    {
        return {{{fifoBase_, fifoBytes()},
                 {activeMask, hotBytes()},
                 {creditBase_, creditBytes()}}};
    }

    /**
     * Steady-state memory footprint, a pure function of ports, VCs,
     * depth and downstream VC counts: the FIFO ring headers and
     * storage, the hot section (slot arrays + request bitmasks, each
     * cache-line rounded), the credit rows, and the wiring vectors.
     * The sizing contract tests pin it against these formulas.
     */
    std::uint64_t
    footprintBytes() const
    {
        auto n = static_cast<std::uint64_t>(total);
        auto np = static_cast<std::uint64_t>(ports);
        return n * sizeof(RingBuffer<Flit>) + fifoBytes() + hotBytes() +
               creditBytes() + np * (sizeof(Channel *) + sizeof(Output));
    }

    /** Pull the step working set toward the cache one active-list
     *  entry ahead of the step call (§6g): the leading request-mask
     *  lines of the hot section (the hardware prefetcher streams the
     *  rest of the contiguous section), the credit rows, and the FIFO
     *  storage. */
    void
    prefetchStep() const
    {
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
    std::size_t
    fifoCap() const
    {
        return RingBuffer<Flit>::boundCapacity(
            static_cast<std::size_t>(depth));
    }

    std::size_t
    fifoBytes() const
    {
        return static_cast<std::size_t>(total) * fifoCap() * sizeof(Flit);
    }

    /** The hot section: every array place() carves between the FIFOs
     *  and the credits, each rounded up to whole cache lines. */
    std::size_t
    hotBytes() const
    {
        auto n = static_cast<std::size_t>(total);
        auto np = static_cast<std::size_t>(ports);
        auto w = static_cast<std::size_t>(words);
        auto lines = HotArena::lineBytes;
        return 3 * lines(w * sizeof(std::uint64_t)) +
               lines(w * np * sizeof(std::uint64_t)) +
               2 * lines(n * sizeof(Cycle)) + lines(n * sizeof(Packet *)) +
               lines(n * sizeof(PortId)) + 3 * lines(n * sizeof(VcId)) +
               lines(np * sizeof(int)) + lines(np * sizeof(PortId));
    }

    /** Ints per credit row: the widest downstream VC count rounded up
     *  to whole cache lines (0 while no output is wired). */
    std::size_t
    creditRowInts() const
    {
        int maxVcs = 0;
        for (const Output &op : outputs)
            maxVcs = op.downVcs > maxVcs ? op.downVcs : maxVcs;
        return static_cast<std::size_t>((maxVcs + 15) / 16) * 16;
    }

    std::size_t
    creditBytes() const
    {
        return creditRowInts() * static_cast<std::size_t>(ports) *
               sizeof(int);
    }

    Flit *fifoBase_ = nullptr;  ///< placed FIFO storage (prefetch)
    int *creditBase_ = nullptr; ///< placed credit rows (prefetch)
};

} // namespace hnoc

#endif // HNOC_NOC_ROUTER_CORE_HH
