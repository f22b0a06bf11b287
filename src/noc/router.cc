#include "noc/router.hh"

#include "common/logging.hh"

namespace hnoc
{

Router::Router(RouterId id, int num_ports, int vcs, int buffer_depth,
               int max_down_vcs, const RoutingAlgorithm &routing,
               int escape_threshold, bool intra_packet_pairing)
    : id_(id), routing_(routing),
      escapeThreshold_(escape_threshold),
      intraPacketPairing_(intra_packet_pairing)
{
    core_.init(num_ports, vcs, buffer_depth, max_down_vcs);
}

void
Router::connectInput(PortId p, Channel *chan)
{
    core_.inChan[static_cast<std::size_t>(p)] = chan;
}

void
Router::connectOutput(PortId p, Channel *chan, int down_vcs, int down_depth)
{
    core_.connectOutput(p, chan, chan->lanes(), down_vcs, down_depth);
}

void
Router::receiveFlit(PortId p, Flit flit, Cycle now)
{
    if (flit.vc < 0 || flit.vc >= core_.vcs)
        panic("router %d port %d: flit on invalid VC %d", id_, p, flit.vc);
    int s = core_.slot(p, flit.vc);
    auto si = static_cast<std::size_t>(s);
    RingBuffer<Flit> &fifo = core_.fifo[si];
    if (static_cast<int>(fifo.size()) >= core_.depth)
        panic("router %d port %d vc %d: buffer overflow (credit bug)",
              id_, p, flit.vc);
    if (fifo.empty()) {
        core_.headArrive[si] = now; // this flit becomes the head
        if (!core_.active(s)) // an idle VC just gained a head needing RC
            bitops::maskSet(core_.rcMask, s);
    }
    flit.arrivedAt = now;
    fifo.push_back(flit);
    ++flitCount_;
    wake_.wake();
    ++activity_.bufferWrites;
    if (Probe *pr = probe())
        pr->flitIn(now, id_, p, flit);
}

void
Router::receiveCredit(PortId p, VcId vc, Cycle now)
{
    RouterCore::Output &op = core_.outputs[static_cast<std::size_t>(p)];
    int &credits = op.credits[static_cast<std::size_t>(vc)];
    if (credits >= core_.depth * 4) // generous sanity bound
        panic("router %d port %d vc %d: credit overflow", id_, p, vc);
    ++credits;
    if (Probe *pr = probe())
        pr->creditIn(now, id_, p, vc);
}

void
Router::step(Cycle now)
{
    // Phase timers are report-only wall-clock accumulation: the
    // pipeline functions never read them, so attaching a profiler
    // cannot perturb simulation results. kTelemetryEnabled folds the
    // pointer to nullptr in the OFF build. While attached, the three
    // phase timings chain on shared clock reads (four reads, no
    // inter-scope gaps), so no instrumentation slop between phases
    // leaks into the unattributed scan-overhead residual.
    Profiler *prof = kTelemetryEnabled ? profiler_ : nullptr;
    if (prof) {
        auto ns = [](Profiler::clock::time_point a,
                     Profiler::clock::time_point b) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    b - a)
                    .count());
        };
        auto t0 = Profiler::clock::now();
        routeCompute(now);
        auto t1 = Profiler::clock::now();
        vcAllocate(now);
        auto t2 = Profiler::clock::now();
        switchAllocate(now);
        auto t3 = Profiler::clock::now();
        prof->add(ProfPhase::RouteCompute, ns(t0, t1));
        prof->add(ProfPhase::VcAllocate, ns(t1, t2));
        prof->add(ProfPhase::SwitchAllocate, ns(t2, t3));
    } else {
        routeCompute(now);
        vcAllocate(now);
        switchAllocate(now);
    }

    // Occupancy sample for the Fig 1/2 heat maps. A zero sample is a
    // no-op on both accumulators, so skipping flitless cycles under
    // active-set scheduling loses nothing.
    int occ = flitCount_;
    occupancySum_ += static_cast<std::uint64_t>(occ);
    if (Probe *pr = probe()) {
        // After SA has settled the cycle, every head still pending is
        // by definition stalled for exactly one cycle.
        if (pr->chargesStalls())
            stallPass(now, *pr);
        pr->occupancy(id_, occ);
    }
}

void
Router::routeCompute(Cycle now)
{
    // rcMask holds exactly the slots whose head flit still needs a
    // route (a slot cannot drain while inactive, so a set bit implies
    // a non-empty FIFO). Ascending bit order matches the legacy
    // port-major/VC-minor nested loops.
    if (!bitops::maskAny(core_.rcMask, core_.words))
        return;
    bitops::forEachSetCyclic(
        core_.rcMask, core_.words, core_.total, 0, [&](int s) {
            auto si = static_cast<std::size_t>(s);
            if (core_.headArrive[si] >= now)
                return true; // written this cycle; eligible next cycle
            const Flit &head = core_.fifo[si].front();
            if (!head.isHead())
                panic("router %d: non-head flit at idle VC (pkt %llu)",
                      id_, static_cast<unsigned long long>(
                               head.pkt ? head.pkt->id : 0));
            core_.pkt[si] = head.pkt;
            // Route-pending stall, charged as a lump: the head has
            // been the front flit since headArrive (refreshHead keeps
            // that exact, including behind a draining predecessor),
            // and the earliest possible RC cycle is headArrive + 1.
            if (Probe *pr = probe())
                pr->stall(id_, INVALID_PORT, BlameCause::RoutePending,
                          head.pkt, now - core_.headArrive[si] - 1);
            bitops::maskSet(core_.activeMask, s);
            bitops::maskClear(core_.rcMask, s);
            bitops::maskSet(core_.vaReqMask, s);
            PortId out = routing_.outputPort(id_, *core_.pkt[si]);
            core_.outPort[si] = out;
            core_.outVc[si] = INVALID_VC;
            const RouterCore::Output &op =
                core_.outputs[static_cast<std::size_t>(out)];
            routing_.vcBounds(id_, out, *core_.pkt[si], op.downVcs,
                              core_.vcLo[si], core_.vcHi[si]);
            core_.headSince[si] = now;
            ++core_.pkt[si]->hops;
            return true;
        });
}

void
Router::maybeEscape(int s, Cycle now)
{
    auto si = static_cast<std::size_t>(s);
    Packet *pkt = core_.pkt[si];
    if (!routing_.hasEscape(*pkt))
        return;
    if (now - core_.headSince[si] <= static_cast<Cycle>(escapeThreshold_))
        return;
    // Fall back to the X-Y escape layer for the rest of the journey.
    // The slot holds no output VC yet (escape happens before the VA
    // grant), so it sits in no SA candidate mask and the output port
    // can change freely.
    pkt->escaped = true;
    PortId out = routing_.outputPort(id_, *pkt);
    core_.outPort[si] = out;
    const RouterCore::Output &op =
        core_.outputs[static_cast<std::size_t>(out)];
    routing_.vcBounds(id_, out, *pkt, op.downVcs, core_.vcLo[si],
                      core_.vcHi[si]);
    core_.headSince[si] = now;
}

void
Router::vcAllocate(Cycle now)
{
    // Separable, output-side allocator: walk the requesting input VCs
    // (vaReqMask = active without an output VC) round-robin and hand
    // each the first free admissible downstream VC — a single
    // ctz over ~allocMask masked to [vcLo, vcHi]. The rotating pointer
    // is a pure function of the cycle number (it used to advance by
    // one every stepped cycle from zero), so skipping idle cycles
    // leaves the priority sequence unchanged; iterating only the set
    // bits preserves the visit order of the legacy all-slot scan
    // because non-requesters were skipped there anyway.
    if (!bitops::maskAny(core_.vaReqMask, core_.words))
        return;
    int total = core_.total;
    int ptr = static_cast<int>(now % static_cast<Cycle>(total));
    bitops::forEachSetCyclic(
        core_.vaReqMask, core_.words, total, ptr, [&](int s) {
            auto si = static_cast<std::size_t>(s);
            if (core_.fifo[si].empty() || core_.headArrive[si] >= now)
                return true;
            maybeEscape(s, now);
            RouterCore::Output &op =
                core_.outputs[static_cast<std::size_t>(core_.outPort[si])];
            int v = bitops::firstClearInRange64(
                op.allocMask, core_.vcLo[si], core_.vcHi[si]);
            if (v >= 0) {
                op.allocMask |= std::uint64_t{1} << v;
                core_.outVc[si] = v;
                core_.headSince[si] = now;
                ++activity_.arbOps;
                bitops::maskClear(core_.vaReqMask, s);
                bitops::maskSet(core_.saReq(core_.outPort[si]), s);
            }
            if (Probe *pr = probe())
                pr->vcAlloc(now, id_, s / core_.vcs, s % core_.vcs,
                            core_.pkt[si], v >= 0);
            return true;
        });
}

void
Router::switchAllocate(Cycle now)
{
    // Per-input-port grant bookkeeping: at most two reads per input
    // port per cycle (the DSET split of §3.2), and when two, both must
    // feed the same output port (one v:1 arbiter per input, Fig 6).
    // The scratch lives in the core's packed hot buffer, so the
    // per-cycle reset touches no scattered heap lines and the steady
    // state allocates nothing.
    for (PortId p = 0; p < core_.ports; ++p) {
        core_.saGrants[p] = 0;
        core_.saGrantOut[p] = INVALID_PORT;
    }
    for (PortId o = 0; o < core_.ports; ++o)
        switchAllocatePort(o, now);
}

void
Router::switchAllocatePort(PortId o, Cycle now)
{
    RouterCore::Output &op = core_.outputs[static_cast<std::size_t>(o)];
    if (!op.chan)
        return;
    // The candidate set (active slots holding a VC on this output) is
    // maintained incrementally by VA grants and tail departures; an
    // empty mask means the legacy all-slot scan would have granted
    // nothing and left rrOffset unchanged, so the port is skipped
    // outright.
    std::uint64_t *req = core_.saReq(o);
    if (!bitops::maskAny(req, core_.words))
        return;

    int total = core_.total;
    int capacity = op.lanes > 1 ? 2 : 1;
    int granted = 0;

    // Rotating priority: the legacy pointer advanced by
    // (granted + 1) per stepped cycle; splitting it into the
    // implicit cycle count plus a grant-only offset makes it
    // insensitive to skipped idle cycles (granted is zero on any
    // cycle the router could have been skipped).
    int ptr = static_cast<int>((static_cast<Cycle>(op.rrOffset) + now) %
                               static_cast<Cycle>(total));

    // Grant: pop the flit and push it into the output channel.
    // Returns true when the packet finished at this hop (tail sent).
    auto send_one = [&](int s, std::size_t si, PortId in_port,
                        int &pg) -> bool {
        RingBuffer<Flit> &fifo = core_.fifo[si];
        VcId out_vc = core_.outVc[si];
        Flit flit = fifo.front();
        fifo.pop_front();
        core_.refreshHead(s);
        --flitCount_;
        --op.credits[static_cast<std::size_t>(out_vc)];
        flit.vc = out_vc;
        op.chan->sendFlit(flit, now);

        ++pg;
        core_.saGrantOut[in_port] = o;
        ++granted;
        ++activity_.bufferReads;
        ++activity_.arbOps;
        if (Probe *pr = probe())
            pr->flitOut(now, id_, o, in_port, s % core_.vcs, flit,
                        op.chan->flitDelay());
        // Charge the active (flit) bits, not the full wire
        // width: an unpaired flit on a wide link toggles only
        // its own half.
        activity_.linkBitTraversals +=
            op.chan->widthBits() / op.chan->lanes();

        Channel *in_chan = core_.inChan[static_cast<std::size_t>(in_port)];
        if (in_chan)
            in_chan->sendCredit(static_cast<VcId>(s % core_.vcs), now);

        if (flit.isTail()) {
            op.allocMask &= ~(std::uint64_t{1} << out_vc);
            bitops::maskClear(core_.activeMask, s);
            bitops::maskClear(req, s);
            core_.outPort[si] = INVALID_PORT;
            core_.outVc[si] = INVALID_VC;
            core_.pkt[si] = nullptr;
            if (!fifo.empty()) // next packet's head awaits RC
                bitops::maskSet(core_.rcMask, s);
            return true; // packet finished at this hop
        }
        if (!fifo.empty())
            core_.headSince[si] = now;
        return false;
    };

    // Consider one candidate slot, in rotating-priority order (the
    // cyclic bit walk below); returns false to stop the walk once the
    // port's grant capacity is reached.
    auto consider = [&](int s) -> bool {
        auto si = static_cast<std::size_t>(s);
        PortId in_port = s / core_.vcs;
        RingBuffer<Flit> &fifo = core_.fifo[si];
        if (fifo.empty() || core_.headArrive[si] >= now)
            return granted < capacity;
        if (op.credits[static_cast<std::size_t>(core_.outVc[si])] <= 0) {
            if (Probe *pr = probe())
                pr->creditStall(now, id_, o, core_.outVc[si],
                                core_.pkt[si]);
            return granted < capacity;
        }
        int &pg = core_.saGrants[in_port];
        if (pg >= 2)
            return granted < capacity;
        if (pg == 1 && core_.saGrantOut[in_port] != o)
            return granted < capacity;

        bool finished = send_one(s, si, in_port, pg);

        // Intra-packet pairing on wide outputs (§3.2): send the
        // next flit of the same packet over the other 128 b half,
        // consuming a second credit in the same downstream VC.
        if (intraPacketPairing_ && !finished && granted < capacity &&
            pg < 2 &&
            op.credits[static_cast<std::size_t>(core_.outVc[si])] > 0 &&
            !fifo.empty() && core_.headArrive[si] < now &&
            fifo.front().pkt == core_.pkt[si]) {
            send_one(s, si, in_port, pg);
        }
        return granted < capacity;
    };

    bitops::forEachSetCyclic(req, core_.words, total, ptr, consider);

    op.rrOffset = (op.rrOffset + static_cast<unsigned>(granted)) %
                  static_cast<unsigned>(total);
}

void
Router::stallPass(Cycle now, Probe &probe)
{
    // Charge one stall cycle to every head that was eligible this
    // cycle yet did not depart. A slot is in exactly one of rcMask /
    // vaReqMask / one output's saReq mask, and rcMask waits are
    // covered by the route-pending lump charged at RC time, so each
    // waiting head is charged exactly once per stepped cycle — the
    // invariant behind the exact accounting identity. (A pending head
    // implies a buffered flit, so the router is busy and this pass
    // runs every cycle the head waits.)
    bitops::forEachSetCyclic(
        core_.vaReqMask, core_.words, core_.total, 0, [&](int s) {
            auto si = static_cast<std::size_t>(s);
            if (core_.fifo[si].empty() || core_.headArrive[si] >= now)
                return true;
            PortId out = core_.outPort[si];
            probe.stall(id_, out,
                        out == ejectPort_ ? BlameCause::EjectBackpressure
                                          : BlameCause::VaConflictLost,
                        core_.pkt[si]);
            return true;
        });

    for (PortId o = 0; o < core_.ports; ++o) {
        const RouterCore::Output &op =
            core_.outputs[static_cast<std::size_t>(o)];
        if (!op.chan)
            continue;
        std::uint64_t *req = core_.saReq(o);
        if (!bitops::maskAny(req, core_.words))
            continue;
        bitops::forEachSetCyclic(
            req, core_.words, core_.total, 0, [&](int s) {
                auto si = static_cast<std::size_t>(s);
                const RingBuffer<Flit> &fifo = core_.fifo[si];
                if (fifo.empty() || core_.headArrive[si] >= now)
                    return true;
                // Only the head's wait is charged here: once it has
                // departed, body/tail stalls are tail drag and fold
                // into the link-serialization residual at commit.
                const Flit &front = fifo.front();
                if (!front.isHead() || front.pkt != core_.pkt[si])
                    return true;
                BlameCause cause;
                if (o == ejectPort_)
                    cause = BlameCause::EjectBackpressure;
                else if (op.credits[static_cast<std::size_t>(
                             core_.outVc[si])] <= 0)
                    cause = BlameCause::CreditStarved;
                else
                    cause = BlameCause::SaConflictLost;
                probe.stall(id_, o, cause, core_.pkt[si]);
                return true;
            });
    }
}

Router::InputVcView
Router::inputVcView(PortId p, VcId v) const
{
    int s = core_.slot(p, v);
    auto si = static_cast<std::size_t>(s);
    InputVcView view;
    view.occupancy = static_cast<int>(core_.fifo[si].size());
    view.active = core_.active(s);
    view.outPort = core_.outPort[si];
    view.outVc = core_.outVc[si];
    view.headSince = core_.headSince[si];
    view.pkt = core_.pkt[si] ? core_.pkt[si]->id : 0;
    return view;
}

} // namespace hnoc
