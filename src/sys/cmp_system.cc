#include "sys/cmp_system.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/logging.hh"

namespace hnoc
{

namespace
{

/** @return @p net_config, once its tile count is known to fit the
 *  directory's 16-bit ids (SharerId). Checked before the Network is
 *  built, which would size every per-tile structure first. */
const NetworkConfig &
checkTileCount(const NetworkConfig &net_config)
{
    constexpr long long max_tiles = std::numeric_limits<SharerId>::max();
    // Two int factors cannot overflow; the third is applied only to a
    // product already within the limit.
    long long routers =
        static_cast<long long>(net_config.radixX) * net_config.radixY;
    if (routers > max_tiles || routers * net_config.concentration > max_tiles)
        fatal("CmpSystem: %d x %d routers x %d terminals is more than "
              "%lld tiles (16-bit directory ids)",
              net_config.radixX, net_config.radixY,
              net_config.concentration, max_tiles);
    return net_config;
}

} // namespace

CmpSystem::CmpSystem(const NetworkConfig &net_config,
                     const CmpConfig &config)
    : config_(config),
      net_(std::make_unique<Network>(checkTileCount(net_config)))
{
    net_->setClient(this);
    clkRatio_ = config_.coreClockGHz / net_->clockGHz();

    if (config_.l1LatencyCoreCycles < 1 || config_.l2LatencyCoreCycles < 1 ||
        config_.dramLatencyCoreCycles < 1)
        fatal("CmpSystem: controller latencies must be >= 1 core cycle");
    l1Net_ = coreToNet(config_.l1LatencyCoreCycles);
    l2Net_ = coreToNet(config_.l2LatencyCoreCycles);
    dramNet_ = coreToNet(config_.dramLatencyCoreCycles);
    // Memory messages are handled one cycle after delivery; the
    // horizon must exceed the longest delay.
    Cycle max_delay = std::max({l1Net_, l2Net_, dramNet_, Cycle{1}});
    Cycle horizon = 1;
    while (horizon <= max_delay)
        horizon <<= 1;
    calendar_.resize(static_cast<std::size_t>(horizon));
    calendarMask_ = horizon - 1;

    int nodes = net_->topology().numNodes();
    // The CacheArrays built below reject a block size that is not a
    // power of two.
    blockShift_ = std::countr_zero(static_cast<unsigned>(config_.blockBytes));
    cores_.resize(static_cast<std::size_t>(nodes));
    banks_.resize(static_cast<std::size_t>(nodes));
    mcs_.resize(static_cast<std::size_t>(nodes));

    for (int n = 0; n < nodes; ++n) {
        Core &core = cores_[static_cast<std::size_t>(n)];
        core.l1 = std::make_unique<CacheArray>(
            config_.l1Bytes, config_.l1Ways, config_.blockBytes);

        bool large = true;
        if (config_.asymmetric) {
            large = std::find(config_.largeCoreTiles.begin(),
                              config_.largeCoreTiles.end(),
                              n) != config_.largeCoreTiles.end();
        }
        if (large) {
            core.issueRate = config_.issueWidth * clkRatio_;
            core.window = config_.windowInstrs;
            core.maxOutstanding = config_.maxOutstanding;
        } else {
            core.issueRate = config_.smallIssueWidth * clkRatio_;
            core.window = config_.smallWindowInstrs;
            core.maxOutstanding = config_.smallMaxOutstanding;
        }
        core.mshrs.reserve(static_cast<std::size_t>(core.maxOutstanding));

        Bank &bank = banks_[static_cast<std::size_t>(n)];
        bank.l2 = std::make_unique<CacheArray>(
            config_.l2BankBytes, config_.l2Ways, config_.blockBytes);
        // Half a slot per L2 line (4096 slots for the default bank),
        // which grows past 3072 entries. After the figures' warm-up the
        // fullest bank holds 1012 (vips) to 2632 (canl) lines, so those
        // tables never grow; libquantum's (up to 4603) grow once
        // (DESIGN.md §6i).
        bank.dir = AddrTable<DirEntry>(static_cast<std::size_t>(
            config_.l2BankBytes / static_cast<std::uint64_t>(
                                      config_.blockBytes) / 2));
    }

    // Each core's loads ring over its own run of one allocation.
    std::size_t slots = 0;
    for (const Core &core : cores_)
        slots += RingBuffer<OutstandingLoad>::boundCapacity(
            static_cast<std::size_t>(core.maxOutstanding));
    loadSlots_.resize(slots);
    slots = 0;
    for (Core &core : cores_) {
        core.loads.bindStorage(loadSlots_.data() + slots,
                               static_cast<std::size_t>(core.maxOutstanding));
        slots += core.loads.capacity();
    }

    // Contention-free transfer time per route for a control and a data
    // packet, the only two lengths sent (Network::minTransferCycles
    // walks the route, so it is not called per delivery).
    transferCycles_.reserve(static_cast<std::size_t>(nodes) *
                            static_cast<std::size_t>(nodes) * 2);
    for (NodeId src = 0; src < nodes; ++src) {
        for (NodeId dst = 0; dst < nodes; ++dst) {
            transferCycles_.push_back(net_->minTransferCycles(src, dst, 1));
            transferCycles_.push_back(net_->minTransferCycles(
                src, dst, net_->dataPacketFlits()));
        }
    }
    mcTiles_ = mcTiles(config_.mcPlacement, net_config.radixX);
    for (NodeId t : mcTiles_)
        mcs_[static_cast<std::size_t>(t)].present = true;
}

CmpSystem::~CmpSystem() = default;

void
CmpSystem::assignWorkloadAll(const WorkloadProfile &profile)
{
    for (std::size_t n = 0; n < cores_.size(); ++n)
        assignWorkload(static_cast<NodeId>(n), profile);
}

void
CmpSystem::assignWorkload(NodeId core, const WorkloadProfile &profile)
{
    Core &c = cores_[static_cast<std::size_t>(core)];
    c.gen = std::make_unique<TraceGenerator>(profile, core, config_.seed,
                                             config_.blockBytes);
    c.idle = false;
}

void
CmpSystem::idleCore(NodeId core)
{
    Core &c = cores_[static_cast<std::size_t>(core)];
    c.gen.reset();
    c.idle = true;
}

void
CmpSystem::warmCaches(int memops_per_core)
{
    for (std::size_t n = 0; n < cores_.size(); ++n) {
        Core &core = cores_[n];
        if (core.idle || !core.gen)
            continue;
        // A twin generator replays the same distribution without
        // consuming the timed trace stream.
        TraceGenerator twin(core.gen->profile(), static_cast<int>(n),
                            config_.seed ^ 0x5eedULL, config_.blockBytes);
        for (int i = 0; i < memops_per_core; ++i) {
            TraceRecord rec = twin.next();
            Addr block = core.l1->blockAddr(rec.addr);
            warmAccess(static_cast<NodeId>(n), core,
                       banks_[static_cast<std::size_t>(homeTile(block))],
                       block, rec.isWrite);
        }
    }
}

void
CmpSystem::warmAccess(NodeId id, Core &core, Bank &bank, Addr block,
                      bool is_write)
{
    Addr victim = 0;
    CacheState vstate = CacheState::Invalid;
    bank.l2->insert(block, CacheState::Shared, victim, vstate);
    DirEntry &entry = bank.dir.findOrInsert(block);
    if (is_write) {
        entry.sharers.forEach(bank.sharerPool, [&](NodeId s) {
            cores_[static_cast<std::size_t>(s)].l1->invalidate(block);
        });
        if (entry.owned() && entry.owner != id)
            cores_[static_cast<std::size_t>(entry.owner)].l1->invalidate(
                block);
        entry.sharers.clear(bank.sharerPool);
        entry.setOwner(id);
        core.l1->insert(block, CacheState::Modified, victim, vstate);
        return;
    }
    if (entry.owned() && entry.owner != id) {
        Core &oc = cores_[static_cast<std::size_t>(entry.owner)];
        if (oc.l1->lookup(block) != CacheState::Invalid)
            oc.l1->setState(block, CacheState::Shared);
        entry.sharers.append(bank.sharerPool, entry.owner);
        entry.setOwner(INVALID_NODE);
    }
    if (core.l1->touch(block)) {
        // L1 hit.
    } else if (entry.sharers.empty() && !entry.owned()) {
        // First reader gets Exclusive.
        entry.setOwner(id);
        core.l1->insert(block, CacheState::Exclusive, victim, vstate);
    } else {
        if (!entry.sharers.contains(bank.sharerPool, id))
            entry.sharers.append(bank.sharerPool, id);
        core.l1->insert(block, CacheState::Shared, victim, vstate);
    }
}

Cycle
CmpSystem::coreToNet(int core_cycles) const
{
    return static_cast<Cycle>(
        std::ceil(static_cast<double>(core_cycles) / clkRatio_));
}

NodeId
CmpSystem::homeTile(Addr block) const
{
    Addr blk = block >> blockShift_;
    // Fold in high bits so private regions spread over all banks.
    Addr mixed = blk ^ (blk >> 12) ^ (blk >> 28);
    return static_cast<NodeId>(
        mixed % static_cast<Addr>(cores_.size()));
}

void
CmpSystem::schedule(Cycle at, const Event &ev)
{
    // Bucket at & mask is drained at cycle `at` only if the delay is in
    // [1, horizon); anything else would fire early or out of order.
    if (at <= now_ || at - now_ > calendarMask_)
        panic("CmpSystem: event for cycle %llu scheduled at cycle %llu, "
              "outside the calendar horizon %llu",
              static_cast<unsigned long long>(at),
              static_cast<unsigned long long>(now_),
              static_cast<unsigned long long>(calendarMask_ + 1));
    calendar_[static_cast<std::size_t>(at & calendarMask_)].push(eventPool_,
                                                                ev);
}

CmpSystem::Mshr *
CmpSystem::findMshr(Core &core, Addr block)
{
    for (Mshr &m : core.mshrs)
        if (m.block == block)
            return &m;
    return nullptr;
}

Msg *
CmpSystem::allocMsg(const Msg &proto)
{
    Msg *m;
    if (!msgFree_.empty()) {
        m = msgFree_.back();
        msgFree_.pop_back();
    } else {
        m = &msgArena_.emplace_back();
    }
    *m = proto;
    return m;
}

void
CmpSystem::freeMsg(Msg *msg)
{
    msgFree_.push_back(msg);
}

void
CmpSystem::run(Cycle net_cycles)
{
    net_->run(net_cycles);
}

void
CmpSystem::resetStats()
{
    net_->resetMeasurement();
    netStats_.reset();
    roundTrip_.reset();
    statsStart_ = net_->now();
    packetsSent_ = 0;
    for (Core &core : cores_)
        core.retiredAtReset = core.retired;
}

double
CmpSystem::ipc(NodeId core) const
{
    const Core &c = cores_[static_cast<std::size_t>(core)];
    Cycle net_cycles = net_->now() - statsStart_;
    if (net_cycles == 0)
        return 0.0;
    double core_cycles = static_cast<double>(net_cycles) * clkRatio_;
    return static_cast<double>(c.retired - c.retiredAtReset) / core_cycles;
}

double
CmpSystem::avgIpc() const
{
    double sum = 0.0;
    int n = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        if (cores_[i].idle)
            continue;
        sum += ipc(static_cast<NodeId>(i));
        ++n;
    }
    return n ? sum / n : 0.0;
}

std::uint64_t
CmpSystem::l1Misses() const
{
    std::uint64_t n = 0;
    for (const Core &c : cores_)
        n += c.l1Misses;
    return n;
}

// ----------------------------------------------------------- stepping --

void
CmpSystem::preCycle(Network &, Cycle now)
{
    now_ = now;
    // 1. Deliver this cycle's controller events in scheduling order.
    calendar_[static_cast<std::size_t>(now & calendarMask_)].drain(
        eventPool_, [&](const Event &ev) {
            if (ev.isSend)
                sendMsg(ev.msg.sender, ev.tile, ev.msg.type, ev.msg.block,
                        ev.msg.requester, now);
            else
                handleMsg(ev.tile, ev.msg, now);
        });

    // 2. Memory-controller service: start DRAM accesses.
    for (NodeId t : mcTiles_) {
        MemController &mc = mcs_[static_cast<std::size_t>(t)];
        while (!mc.queue.empty() && now >= mc.nextFree) {
            Msg req = mc.queue.pop(mcPool_);
            mc.nextFree = now + static_cast<Cycle>(
                config_.mcServiceInterval);
            // DRAM access completes after the access latency; then the
            // data packet is sent back to the home bank.
            Event ev;
            ev.tile = req.requester; // home tile
            ev.msg = {MsgType::MemData, req.block, t, req.requester};
            ev.isSend = true;
            schedule(now + dramNet_, ev);
        }
    }

    // 3. Cores issue instructions.
    for (std::size_t n = 0; n < cores_.size(); ++n) {
        Core &core = cores_[n];
        if (!core.idle)
            stepCore(static_cast<NodeId>(n), core, now);
    }
}

void
CmpSystem::stepCore(NodeId id, Core &core, Cycle now)
{
    core.budget += core.issueRate;
    // A stalled core cannot bank issue slots beyond one cycle's worth.
    core.budget = std::min(core.budget, core.issueRate + 3.0);

    while (core.budget >= 1.0) {
        // Reorder-window stall: the oldest outstanding load blocks
        // retirement once it is `window` instructions old.
        if (!core.loads.empty() &&
            core.retired - core.loads.front().atInstr >=
                static_cast<std::uint64_t>(core.window))
            break;

        if (!core.hasPending) {
            core.pending = core.gen->next();
            core.nonMemLeft = core.pending.nonMemInstrs;
            core.hasPending = true;
        }
        if (core.nonMemLeft > 0) {
            --core.nonMemLeft;
            ++core.retired;
            core.budget -= 1.0;
            continue;
        }
        if (!issueMemOp(id, core, core.pending, now))
            break; // structural stall (MSHRs / conflicting miss)
        ++core.retired;
        core.budget -= 1.0;
        core.hasPending = false;
    }
}

bool
CmpSystem::issueMemOp(NodeId id, Core &core, const TraceRecord &rec,
                      Cycle now)
{
    Addr block = core.l1->blockAddr(rec.addr);

    if (const Mshr *pending = findMshr(core, block)) {
        // Miss already outstanding for this block.
        if (!rec.isWrite) {
            if (static_cast<int>(core.loads.size()) >=
                core.maxOutstanding)
                return false;
            core.loads.push_back({block, core.retired});
            return true; // coalesced load
        }
        if (pending->isWrite)
            return true; // store coalesces into pending GetX
        return false;    // write after pending read: stall
    }

    CacheState state = core.l1->lookup(block);
    if (!rec.isWrite) {
        if (state != CacheState::Invalid) {
            core.l1->touch(block);
            ++core.l1Hits;
            return true;
        }
    } else {
        if (state == CacheState::Modified) {
            core.l1->touch(block);
            ++core.l1Hits;
            return true;
        }
        if (state == CacheState::Exclusive) {
            core.l1->setState(block, CacheState::Modified);
            ++core.l1Hits;
            return true;
        }
        // Shared: upgrade miss. Invalid: plain write miss.
    }

    // L1 miss: allocate an MSHR and send the request to the home bank.
    if (static_cast<int>(core.mshrs.size()) >= core.maxOutstanding)
        return false;
    if (!rec.isWrite &&
        static_cast<int>(core.loads.size()) >= core.maxOutstanding)
        return false;

    Mshr mshr;
    mshr.block = block;
    mshr.issuedAt = now;
    mshr.isWrite = rec.isWrite;
    core.mshrs.push_back(mshr);
    ++core.l1Misses;

    if (!rec.isWrite)
        core.loads.push_back({block, core.retired});

    sendMsg(id, homeTile(block), rec.isWrite ? MsgType::GetX : MsgType::GetS,
            block, id, now);
    return true;
}

void
CmpSystem::installLine(NodeId id, Core &core, Addr block, CacheState state,
                       Cycle now)
{
    Addr victim = 0;
    CacheState victim_state = CacheState::Invalid;
    if (core.l1->insert(block, state, victim, victim_state)) {
        if (victim_state == CacheState::Modified) {
            sendMsg(id, homeTile(victim), MsgType::PutM, victim, id, now);
        }
        // Exclusive/Shared victims are dropped silently; the directory
        // tolerates stale sharers/owners (see dirStartTxn).
    }
}

// ----------------------------------------------------------- messaging --

void
CmpSystem::sendMsg(NodeId src, NodeId dst, MsgType type, Addr block,
                   NodeId requester, Cycle now)
{
    Msg msg{type, block, src, requester};
    ++msgCounts_[static_cast<std::size_t>(type)];
    if (src == dst) {
        // Same-tile access: no network traversal; charge the bank
        // access latency.
        schedule(now + l2Net_, Event{dst, msg});
        return;
    }
    int flits = carriesData(msg.type) ? net_->dataPacketFlits() : 1;
    Msg *m = allocMsg(msg);
    net_->enqueuePacket(src, dst, flits, 0, m);
    ++packetsSent_;
}

void
CmpSystem::onPacketDelivered(Network &net, Packet &pkt, Cycle now)
{
    Msg *m = static_cast<Msg *>(pkt.context);
    if (!m)
        panic("CmpSystem: packet without message context");

    // Network latency accounting (Fig 11).
    std::size_t route = static_cast<std::size_t>(pkt.src) * cores_.size() +
                        static_cast<std::size_t>(pkt.dst);
    netStats_.add(net, pkt,
                  transferCycles_[route * 2 + (pkt.numFlits == 1 ? 0 : 1)]);

    // Charge the receiving controller's access latency, then handle.
    Cycle delay;
    switch (m->type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::InvAck:
      case MsgType::OwnerWb:
        delay = l2Net_;
        break;
      case MsgType::MemRead:
      case MsgType::MemWrite:
      case MsgType::MemData:
        delay = 1;
        break;
      default:
        delay = l1Net_;
        break;
    }
    schedule(now + delay, Event{pkt.dst, *m});
    freeMsg(m);
}

void
CmpSystem::handleMsg(NodeId tile, const Msg &msg, Cycle now)
{
    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::InvAck:
      case MsgType::OwnerWb:
      case MsgType::MemData:
        dirHandle(tile, msg, now);
        break;
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::UpgradeAck:
      case MsgType::Inv:
      case MsgType::FwdGetS:
      case MsgType::FwdGetX:
      case MsgType::WbAck:
        coreHandle(tile, msg, now);
        break;
      case MsgType::MemRead:
      case MsgType::MemWrite:
        mcHandle(tile, msg, now);
        break;
    }
}

// --------------------------------------------------------------- cores --

void
CmpSystem::coreHandle(NodeId tile, const Msg &msg, Cycle now)
{
    Core &core = cores_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    switch (msg.type) {
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::UpgradeAck: {
        CacheState state = msg.type == MsgType::DataS
                               ? CacheState::Shared
                               : (msg.type == MsgType::DataE
                                      ? CacheState::Exclusive
                                      : CacheState::Modified);
        installLine(tile, core, block, state, now);
        core.loads.eraseIf(
            [block](const OutstandingLoad &l) { return l.block == block; });
        if (Mshr *mshr = findMshr(core, block)) {
            roundTrip_.add(static_cast<double>(now - mshr->issuedAt) *
                           clkRatio_);
            if (mshr->invalidatedWhilePending) {
                // The data is used once (the miss that requested it)
                // and the line is dropped to respect the later
                // invalidation that overtook it in the network.
                core.l1->invalidate(block);
            }
            *mshr = core.mshrs.back();
            core.mshrs.pop_back();
        }
        break;
      }
      case MsgType::Inv: {
        if (Mshr *mshr = findMshr(core, block))
            mshr->invalidatedWhilePending = true;
        else
            core.l1->invalidate(block);
        sendMsg(tile, msg.sender, MsgType::InvAck, block, msg.requester,
                now);
        break;
      }
      case MsgType::FwdGetS: {
        // Demote to Shared and return the line to the home bank.
        CacheState st = core.l1->lookup(block);
        if (st == CacheState::Modified || st == CacheState::Exclusive)
            core.l1->setState(block, CacheState::Shared);
        sendMsg(tile, msg.sender, MsgType::OwnerWb, block, msg.requester,
                now);
        break;
      }
      case MsgType::FwdGetX: {
        core.l1->invalidate(block);
        sendMsg(tile, msg.sender, MsgType::OwnerWb, block, msg.requester,
                now);
        break;
      }
      case MsgType::WbAck: // the PutM landed; the core keeps no state
        break;
      default:
        panic("coreHandle: unexpected message type %d",
              static_cast<int>(msg.type));
    }
}

// ----------------------------------------------------------- directory --

void
CmpSystem::dirHandle(NodeId tile, const Msg &msg, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    switch (msg.type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
        dirStartTxn(tile, msg, now);
        break;
      case MsgType::InvAck: {
        Txn *txn = bank.busy.find(block);
        if (!txn)
            break; // ack for an already-satisfied (stale-sharer) inv
        if (--txn->pendingInvAcks <= 0)
            dirRespond(tile, block, *txn, now);
        break;
      }
      case MsgType::OwnerWb: {
        // Fill the L2 with the owner's (possibly dirty) line.
        fillL2(tile, block, CacheState::Modified, now);
        if (Txn *txn = bank.busy.find(block)) {
            txn->waitingOwner = false;
            dirRespond(tile, block, *txn, now);
        }
        break;
      }
      case MsgType::MemData: {
        fillL2(tile, block, CacheState::Shared, now);
        if (Txn *txn = bank.busy.find(block)) {
            txn->waitingMem = false;
            dirRespond(tile, block, *txn, now);
        }
        break;
      }
      default:
        panic("dirHandle: unexpected message type %d",
              static_cast<int>(msg.type));
    }
}

void
CmpSystem::fillL2(NodeId tile, Addr block, CacheState state, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Addr victim = 0;
    CacheState vstate = CacheState::Invalid;
    if (bank.l2->insert(block, state, victim, vstate) &&
        vstate == CacheState::Modified)
        sendMsg(tile, mcForBlock(victim, config_.blockBytes, mcTiles_),
                MsgType::MemWrite, victim, tile, now);
}

void
CmpSystem::dirStartTxn(NodeId tile, const Msg &msg, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    Addr block = msg.block;

    if (Txn *busy = bank.busy.find(block)) {
        busy->deferred.push(bank.deferredPool, msg);
        return;
    }

    if (msg.type == MsgType::PutM) {
        // Writebacks complete immediately (no transaction).
        DirEntry *owned = bank.dir.find(block);
        if (owned && owned->owner == msg.sender) {
            fillL2(tile, block, CacheState::Modified, now);
            owned->sharers.clear(bank.sharerPool);
            bank.dir.erase(block);
        }
        // Stale PutM (owner changed since): data is already current.
        sendMsg(tile, msg.sender, MsgType::WbAck, block, msg.sender, now);
        return;
    }

    Txn txn;
    txn.req = msg.type;
    txn.requester = msg.sender;

    // Creates an Uncached entry if new.
    DirEntry &entry = bank.dir.findOrInsert(block);

    // A silently-dropped Exclusive line can leave the requester itself
    // registered as owner: treat as unowned.
    if (entry.owner == txn.requester)
        entry.setOwner(INVALID_NODE);

    if (msg.type == MsgType::GetS) {
        if (entry.owned()) {
            txn.waitingOwner = true;
            sendMsg(tile, entry.owner, MsgType::FwdGetS, block,
                    txn.requester, now);
        } else if (bank.l2->lookup(block) == CacheState::Invalid) {
            txn.waitingMem = true;
            sendMsg(tile, mcForBlock(block, config_.blockBytes, mcTiles_),
                    MsgType::MemRead, block, tile, now);
        } else {
            bank.l2->touch(block);
        }
    } else { // GetX
        txn.upgrade = entry.sharers.contains(bank.sharerPool,
                                             txn.requester);
        if (entry.owned()) {
            txn.waitingOwner = true;
            sendMsg(tile, entry.owner, MsgType::FwdGetX, block,
                    txn.requester, now);
        } else {
            // Fan-out in sharer insertion order (the order is visible
            // in message timing).
            entry.sharers.forEach(bank.sharerPool, [&](NodeId s) {
                if (s == txn.requester)
                    return;
                ++txn.pendingInvAcks;
                sendMsg(tile, s, MsgType::Inv, block, txn.requester, now);
            });
            if (!txn.upgrade &&
                bank.l2->lookup(block) == CacheState::Invalid) {
                txn.waitingMem = true;
                sendMsg(tile,
                        mcForBlock(block, config_.blockBytes, mcTiles_),
                        MsgType::MemRead, block, tile, now);
            }
        }
    }

    Txn &live = bank.busy.findOrInsert(block);
    live = txn;
    dirRespond(tile, block, live, now);
}

void
CmpSystem::dirRespond(NodeId tile, Addr block, Txn &txn, Cycle now)
{
    if (txn.waitingMem || txn.waitingOwner || txn.pendingInvAcks > 0)
        return;

    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    DirEntry &entry = bank.dir.findOrInsert(block);

    MsgType type;
    if (txn.req == MsgType::GetS) {
        bool was_owned = entry.owned();
        if (entry.sharers.empty() && !was_owned) {
            // First reader gets Exclusive (the E of MESI).
            type = MsgType::DataE;
            entry.setOwner(txn.requester);
        } else {
            type = MsgType::DataS;
            if (was_owned) {
                // Owner was demoted by FwdGetS.
                entry.sharers.append(bank.sharerPool, entry.owner);
                entry.setOwner(INVALID_NODE);
            }
            if (!entry.sharers.contains(bank.sharerPool, txn.requester))
                entry.sharers.append(bank.sharerPool, txn.requester);
        }
    } else { // GetX
        type = txn.upgrade ? MsgType::UpgradeAck : MsgType::DataM;
        entry.sharers.clear(bank.sharerPool);
        entry.setOwner(txn.requester);
    }

    sendMsg(tile, txn.requester, type, block, txn.requester, now);
    dirFinishTxn(tile, block, now);
}

void
CmpSystem::dirFinishTxn(NodeId tile, Addr block, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    const Txn *txn = bank.busy.find(block);
    if (!txn)
        return;
    MsgFifo deferred = txn->deferred;
    bank.busy.erase(block);
    // Replay deferred requests in arrival order; each may re-block.
    deferred.drain(bank.deferredPool,
                   [&](const Msg &m) { dirStartTxn(tile, m, now); });
}

// -------------------------------------------------------------- memory --

void
CmpSystem::mcHandle(NodeId tile, const Msg &msg, Cycle now)
{
    (void)now;
    MemController &mc = mcs_[static_cast<std::size_t>(tile)];
    if (!mc.present)
        panic("memory message at tile %d without a controller", tile);
    if (msg.type == MsgType::MemRead)
        mc.queue.push(mcPool_, msg);
    // MemWrite is absorbed (write drains modeled as free).
}

MemoryAudit
CmpSystem::memoryAudit() const
{
    MemoryAudit a = net_->memoryAudit();

    std::uint64_t b = 0;
    std::uint64_t n = 0;
    for (const Core &c : cores_) {
        if (c.l1) {
            b += c.l1->footprintBytes();
            ++n;
        }
    }
    a.add("l1_caches", b, n);

    b = 0;
    n = 0;
    for (const Bank &bank : banks_) {
        if (bank.l2) {
            b += bank.l2->footprintBytes();
            ++n;
        }
    }
    a.add("l2_banks", b, n);

    // Full-map MESI directory: the table slots of every bank plus the
    // pooled sharer chunks of lines with more than two sharers — the
    // O(tiles) part, the scaling blocker this audit exists to measure.
    // Both are counted exactly from capacity.
    std::uint64_t entries = 0;
    b = 0;
    for (const Bank &bank : banks_) {
        b += bank.dir.footprintBytes() + bank.sharerPool.footprintBytes();
        entries += bank.dir.size();
    }
    a.add("mesi_directory", b, entries);

    b = 0;
    std::uint64_t txns = 0;
    for (const Bank &bank : banks_) {
        b += bank.busy.footprintBytes() +
             bank.deferredPool.footprintBytes();
        txns += bank.busy.size();
    }
    a.add("directory_txns", b, txns);

    a.add("msg_arena",
          msgArena_.size() * sizeof(Msg) +
              msgFree_.capacity() * sizeof(Msg *),
          msgArena_.size());

    // The controller-event calendar (bucket heads and the shared node
    // pool), the memory-controller queues' shared node pool and the
    // transfer-time table.
    b = calendar_.capacity() * sizeof(PoolFifo<Event>) +
        eventPool_.footprintBytes() + mcPool_.footprintBytes() +
        transferCycles_.capacity() * sizeof(Cycle);
    a.add("cmp_queues", b, calendar_.size() + mcTiles_.size() + 1);
    return a;
}

} // namespace hnoc
