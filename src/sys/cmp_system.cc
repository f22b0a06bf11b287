#include "sys/cmp_system.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace hnoc
{

CmpSystem::CmpSystem(const NetworkConfig &net_config,
                     const CmpConfig &config)
    : config_(config), net_(std::make_unique<Network>(net_config))
{
    net_->setClient(this);
    clkRatio_ = config_.coreClockGHz / net_->clockGHz();

    int nodes = net_->topology().numNodes();
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

        banks_[static_cast<std::size_t>(n)].l2 =
            std::make_unique<CacheArray>(config_.l2BankBytes,
                                         config_.l2Ways,
                                         config_.blockBytes);
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
    Addr victim = 0;
    CacheState vstate = CacheState::Invalid;
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
            Bank &bank = banks_[static_cast<std::size_t>(
                homeTile(block))];
            bank.l2->insert(block, CacheState::Shared, victim, vstate);
            DirEntry &entry = bank.dir[block];
            if (rec.isWrite) {
                for (NodeId s : entry.sharers)
                    cores_[static_cast<std::size_t>(s)].l1->invalidate(
                        block);
                if (entry.exclusive && entry.owner != INVALID_NODE &&
                    entry.owner != static_cast<NodeId>(n))
                    cores_[static_cast<std::size_t>(entry.owner)]
                        .l1->invalidate(block);
                entry.sharers.clear();
                entry.exclusive = true;
                entry.owner = static_cast<NodeId>(n);
                core.l1->insert(block, CacheState::Modified, victim,
                                vstate);
            } else {
                if (entry.exclusive &&
                    entry.owner != static_cast<NodeId>(n)) {
                    if (entry.owner != INVALID_NODE) {
                        Core &oc = cores_[static_cast<std::size_t>(
                            entry.owner)];
                        if (oc.l1->lookup(block) != CacheState::Invalid)
                            oc.l1->setState(block, CacheState::Shared);
                        entry.sharers.push_back(entry.owner);
                    }
                    entry.exclusive = false;
                    entry.owner = INVALID_NODE;
                }
                if (core.l1->lookup(block) == CacheState::Invalid) {
                    bool first = entry.sharers.empty() &&
                                 !entry.exclusive;
                    if (first) {
                        entry.exclusive = true;
                        entry.owner = static_cast<NodeId>(n);
                        core.l1->insert(block, CacheState::Exclusive,
                                        victim, vstate);
                    } else {
                        if (std::find(entry.sharers.begin(),
                                      entry.sharers.end(),
                                      static_cast<NodeId>(n)) ==
                            entry.sharers.end())
                            entry.sharers.push_back(
                                static_cast<NodeId>(n));
                        core.l1->insert(block, CacheState::Shared,
                                        victim, vstate);
                    }
                } else {
                    core.l1->touch(block);
                }
            }
        }
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
    Addr blk = block / static_cast<Addr>(config_.blockBytes);
    // Fold in high bits so private regions spread over all banks.
    Addr mixed = blk ^ (blk >> 12) ^ (blk >> 28);
    return static_cast<NodeId>(
        mixed % static_cast<Addr>(cores_.size()));
}

Msg *
CmpSystem::allocMsg(const Msg &proto)
{
    Msg *m;
    if (!msgFree_.empty()) {
        m = msgFree_.back();
        msgFree_.pop_back();
    } else {
        msgArena_.push_back(std::make_unique<Msg>());
        m = msgArena_.back().get();
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
    // 1. Deliver due controller events.
    while (!events_.empty() && events_.begin()->first <= now) {
        Event ev = events_.begin()->second;
        events_.erase(events_.begin());
        if (ev.isSend)
            sendMsg(ev.msg.sender, ev.tile, ev.msg.type, ev.msg.block,
                    ev.msg.requester, now);
        else
            handleMsg(ev.tile, ev.msg, now);
    }

    // 2. Memory-controller service: start DRAM accesses.
    for (NodeId t : mcTiles_) {
        MemController &mc = mcs_[static_cast<std::size_t>(t)];
        while (!mc.queue.empty() && now >= mc.nextFree) {
            Msg req = mc.queue.front();
            mc.queue.pop_front();
            mc.nextFree = now + static_cast<Cycle>(
                config_.mcServiceInterval);
            // DRAM access completes after the access latency; then the
            // data packet is sent back to the home bank.
            Event ev;
            ev.tile = req.requester; // home tile
            ev.msg = {MsgType::MemData, req.block, t, req.requester};
            ev.isSend = true;
            events_.emplace(now + coreToNet(config_.dramLatencyCoreCycles),
                            ev);
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

    auto mshr_it = core.mshrs.find(block);
    if (mshr_it != core.mshrs.end()) {
        // Miss already outstanding for this block.
        if (!rec.isWrite) {
            if (static_cast<int>(core.loads.size()) >=
                core.maxOutstanding)
                return false;
            core.loads.push_back({block, core.retired});
            return true; // coalesced load
        }
        if (mshr_it->second.isWrite)
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
    mshr.isWrite = rec.isWrite;
    mshr.issuedAt = now;
    core.mshrs.emplace(block, mshr);
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

void
CmpSystem::completeLoads(NodeId id, Core &core, Addr block, Cycle now)
{
    (void)id;
    for (auto it = core.loads.begin(); it != core.loads.end();) {
        if (it->block == block)
            it = core.loads.erase(it);
        else
            ++it;
    }
    auto mshr_it = core.mshrs.find(block);
    if (mshr_it != core.mshrs.end()) {
        roundTrip_.add(static_cast<double>(now - mshr_it->second.issuedAt) *
                       clkRatio_);
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
        events_.emplace(now + coreToNet(config_.l2LatencyCoreCycles),
                        Event{dst, msg});
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
    netStats_.add(net, pkt);

    // Charge the receiving controller's access latency, then handle.
    Cycle delay;
    switch (m->type) {
      case MsgType::GetS:
      case MsgType::GetX:
      case MsgType::PutM:
      case MsgType::InvAck:
      case MsgType::OwnerWb:
        delay = coreToNet(config_.l2LatencyCoreCycles);
        break;
      case MsgType::MemRead:
      case MsgType::MemWrite:
      case MsgType::MemData:
        delay = 1;
        break;
      default:
        delay = coreToNet(config_.l1LatencyCoreCycles);
        break;
    }
    events_.emplace(now + delay, Event{pkt.dst, *m});
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
        completeLoads(tile, core, block, now);
        auto it = core.mshrs.find(block);
        if (it != core.mshrs.end()) {
            if (it->second.invalidatedWhilePending) {
                // The data is used once (the miss that requested it)
                // and the line is dropped to respect the later
                // invalidation that overtook it in the network.
                core.l1->invalidate(block);
            }
            core.mshrs.erase(it);
        }
        break;
      }
      case MsgType::Inv: {
        auto it = core.mshrs.find(block);
        if (it != core.mshrs.end())
            it->second.invalidatedWhilePending = true;
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
        auto it = bank.busy.find(block);
        if (it == bank.busy.end())
            break; // ack for an already-satisfied (stale-sharer) inv
        if (--it->second.pendingInvAcks <= 0)
            dirRespond(tile, block, it->second, now);
        break;
      }
      case MsgType::OwnerWb: {
        // Fill the L2 with the owner's (possibly dirty) line.
        fillL2(tile, block, CacheState::Modified, now);
        auto it = bank.busy.find(block);
        if (it != bank.busy.end()) {
            it->second.waitingOwner = false;
            dirRespond(tile, block, it->second, now);
        }
        break;
      }
      case MsgType::MemData: {
        fillL2(tile, block, CacheState::Shared, now);
        auto it = bank.busy.find(block);
        if (it != bank.busy.end()) {
            it->second.waitingMem = false;
            dirRespond(tile, block, it->second, now);
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

    auto busy_it = bank.busy.find(block);
    if (busy_it != bank.busy.end()) {
        busy_it->second.deferred.push_back(msg);
        return;
    }

    if (msg.type == MsgType::PutM) {
        // Writebacks complete immediately (no transaction).
        auto dir_it = bank.dir.find(block);
        if (dir_it != bank.dir.end() && dir_it->second.exclusive &&
            dir_it->second.owner == msg.sender) {
            fillL2(tile, block, CacheState::Modified, now);
            bank.dir.erase(dir_it);
        }
        // Stale PutM (owner changed since): data is already current.
        sendMsg(tile, msg.sender, MsgType::WbAck, block, msg.sender, now);
        return;
    }

    Txn txn;
    txn.req = msg.type;
    txn.requester = msg.sender;

    DirEntry &entry = bank.dir[block]; // creates Uncached entry if new

    // A silently-dropped Exclusive line can leave the requester itself
    // registered as owner: treat as unowned.
    if (entry.exclusive && entry.owner == txn.requester) {
        entry.exclusive = false;
        entry.owner = INVALID_NODE;
    }

    if (msg.type == MsgType::GetS) {
        if (entry.exclusive) {
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
        txn.upgrade =
            std::find(entry.sharers.begin(), entry.sharers.end(),
                      txn.requester) != entry.sharers.end();
        if (entry.exclusive) {
            txn.waitingOwner = true;
            sendMsg(tile, entry.owner, MsgType::FwdGetX, block,
                    txn.requester, now);
        } else {
            for (NodeId s : entry.sharers) {
                if (s == txn.requester)
                    continue;
                ++txn.pendingInvAcks;
                sendMsg(tile, s, MsgType::Inv, block, txn.requester, now);
            }
            if (!txn.upgrade &&
                bank.l2->lookup(block) == CacheState::Invalid) {
                txn.waitingMem = true;
                sendMsg(tile,
                        mcForBlock(block, config_.blockBytes, mcTiles_),
                        MsgType::MemRead, block, tile, now);
            }
        }
    }

    auto [it, inserted] = bank.busy.emplace(block, std::move(txn));
    (void)inserted;
    dirRespond(tile, block, it->second, now);
}

void
CmpSystem::dirRespond(NodeId tile, Addr block, Txn &txn, Cycle now)
{
    if (txn.waitingMem || txn.waitingOwner || txn.pendingInvAcks > 0)
        return;

    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    DirEntry &entry = bank.dir[block];

    MsgType type;
    if (txn.req == MsgType::GetS) {
        bool was_owned = entry.exclusive;
        if (entry.sharers.empty() && !was_owned) {
            // First reader gets Exclusive (the E of MESI).
            type = MsgType::DataE;
            entry.exclusive = true;
            entry.owner = txn.requester;
        } else {
            type = MsgType::DataS;
            if (was_owned) {
                // Owner was demoted by FwdGetS.
                entry.sharers.push_back(entry.owner);
                entry.exclusive = false;
                entry.owner = INVALID_NODE;
            }
            if (std::find(entry.sharers.begin(), entry.sharers.end(),
                          txn.requester) == entry.sharers.end())
                entry.sharers.push_back(txn.requester);
        }
    } else { // GetX
        type = txn.upgrade ? MsgType::UpgradeAck : MsgType::DataM;
        entry.sharers.clear();
        entry.exclusive = true;
        entry.owner = txn.requester;
    }

    sendMsg(tile, txn.requester, type, block, txn.requester, now);
    dirFinishTxn(tile, block, now);
}

void
CmpSystem::dirFinishTxn(NodeId tile, Addr block, Cycle now)
{
    Bank &bank = banks_[static_cast<std::size_t>(tile)];
    auto it = bank.busy.find(block);
    if (it == bank.busy.end())
        return;
    std::vector<Msg> deferred = std::move(it->second.deferred);
    bank.busy.erase(it);
    // Replay deferred requests in arrival order; each may re-block.
    for (const Msg &m : deferred)
        dirStartTxn(tile, m, now);
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
        mc.queue.push_back(msg);
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

    // Full-map MESI directory: per tracked line one hash node (key +
    // DirEntry + bucket links) plus the sharers vector, whose
    // capacity grows toward O(tiles) per widely shared line — the
    // scaling blocker this audit exists to measure. Hash-node
    // overhead is estimated at two pointers per node (libstdc++
    // layout); bucket arrays are counted exactly.
    std::uint64_t entries = 0;
    b = 0;
    for (const Bank &bank : banks_) {
        b += bank.dir.bucket_count() * sizeof(void *);
        for (const auto &kv : bank.dir) {
            b += sizeof(kv) + 2 * sizeof(void *);
            b += kv.second.sharers.capacity() * sizeof(NodeId);
            ++entries;
        }
    }
    a.add("mesi_directory", b, entries);

    b = 0;
    std::uint64_t txns = 0;
    for (const Bank &bank : banks_) {
        b += bank.busy.bucket_count() * sizeof(void *);
        for (const auto &kv : bank.busy) {
            b += sizeof(kv) + 2 * sizeof(void *);
            b += kv.second.deferred.size() * sizeof(Msg);
            ++txns;
        }
    }
    a.add("directory_txns", b, txns);

    a.add("msg_arena",
          msgArena_.size() * (sizeof(std::unique_ptr<Msg>) + sizeof(Msg)) +
              msgFree_.capacity() * sizeof(Msg *),
          msgArena_.size());
    return a;
}

} // namespace hnoc
