/**
 * @file
 * Two-level directory-based MESI protocol messages (Table 2(a)).
 *
 * All requests and responses are modeled as network packets: control
 * messages are single-flit address packets; data messages carry a
 * 1024 b cache line (6 flits baseline / 8 flits HeteroNoC). The
 * directory lives at the home L2 bank and is blocking: one outstanding
 * transaction per block, conflicting requests queue at the directory.
 * Endpoints always consume arriving messages (see DESIGN.md §3 on
 * protocol-deadlock avoidance).
 */

#ifndef HNOC_SYS_PROTOCOL_HH
#define HNOC_SYS_PROTOCOL_HH

#include <cstdint>

#include "common/types.hh"

namespace hnoc
{

/** Coherence / memory message kinds. */
enum class MsgType : std::uint8_t
{
    // Core (L1) -> home directory.
    GetS,    ///< read miss
    GetX,    ///< write miss / upgrade
    PutM,    ///< dirty writeback (data)

    // Directory -> cores.
    DataS,   ///< shared data response (data)
    DataE,   ///< exclusive clean data response (data)
    DataM,   ///< exclusive data response after invalidations (data)
    UpgradeAck, ///< GetX grant when the requester already held S (1 flit)
    Inv,     ///< invalidate a sharer
    FwdGetS, ///< forward read to the owner
    FwdGetX, ///< forward write to the owner
    WbAck,   ///< writeback acknowledged

    // Cores -> directory.
    InvAck,  ///< invalidation acknowledged
    OwnerWb, ///< owner's data returned on a forward (data)

    // Directory <-> memory controller.
    MemRead, ///< L2 miss fetch
    MemWrite,///< L2 dirty eviction (data)
    MemData, ///< DRAM response (data)
};

/** @return true when the message carries a full cache line. */
constexpr bool
carriesData(MsgType t)
{
    switch (t) {
      case MsgType::PutM:
      case MsgType::DataS:
      case MsgType::DataE:
      case MsgType::DataM:
      case MsgType::OwnerWb:
      case MsgType::MemWrite:
      case MsgType::MemData:
        return true;
      default:
        return false;
    }
}

/** One in-flight protocol message (the Packet's context payload). */
struct Msg
{
    MsgType type = MsgType::GetS;
    Addr block = 0;
    NodeId sender = INVALID_NODE;    ///< tile that sent this message
    NodeId requester = INVALID_NODE; ///< original requesting tile
};

} // namespace hnoc

#endif // HNOC_SYS_PROTOCOL_HH
