#include "noc/network_interface.hh"

#include "common/logging.hh"
#include "noc/network.hh"

namespace hnoc
{

void
NetworkInterface::stepInject(Cycle now)
{
    if (!inj_)
        return;
    int lanes = inj_->lanes();
    int sent = 0;
    int vcs = vcs_;

    // The VC round-robin pointer used to advance by one every stepped
    // cycle from zero, i.e. it always equalled now % vcs; deriving it
    // from the cycle number keeps the rotation identical when idle
    // cycles are skipped.
    unsigned rr_vc =
        static_cast<unsigned>(now % static_cast<Cycle>(vcs));

    for (int k = 0; k < vcs && sent < lanes; ++k) {
        VcId vc = static_cast<VcId>((rr_vc + static_cast<unsigned>(k)) %
                                    static_cast<unsigned>(vcs));
        Stream &s = streams_[static_cast<std::size_t>(vc)];
        if (!s.pkt) {
            if (queueHead_ == nullptr)
                continue;
            s.pkt = queueHead_;
            queueHead_ = queueHead_->queueNext;
            if (queueHead_ == nullptr)
                queueTail_ = nullptr;
            --queued_;
            s.nextSeq = 0;
            ++activeStreams_;
        }

        // A wide local channel (big-router node) can carry two flits
        // of the packet per cycle, mirroring in-network pairing.
        int per_vc = (lanes > 1 && intraPairing_) ? 2 : 1;
        for (int j = 0; j < per_vc && sent < lanes && s.pkt; ++j) {
            if (credits_[static_cast<std::size_t>(vc)] <= 0)
                break;
            Packet *pkt = s.pkt;
            Flit flit;
            flit.pkt = pkt;
            flit.seq = static_cast<std::uint16_t>(s.nextSeq);
            flit.vc = vc;
            if (pkt->numFlits == 1)
                flit.type = FlitType::HeadTail;
            else if (s.nextSeq == 0)
                flit.type = FlitType::Head;
            else if (s.nextSeq == pkt->numFlits - 1)
                flit.type = FlitType::Tail;
            else
                flit.type = FlitType::Body;

            if (s.nextSeq == 0) {
                pkt->injectedAt = now;
                if (Probe *pr = probe())
                    pr->launch(now, *pkt, vc);
            }

            --credits_[static_cast<std::size_t>(vc)];
            inj_->sendFlit(flit, now);
            if (linkActivity_)
                linkActivity_->linkBitTraversals +=
                    inj_->widthBits() / inj_->lanes();
            ++sent;
            ++s.nextSeq;
            if (s.nextSeq >= pkt->numFlits) {
                s.pkt = nullptr;
                s.nextSeq = 0;
                --activeStreams_;
            }
        }
    }
}

Packet *
NetworkInterface::receiveFlit(const Flit &flit, Cycle now)
{
    // Immediately return the credit: the sink always consumes.
    if (ej_)
        ej_->sendCredit(flit.vc, now);
    if (flit.isTail()) {
        flit.pkt->ejectedAt = now;
        return flit.pkt;
    }
    return nullptr;
}

} // namespace hnoc
