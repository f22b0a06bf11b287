/**
 * @file
 * Flit-level trace: follow one packet hop by hop through the
 * Diagonal+BL network (with background traffic), then print per-hop
 * residency statistics. Both come from the trace that FlitTrace
 * renders out of a FlightRecorder ring after the run. Demonstrates
 * the recorder/trace API and the table-routing path shapes of
 * Fig 14(a).
 *
 *   ./examples/flit_trace [src=0] [dst=55]
 */

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/rng.hh"
#include "common/stats.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "telemetry/trace.hh"

using namespace hnoc;

int
main(int argc, char **argv)
{
    NodeId src = argc > 1 ? std::atoi(argv[1]) : 0;
    NodeId dst = argc > 2 ? std::atoi(argv[2]) : 55;

    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.routing = RoutingMode::TableXY;
    cfg.tableRoutedNodes = {0, 7, 56, 63};

    Network net(cfg);
    FlightRecorder recorder(FlitTrace::kRingCapacity);
    net.attachFlightRecorder(&recorder);

    // Background load so the trace shows real contention.
    Rng rng(42);
    for (Cycle t = 0; t < 500; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.02) {
                auto d = static_cast<NodeId>(rng.below(63));
                if (d >= n)
                    ++d;
                net.enqueuePacket(n, d, cfg.dataPacketFlits());
            }
        }
        net.step();
    }

    std::printf("tracing a data packet %d -> %d (table routing; big "
                "routers on the diagonals):\n", src, dst);
    PacketId watched =
        net.enqueuePacket(src, dst, cfg.dataPacketFlits())->id;
    Cycle start = net.now();
    net.run(500);

    FlitTrace trace(recorder);
    std::vector<bool> big = bigRouterMask(LayoutKind::DiagonalBL, 8);
    RunningStat residency;
    for (const FlitTrace::PacketRecord &p : trace.packets()) {
        for (const FlitTrace::HopRecord &h : p.hops) {
            if (h.depart == CYCLE_NEVER)
                continue;
            residency.add(static_cast<double>(h.depart - h.arrive));
            if (p.id != watched)
                continue;
            std::printf("  cycle %5llu  arrive router %2d (%s) port %d "
                        "vc %d, depart cycle %5llu\n",
                        static_cast<unsigned long long>(h.arrive),
                        h.router,
                        big[static_cast<std::size_t>(h.router)] ? "BIG  "
                                                                : "small",
                        h.inPort, h.vc,
                        static_cast<unsigned long long>(h.depart));
        }
    }

    std::printf("\npacket hops: the expected table path was:");
    for (RouterId r : net.routing().path(src, dst))
        std::printf(" %d", r);
    std::printf("\n(traced in %llu cycles)\n",
                static_cast<unsigned long long>(net.now() - start));

    std::printf("\nper-hop head-flit residency over all packets: "
                "mean %.1f cycles, p-max %.0f\n",
                residency.mean(), residency.max());
    return 0;
}
