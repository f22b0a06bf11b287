/**
 * @file
 * Static configuration of a network instance: topology, router
 * provisioning (possibly per-router, i.e. heterogeneous), link widths,
 * timing. A NetworkConfig is a plain value; the HeteroNoC layout
 * builders in src/heteronoc produce these.
 */

#ifndef HNOC_NOC_NETWORK_CONFIG_HH
#define HNOC_NOC_NETWORK_CONFIG_HH

#include <algorithm>
#include <string>
#include <vector>

#include "common/types.hh"
#include "power/router_params.hh"

namespace hnoc
{

/** Supported topologies (paper Figs 1, 2, 10). */
enum class TopologyType
{
    Mesh,
    Torus,
    ConcentratedMesh,
    FlattenedButterfly,
};

/** How inter-router channel widths are derived. */
enum class LinkWidthMode
{
    /** Every channel uses uniformLinkBits (baseline and +B layouts). */
    Uniform,
    /** Channel width = max of its two endpoint routers' datapath widths
     *  (+BL layouts: wide 256 b links touch big routers, §2). */
    EndpointMax,
    /**
     * Wide links occupy a central band: the bandWideLinks rows closest
     * to the horizontal center get wide (2x flit) row links, and
     * likewise for columns — so every bisection cut crosses exactly
     * bandWideLinks wide and (radix - bandWideLinks) narrow links.
     * Used by the footnote-2 wide:narrow ratio sensitivity study.
     */
    CentralBand,
};

/** Routing algorithm selector. */
enum class RoutingMode
{
    /** Deterministic dimension-order X-Y (default everywhere). */
    XY,
    /** Deterministic Y-X (column first); useful for dimension-order
     *  sensitivity studies on grid topologies. */
    YX,
    /** O1TURN: each packet picks X-Y or Y-X at injection (packet-id
     *  parity); the VC space splits into an X-Y class (lower half)
     *  and a Y-X class (upper half) for deadlock freedom. Requires
     *  >= 2 VCs everywhere. */
    O1Turn,
    /** X-Y plus big-router-seeking table routes for marked packets,
     *  with an escape layer on VC 0 (case study II, §7). */
    TableXY,
};

/** Complete static description of one network instance. */
struct NetworkConfig
{
    std::string name = "baseline";

    TopologyType topology = TopologyType::Mesh;
    int radixX = 8;        ///< routers per row
    int radixY = 8;        ///< routers per column
    int concentration = 1; ///< terminal nodes per router

    /** Network-level flit width in bits (192 baseline/+B, 128 +BL). */
    int flitWidthBits = 192;
    /** Data (cache-line) packet payload in bits (Table 2: 1024). */
    int dataPacketBits = 1024;

    /** Per-VC FIFO depth in flits (5 across all designs, §2). */
    int bufferDepth = 5;
    /** VCs per physical channel when routerVcs is empty. */
    int defaultVcs = 3;
    /** Router datapath width when routerWidthBits is empty. */
    int defaultWidthBits = 192;

    /** Per-router VC override (size numRouters(), or empty). */
    std::vector<int> routerVcs;
    /** Per-router datapath width override (size numRouters(), or empty). */
    std::vector<int> routerWidthBits;

    LinkWidthMode linkWidthMode = LinkWidthMode::Uniform;
    int uniformLinkBits = 192;
    /** Wide links per bisection cut under CentralBand mode. */
    int bandWideLinks = 4;

    RoutingMode routing = RoutingMode::XY;
    /** Nodes whose traffic uses table routes under TableXY. */
    std::vector<NodeId> tableRoutedNodes;
    /** Cycles a table-routed head may stall before taking the escape. */
    int escapeThreshold = 16;

    /**
     * Allow two consecutive flits of one packet (same VC) to share a
     * wide link in one cycle, consuming two credits (§3.2: "the
     * downstream router now needs two credits in the upstream
     * router"). Cross-VC combining per §3.3 is always enabled.
     */
    bool intraPacketPairing = true;

    /**
     * Force the exhaustive per-cycle reference loop instead of
     * active-set scheduling. Results are bit-identical either way;
     * tests and microbenchmarks set this to A/B the scheduler.
     */
    bool alwaysStep = false;

    /**
     * Cache-blocked stepping: routers per spatial block for the
     * tile-major step order (§6g). 0 (the default) auto-sizes blocks
     * to fit a per-block working set in L2, rounded to whole mesh
     * rows; values >= numRouters() collapse to one whole-chip block.
     * Results are bit-identical for every block size.
     */
    int blockTiles = 0;

    /** Router pipeline depth in cycles (2-stage, §4). */
    int pipelineStages = 2;
    /** Channel traversal latency in cycles (must be >= 1: same-cycle
     *  delivery would break the blocked step order's determinism). */
    int linkLatency = 1;

    /** Network clock in GHz; <= 0 means "derive from the slowest
     *  router's frequency model" (§3.4 worst-case rule). */
    double clockGHz = -1.0;

    /** @return router count for the configured topology. */
    int
    numRouters() const
    {
        return radixX * radixY;
    }

    /** @return terminal node count. */
    int
    numNodes() const
    {
        return numRouters() * concentration;
    }

    /** @return VC count of router @p r. */
    int
    vcsOf(RouterId r) const
    {
        return routerVcs.empty() ? defaultVcs
                                 : routerVcs[static_cast<std::size_t>(r)];
    }

    /** @return datapath width (bits) of router @p r. */
    int
    widthOf(RouterId r) const
    {
        return routerWidthBits.empty()
                   ? defaultWidthBits
                   : routerWidthBits[static_cast<std::size_t>(r)];
    }

    /** @return width in bits of the channel between routers @p a, @p b. */
    int
    channelBits(RouterId a, RouterId b) const
    {
        switch (linkWidthMode) {
          case LinkWidthMode::Uniform:
            return uniformLinkBits;
          case LinkWidthMode::EndpointMax:
            return std::max(widthOf(a), widthOf(b));
          case LinkWidthMode::CentralBand: {
            // Row links share a row; column links share a column.
            int ya = a / radixX;
            int yb = b / radixX;
            int lane = (ya == yb) ? ya : a % radixX;
            int radix = (ya == yb) ? radixY : radixX;
            int lo = (radix - bandWideLinks) / 2;
            bool wide = lane >= lo && lane < lo + bandWideLinks;
            return wide ? 2 * flitWidthBits : flitWidthBits;
          }
        }
        return uniformLinkBits;
    }

    /** @return width in bits of router @p r's local (NI) channels. */
    int
    localChannelBits(RouterId r) const
    {
        switch (linkWidthMode) {
          case LinkWidthMode::Uniform:
            return uniformLinkBits;
          case LinkWidthMode::EndpointMax:
            return widthOf(r);
          case LinkWidthMode::CentralBand:
            return flitWidthBits;
        }
        return uniformLinkBits;
    }

    /** @return flits per data packet (6 baseline, 8 HeteroNoC+BL). */
    int
    dataPacketFlits() const
    {
        return (dataPacketBits + flitWidthBits - 1) / flitWidthBits;
    }

    /** @return power/area model parameters for router @p r. Buffer
     *  FIFOs are flit-wide regardless of crossbar width (§3.2). */
    RouterPhysParams
    physParamsOf(RouterId r, int ports) const
    {
        return RouterPhysParams{ports, vcsOf(r), bufferDepth, widthOf(r),
                                flitWidthBits};
    }
};

} // namespace hnoc

#endif // HNOC_NOC_NETWORK_CONFIG_HH
