/**
 * @file
 * Routing algorithms: deterministic X-Y (mesh), wrap-aware X-Y with
 * dateline VC classes (torus), dimension-order for the flattened
 * butterfly, and table-based routing through big routers with an X-Y
 * escape layer (case study II, §7).
 */

#ifndef HNOC_NOC_ROUTING_HH
#define HNOC_NOC_ROUTING_HH

#include <memory>
#include <vector>

#include "noc/flit.hh"
#include "noc/network_config.hh"
#include "noc/topology.hh"

namespace hnoc
{

/** One hop of a route: a router and the output port it forwards on
 *  (at the last hop, the destination node's local port). */
struct RouteHop
{
    RouterId router = INVALID_ROUTER;
    PortId port = INVALID_PORT;
};

/**
 * A routing algorithm maps (current router, packet) to an output port
 * and an admissible VC range at that output. Stateless with respect to
 * the packet except for fields stored in Packet itself (escaped flag).
 */
class RoutingAlgorithm
{
  public:
    virtual ~RoutingAlgorithm() = default;

    /** Factory: picks the algorithm for @p config / @p topo. */
    static std::unique_ptr<RoutingAlgorithm>
    create(const NetworkConfig &config, const Topology &topo);

    /**
     * @return the output port for @p pkt at router @p r (the local port
     * of the destination when @p r is the destination router).
     */
    virtual PortId outputPort(RouterId r, const Packet &pkt) const = 0;

    /**
     * Admissible VC range [lo, hi] on @p out for @p pkt, given the
     * downstream VC count @p down_vcs. Defaults to all VCs.
     */
    virtual void
    vcBounds(RouterId r, PortId out, const Packet &pkt, int down_vcs,
             VcId &lo, VcId &hi) const
    {
        (void)r;
        (void)out;
        (void)pkt;
        lo = 0;
        hi = down_vcs - 1;
    }

    /**
     * @return true when @p pkt may fall back to the X-Y escape layer if
     * its head stalls (table-routed packets only).
     */
    virtual bool
    hasEscape(const Packet &pkt) const
    {
        (void)pkt;
        return false;
    }

    /** @return the router sequence @p src's packets traverse to @p dst. */
    std::vector<RouterId>
    path(NodeId src, NodeId dst) const
    {
        std::vector<RouteHop> hops;
        fillPath(src, dst, hops);
        std::vector<RouterId> routers;
        routers.reserve(hops.size());
        for (const RouteHop &h : hops)
            routers.push_back(h.router);
        return routers;
    }

    /** The hops of path() into @p hops, reusing its storage. The
     *  default walks outputPort() from the source router. */
    virtual void fillPath(NodeId src, NodeId dst,
                          std::vector<RouteHop> &hops) const;

  protected:
    RoutingAlgorithm(const NetworkConfig &config, const Topology &topo)
        : config_(config), topo_(topo)
    {}

    /** fillPath()'s walk for a packet like @p probe. */
    void walkPath(const Packet &probe, std::vector<RouteHop> &hops) const;

    const NetworkConfig &config_;
    const Topology &topo_;
};

/** Deterministic dimension-order X-Y routing on a grid. */
class XYRouting : public RoutingAlgorithm
{
  public:
    XYRouting(const NetworkConfig &config, const Topology &topo)
        : RoutingAlgorithm(config, topo)
    {}

    PortId outputPort(RouterId r, const Packet &pkt) const override;

    /** The X run, then the Y run, without a per-hop outputPort(). */
    void fillPath(NodeId src, NodeId dst,
                  std::vector<RouteHop> &hops) const override;
};

/** Deterministic dimension-order Y-X routing (column first). */
class YXRouting : public RoutingAlgorithm
{
  public:
    YXRouting(const NetworkConfig &config, const Topology &topo)
        : RoutingAlgorithm(config, topo)
    {}

    PortId outputPort(RouterId r, const Packet &pkt) const override;
};

/**
 * O1TURN (Seo et al.): each packet routes X-Y or Y-X, chosen at
 * injection; the two dimension orders use disjoint VC classes (lower
 * half X-Y, upper half Y-X), which keeps each class deadlock-free.
 * Near-optimal worst-case throughput on a mesh.
 */
class O1TurnRouting : public RoutingAlgorithm
{
  public:
    O1TurnRouting(const NetworkConfig &config, const Topology &topo);

    PortId outputPort(RouterId r, const Packet &pkt) const override;

    void vcBounds(RouterId r, PortId out, const Packet &pkt, int down_vcs,
                  VcId &lo, VcId &hi) const override;

  private:
    XYRouting xy_;
    YXRouting yx_;
};

/** Wrap-aware X-Y on a torus with dateline VC classes. */
class TorusXYRouting : public RoutingAlgorithm
{
  public:
    TorusXYRouting(const NetworkConfig &config, const Topology &topo);

    PortId outputPort(RouterId r, const Packet &pkt) const override;

    void vcBounds(RouterId r, PortId out, const Packet &pkt, int down_vcs,
                  VcId &lo, VcId &hi) const override;

  private:
    /** Shortest direction (+1/-1, wrap aware) from @p from to @p to. */
    static int shortestDir(int from, int to, int k);
};

/** Dimension-order (row then column) routing on a flattened butterfly. */
class FlatFlyRouting : public RoutingAlgorithm
{
  public:
    FlatFlyRouting(const NetworkConfig &config, const Topology &topo)
        : RoutingAlgorithm(config, topo)
    {}

    PortId outputPort(RouterId r, const Packet &pkt) const override;
};

/**
 * Table-based routing for traffic to/from designated nodes (the large
 * cores of case study II), maximizing big-router usage via weighted
 * shortest paths; everything else, and escaped packets, use X-Y.
 * VC 0 is the escape layer: table-routed packets are confined to
 * VCs >= 1 until they escape.
 */
class TableXYRouting : public RoutingAlgorithm
{
  public:
    TableXYRouting(const NetworkConfig &config, const Topology &topo);

    PortId outputPort(RouterId r, const Packet &pkt) const override;

    void vcBounds(RouterId r, PortId out, const Packet &pkt, int down_vcs,
                  VcId &lo, VcId &hi) const override;

    bool
    hasEscape(const Packet &pkt) const override
    {
        return pkt.tableRouted && !pkt.escaped;
    }

    /** X-Y port used by the escape layer. */
    PortId escapePort(RouterId r, const Packet &pkt) const;

    void fillPath(NodeId src, NodeId dst,
                  std::vector<RouteHop> &hops) const override;

    /** @return true when node @p n is table-routed (a large core). */
    bool isTableNode(NodeId n) const;

  private:
    /** Build per-destination next-hop tables via weighted Dijkstra. */
    void buildTables();

    /** Dijkstra next-hop tree toward @p dst_router. */
    std::vector<PortId> towardTree(RouterId dst_router) const;

    XYRouting xy_;
    /** tableToward_[i][r] = port at router r toward special table dst i;
     *  used when the packet's src or dst is a table node (the weighted
     *  tree toward any destination router). Indexed [dstRouter][router].
     */
    std::vector<std::vector<PortId>> toward_;
    std::vector<bool> isTableNode_;
};

} // namespace hnoc

#endif // HNOC_NOC_ROUTING_HH
