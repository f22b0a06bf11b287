#include "noc/routing.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>

#include "common/logging.hh"

namespace hnoc
{

using namespace mesh_ports;

std::unique_ptr<RoutingAlgorithm>
RoutingAlgorithm::create(const NetworkConfig &config, const Topology &topo)
{
    if (config.routing == RoutingMode::TableXY)
        return std::make_unique<TableXYRouting>(config, topo);

    switch (config.topology) {
      case TopologyType::Mesh:
      case TopologyType::ConcentratedMesh:
        if (config.routing == RoutingMode::YX)
            return std::make_unique<YXRouting>(config, topo);
        if (config.routing == RoutingMode::O1Turn)
            return std::make_unique<O1TurnRouting>(config, topo);
        return std::make_unique<XYRouting>(config, topo);
      case TopologyType::Torus:
        return std::make_unique<TorusXYRouting>(config, topo);
      case TopologyType::FlattenedButterfly:
        return std::make_unique<FlatFlyRouting>(config, topo);
    }
    panic("RoutingAlgorithm::create: unknown topology");
}

void
RoutingAlgorithm::fillPath(NodeId src, NodeId dst,
                           std::vector<RouteHop> &hops) const
{
    Packet probe;
    probe.src = src;
    probe.dst = dst;
    walkPath(probe, hops);
}

void
RoutingAlgorithm::walkPath(const Packet &probe,
                           std::vector<RouteHop> &hops) const
{
    // Generic walk: repeatedly apply outputPort until the local port.
    hops.clear();
    RouterId r = topo_.routerOfNode(probe.src);
    int guard = topo_.numRouters() * 4;
    while (--guard > 0) {
        PortId p = outputPort(r, probe);
        hops.push_back({r, p});
        if (p >= topo_.numDirPorts())
            return; // reached the destination's local port
        const PortPeer &peer = topo_.peer(r, p);
        if (peer.router == INVALID_ROUTER)
            panic("routing walked off the topology at router %d", r);
        r = peer.router;
    }
    panic("routing loop detected between nodes %d and %d", probe.src,
          probe.dst);
}

// ---------------------------------------------------------------- XY --

PortId
XYRouting::outputPort(RouterId r, const Packet &pkt) const
{
    RouterId dr = topo_.routerOfNode(pkt.dst);
    if (r == dr)
        return topo_.localPortOfNode(pkt.dst);
    Coord cur = topo_.routerCoord(r);
    Coord dst = topo_.routerCoord(dr);
    if (cur.x < dst.x)
        return EAST;
    if (cur.x > dst.x)
        return WEST;
    return cur.y < dst.y ? SOUTH : NORTH;
}

void
XYRouting::fillPath(NodeId src, NodeId dst,
                    std::vector<RouteHop> &hops) const
{
    hops.clear();
    RouterId r = topo_.routerOfNode(src);
    Coord cur = topo_.routerCoord(r);
    Coord to = topo_.routerCoord(topo_.routerOfNode(dst));
    auto run = [&](int steps, PortId port) {
        for (int i = 0; i < steps; ++i) {
            hops.push_back({r, port});
            r = topo_.peer(r, port).router;
        }
    };
    run(std::abs(to.x - cur.x), cur.x < to.x ? EAST : WEST);
    run(std::abs(to.y - cur.y), cur.y < to.y ? SOUTH : NORTH);
    hops.push_back({r, topo_.localPortOfNode(dst)});
}

PortId
YXRouting::outputPort(RouterId r, const Packet &pkt) const
{
    RouterId dr = topo_.routerOfNode(pkt.dst);
    if (r == dr)
        return topo_.localPortOfNode(pkt.dst);
    Coord cur = topo_.routerCoord(r);
    Coord dst = topo_.routerCoord(dr);
    if (cur.y < dst.y)
        return SOUTH;
    if (cur.y > dst.y)
        return NORTH;
    return cur.x < dst.x ? EAST : WEST;
}

// ------------------------------------------------------------ O1TURN --

O1TurnRouting::O1TurnRouting(const NetworkConfig &config,
                             const Topology &topo)
    : RoutingAlgorithm(config, topo), xy_(config, topo),
      yx_(config, topo)
{
    int min_vcs = config.defaultVcs;
    for (RouterId r = 0; r < topo.numRouters(); ++r)
        min_vcs = std::min(min_vcs, config.vcsOf(r));
    if (min_vcs < 2)
        fatal("O1TURN requires >= 2 VCs per port for its two classes");
}

PortId
O1TurnRouting::outputPort(RouterId r, const Packet &pkt) const
{
    return pkt.yxRouted ? yx_.outputPort(r, pkt)
                        : xy_.outputPort(r, pkt);
}

void
O1TurnRouting::vcBounds(RouterId r, PortId out, const Packet &pkt,
                        int down_vcs, VcId &lo, VcId &hi) const
{
    (void)r;
    (void)out;
    int split = (down_vcs + 1) / 2;
    if (!pkt.yxRouted) {
        lo = 0;
        hi = split - 1;
    } else {
        lo = split;
        hi = down_vcs - 1;
    }
}

// ------------------------------------------------------------- Torus --

TorusXYRouting::TorusXYRouting(const NetworkConfig &config,
                               const Topology &topo)
    : RoutingAlgorithm(config, topo)
{
    int min_vcs = config.defaultVcs;
    for (RouterId r = 0; r < topo.numRouters(); ++r)
        min_vcs = std::min(min_vcs, config.vcsOf(r));
    if (min_vcs < 2)
        fatal("torus dateline routing requires >= 2 VCs per port");
}

int
TorusXYRouting::shortestDir(int from, int to, int k)
{
    int fwd = (to - from + k) % k; // hops going +
    int bwd = (from - to + k) % k; // hops going -
    return fwd <= bwd ? 1 : -1;
}

PortId
TorusXYRouting::outputPort(RouterId r, const Packet &pkt) const
{
    RouterId dr = topo_.routerOfNode(pkt.dst);
    if (r == dr)
        return topo_.localPortOfNode(pkt.dst);
    Coord cur = topo_.routerCoord(r);
    Coord dst = topo_.routerCoord(dr);
    if (cur.x != dst.x)
        return shortestDir(cur.x, dst.x, topo_.gridCols()) > 0 ? EAST
                                                               : WEST;
    return shortestDir(cur.y, dst.y, topo_.gridRows()) > 0 ? SOUTH : NORTH;
}

void
TorusXYRouting::vcBounds(RouterId r, PortId out, const Packet &pkt,
                         int down_vcs, VcId &lo, VcId &hi) const
{
    // Dateline scheme: packets that have crossed the wraparound edge in
    // the dimension they are currently traversing use the upper VC
    // class; others the lower class. Whether the wrap was crossed is
    // statically computable from (src, current) under deterministic
    // routing.
    (void)out;
    Coord cur = topo_.routerCoord(r);
    Coord src = topo_.routerCoord(topo_.routerOfNode(pkt.src));
    Coord dst = topo_.routerCoord(topo_.routerOfNode(pkt.dst));

    bool crossed;
    if (cur.x != dst.x) {
        int dir = shortestDir(src.x, dst.x, topo_.gridCols());
        crossed = dir > 0 ? cur.x < src.x : cur.x > src.x;
    } else {
        int dir = shortestDir(src.y, dst.y, topo_.gridRows());
        crossed = dir > 0 ? cur.y < src.y : cur.y > src.y;
    }

    int split = (down_vcs + 1) / 2; // lower class gets ceil(v/2)
    if (!crossed) {
        lo = 0;
        hi = split - 1;
    } else {
        lo = split;
        hi = down_vcs - 1;
    }
}

// ----------------------------------------------------------- FlatFly --

PortId
FlatFlyRouting::outputPort(RouterId r, const Packet &pkt) const
{
    RouterId dr = topo_.routerOfNode(pkt.dst);
    if (r == dr)
        return topo_.localPortOfNode(pkt.dst);
    Coord cur = topo_.routerCoord(r);
    Coord dst = topo_.routerCoord(dr);
    int cols = topo_.gridCols();
    if (cur.x != dst.x)
        return dst.x < cur.x ? dst.x : dst.x - 1; // row port
    return (cols - 1) + (dst.y < cur.y ? dst.y : dst.y - 1); // col port
}

// ----------------------------------------------------------- TableXY --

TableXYRouting::TableXYRouting(const NetworkConfig &config,
                               const Topology &topo)
    : RoutingAlgorithm(config, topo), xy_(config, topo),
      isTableNode_(static_cast<std::size_t>(topo.numNodes()), false)
{
    for (NodeId n : config.tableRoutedNodes) {
        if (n < 0 || n >= topo.numNodes())
            fatal("tableRoutedNodes contains invalid node %d", n);
        isTableNode_[static_cast<std::size_t>(n)] = true;
    }
    buildTables();
}

bool
TableXYRouting::isTableNode(NodeId n) const
{
    return isTableNode_[static_cast<std::size_t>(n)];
}

void
TableXYRouting::buildTables()
{
    toward_.resize(static_cast<std::size_t>(topo_.numRouters()));
    for (RouterId d = 0; d < topo_.numRouters(); ++d)
        toward_[static_cast<std::size_t>(d)] = towardTree(d);
}

std::vector<PortId>
TableXYRouting::towardTree(RouterId dst_router) const
{
    // Dijkstra on the router graph toward dst_router. Entering a big
    // router (more VCs than the network minimum) costs less, which
    // biases paths through the big routers, producing the zig-zag
    // X-Y-X-Y paths of Fig 14(a).
    int n = topo_.numRouters();
    int min_vcs = config_.vcsOf(0);
    for (RouterId r = 1; r < n; ++r)
        min_vcs = std::min(min_vcs, config_.vcsOf(r));
    auto enter_cost = [&](RouterId r) {
        return config_.vcsOf(r) > min_vcs ? 0.55 : 1.0;
    };

    std::vector<double> dist(static_cast<std::size_t>(n),
                             std::numeric_limits<double>::infinity());
    std::vector<PortId> port(static_cast<std::size_t>(n), INVALID_PORT);
    using Item = std::pair<double, RouterId>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    dist[static_cast<std::size_t>(dst_router)] = 0.0;
    heap.emplace(0.0, dst_router);

    while (!heap.empty()) {
        auto [d, r] = heap.top();
        heap.pop();
        if (d > dist[static_cast<std::size_t>(r)])
            continue;
        // Relax incoming edges: a neighbor q reaching dst via r uses
        // the port at q that leads to r.
        for (PortId p = 0; p < topo_.numDirPorts(); ++p) {
            const PortPeer &peer = topo_.peer(r, p);
            if (peer.router == INVALID_ROUTER)
                continue;
            RouterId q = peer.router;
            double nd = d + enter_cost(r);
            if (nd < dist[static_cast<std::size_t>(q)] - 1e-12) {
                dist[static_cast<std::size_t>(q)] = nd;
                port[static_cast<std::size_t>(q)] = peer.port;
                heap.emplace(nd, q);
            }
        }
    }
    return port;
}

PortId
TableXYRouting::outputPort(RouterId r, const Packet &pkt) const
{
    if (!pkt.tableRouted || pkt.escaped)
        return xy_.outputPort(r, pkt);
    RouterId dr = topo_.routerOfNode(pkt.dst);
    if (r == dr)
        return topo_.localPortOfNode(pkt.dst);
    PortId p = toward_[static_cast<std::size_t>(dr)]
                      [static_cast<std::size_t>(r)];
    if (p == INVALID_PORT)
        return xy_.outputPort(r, pkt);
    return p;
}

PortId
TableXYRouting::escapePort(RouterId r, const Packet &pkt) const
{
    return xy_.outputPort(r, pkt);
}

void
TableXYRouting::vcBounds(RouterId r, PortId out, const Packet &pkt,
                         int down_vcs, VcId &lo, VcId &hi) const
{
    (void)r;
    (void)out;
    if (pkt.tableRouted && !pkt.escaped && down_vcs > 1) {
        // Keep VC 0 as the X-Y escape layer.
        lo = 1;
        hi = down_vcs - 1;
    } else {
        lo = 0;
        hi = down_vcs - 1;
    }
}

void
TableXYRouting::fillPath(NodeId src, NodeId dst,
                         std::vector<RouteHop> &hops) const
{
    Packet probe;
    probe.src = src;
    probe.dst = dst;
    probe.tableRouted = isTableNode(src) || isTableNode(dst);
    walkPath(probe, hops);
}

} // namespace hnoc
