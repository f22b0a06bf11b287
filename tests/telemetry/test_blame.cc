/**
 * @file
 * Latency blame attribution tests. The load-bearing guarantees:
 *
 *  - blame is report-only: a network driven with a BlameCollector
 *    attached produces bit-identical simulation results (delivery
 *    counts AND the full telemetry JSON) to the same network driven
 *    without one, so goldens never depend on whether --blame was
 *    passed;
 *  - the accounting identity is EXACT: for every delivered packet,
 *    source-queueing + zero-load head path + per-cause stall cycles +
 *    zero-load serialization + link-serialization residual equals the
 *    measured created-to-ejected latency, on the mesh and on
 *    HeteroNoC, across seeds;
 *  - merge() is deterministic in input order, so a multi-seed sweep
 *    run on 1, 3, or 4 worker threads serializes to byte-identical
 *    blame JSON.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "noc/traffic.hh"
#include "telemetry/blame.hh"
#include "telemetry/metrics.hh"

namespace hnoc
{
namespace
{

/** Drive @p net with seeded UR traffic for @p cycles. */
void
driveUniformRandom(Network &net, Cycle cycles, std::uint64_t seed = 11,
                   double rate = 0.02)
{
    const NetworkConfig &cfg = net.config();
    int nodes = net.topology().numNodes();
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         net.topology().gridCols(), seed);
    for (Cycle c = 0; c < cycles; ++c) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, rate, net.now())) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
    }
}

// ------------------------------------------------------------- unit --

TEST(BlameCollector, CauseNamesAreStableSnakeCase)
{
    // The run-report schema and hnoc_inspect key on these.
    EXPECT_STREQ(blameCauseName(BlameCause::SourceQueueing),
                 "source_queueing");
    EXPECT_STREQ(blameCauseName(BlameCause::RoutePending),
                 "route_pending");
    EXPECT_STREQ(blameCauseName(BlameCause::VaConflictLost),
                 "va_conflict_lost");
    EXPECT_STREQ(blameCauseName(BlameCause::SaConflictLost),
                 "sa_conflict_lost");
    EXPECT_STREQ(blameCauseName(BlameCause::CreditStarved),
                 "credit_starved");
    EXPECT_STREQ(blameCauseName(BlameCause::EjectBackpressure),
                 "eject_backpressure");
    EXPECT_STREQ(blameCauseName(BlameCause::LinkSerialization),
                 "link_serialization");
}

TEST(BlameCollector, CommitDerivesIdentityTerms)
{
    BlameCollector::Dims dims;
    dims.routers = 4;
    dims.ports = 5;
    dims.gridCols = 2;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);
    bc.setNodeRouter(1, 3);

    // A hand-built packet: created 10, injected 14 (4 cyc queueing),
    // head ejects at 30, tail at 35; zero-load head path 12, minimal
    // serialization 3, so tail drag residual = (35-30) - 3 = 2; one
    // in-network VA stall cycle -> identity needs 35-10 = 25 =
    // 4 + 12 + 1 + 3 + 2 + route_pending(3).
    BlameLedger l;
    l.minHeadCycles = 12;
    l.minSerCycles = 3;
    l.headEjectAt = 30;
    l.charge(BlameCause::VaConflictLost);
    l.charge(BlameCause::RoutePending, 3);
    bc.commit(7, 0, 1, 10, 14, 35, l);

    EXPECT_EQ(bc.packets(), 1u);
    EXPECT_EQ(bc.identityViolations(), 0u);
    EXPECT_EQ(bc.totalLatency(), 25u);
    EXPECT_EQ(bc.totalCause(BlameCause::SourceQueueing), 4u);
    EXPECT_EQ(bc.totalCause(BlameCause::LinkSerialization), 2u);
    EXPECT_EQ(bc.totalCause(BlameCause::VaConflictLost), 1u);
    EXPECT_EQ(bc.totalCause(BlameCause::RoutePending), 3u);
    EXPECT_EQ(bc.totalMinHead(), 12u);
    EXPECT_EQ(bc.totalMinSer(), 3u);

    ASSERT_EQ(bc.worstPackets().size(), 1u);
    EXPECT_EQ(bc.worstPackets()[0].id, 7u);
    EXPECT_EQ(bc.worstPackets()[0].latency, 25u);
}

TEST(BlameCollector, CommitCountsIdentityViolations)
{
    BlameCollector::Dims dims;
    dims.routers = 1;
    dims.ports = 1;
    dims.gridCols = 1;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);

    // Ledger claims 10 zero-load head cycles but measured latency is
    // only 5 — the identity cannot hold.
    BlameLedger l;
    l.minHeadCycles = 10;
    l.headEjectAt = 5;
    bc.commit(1, 0, 0, 0, 0, 5, l);
    EXPECT_EQ(bc.identityViolations(), 1u);
}

TEST(BlameCollector, JsonCarriesSchema)
{
    BlameCollector::Dims dims;
    dims.routers = 4;
    dims.ports = 5;
    dims.gridCols = 2;
    BlameCollector bc(dims);
    bc.setNodeRouter(0, 0);
    BlameLedger l;
    l.minHeadCycles = 5;
    l.headEjectAt = 5;
    bc.commit(1, 0, 0, 0, 0, 5, l);

    std::string j = bc.json();
    EXPECT_NE(j.find("\"schema\":\"hnoc-latency-blame-v1\""),
              std::string::npos)
        << j;
    EXPECT_NE(j.find("\"percentiles\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"heatmap\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"worst_packets\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"min_head_latency\""), std::string::npos) << j;
    EXPECT_NE(j.find("\"identity_violations\":0"), std::string::npos)
        << j;
}

// ------------------------------------- report-only (the golden pin) --

TEST(Blame, AttachedCollectorDoesNotPerturbSimulation)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);

    Network plain(cfg);
    auto plain_reg = plain.makeMetricRegistry(500);
    plain.attachTelemetry(plain_reg.get());
    driveUniformRandom(plain, 3000);
    plain.detachTelemetry();

    Network blamed(cfg);
    auto blame_reg = blamed.makeMetricRegistry(500);
    blamed.attachTelemetry(blame_reg.get());
    auto bc = blamed.makeBlameCollector();
    blamed.attachBlame(bc.get());
    driveUniformRandom(blamed, 3000);
    blamed.detachTelemetry();

    EXPECT_GT(plain.packetsDelivered(), 0u);
    EXPECT_EQ(plain.packetsDelivered(), blamed.packetsDelivered());
    EXPECT_EQ(plain.flitsDelivered(), blamed.flitsDelivered());
    EXPECT_EQ(plain.now(), blamed.now());
    EXPECT_EQ(plain_reg->json(), blame_reg->json());

    if (kTelemetryEnabled) {
        EXPECT_EQ(bc->packets(), blamed.packetsDelivered());
        EXPECT_EQ(bc->identityViolations(), 0u);
        EXPECT_GT(bc->totalMinHead(), 0u);
    } else {
        // OFF build: the acquire/charge/commit hooks compile away.
        EXPECT_EQ(bc->packets(), 0u);
    }
}

// ------------------------------------------- exact accounting identity --

/** Checks the per-packet identity from the delivery callback, where
 *  the finished ledger is still attached (commit runs just after). */
class IdentityCheckClient : public NetworkClient
{
  public:
    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        (void)net;
        ++delivered;
        if (!kTelemetryEnabled)
            return;
        ASSERT_NE(pkt.blame, nullptr);
        const BlameLedger &l = *pkt.blame;
        ASSERT_NE(l.headEjectAt, CYCLE_NEVER);
        ASSERT_GE(pkt.ejectedAt, l.headEjectAt);
        ASSERT_EQ(pkt.ejectedAt, now);
        std::uint64_t tail = pkt.ejectedAt - l.headEjectAt;
        ASSERT_GE(tail, l.minSerCycles)
            << "packet " << pkt.id << " beat the serialization bound";
        std::uint64_t sum = (pkt.injectedAt - pkt.createdAt) +
                            l.minHeadCycles + l.minSerCycles +
                            (tail - l.minSerCycles);
        for (std::uint64_t c : l.cycles)
            sum += c;
        ASSERT_EQ(sum, pkt.ejectedAt - pkt.createdAt)
            << "blame identity broken for packet " << pkt.id << " ("
            << pkt.src << " -> " << pkt.dst << ")";
    }

    std::uint64_t delivered = 0;
};

TEST(Blame, AccountingIdentityExactOnMeshAndHeteroAcrossSeeds)
{
    // High enough load to exercise every stall cause, on both the
    // baseline mesh and the heterogeneous layout, across 3 seeds.
    const LayoutKind kinds[] = {LayoutKind::Baseline,
                                LayoutKind::DiagonalBL};
    const std::uint64_t seeds[] = {1, 2, 3};
    for (LayoutKind kind : kinds) {
        for (std::uint64_t seed : seeds) {
            NetworkConfig cfg = makeLayoutConfig(kind);
            Network net(cfg);
            IdentityCheckClient client;
            net.setClient(&client);
            auto bc = net.makeBlameCollector();
            net.attachBlame(bc.get());
            driveUniformRandom(net, 4000, seed, 0.08);
            EXPECT_GT(client.delivered, 0u);
            EXPECT_EQ(bc->identityViolations(), 0u)
                << layoutName(kind) << " seed " << seed;
            if (kTelemetryEnabled) {
                EXPECT_EQ(bc->packets(), client.delivered);
                // The per-cause totals plus min terms reconstruct the
                // total measured latency exactly.
                std::uint64_t sum =
                    bc->totalMinHead() + bc->totalMinSer();
                for (int c = 0; c < kNumBlameCauses; ++c)
                    sum += bc->totalCause(static_cast<BlameCause>(c));
                EXPECT_EQ(sum, bc->totalLatency())
                    << layoutName(kind) << " seed " << seed;
            }
        }
    }
}

// ------------------------------------------------ merge determinism --

TEST(Blame, MergedJsonIsThreadCountInvariant)
{
    // A 6-point multi-seed batch on HeteroNoC, run under pools of 1,
    // 3 and 4 workers: the merged blame JSON must be byte-identical.
    std::vector<BatchPoint> points;
    for (std::uint64_t i = 0; i < 6; ++i) {
        BatchPoint p;
        p.config = makeLayoutConfig(LayoutKind::DiagonalBL);
        p.opts.injectionRate = 0.05;
        p.opts.warmupCycles = 200;
        p.opts.measureCycles = 800;
        p.opts.drainCycles = 2000;
        p.opts.seed = derivePointSeed(99, i);
        p.opts.collectBlame = true;
        points.push_back(p);
    }

    std::array<std::string, 3> merged_json;
    const int pool_sizes[] = {1, 3, 4};
    for (std::size_t k = 0; k < 3; ++k) {
        JobPool pool(pool_sizes[k]);
        std::vector<SimPointResult> results = runBatch(points, &pool);
        ASSERT_EQ(results.size(), points.size());
        auto merged = mergeBlame(results);
        if (kTelemetryEnabled) {
            ASSERT_NE(merged, nullptr);
            merged_json[k] = merged->json();
            EXPECT_GT(merged->packets(), 0u);
            EXPECT_EQ(merged->identityViolations(), 0u);
        } else {
            // OFF build: collectBlame is a no-op and no point carries
            // a collector; the comparison below is trivially equal.
            EXPECT_EQ(merged, nullptr);
        }
    }
    EXPECT_EQ(merged_json[0], merged_json[1]);
    EXPECT_EQ(merged_json[0], merged_json[2]);
}

} // namespace
} // namespace hnoc
