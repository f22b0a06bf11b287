/**
 * @file
 * CMP system tests: workload generation, MC placements, and end-to-end
 * coherence/IPC sanity on the full 64-tile system.
 */

#include <gtest/gtest.h>

#include <set>

#include "heteronoc/layout.hh"
#include "sys/cmp_system.hh"
#include "sys/mc_placement.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

TEST(Workloads, ElevenProfiles)
{
    EXPECT_EQ(allWorkloads().size(), 11u);
    EXPECT_EQ(commercialWorkloads().size(), 4u);
    EXPECT_EQ(parsecWorkloads().size(), 6u);
    EXPECT_EQ(workloadByName("libquantum").memRatio, 0.40);
}

TEST(Workloads, TraceGeneratorDeterministic)
{
    const auto &prof = workloadByName("SAP");
    TraceGenerator a(prof, 3, 42);
    TraceGenerator b(prof, 3, 42);
    for (int i = 0; i < 1000; ++i) {
        TraceRecord ra = a.next();
        TraceRecord rb = b.next();
        EXPECT_EQ(ra.addr, rb.addr);
        EXPECT_EQ(ra.isWrite, rb.isWrite);
        EXPECT_EQ(ra.nonMemInstrs, rb.nonMemInstrs);
    }
}

TEST(Workloads, TraceMatchesProfileStatistics)
{
    const auto &prof = workloadByName("SPECjbb");
    TraceGenerator gen(prof, 0, 7);
    std::uint64_t instrs = 0;
    std::uint64_t memops = 0;
    std::uint64_t shared = 0;
    for (int i = 0; i < 20000; ++i) {
        TraceRecord r = gen.next();
        instrs += static_cast<std::uint64_t>(r.nonMemInstrs) + 1;
        ++memops;
        if (r.addr >= (static_cast<Addr>(1) << 56))
            ++shared;
    }
    double mem_ratio =
        static_cast<double>(memops) / static_cast<double>(instrs);
    EXPECT_NEAR(mem_ratio, prof.memRatio, 0.03);
    EXPECT_NEAR(static_cast<double>(shared) / static_cast<double>(memops),
                prof.sharedFrac, 0.03);
}

TEST(McPlacement, CountsAndBounds)
{
    EXPECT_EQ(mcTiles(McPlacement::Corners, 8).size(), 4u);
    EXPECT_EQ(mcTiles(McPlacement::Diamond, 8).size(), 16u);
    EXPECT_EQ(mcTiles(McPlacement::Diagonal, 8).size(), 16u);
    for (auto p : {McPlacement::Corners, McPlacement::Diamond,
                   McPlacement::Diagonal}) {
        std::set<NodeId> uniq;
        for (NodeId t : mcTiles(p, 8)) {
            EXPECT_GE(t, 0);
            EXPECT_LT(t, 64);
            uniq.insert(t);
        }
        EXPECT_EQ(uniq.size(), mcTiles(p, 8).size()) << "duplicates";
    }
}

TEST(McPlacement, DiamondTwoPerRowAndColumn)
{
    auto tiles = mcTiles(McPlacement::Diamond, 8);
    int rows[8] = {0};
    int cols[8] = {0};
    for (NodeId t : tiles) {
        ++rows[t / 8];
        ++cols[t % 8];
    }
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(rows[i], 2) << "row " << i;
        EXPECT_EQ(cols[i], 2) << "col " << i;
    }
}

TEST(McPlacement, BlockInterleaving)
{
    auto tiles = mcTiles(McPlacement::Corners, 8);
    std::set<NodeId> seen;
    for (Addr a = 0; a < 64 * 128; a += 128)
        seen.insert(mcForBlock(a, 128, tiles));
    EXPECT_EQ(seen.size(), 4u); // all MCs used
}

class CmpEndToEnd : public ::testing::Test
{
  protected:
    CmpConfig
    smallConfig()
    {
        CmpConfig cfg;
        cfg.seed = 11;
        return cfg;
    }
};

TEST_F(CmpEndToEnd, BaselineRunsAndRetires)
{
    CmpSystem sys(makeLayoutConfig(LayoutKind::Baseline), CmpConfig{});
    sys.assignWorkloadAll(workloadByName("SPECjbb"));
    sys.warmCaches(30000);
    sys.run(2000); // timing warm
    sys.resetStats();
    sys.run(8000);

    double ipc = sys.avgIpc();
    // 3-wide cores with real memory stalls: IPC in (0.1, 3.0).
    EXPECT_GT(ipc, 0.1);
    EXPECT_LT(ipc, 3.0);
    EXPECT_GT(sys.packetsSent(), 1000u);
    EXPECT_GT(sys.netLatency().totalNs.count(), 500u);
    EXPECT_GT(sys.roundTripCoreCycles().count(), 100u);
    // DRAM misses exist, so some round trips exceed the 400-cycle
    // DRAM latency; L2 hits keep the minimum well below it.
    EXPECT_GT(sys.roundTripCoreCycles().max(), 400.0);
    EXPECT_LT(sys.roundTripCoreCycles().min(), 400.0);
}

TEST_F(CmpEndToEnd, HeteroNetworkAlsoWorks)
{
    CmpSystem sys(makeLayoutConfig(LayoutKind::DiagonalBL), CmpConfig{});
    sys.assignWorkloadAll(workloadByName("vips"));
    sys.warmCaches(30000);
    sys.run(2000);
    sys.resetStats();
    sys.run(8000);
    EXPECT_GT(sys.avgIpc(), 0.1);
    EXPECT_GT(sys.networkPower().total(), 0.0);
}

TEST_F(CmpEndToEnd, SystemDrainsWhenIdle)
{
    // After the cores stop issuing (idled), in-flight traffic drains.
    CmpSystem sys(makeLayoutConfig(LayoutKind::Baseline), CmpConfig{});
    sys.assignWorkloadAll(workloadByName("canl"));
    sys.run(4000);
    for (NodeId n = 0; n < 64; ++n)
        sys.idleCore(n);
    sys.run(6000);
    EXPECT_EQ(sys.network().packetsInFlight(), 0u);
}

TEST_F(CmpEndToEnd, SharingWorkloadGeneratesInvalidations)
{
    // A write-heavy shared workload must produce more packets per
    // instruction than a private streaming one.
    CmpConfig cfg;
    CmpSystem shared_sys(makeLayoutConfig(LayoutKind::Baseline), cfg);
    shared_sys.assignWorkloadAll(workloadByName("TPC-C"));
    shared_sys.run(6000);

    CmpSystem priv_sys(makeLayoutConfig(LayoutKind::Baseline), cfg);
    priv_sys.assignWorkloadAll(workloadByName("vips"));
    priv_sys.run(6000);

    EXPECT_GT(shared_sys.packetsSent(), priv_sys.packetsSent() / 2);
}

TEST_F(CmpEndToEnd, AsymmetricCoresDifferInIpc)
{
    CmpConfig cfg;
    cfg.asymmetric = true;
    cfg.largeCoreTiles = {0, 7, 56, 63};
    CmpSystem sys(makeLayoutConfig(LayoutKind::Baseline), cfg);
    sys.assignWorkloadAll(workloadByName("SPECjbb"));
    sys.warmCaches(30000);
    sys.run(2000);
    sys.resetStats();
    sys.run(8000);

    double large_ipc = (sys.ipc(0) + sys.ipc(7) + sys.ipc(56) +
                        sys.ipc(63)) / 4.0;
    double small_ipc = sys.ipc(27);
    EXPECT_GT(large_ipc, small_ipc * 1.5);
}

TEST(CmpSystemDeathTest, AtMostInt16MaxTiles)
{
    // The directory keeps owners and sharers as 16-bit ids. 256 x 128
    // is one tile too many. The config is also one the Network would
    // reject (a routerVcs entry per router is missing), so the check
    // is seen to run before any per-tile state is built.
    NetworkConfig net;
    net.radixX = 256;
    net.radixY = 128;
    net.routerVcs = {3};
    EXPECT_DEATH(CmpSystem(net, CmpConfig{}), "more than 32767 tiles");
    // A product that overflows 32 bits is caught too.
    net.radixX = 65536;
    net.radixY = 65536;
    EXPECT_DEATH(CmpSystem(net, CmpConfig{}), "more than 32767 tiles");
}

} // namespace
} // namespace hnoc
