/**
 * @file
 * Golden-value regression tests: a fixed seed must reproduce these
 * exact aggregate results. Any change to router timing, allocation,
 * traffic generation or power accounting will shift them — if a change
 * is intentional, regenerate the constants (the values are printed on
 * failure) and note the behavioral change in the commit.
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>

#include "heteronoc/layout.hh"
#include "noc/sim_harness.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

namespace hnoc
{
namespace
{

SimPointResult
goldenRun(LayoutKind kind)
{
    SimPointOptions opts;
    opts.injectionRate = 0.025;
    opts.warmupCycles = 2000;
    opts.measureCycles = 5000;
    opts.drainCycles = 10000;
    opts.seed = 20260706;
    return runOpenLoop(makeLayoutConfig(kind),
                       TrafficPattern::UniformRandom, opts);
}

TEST(Golden, BaselineUniformRandom)
{
    // HNOC_SIM_SCALE changes run lengths; goldens only hold at 1.
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    SimPointResult r = goldenRun(LayoutKind::Baseline);
    EXPECT_EQ(r.trackedCreated, 8129u);
    EXPECT_EQ(r.trackedDelivered, 8129u);
    EXPECT_NEAR(r.avgLatencyNs, 13.663763, 1e-4);
    EXPECT_NEAR(r.networkPowerW, 21.284006, 1e-4);
}

TEST(Golden, DiagonalBlUniformRandom)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    SimPointResult r = goldenRun(LayoutKind::DiagonalBL);
    EXPECT_EQ(r.trackedCreated, 8129u);
    EXPECT_EQ(r.trackedDelivered, 8129u);
    EXPECT_NEAR(r.avgLatencyNs, 17.244992, 1e-4);
    EXPECT_NEAR(r.networkPowerW, 15.897139, 1e-4);
}

// ------------------------------------------------------------ CMP --
//
// The CMP layer (caches, MESI directory, memory controllers, event
// queue) over the full 64-tile system: a short functional warm-up, a
// short settling run, then a measured window. Every message-type count
// is pinned, so a reordered invalidation fan-out or a changed
// replacement decision shows up even when the means barely move.

constexpr std::size_t NUM_MSG_TYPES = 16;

struct CmpGolden
{
    std::uint64_t l1Misses;
    std::uint64_t packetsSent;
    std::array<std::uint64_t, NUM_MSG_TYPES> msgCounts;
    double avgIpc;
    double netLatencyNs;
    double roundTripCoreCycles;
};

CmpConfig
cmpGoldenConfig()
{
    CmpConfig cfg;
    cfg.seed = 20260706;
    return cfg;
}

CmpGolden
cmpGoldenRun(const NetworkConfig &net_cfg, const CmpConfig &cfg,
             const char *workload)
{
    CmpSystem sys(net_cfg, cfg);
    sys.assignWorkloadAll(workloadByName(workload));
    sys.warmCaches(4000);
    sys.run(500);
    sys.resetStats();
    sys.run(2500);

    CmpGolden g{};
    g.l1Misses = sys.l1Misses();
    g.packetsSent = sys.packetsSent();
    for (std::size_t t = 0; t < NUM_MSG_TYPES; ++t)
        g.msgCounts[t] = sys.msgCount(static_cast<MsgType>(t));
    g.avgIpc = sys.avgIpc();
    g.netLatencyNs = sys.netLatency().totalNs.mean();
    g.roundTripCoreCycles = sys.roundTripCoreCycles().mean();
    return g;
}

void
expectRel(double got, double want, const char *what)
{
    EXPECT_LE(std::fabs(got - want), 1e-9 * std::fabs(want))
        << what << ": got " << got << ", want " << want;
}

void
expectCmpGolden(const NetworkConfig &net_cfg, const CmpConfig &cfg,
                const char *workload, const CmpGolden &want)
{
    CmpGolden got = cmpGoldenRun(net_cfg, cfg, workload);
    EXPECT_EQ(got.l1Misses, want.l1Misses);
    EXPECT_EQ(got.packetsSent, want.packetsSent);
    for (std::size_t t = 0; t < NUM_MSG_TYPES; ++t)
        EXPECT_EQ(got.msgCounts[t], want.msgCounts[t]) << "MsgType " << t;
    expectRel(got.avgIpc, want.avgIpc, "avgIpc");
    expectRel(got.netLatencyNs, want.netLatencyNs, "netLatency");
    expectRel(got.roundTripCoreCycles, want.roundTripCoreCycles,
              "roundTrip");
    if (::testing::Test::HasFailure()) {
        // Print the measured values in initializer form so an
        // intentional behaviour change can be re-pinned by copying.
        std::printf("{%llu, %llu, {",
                    static_cast<unsigned long long>(got.l1Misses),
                    static_cast<unsigned long long>(got.packetsSent));
        for (std::size_t t = 0; t < NUM_MSG_TYPES; ++t)
            std::printf("%s%llu", t ? ", " : "",
                        static_cast<unsigned long long>(got.msgCounts[t]));
        std::printf("}, %.17g, %.17g, %.17g}\n", got.avgIpc,
                    got.netLatencyNs, got.roundTripCoreCycles);
    }
}

void
expectCmpGolden(LayoutKind kind, const char *workload,
                const CmpGolden &want)
{
    expectCmpGolden(makeLayoutConfig(kind), cmpGoldenConfig(), workload,
                    want);
}

TEST(Golden, CmpBaselineTpcc)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    expectCmpGolden(
        LayoutKind::Baseline, "TPC-C",
        {4290, 11934,
         {2448, 1842, 1667, 726, 1561, 985, 768, 102,
          173, 92, 1638, 100, 261, 1214, 0, 1046},
         0.18154375000000003, 17.641314812267833, 236.69370172311307});
}

TEST(Golden, CmpDiagonalBlTpcc)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    expectCmpGolden(
        LayoutKind::DiagonalBL, "TPC-C",
        {3741, 9936,
         {2130, 1611, 1430, 631, 1361, 819, 691, 82,
          145, 83, 1408, 76, 228, 1037, 0, 909},
         0.14204198863636361, 27.08990291783541, 291.52946074943242});
}

TEST(Golden, CmpBaselineLibquantum)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    expectCmpGolden(
        LayoutKind::Baseline, "libquantum",
        {5055, 12052,
         {3654, 1401, 1317, 1300, 2102, 541, 796, 22,
          42, 3, 1294, 20, 45, 1515, 0, 1329},
         0.12870624999999999, 24.452613322582401, 287.53074261378862});
}

TEST(Golden, CmpDiagonalBlLibquantum)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    expectCmpGolden(
        LayoutKind::DiagonalBL, "libquantum",
        {3664, 7940,
         {2627, 1037, 943, 919, 1497, 394, 585, 14,
          29, 2, 929, 14, 30, 1070, 0, 915},
         0.078671761363636364, 41.028156201707468, 390.69914963653849});
}

// Core clock twice the network clock, with L2 and DRAM latencies that
// convert to exact powers of two in network cycles (4 and 256). The
// DRAM delay is then half the event calendar's horizon, and the L2
// delay a power of two below it.
TEST(Golden, CmpPowerOfTwoDelays)
{
    if (std::getenv("HNOC_SIM_SCALE"))
        GTEST_SKIP() << "goldens require HNOC_SIM_SCALE unset";
    NetworkConfig net_cfg = makeLayoutConfig(LayoutKind::Baseline);
    net_cfg.clockGHz = 1.0;
    CmpConfig cfg = cmpGoldenConfig();
    cfg.coreClockGHz = 2.0;
    cfg.l2LatencyCoreCycles = 8;
    cfg.dramLatencyCoreCycles = 512;
    expectCmpGolden(
        net_cfg, cfg, "TPC-C",
        {4872, 13335,
         {2792, 2080, 1925, 804, 1821, 1136, 848, 113,
          191, 101, 1890, 111, 288, 1381, 0, 1280},
         0.10132187500000002, 47.352407379631067, 431.62988566870422});
}

} // namespace
} // namespace hnoc
