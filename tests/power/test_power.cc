/**
 * @file
 * Power/area/frequency model tests: Table 1 anchors must hold exactly
 * and the scaling laws must behave physically.
 */

#include <gtest/gtest.h>

#include "power/area_model.hh"
#include "power/frequency_model.hh"
#include "power/router_power.hh"

namespace hnoc
{
namespace
{

TEST(FrequencyModel, Table1Anchors)
{
    EXPECT_NEAR(FrequencyModel::frequencyGHz(2), 2.25, 1e-9);
    EXPECT_NEAR(FrequencyModel::frequencyGHz(3), 2.20, 1e-9);
    EXPECT_NEAR(FrequencyModel::frequencyGHz(6), 2.07, 1e-9);
}

TEST(FrequencyModel, MonotoneDecreasingInVcs)
{
    double prev = FrequencyModel::frequencyGHz(2);
    for (int v = 3; v <= 8; ++v) {
        double f = FrequencyModel::frequencyGHz(v);
        EXPECT_LT(f, prev) << v << " VCs";
        prev = f;
    }
}

TEST(FrequencyModel, WorstCaseRule)
{
    EXPECT_DOUBLE_EQ(FrequencyModel::networkFrequencyGHz(6),
                     FrequencyModel::frequencyGHz(6));
}

TEST(AreaModel, Table1Anchors)
{
    EXPECT_NEAR(AreaModel::areaMm2(router_types::BASELINE), 0.290, 1e-3);
    EXPECT_NEAR(AreaModel::areaMm2(router_types::SMALL), 0.235, 1e-3);
    EXPECT_NEAR(AreaModel::areaMm2(router_types::BIG), 0.425, 1e-3);
}

TEST(AreaModel, PaperDeltas)
{
    // §3.5: big +46 %, small -18 % vs baseline.
    double base = AreaModel::areaMm2(router_types::BASELINE);
    EXPECT_NEAR(AreaModel::areaMm2(router_types::BIG) / base, 1.46, 0.02);
    EXPECT_NEAR(AreaModel::areaMm2(router_types::SMALL) / base, 0.82,
                0.02);
}

TEST(AreaModel, GrowsWithProvisioning)
{
    RouterPhysParams more_vcs = router_types::BASELINE;
    more_vcs.vcsPerPort = 5;
    EXPECT_GT(AreaModel::areaMm2(more_vcs),
              AreaModel::areaMm2(router_types::BASELINE));

    RouterPhysParams wider = router_types::BASELINE;
    wider.datapathBits = 256;
    EXPECT_GT(AreaModel::areaMm2(wider),
              AreaModel::areaMm2(router_types::BASELINE));
}

class PowerAnchors
    : public ::testing::TestWithParam<std::pair<RouterPhysParams, double>>
{};

TEST_P(PowerAnchors, FiftyPercentActivityMatchesTable1)
{
    auto [params, watts] = GetParam();
    auto model = RouterPowerModel::calibrated(
        params, FrequencyModel::frequencyGHz(params));
    EXPECT_NEAR(model.powerAtActivity(0.5).total(), watts, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PowerAnchors,
    ::testing::Values(std::pair{router_types::BASELINE, 0.67},
                      std::pair{router_types::SMALL, 0.30},
                      std::pair{router_types::BIG, 1.19}));

TEST(PowerModel, MonotoneInActivity)
{
    auto model = RouterPowerModel::calibrated(router_types::BASELINE, 2.2);
    double prev = -1.0;
    for (double a : {0.0, 0.1, 0.3, 0.5, 0.7, 1.0}) {
        double p = model.powerAtActivity(a).total();
        EXPECT_GT(p, prev);
        prev = p;
    }
}

TEST(PowerModel, LeakageOnlyAtZeroActivity)
{
    auto model = RouterPowerModel::calibrated(router_types::BASELINE, 2.2);
    PowerBreakdown zero = model.powerAtActivity(0.0);
    EXPECT_NEAR(zero.total(), model.leakage().total(), 1e-9);
    EXPECT_NEAR(zero.total(), 0.15 * 0.67, 0.02); // ~15 % leakage
}

TEST(PowerModel, BaselineBreakdownShares)
{
    // Fig 8(b) shares: buffers 35 %, xbar 30 %, links 20 %, arb 15 %.
    auto model = RouterPowerModel::calibrated(router_types::BASELINE, 2.2);
    PowerBreakdown p = model.powerAtActivity(0.5);
    EXPECT_NEAR(p.buffers / p.total(), 0.35, 0.01);
    EXPECT_NEAR(p.crossbar / p.total(), 0.30, 0.01);
    EXPECT_NEAR(p.links / p.total(), 0.20, 0.01);
    EXPECT_NEAR(p.arbiters / p.total(), 0.15, 0.01);
}

TEST(PowerModel, MeasuredActivityMatchesAnalytic)
{
    // power(activity) with hand-built counters must agree with
    // powerAtActivity for the same event rates.
    auto model = RouterPowerModel::calibrated(router_types::SMALL, 2.25);
    RouterActivity act;
    act.cycles = 1000;
    act.bufferWrites = 2500; // 0.5 * 5 ports * 1000 cycles
    act.bufferReads = 2500;
    act.arbOps = 2500;
    act.linkBitTraversals = 2500.0 * 128;
    EXPECT_NEAR(model.power(act).total(),
                model.powerAtActivity(0.5).total(), 1e-9);
}

TEST(PowerModel, HeteroNetworkBudget)
{
    // 48 small + 16 big at 50 % activity must undercut 64 baseline
    // routers (the §2 inequality).
    auto base = RouterPowerModel::calibrated(router_types::BASELINE, 2.2)
                    .powerAtActivity(0.5)
                    .total();
    auto small = RouterPowerModel::calibrated(router_types::SMALL, 2.07)
                     .powerAtActivity(0.5)
                     .total();
    auto big = RouterPowerModel::calibrated(router_types::BIG, 2.07)
                   .powerAtActivity(0.5)
                   .total();
    EXPECT_LT(48 * small + 16 * big, 64 * base);
}

TEST(RouterParams, BufferAccounting)
{
    EXPECT_EQ(router_types::BASELINE.bufferBits(), 3 * 5 * 5 * 192);
    EXPECT_EQ(router_types::SMALL.bufferBits(), 2 * 5 * 5 * 128);
    // Big routers keep 128 b FIFOs (§3.2).
    EXPECT_EQ(router_types::BIG.bufferBits(), 6 * 5 * 5 * 128);
}

} // namespace
} // namespace hnoc
