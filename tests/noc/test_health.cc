/**
 * @file
 * Run-health tests: the live progress line, the credit/buffer-
 * conservation auditor across all four topologies (mid-run and after
 * drain), and each router's flit count against its per-VC buffers.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/rng.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/watchdog.hh"
#include "telemetry/json_reader.hh"

namespace hnoc
{
namespace
{

/** Drive @p net with uniform-random traffic for @p cycles. */
std::uint64_t
injectUniform(Network &net, Rng &rng, Cycle cycles, double rate)
{
    int nodes = net.config().numNodes();
    std::uint64_t injected = 0;
    for (Cycle t = 0; t < cycles; ++t) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (rng.uniform() < rate) {
                auto dst = static_cast<NodeId>(
                    rng.below(static_cast<std::uint64_t>(nodes - 1)));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, net.dataPacketFlits());
                ++injected;
            }
        }
        net.step();
    }
    return injected;
}

/**
 * Check, through the postmortem's per-router snapshot, that every
 * router's flit count (which alone decides Router::busy() and so the
 * active-list drop) equals the sum of its per-VC input buffers.
 * @return the total buffered flits
 */
int
expectRouterOccupancyMatchesVcs(const Network &net)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(parseJson(net.postmortemJson("occupancy check"), doc, &err))
        << err;
    const std::vector<JsonValue> &routers = doc.arrayAt("routers");
    const JsonValue *config = doc.find("config");
    EXPECT_TRUE(config && static_cast<double>(routers.size()) ==
                              config->numAt("routers"))
        << "the snapshot must cover every router";
    int total = 0;
    for (const JsonValue &r : routers) {
        // Empty VCs are omitted from the snapshot; they add nothing.
        int sum = 0;
        for (const JsonValue &vc : r.arrayAt("input_vcs"))
            sum += static_cast<int>(vc.numAt("occupancy"));
        EXPECT_EQ(sum, static_cast<int>(r.numAt("occupancy")))
            << "router " << r.numAt("id");
        total += sum;
    }
    return total;
}

// ---------------------------------------------------- progress line --

TEST(ProgressMeter, ProgressLine)
{
    ProgressMeter meter(100000);
    std::string line = meter.line(40000, 12034, 182, 72204);
    EXPECT_NE(line.find("cycle 40000/100000 40%"), std::string::npos)
        << line;
    EXPECT_NE(line.find("delivered 12034"), std::string::npos) << line;
    EXPECT_NE(line.find("in-flight 182"), std::string::npos) << line;
    EXPECT_NE(line.find("flit/s"), std::string::npos) << line;

    // Without a target there is no completion fraction and no ETA.
    ProgressMeter bare;
    std::string plain = bare.line(40000, 12034, 182, 72204);
    EXPECT_NE(plain.find("cycle 40000 |"), std::string::npos) << plain;
    EXPECT_EQ(plain.find("ETA"), std::string::npos) << plain;
}

TEST(ProgressMeter, ReadsTheNetworkCounters)
{
    Network net(makeLayoutConfig(LayoutKind::Baseline));
    Rng rng(11);
    injectUniform(net, rng, 300, 0.03);
    ASSERT_GT(net.packetsDelivered(), 0u);

    ProgressMeter meter(1000);
    std::string line = meter.line(net);
    EXPECT_NE(line.find("cycle 300/1000 30%"), std::string::npos)
        << line;
    EXPECT_NE(line.find("delivered " +
                        std::to_string(net.packetsDelivered())),
              std::string::npos)
        << line;
    EXPECT_NE(line.find("in-flight " +
                        std::to_string(net.packetsInFlight())),
              std::string::npos)
        << line;
}

// ----------------------------------------------- conservation audit --

class ConservationAudit
    : public ::testing::TestWithParam<TopologyType>
{};

TEST_P(ConservationAudit, HoldsMidRunAndAfterDrain)
{
    NetworkConfig cfg;
    cfg.topology = GetParam();
    cfg.radixX = 4;
    cfg.radixY = 4;
    cfg.concentration = (cfg.topology == TopologyType::Mesh ||
                         cfg.topology == TopologyType::Torus)
                            ? 1
                            : 4;
    Network net(cfg);

    std::string err;
    ASSERT_TRUE(net.auditCreditConservation(&err)) << err;

    Rng rng(23);
    int nodes = cfg.numNodes();
    for (Cycle t = 0; t < 400; ++t) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (rng.uniform() < 0.05) {
                auto dst = static_cast<NodeId>(
                    rng.below(static_cast<std::uint64_t>(nodes - 1)));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        // Every cycle, loaded: credits + in-flight + buffered must
        // re-assemble the buffer depth on every channel and VC.
        ASSERT_TRUE(net.auditCreditConservation(&err))
            << "cycle " << net.now() << ": " << err;
    }
    EXPECT_GT(expectRouterOccupancyMatchesVcs(net), 0)
        << "a loaded network should hold buffered flits";

    Cycle guard = 60000;
    while (net.packetsInFlight() > 0 && guard-- > 0)
        net.step();
    ASSERT_EQ(net.packetsInFlight(), 0u);
    EXPECT_TRUE(net.auditCreditConservation(&err)) << err;
    EXPECT_EQ(expectRouterOccupancyMatchesVcs(net), 0);
}

INSTANTIATE_TEST_SUITE_P(
    AllTopologies, ConservationAudit,
    ::testing::Values(TopologyType::Mesh, TopologyType::Torus,
                      TopologyType::ConcentratedMesh,
                      TopologyType::FlattenedButterfly),
    [](const ::testing::TestParamInfo<TopologyType> &info) {
        switch (info.param) {
          case TopologyType::Mesh: return "mesh";
          case TopologyType::Torus: return "torus";
          case TopologyType::ConcentratedMesh: return "cmesh";
          case TopologyType::FlattenedButterfly: return "flatfly";
        }
        return "unknown";
    });

/** Heterogeneous layouts (per-router VCs/widths) must audit clean too. */
TEST(ConservationAuditHetero, DiagonalBLUnderLoad)
{
    Network net(makeLayoutConfig(LayoutKind::DiagonalBL));
    Rng rng(29);
    std::string err;
    for (Cycle t = 0; t < 300; ++t) {
        for (NodeId n = 0; n < 64; ++n) {
            if (rng.uniform() < 0.04) {
                auto dst = static_cast<NodeId>(rng.below(63));
                if (dst >= n)
                    ++dst;
                net.enqueuePacket(n, dst, net.dataPacketFlits());
            }
        }
        net.step();
        ASSERT_TRUE(net.auditCreditConservation(&err))
            << "cycle " << net.now() << ": " << err;
    }
    EXPECT_GT(expectRouterOccupancyMatchesVcs(net), 0);
}

} // namespace
} // namespace hnoc
