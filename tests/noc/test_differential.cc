/**
 * @file
 * Seeded differential check over random network configurations: for
 * each configuration the exhaustive alwaysStep loop, the active-set
 * cycle on a 1-thread pool (one thread walks every block) and on a
 * 4-thread pool (a stepping team where the network has four or more
 * blocks, DESIGN.md §6h) must give the same run report and delivered
 * counts, and every run audits credit conservation every 100 cycles.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "common/job_pool.hh"
#include "common/rng.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "telemetry/run_report.hh"

namespace hnoc
{
namespace
{

/** Configurations drawn per run; fixed, so every run checks the same. */
constexpr int kConfigs = 32;
constexpr std::uint64_t kSeed = 1;

/** A random but valid configuration: topology and radix, VCs (per
 *  router on a grid), flit and link widths, buffer depth, pipeline and
 *  link delays, routing and block size. At most 64 routers. */
NetworkConfig
randomConfig(Rng &rng, int index)
{
    NetworkConfig cfg;
    cfg.name = "fuzz_" + std::to_string(index);
    const TopologyType topologies[] = {
        TopologyType::Mesh, TopologyType::Torus,
        TopologyType::ConcentratedMesh, TopologyType::FlattenedButterfly};
    cfg.topology = topologies[rng.below(4)];
    const bool mesh = cfg.topology == TopologyType::Mesh;
    if (cfg.topology == TopologyType::ConcentratedMesh) {
        cfg.radixX = cfg.radixY = static_cast<int>(rng.range(2, 4));
        cfg.concentration = static_cast<int>(rng.range(2, 4));
    } else if (mesh) {
        cfg.radixX = static_cast<int>(rng.range(3, 8));
        cfg.radixY = static_cast<int>(rng.range(3, 8));
    } else {
        cfg.radixX = cfg.radixY = static_cast<int>(rng.range(3, 6));
    }
    const int routers = cfg.numRouters();

    cfg.flitWidthBits = rng.chance(0.5) ? 128 : 192;
    cfg.defaultWidthBits = cfg.flitWidthBits;
    cfg.uniformLinkBits = cfg.flitWidthBits;
    cfg.dataPacketBits = rng.chance(0.5) ? 512 : 1024;
    cfg.bufferDepth = static_cast<int>(rng.range(2, 8));
    cfg.defaultVcs = static_cast<int>(rng.range(2, 4));
    if (rng.chance(0.5))
        for (int r = 0; r < routers; ++r)
            cfg.routerVcs.push_back(static_cast<int>(rng.range(2, 6)));

    switch (rng.below(3)) {
      case 0:
        cfg.linkWidthMode = LinkWidthMode::Uniform;
        cfg.uniformLinkBits =
            cfg.flitWidthBits * static_cast<int>(rng.range(1, 2));
        break;
      case 1:
        cfg.linkWidthMode = LinkWidthMode::EndpointMax;
        for (int r = 0; r < routers; ++r)
            cfg.routerWidthBits.push_back(
                cfg.flitWidthBits * static_cast<int>(rng.range(1, 2)));
        break;
      default:
        cfg.linkWidthMode = LinkWidthMode::CentralBand;
        cfg.bandWideLinks = static_cast<int>(
            rng.range(1, std::min(cfg.radixX, cfg.radixY)));
        break;
    }
    cfg.intraPacketPairing = rng.chance(0.5);
    cfg.pipelineStages = static_cast<int>(rng.range(1, 3));
    cfg.linkLatency = static_cast<int>(rng.range(1, 2));

    if (mesh || cfg.topology == TopologyType::ConcentratedMesh) {
        const RoutingMode modes[] = {RoutingMode::XY, RoutingMode::YX,
                                     RoutingMode::O1Turn,
                                     RoutingMode::TableXY};
        cfg.routing = modes[rng.below(mesh ? 4 : 3)];
        if (cfg.routing == RoutingMode::TableXY)
            for (int k = static_cast<int>(rng.range(1, 3)); k > 0; --k)
                cfg.tableRoutedNodes.push_back(static_cast<NodeId>(
                    rng.below(static_cast<std::uint64_t>(cfg.numNodes()))));
    }

    // Auto-sized (one block at this size), single-router blocks, or
    // any size in between; a quarter of the routers or fewer per block
    // lets a team form.
    switch (rng.below(3)) {
      case 0:
        cfg.blockTiles = 0;
        break;
      case 1:
        cfg.blockTiles = 1;
        break;
      default:
        cfg.blockTiles = static_cast<int>(rng.range(1, routers));
        break;
    }
    return cfg;
}

/** The point as the run report writes it. */
std::string
pointJson(const SimPointResult &r)
{
    RunReport report("differential", "random config");
    report.addPoint("point", r);
    return report.json();
}

TEST(ConfigDifferential, WalksAgreeOnRandomConfigs)
{
    Rng rng(kSeed);
    JobPool pool1(1);
    JobPool pool4(4);
    int eligible = 0;
    int stepped_on_team = 0;
    for (int i = 0; i < kConfigs; ++i) {
        NetworkConfig cfg = randomConfig(rng, i);
        NetworkConfig always = cfg;
        always.alwaysStep = true;
        SimPointOptions opts;
        opts.warmupCycles = 300;
        opts.measureCycles = 900;
        opts.drainCycles = 3000;
        opts.seed = rng.next();
        opts.injectionRate = 0.004 + 0.016 * rng.uniform();
        opts.controlFraction = rng.chance(0.5) ? 0.5 : 0.0;
        opts.auditEvery = 100;
        SCOPED_TRACE(cfg.name + ": " + std::to_string(cfg.radixX) + "x" +
                     std::to_string(cfg.radixY) + " topology " +
                     std::to_string(static_cast<int>(cfg.topology)) +
                     ", routing " +
                     std::to_string(static_cast<int>(cfg.routing)) +
                     ", block_tiles " + std::to_string(cfg.blockTiles));

        auto run = [&](JobPool &pool, const NetworkConfig &c) {
            return pool
                .submit([&] {
                    return runOpenLoop(c, TrafficPattern::UniformRandom,
                                       opts);
                })
                .get();
        };
        SimPointResult reference = run(pool1, always);
        SimPointResult serial = run(pool1, cfg);
        SimPointResult team = run(pool4, cfg);

        EXPECT_GT(reference.trackedDelivered, 0u);
        EXPECT_EQ(serial.trackedDelivered, reference.trackedDelivered);
        EXPECT_EQ(team.trackedDelivered, reference.trackedDelivered);
        EXPECT_EQ(serial.trackedCreated, reference.trackedCreated);
        EXPECT_EQ(team.trackedCreated, reference.trackedCreated);
        EXPECT_EQ(pointJson(serial), pointJson(reference));
        EXPECT_EQ(pointJson(team), pointJson(reference));
        EXPECT_EQ(serial.stepThreads, 1);

        eligible += Network(cfg).numBlocks() >= 4;
        stepped_on_team += team.stepThreads >= 2;
    }
    // A team forms only on a step that finds an idle pool worker, so
    // the count is reported, not required.
    std::printf("%d of %d configurations have four or more blocks; %d "
                "stepped on a team\n",
                eligible, kConfigs, stepped_on_team);
    RecordProperty("team_eligible", eligible);
    RecordProperty("stepped_on_team", stepped_on_team);
    EXPECT_GT(eligible, 0);
}

} // namespace
} // namespace hnoc
