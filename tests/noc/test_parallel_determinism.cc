/**
 * @file
 * Parallel experiment engine determinism: sweepLoad / runBatch must
 * produce bit-identical SimPointResults to the serial reference path
 * regardless of thread count (1, 4, and an HNOC_THREADS=1 env-sized
 * pool). A multi-block network stepped on a team of pool workers
 * (DESIGN.md §6h) must match its serial and always-step runs too.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <thread>
#include <vector>

#include "bench_util.hh"
#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/sim_harness.hh"
#include "noc/traffic.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"
#include "telemetry/run_report.hh"

namespace hnoc
{
namespace
{

SimPointOptions
quickOptions()
{
    SimPointOptions opts;
    opts.warmupCycles = 800;
    opts.measureCycles = 2000;
    opts.drainCycles = 4000;
    opts.seed = 17;
    return opts;
}

const std::vector<double> kRates = {0.01, 0.03, 0.05};

void
expectBitIdentical(const SimPointResult &a, const SimPointResult &b)
{
    EXPECT_EQ(a.offeredRate, b.offeredRate);
    EXPECT_EQ(a.acceptedRate, b.acceptedRate);
    EXPECT_EQ(a.avgLatencyCycles, b.avgLatencyCycles);
    EXPECT_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.avgQueuingNs, b.avgQueuingNs);
    EXPECT_EQ(a.avgBlockingNs, b.avgBlockingNs);
    EXPECT_EQ(a.avgTransferNs, b.avgTransferNs);
    EXPECT_EQ(a.p95LatencyNs, b.p95LatencyNs);
    EXPECT_EQ(a.networkPowerW, b.networkPowerW);
    EXPECT_EQ(a.power.buffers, b.power.buffers);
    EXPECT_EQ(a.power.crossbar, b.power.crossbar);
    EXPECT_EQ(a.power.arbiters, b.power.arbiters);
    EXPECT_EQ(a.power.links, b.power.links);
    EXPECT_EQ(a.combineRate, b.combineRate);
    EXPECT_EQ(a.saturated, b.saturated);
    EXPECT_EQ(a.bufferUtilPct, b.bufferUtilPct);
    EXPECT_EQ(a.linkUtilPct, b.linkUtilPct);
    EXPECT_EQ(a.trackedDelivered, b.trackedDelivered);
    EXPECT_EQ(a.trackedCreated, b.trackedCreated);
    EXPECT_EQ(a.latencyByHopsNs, b.latencyByHopsNs);
    EXPECT_EQ(a.drainTruncated, b.drainTruncated);
    EXPECT_EQ(a.simulatedCycles, b.simulatedCycles);
    EXPECT_EQ(a.warmupCyclesUsed, b.warmupCyclesUsed);
    EXPECT_EQ(a.measureCyclesUsed, b.measureCyclesUsed);
    EXPECT_EQ(a.stopReason, b.stopReason);
    EXPECT_EQ(a.ciRelHalfWidth, b.ciRelHalfWidth);
    EXPECT_EQ(a.ciHistory, b.ciHistory);
}

void
expectBitIdentical(const std::vector<SimPointResult> &a,
                   const std::vector<SimPointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("point " + std::to_string(i));
        expectBitIdentical(a[i], b[i]);
    }
}

TEST(ParallelDeterminism, SweepLoadMatchesSerialAcrossThreadCounts)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    SimPointOptions opts = quickOptions();

    auto serial = sweepLoadSerial(cfg, TrafficPattern::UniformRandom,
                                  kRates, opts);

    JobPool pool1(1);
    JobPool pool4(4);
    auto par1 = sweepLoad(cfg, TrafficPattern::UniformRandom, kRates,
                          opts, &pool1);
    auto par4 = sweepLoad(cfg, TrafficPattern::UniformRandom, kRates,
                          opts, &pool4);

    expectBitIdentical(par1, serial);
    expectBitIdentical(par4, serial);
}

TEST(ParallelDeterminism, EnvSizedSingleThreadPoolMatchesSerial)
{
    ::setenv("HNOC_THREADS", "1", 1);
    JobPool env_pool; // what a user gets with HNOC_THREADS=1
    ::unsetenv("HNOC_THREADS");
    ASSERT_EQ(env_pool.threadCount(), 1);

    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    SimPointOptions opts = quickOptions();
    auto serial = sweepLoadSerial(cfg, TrafficPattern::Transpose,
                                  kRates, opts);
    auto par = sweepLoad(cfg, TrafficPattern::Transpose, kRates, opts,
                         &env_pool);
    expectBitIdentical(par, serial);
}

TEST(ParallelDeterminism, ParallelRunIsRepeatable)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    SimPointOptions opts = quickOptions();
    JobPool pool(3);
    auto first = sweepLoad(cfg, TrafficPattern::UniformRandom, kRates,
                           opts, &pool);
    auto second = sweepLoad(cfg, TrafficPattern::UniformRandom, kRates,
                            opts, &pool);
    expectBitIdentical(first, second);
}

TEST(ParallelDeterminism, BlockSizesMatchSerialAcrossThreadCounts)
{
    // Cache-blocked stepping (§6g) composes with the parallel engine:
    // single-tile blocks, the auto default, and one whole-chip block
    // must all reproduce the serial default-blocking reference at
    // every thread count.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    SimPointOptions opts = quickOptions();

    auto serial = sweepLoadSerial(cfg, TrafficPattern::UniformRandom,
                                  kRates, opts);

    for (int block_tiles : {1, 1 << 20}) {
        NetworkConfig blocked = cfg;
        blocked.blockTiles = block_tiles;
        SCOPED_TRACE("block_tiles " + std::to_string(block_tiles));
        expectBitIdentical(
            sweepLoadSerial(blocked, TrafficPattern::UniformRandom,
                            kRates, opts),
            serial);
        for (int threads : {1, 3, 4}) {
            SCOPED_TRACE(std::to_string(threads) + " threads");
            JobPool pool(threads);
            expectBitIdentical(
                sweepLoad(blocked, TrafficPattern::UniformRandom,
                          kRates, opts, &pool),
                serial);
        }
    }
}

TEST(ParallelDeterminism, AdaptiveSweepMatchesSerialAcrossThreadCounts)
{
    // The adaptive stopping rules decide from simulated data only, so
    // the early-termination points must stay bit-identical no matter
    // how the sweep is scheduled (includes a saturating point, which
    // exercises the fast-abort path under the pool).
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    SimPointOptions opts = quickOptions();
    opts.warmupCycles = 4000;
    opts.measureCycles = 12000;
    opts.drainCycles = 20000;
    opts.control.mode = SimControlMode::Adaptive;
    const std::vector<double> rates = {0.01, 0.04, 0.2};

    auto serial = sweepLoadSerial(cfg, TrafficPattern::UniformRandom,
                                  rates, opts);
    JobPool pool1(1);
    JobPool pool3(3);
    JobPool pool4(4);
    expectBitIdentical(
        sweepLoad(cfg, TrafficPattern::UniformRandom, rates, opts,
                  &pool1),
        serial);
    expectBitIdentical(
        sweepLoad(cfg, TrafficPattern::UniformRandom, rates, opts,
                  &pool3),
        serial);
    expectBitIdentical(
        sweepLoad(cfg, TrafficPattern::UniformRandom, rates, opts,
                  &pool4),
        serial);
}

TEST(ParallelDeterminism, HeterogeneousBatchMatchesSerialLoop)
{
    SimPointOptions opts = quickOptions();
    std::vector<BatchPoint> points;
    for (LayoutKind kind :
         {LayoutKind::Baseline, LayoutKind::DiagonalBL}) {
        for (TrafficPattern p :
             {TrafficPattern::UniformRandom, TrafficPattern::Transpose}) {
            BatchPoint bp;
            bp.config = makeLayoutConfig(kind);
            bp.pattern = p;
            bp.opts = opts;
            bp.opts.seed = derivePointSeed(opts.seed, points.size());
            points.push_back(std::move(bp));
        }
    }

    std::vector<SimPointResult> serial;
    for (const BatchPoint &bp : points)
        serial.push_back(runOpenLoop(bp.config, bp.pattern, bp.opts));

    JobPool pool4(4);
    expectBitIdentical(runBatch(points, &pool4), serial);
    JobPool pool1(1);
    expectBitIdentical(runBatch(points, &pool1), serial);
}

TEST(ParallelDeterminism, MultiSeedMatchesSerialDerivation)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    SimPointOptions opts = quickOptions();
    const int num_seeds = 4;

    std::vector<SimPointResult> serial;
    for (int i = 0; i < num_seeds; ++i) {
        SimPointOptions o = opts;
        o.seed = derivePointSeed(opts.seed,
                                 static_cast<std::uint64_t>(i));
        serial.push_back(
            runOpenLoop(cfg, TrafficPattern::UniformRandom, o));
    }

    std::vector<BatchPoint> batch;
    for (int i = 0; i < num_seeds; ++i) {
        BatchPoint bp;
        bp.config = cfg;
        bp.opts = opts;
        bp.opts.seed = derivePointSeed(opts.seed,
                                       static_cast<std::uint64_t>(i));
        batch.push_back(std::move(bp));
    }
    JobPool pool4(4);
    auto par = runBatch(batch, &pool4);
    expectBitIdentical(par, serial);

    // Replicas use genuinely different seeds: latencies differ.
    EXPECT_NE(par[0].avgLatencyNs, par[1].avgLatencyNs);
}

TEST(ParallelDeterminism, MultiPatternMatchesSerialLoop)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    SimPointOptions opts = quickOptions();
    const std::vector<TrafficPattern> patterns = {
        TrafficPattern::UniformRandom, TrafficPattern::Transpose,
        TrafficPattern::BitComplement};

    std::vector<SimPointResult> serial;
    for (TrafficPattern p : patterns)
        serial.push_back(runOpenLoop(cfg, p, opts));

    std::vector<BatchPoint> batch;
    for (TrafficPattern p : patterns) {
        BatchPoint bp;
        bp.config = cfg;
        bp.pattern = p;
        bp.opts = opts;
        batch.push_back(std::move(bp));
    }
    JobPool pool2(2);
    expectBitIdentical(runBatch(batch, &pool2), serial);
}

/** Run @p fn as a job on @p pool, the way a sweep runs its points,
 *  so the point's Network draws its team from that pool. */
template <typename Fn>
auto
onPool(JobPool &pool, Fn fn)
{
    return pool.submit(fn).get();
}

/** The point's metrics as the run report writes them. */
std::string
pointJson(const SimPointResult &r)
{
    RunReport report("test", "step team");
    report.addPoint("point", r);
    return report.json();
}

TEST(ParallelDeterminism, BigMeshTeamMatchesSerialAndAlwaysStep)
{
    // 16x16 auto-sizes to 4 blocks: a 2-thread team on a 4-thread
    // pool, serial on a 1-thread pool.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL, 16);
    NetworkConfig always = cfg;
    always.alwaysStep = true;
    SimPointOptions opts = quickOptions();
    opts.warmupCycles = 500;
    opts.measureCycles = 1500;
    opts.drainCycles = 3000;
    opts.injectionRate = 0.2 * (8.0 / 16) / cfg.dataPacketFlits();

    JobPool pool1(1);
    JobPool pool4(4);
    auto run = [&](JobPool &pool, const NetworkConfig &c) {
        return onPool(pool, [&] {
            return runOpenLoop(c, TrafficPattern::UniformRandom, opts);
        });
    };
    SimPointResult serial = run(pool1, cfg);
    SimPointResult team = run(pool4, cfg);
    SimPointResult reference = run(pool4, always);

    EXPECT_EQ(serial.stepThreads, 1);
    EXPECT_EQ(reference.stepThreads, 1);
    EXPECT_GE(team.stepThreads, 2) << "the team never formed";
    EXPECT_GT(serial.trackedDelivered, 0u);
    expectBitIdentical(team, serial);
    expectBitIdentical(reference, serial);
    EXPECT_EQ(pointJson(team), pointJson(serial));
    EXPECT_EQ(pointJson(reference), pointJson(serial));
}

void
expectBitIdentical(const bench::CmpRunResult &a, const bench::CmpRunResult &b)
{
    EXPECT_EQ(a.avgLatencyNs, b.avgLatencyNs);
    EXPECT_EQ(a.queuingNs, b.queuingNs);
    EXPECT_EQ(a.blockingNs, b.blockingNs);
    EXPECT_EQ(a.transferNs, b.transferNs);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.power.buffers, b.power.buffers);
    EXPECT_EQ(a.power.crossbar, b.power.crossbar);
    EXPECT_EQ(a.power.arbiters, b.power.arbiters);
    EXPECT_EQ(a.power.links, b.power.links);
    EXPECT_EQ(a.powerW, b.powerW);
    EXPECT_EQ(a.roundTripMean, b.roundTripMean);
    EXPECT_EQ(a.roundTripStd, b.roundTripStd);
}

/** One CMP point in runCmpExperiment's shape, measured in chunks;
 *  @p between(chunk) runs after each chunk. */
template <typename Between>
bench::CmpRunResult
cmpPoint(const NetworkConfig &net_cfg, int *step_threads, Between between)
{
    CmpConfig cmp;
    cmp.seed = 11;
    CmpSystem sys(net_cfg, cmp);
    sys.assignWorkloadAll(workloadByName("TPC-C"));
    sys.warmCaches(2000);
    sys.run(500);
    sys.resetStats();
    for (int chunk = 0; chunk < 4; ++chunk) {
        sys.run(400);
        between(chunk);
    }
    EXPECT_TRUE(sys.network().auditCreditConservation());
    *step_threads = sys.network().stepThreads();

    bench::CmpRunResult res;
    res.avgLatencyNs = sys.netLatency().totalNs.mean();
    res.queuingNs = sys.netLatency().queuingNs.mean();
    res.blockingNs = sys.netLatency().blockingNs.mean();
    res.transferNs = sys.netLatency().transferNs.mean();
    res.ipc = sys.avgIpc();
    res.power = sys.networkPower();
    res.powerW = res.power.total();
    res.roundTripMean = sys.roundTripCoreCycles().mean();
    res.roundTripStd = sys.roundTripCoreCycles().stddev();
    return res;
}

TEST(ParallelDeterminism, MultiBlockCmpTeamMatchesSerialAndAlwaysStep)
{
    // 8x8 with 8-tile blocks: 8 blocks, a 4-thread team.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.blockTiles = 8;
    NetworkConfig always = cfg;
    always.alwaysStep = true;
    auto nothing = [](int) {};

    JobPool pool1(1);
    JobPool pool4(4);
    int serial_threads = 0;
    int team_threads = 0;
    int reference_threads = 0;
    bench::CmpRunResult serial = onPool(
        pool1, [&] { return cmpPoint(cfg, &serial_threads, nothing); });
    bench::CmpRunResult team = onPool(
        pool4, [&] { return cmpPoint(cfg, &team_threads, nothing); });
    bench::CmpRunResult reference = onPool(pool4, [&] {
        return cmpPoint(always, &reference_threads, nothing);
    });

    EXPECT_EQ(serial_threads, 1);
    EXPECT_EQ(reference_threads, 1);
    EXPECT_GE(team_threads, 2) << "the team never formed";
    EXPECT_GT(serial.ipc, 0.0);
    expectBitIdentical(team, serial);
    expectBitIdentical(reference, serial);
}

TEST(ParallelDeterminism, TeamChurnMatchesSerial)
{
    // Jobs queued on the pool mid-run take the helpers' workers back;
    // the point steps serially while they run, recruits again after,
    // and still matches the serial run bit for bit.
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    cfg.blockTiles = 8;
    auto nothing = [](int) {};

    JobPool pool1(1);
    int serial_threads = 0;
    bench::CmpRunResult serial = onPool(
        pool1, [&] { return cmpPoint(cfg, &serial_threads, nothing); });

    JobPool pool4(4);
    int team_threads = 0;
    std::vector<std::future<void>> busy;
    bench::CmpRunResult churned = onPool(pool4, [&] {
        return cmpPoint(cfg, &team_threads, [&](int chunk) {
            if (chunk % 2 != 0)
                return;
            for (int i = 0; i < 3; ++i)
                busy.push_back(pool4.submit([] {
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
                }));
        });
    });
    for (auto &f : busy)
        f.get();

    EXPECT_GE(team_threads, 2) << "the team never formed";
    expectBitIdentical(churned, serial);
}

/**
 * Uniform random requests from preCycle, each answered from the
 * delivery callback by a one-flit reply; logs (cycle, node, packet id)
 * of every delivery and checks that each callback runs on the thread
 * stepping the network.
 */
class RecordingClient : public NetworkClient
{
  public:
    struct Delivery
    {
        Cycle cycle;
        NodeId node;
        PacketId id;
        bool operator==(const Delivery &) const = default;
    };

    RecordingClient(int nodes, double rate)
        : gen_(TrafficPattern::UniformRandom, nodes, 8, 23), rate_(rate)
    {}

    void
    preCycle(Network &net, Cycle now) override
    {
        stepper_ = std::this_thread::get_id();
        for (NodeId n = 0; n < net.topology().numNodes(); ++n) {
            if (!gen_.shouldInject(n, rate_, now))
                continue;
            NodeId dst = gen_.pickDest(n);
            if (dst != INVALID_NODE)
                net.enqueuePacket(n, dst, net.dataPacketFlits());
        }
    }

    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        foreignThread_ |= std::this_thread::get_id() != stepper_;
        log.push_back({now, pkt.dst, pkt.id});
        if (pkt.tag == 0)
            net.enqueuePacket(pkt.dst, pkt.src, 1, 1);
    }

    std::vector<Delivery> log;
    bool foreignThread_ = false;

  private:
    TrafficGenerator gen_;
    double rate_;
    std::thread::id stepper_;
};

TEST(ParallelDeterminism, DeliveryOrderMatchesAcrossTeamSizes)
{
    // Per-block eject lists and the leader's callbacks between the
    // team's phases must deliver in the serial loop's order: canonical
    // node order within a cycle, every node's router in its block.
    NetworkConfig mesh = makeLayoutConfig(LayoutKind::DiagonalBL, 16);
    mesh.blockTiles = 16; // 16 blocks
    NetworkConfig cmesh;
    cmesh.name = "cmesh_4x4_c4";
    cmesh.topology = TopologyType::ConcentratedMesh;
    cmesh.radixX = 4;
    cmesh.radixY = 4;
    cmesh.concentration = 4;
    cmesh.blockTiles = 2; // 8 blocks of 8 nodes
    const std::pair<NetworkConfig, double> cases[] = {{mesh, 0.012},
                                                      {cmesh, 0.01}};

    JobPool pool1(1);
    JobPool pool3(3);
    JobPool pool4(4);
    for (const auto &[cfg, rate] : cases) {
        SCOPED_TRACE(cfg.name);
        auto once = [&, rate = rate](JobPool &pool, const NetworkConfig &c,
                                     int *threads) {
            return onPool(pool, [&] {
                // The team forms at the first step on which the pool
                // has idle workers: give the pool's other workers (a
                // loaded host may start them late, and the previous
                // run's helpers take a moment to return) up to 1 s to
                // become idle before this run steps.
                const auto give_up =
                    std::chrono::steady_clock::now() + std::chrono::seconds(1);
                while (pool.idleWorkers() < pool.threadCount() - 1 &&
                       std::chrono::steady_clock::now() < give_up)
                    std::this_thread::sleep_for(std::chrono::microseconds(50));
                Network net(c);
                RecordingClient client(net.topology().numNodes(), rate);
                net.setClient(&client);
                net.run(1500);
                EXPECT_FALSE(client.foreignThread_);
                *threads = net.stepThreads();
                return client.log;
            });
        };
        // Even then, a loaded host can keep every helper off a core for
        // the few ms the run lasts, and the leader steps each slot
        // itself. Such a run is compared all the same, and the run is
        // repeated, up to four times, for one the team stepped.
        auto run = [&](JobPool &pool, const NetworkConfig &c, int *threads) {
            auto log = once(pool, c, threads);
            for (int retry = 0; retry < 4 && *threads < 2 &&
                                pool.threadCount() > 1 && !c.alwaysStep;
                 ++retry) {
                auto again = once(pool, c, threads);
                EXPECT_TRUE(again == log);
                log = std::move(again);
            }
            return log;
        };
        NetworkConfig always = cfg;
        always.alwaysStep = true;
        int t1 = 0, t3 = 0, t4 = 0, ta = 0;
        auto serial = run(pool1, cfg, &t1);
        auto team3 = run(pool3, cfg, &t3);
        auto team4 = run(pool4, cfg, &t4);
        auto reference = run(pool4, always, &ta);

        EXPECT_EQ(t1, 1);
        EXPECT_GE(t3, 2) << "the 3-thread team never formed";
        EXPECT_GE(t4, 2) << "the 4-thread team never formed";
        EXPECT_GT(serial.size(), 500u);
        EXPECT_TRUE(team3 == serial);
        EXPECT_TRUE(team4 == serial);
        EXPECT_TRUE(reference == serial);
    }
}

TEST(ParallelDeterminism, SeedDerivationIsStableAndDecorrelated)
{
    // Pinned values: the derivation is part of the reproducibility
    // contract (serial and parallel paths must agree forever).
    EXPECT_EQ(derivePointSeed(1, 0), derivePointSeed(1, 0));
    EXPECT_NE(derivePointSeed(1, 0), derivePointSeed(1, 1));
    EXPECT_NE(derivePointSeed(1, 0), derivePointSeed(2, 0));
}

} // namespace
} // namespace hnoc
