/**
 * @file
 * perf-smoke CTest target: one short load sweep through the parallel
 * experiment engine, checked bit-identical against the serial path,
 * then one multi-block point and one multi-block closed-loop CMP point
 * stepped on a team of pool workers.
 * Small enough to run under ThreadSanitizer (-DHNOC_TSAN=ON), where it
 * exercises the JobPool queue, the future hand-off, the shared-state
 * audit of the sim harness and the stepping team under real
 * contention:
 *
 *   ctest -L perf-smoke --output-on-failure
 */

#include <cstdio>
#include <cstring>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/sim_harness.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

using namespace hnoc;

int
main()
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    SimPointOptions opts;
    opts.warmupCycles = 500;
    opts.measureCycles = 1200;
    opts.drainCycles = 2500;
    opts.seed = 5;
    const std::vector<double> rates = {0.01, 0.02, 0.03, 0.04};

    JobPool pool; // HNOC_THREADS-sized (the CTest entry sets it to 4)
    std::vector<SimPointResult> par =
        sweepLoad(cfg, TrafficPattern::UniformRandom, rates, opts, &pool);
    std::vector<SimPointResult> ser =
        sweepLoadSerial(cfg, TrafficPattern::UniformRandom, rates, opts);

    if (par.size() != rates.size() || ser.size() != rates.size()) {
        std::fprintf(stderr, "perf_smoke: wrong point count\n");
        return 1;
    }
    for (std::size_t i = 0; i < par.size(); ++i) {
        if (par[i].avgLatencyNs != ser[i].avgLatencyNs ||
            par[i].acceptedRate != ser[i].acceptedRate ||
            par[i].trackedDelivered != ser[i].trackedDelivered) {
            std::fprintf(stderr,
                         "perf_smoke: parallel/serial mismatch at "
                         "point %zu\n", i);
            return 1;
        }
        if (par[i].avgLatencyNs <= 0.0) {
            std::fprintf(stderr,
                         "perf_smoke: implausible latency at point "
                         "%zu\n", i);
            return 1;
        }
    }

    // One multi-block point alone on the pool: its Network steps on a
    // team of the idle workers (barrier, pinned boundary ends, helpers
    // joining and leaving; DESIGN.md §6h), checked against the
    // always-step loop.
    NetworkConfig blocked = cfg;
    blocked.blockTiles = 8;
    NetworkConfig always = blocked;
    always.alwaysStep = true;
    SimPointOptions one = opts;
    one.injectionRate = 0.03;
    SimPointResult team = pool.submit([&] {
        return runOpenLoop(blocked, TrafficPattern::UniformRandom, one);
    }).get();
    SimPointResult ref =
        runOpenLoop(always, TrafficPattern::UniformRandom, one);
    if (team.stepThreads < 2) {
        std::fprintf(stderr, "perf_smoke: the stepping team never "
                             "formed\n");
        return 1;
    }
    if (team.avgLatencyNs != ref.avgLatencyNs ||
        team.acceptedRate != ref.acceptedRate ||
        team.trackedDelivered != ref.trackedDelivered) {
        std::fprintf(stderr, "perf_smoke: team/always-step mismatch\n");
        return 1;
    }

    // One closed-loop CMP point on a team, run the way
    // ParallelDeterminism.MultiBlockCmpTeamMatchesSerialAndAlwaysStep
    // runs it: its delivery callbacks run on the leader between the
    // team's phases and inject the protocol's replies.
    auto cmp_point = [](const NetworkConfig &net_cfg, int *step_threads) {
        CmpConfig cmp;
        cmp.seed = 11;
        CmpSystem sys(net_cfg, cmp);
        sys.assignWorkloadAll(workloadByName("TPC-C"));
        sys.warmCaches(2000);
        sys.run(500);
        sys.resetStats();
        sys.run(1600);
        *step_threads = sys.network().stepThreads();
        return std::make_pair(sys.avgIpc(), sys.netLatency().totalNs.mean());
    };
    int cmp_threads = 0;
    int ref_threads = 0;
    auto cmp_team = pool.submit([&] {
        return cmp_point(blocked, &cmp_threads);
    }).get();
    auto cmp_ref = cmp_point(always, &ref_threads);
    if (cmp_threads < 2) {
        std::fprintf(stderr, "perf_smoke: the CMP point's team never "
                             "formed\n");
        return 1;
    }
    if (cmp_team != cmp_ref || cmp_team.first <= 0.0) {
        std::fprintf(stderr, "perf_smoke: CMP team/always-step "
                             "mismatch\n");
        return 1;
    }

    std::printf("perf_smoke: %zu points, %d threads, parallel == "
                "serial; one point on a %d-thread team and one CMP point "
                "on a %d-thread team == always-step\n",
                par.size(), pool.threadCount(), team.stepThreads,
                cmp_threads);
    return 0;
}
