/**
 * @file
 * Simulator cost scaling curve: wall-clock ns per simulated cycle per
 * tile and simulator bytes per tile as the mesh grows 8x8 -> 16x16 ->
 * 24x24 -> 32x32 -> 48x48 for the homogeneous baseline (8 -> 32 for
 * the Diagonal+BL heterogeneous layout), plus a 16x16 concentration-4
 * concentrated mesh (1024 tiles on 256 routers — a different
 * router/NI balance).
 * One google-benchmark per point, named `scaling/<layout>_<radix>`;
 * user counters carry the committed-trajectory inputs:
 *
 *   ns_per_cycle_per_tile  timed over an UNPROFILED mid-load run, so
 *                          the number is the simulator's real cost,
 *                          not the instrumented cost. It is wall
 *                          time: a network of four or more blocks
 *                          steps on a team of the shared pool's
 *                          HNOC_THREADS threads (DESIGN.md §6h), so
 *                          HNOC_THREADS=1 gives the one-thread cost
 *   bytes_per_tile         end-of-run memory audit (grown capacities;
 *                          deterministic for a fixed seed, whatever
 *                          the thread count)
 *   tiles                  radix * radix
 *   serial_ns_per_cycle,   on a network that stepped on a team: the
 *   slot_imbalance         leader's serial ns per timed cycle, and
 *                          the slowest team slot over the mean one
 *                          (Network::teamStats; absent in
 *                          HNOC_TELEMETRY=OFF builds)
 *   pct_*                  phase shares from a separate short PROFILED
 *                          run of an identically-loaded network (the
 *                          attribution question tolerates overhead;
 *                          the cost number must not pay it)
 *
 * tools/make_perf_trajectory.py distills these into the `scaling`
 * block of BENCH_trajectory.json, and tools/check_perf_regression.py
 * gates ns/cycle/tile growth from 8x8 to 16x16 in CI
 * (docs/REPRODUCING.md, "Scaling curve").
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <vector>

#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/traffic.hh"
#include "telemetry/profiler.hh"

namespace
{

using namespace hnoc;

// Mid-load operating point at radix 8: 0.2 flits/node/cycle on data
// packets. UR mesh bisection capacity per node falls as 1/radix while
// the per-node offered load is constant, so larger meshes are scaled
// by 8/radix to sit at the same fraction of saturation — otherwise a
// 16x16 point measures a saturated network doing categorically more
// work per tile and the curve stops being a scaling curve.
constexpr double kFlitLoadR8 = 0.2;

double
packetRate(const NetworkConfig &cfg, int radix)
{
    return kFlitLoadR8 * (8.0 / radix) / cfg.dataPacketFlits();
}

/** Drive @p net with UR traffic for @p cycles (shared by the timed
 *  and the profiled runs, so both see the same load shape). */
void
driveCycles(Network &net, TrafficGenerator &gen, const NetworkConfig &cfg,
            double pkt_rate, Cycle &now, Cycle cycles)
{
    int nodes = cfg.numNodes();
    for (Cycle c = 0; c < cycles; ++c) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, pkt_rate, now)) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        ++now;
    }
}

int
gridCols(int nodes)
{
    int cols = 1;
    while (cols * cols < nodes)
        ++cols;
    return cols;
}

/** One scaling point over an arbitrary config; @p load_radix is the
 *  mesh radix used to normalise offered load to a constant fraction
 *  of bisection saturation (router-grid columns for the cmesh). */
void
scalingPoint(benchmark::State &state, const NetworkConfig &cfg,
             int load_radix)
{
    int nodes = cfg.numNodes();
    double pkt_rate = packetRate(cfg, load_radix);

    Network net(cfg);
    TrafficGenerator gen(TrafficPattern::UniformRandom, nodes,
                         gridCols(nodes), 7);
    Cycle now = 0;

    // Warm past the cold-start transient so the timed loop sees
    // steady-state occupancy and grown container capacities.
    driveCycles(net, gen, cfg, pkt_rate, now, 2000);
    net.resetMeasurement(); // team accounting covers the timed loop

    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    std::uint64_t timed_cycles = 0;
    for (auto _ : state) {
        for (NodeId n = 0; n < nodes; ++n) {
            if (gen.shouldInject(n, pkt_rate, now)) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        ++now;
        ++timed_cycles;
    }
    auto t1 = clock::now();
    benchmark::DoNotOptimize(net.packetsDelivered());
    double ns = static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
            .count());

    state.SetItemsProcessed(state.iterations());
    state.counters["tiles"] =
        benchmark::Counter(static_cast<double>(nodes));
    if (timed_cycles > 0)
        state.counters["ns_per_cycle_per_tile"] = benchmark::Counter(
            ns / static_cast<double>(timed_cycles) /
            static_cast<double>(nodes));

    const TeamStats &team = net.teamStats();
    if (team.cycles > 0) {
        state.counters["serial_ns_per_cycle"] =
            benchmark::Counter(team.serialNsPerCycle());
        state.counters["slot_imbalance"] =
            benchmark::Counter(team.slotImbalance());
    }

    MemoryAudit audit = net.memoryAudit();
    state.counters["bytes_per_tile"] =
        benchmark::Counter(audit.bytesPerTile());
    state.counters["total_bytes"] =
        benchmark::Counter(static_cast<double>(audit.totalBytes()));

    // Phase attribution from a short profiled replay on a fresh,
    // identically-configured network. In HNOC_TELEMETRY=OFF builds the
    // profiler collects nothing and the pct_* counters are omitted.
    Network pnet(cfg);
    Profiler prof;
    pnet.attachProfiler(&prof);
    TrafficGenerator pgen(TrafficPattern::UniformRandom, nodes,
                          gridCols(nodes), 7);
    Cycle pnow = 0;
    driveCycles(pnet, pgen, cfg, pkt_rate, pnow, 4000);
    if (prof.ns(ProfPhase::StepTotal) > 0) {
        double total =
            static_cast<double>(prof.ns(ProfPhase::StepTotal));
        auto pct = [&](ProfPhase ph) {
            return 100.0 * static_cast<double>(prof.ns(ph)) / total;
        };
        state.counters["pct_channel_delivery"] =
            benchmark::Counter(pct(ProfPhase::ChannelDelivery));
        state.counters["pct_ni"] = benchmark::Counter(
            pct(ProfPhase::NiEject) + pct(ProfPhase::NiInject));
        state.counters["pct_route_compute"] =
            benchmark::Counter(pct(ProfPhase::RouteCompute));
        state.counters["pct_vc_allocate"] =
            benchmark::Counter(pct(ProfPhase::VcAllocate));
        state.counters["pct_switch_allocate"] =
            benchmark::Counter(pct(ProfPhase::SwitchAllocate));
        state.counters["pct_scan_overhead"] = benchmark::Counter(
            100.0 * static_cast<double>(prof.unattributedNs()) / total);
        if (prof.numBlocks() > 0)
            state.counters["bytes_streamed_per_cycle"] =
                benchmark::Counter(prof.bytesStreamedPerCycle());
    }
}

void
scaling(benchmark::State &state, LayoutKind kind, int radix)
{
    scalingPoint(state, makeLayoutConfig(kind, radix), radix);
}

/** Concentrated-mesh point: @p radix x @p radix routers, each with
 *  @p concentration terminals (16x16 c4 = 1024 tiles on 256 routers —
 *  a different router/NI balance than any pure mesh point). */
void
scalingCmesh(benchmark::State &state, int radix, int concentration)
{
    NetworkConfig cfg;
    cfg.name = "scaling_cmesh";
    cfg.topology = TopologyType::ConcentratedMesh;
    cfg.radixX = radix;
    cfg.radixY = radix;
    cfg.concentration = concentration;
    scalingPoint(state, cfg, radix);
}

BENCHMARK_CAPTURE(scaling, mesh_8, LayoutKind::Baseline, 8);
BENCHMARK_CAPTURE(scaling, hetero_8, LayoutKind::DiagonalBL, 8);
BENCHMARK_CAPTURE(scaling, mesh_16, LayoutKind::Baseline, 16);
BENCHMARK_CAPTURE(scaling, hetero_16, LayoutKind::DiagonalBL, 16);
BENCHMARK_CAPTURE(scaling, mesh_24, LayoutKind::Baseline, 24);
BENCHMARK_CAPTURE(scaling, mesh_32, LayoutKind::Baseline, 32);
BENCHMARK_CAPTURE(scaling, hetero_32, LayoutKind::DiagonalBL, 32);
BENCHMARK_CAPTURE(scalingCmesh, cmesh_16, 16, 4);
BENCHMARK_CAPTURE(scaling, mesh_48, LayoutKind::Baseline, 48);

} // namespace

// Flag-equivalent default repetitions: per-benchmark ->Repetitions()
// would rename every series to "<name>/repeats:N" and break the
// trajectory/CI series keys, so inject the flag instead when the
// caller did not pass one (explicit flags still win).
int
main(int argc, char **argv)
{
    std::vector<char *> args(argv, argv + argc);
    char default_reps[] = "--benchmark_repetitions=3";
    bool has_reps = false;
    for (int i = 1; i < argc; ++i)
        if (std::strncmp(argv[i], "--benchmark_repetitions",
                         sizeof("--benchmark_repetitions") - 1) == 0)
            has_reps = true;
    if (!has_reps)
        args.insert(args.begin() + 1, default_reps);
    int ac = static_cast<int>(args.size());
    benchmark::Initialize(&ac, args.data());
    if (benchmark::ReportUnrecognizedArguments(ac, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
