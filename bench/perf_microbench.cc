/**
 * @file
 * Google-benchmark microbenchmarks of the simulator itself: router
 * step throughput, whole-network cycles/second for the baseline and
 * Diagonal+BL configurations, and the analytic models.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/bitops.hh"
#include "common/job_pool.hh"
#include "heteronoc/constraints.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "noc/traffic.hh"
#include "power/router_power.hh"
#include "telemetry/blame.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

namespace
{

using namespace hnoc;

/** Telemetry attachment level for the network-step benchmarks. */
enum class TelemetryLevel
{
    Off,      ///< no registry attached (hooks cost one branch)
    Registry, ///< MetricRegistry attached, no tracing
    Trace,    ///< registry plus a flight recorder sized for a traced run
    Blame,    ///< BlameCollector attached (per-packet stall charging)
};

/** Cycles/second of the full 64-router network under UR load. */
void
networkStep(benchmark::State &state, LayoutKind kind,
            TelemetryLevel level = TelemetryLevel::Off)
{
    NetworkConfig cfg = makeLayoutConfig(kind);
    Network net(cfg);
    std::unique_ptr<MetricRegistry> reg;
    std::unique_ptr<FlightRecorder> recorder;
    std::unique_ptr<BlameCollector> blame;
    if (level == TelemetryLevel::Registry ||
        level == TelemetryLevel::Trace) {
        reg = net.makeMetricRegistry(1000);
        net.attachTelemetry(reg.get());
    }
    if (level == TelemetryLevel::Trace) {
        recorder = std::make_unique<FlightRecorder>(FlitTrace::kRingCapacity);
        net.attachFlightRecorder(recorder.get());
    }
    if (level == TelemetryLevel::Blame) {
        blame = net.makeBlameCollector();
        net.attachBlame(blame.get());
    }
    TrafficGenerator gen(TrafficPattern::UniformRandom, 64, 8, 7);
    Cycle now = 0;
    for (auto _ : state) {
        for (NodeId n = 0; n < 64; ++n) {
            if (gen.shouldInject(n, 0.03, now)) {
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
    if (reg)
        benchmark::DoNotOptimize(reg->total(Ctr::CreditStalls));
    if (recorder)
        benchmark::DoNotOptimize(recorder->totalRecorded());
    if (blame)
        benchmark::DoNotOptimize(blame->packets());
}

void
BM_NetworkStepBaseline(benchmark::State &state)
{
    networkStep(state, LayoutKind::Baseline);
}
BENCHMARK(BM_NetworkStepBaseline);

void
BM_NetworkStepDiagonalBL(benchmark::State &state)
{
    networkStep(state, LayoutKind::DiagonalBL);
}
BENCHMARK(BM_NetworkStepDiagonalBL);

/**
 * Telemetry overhead ladder on the loaded baseline network. The CI
 * perf guard compares BM_NetworkStepBaseline between HNOC_TELEMETRY=ON
 * and OFF builds (hooks-with-no-registry must stay within noise); the
 * two variants below price an attached registry and full tracing.
 */
void
BM_NetworkStepTelemetryRegistry(benchmark::State &state)
{
    networkStep(state, LayoutKind::Baseline, TelemetryLevel::Registry);
}
BENCHMARK(BM_NetworkStepTelemetryRegistry);

void
BM_NetworkStepFullTrace(benchmark::State &state)
{
    networkStep(state, LayoutKind::Baseline, TelemetryLevel::Trace);
}
BENCHMARK(BM_NetworkStepFullTrace);

void
BM_NetworkStepBlame(benchmark::State &state)
{
    networkStep(state, LayoutKind::Baseline, TelemetryLevel::Blame);
}
BENCHMARK(BM_NetworkStepBlame);

/**
 * Cycles/second at a fixed offered load under a chosen scheduler —
 * the active-set vs always-step A/B that records the scheduling
 * speedup in BENCH_trajectory.json. Loads (in flits/node/cycle,
 * divided by the 9-flit data packet to get the injection rate):
 * low = 0.02, mid = 0.2, saturation = offered far beyond acceptance
 * with an in-flight cap so over-saturation cannot grow memory without
 * bound (the cap models a finite-window client, identically for both
 * schedulers).
 */
void
stepLoad(benchmark::State &state, LayoutKind kind, double pkt_rate,
         bool always_step, std::size_t max_in_flight = 0)
{
    NetworkConfig cfg = makeLayoutConfig(kind);
    cfg.alwaysStep = always_step;
    Network net(cfg);
    TrafficGenerator gen(TrafficPattern::UniformRandom, 64, 8, 7);
    Cycle now = 0;
    for (auto _ : state) {
        for (NodeId n = 0; n < 64; ++n) {
            if (gen.shouldInject(n, pkt_rate, now)) {
                if (max_in_flight && net.packetsInFlight() >= max_in_flight)
                    continue;
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
    benchmark::DoNotOptimize(net.packetsDelivered());
}

// 0.02 flits/node/cycle on 9-flit data packets.
constexpr double kLowPktRate = 0.02 / 9.0;
// 0.2 flits/node/cycle.
constexpr double kMidPktRate = 0.2 / 9.0;
// Far past saturation; acceptance is throughput-limited.
constexpr double kSatPktRate = 0.2;
constexpr std::size_t kSatInFlightCap = 400;

BENCHMARK_CAPTURE(stepLoad, mesh_low_active, LayoutKind::Baseline,
                  kLowPktRate, false);
BENCHMARK_CAPTURE(stepLoad, mesh_low_always, LayoutKind::Baseline,
                  kLowPktRate, true);
BENCHMARK_CAPTURE(stepLoad, mesh_mid_active, LayoutKind::Baseline,
                  kMidPktRate, false);
BENCHMARK_CAPTURE(stepLoad, mesh_mid_always, LayoutKind::Baseline,
                  kMidPktRate, true);
BENCHMARK_CAPTURE(stepLoad, mesh_sat_active, LayoutKind::Baseline,
                  kSatPktRate, false, kSatInFlightCap);
BENCHMARK_CAPTURE(stepLoad, mesh_sat_always, LayoutKind::Baseline,
                  kSatPktRate, true, kSatInFlightCap);
BENCHMARK_CAPTURE(stepLoad, hetero_low_active, LayoutKind::DiagonalBL,
                  kLowPktRate, false);
BENCHMARK_CAPTURE(stepLoad, hetero_low_always, LayoutKind::DiagonalBL,
                  kLowPktRate, true);
BENCHMARK_CAPTURE(stepLoad, hetero_mid_active, LayoutKind::DiagonalBL,
                  kMidPktRate, false);
BENCHMARK_CAPTURE(stepLoad, hetero_mid_always, LayoutKind::DiagonalBL,
                  kMidPktRate, true);
BENCHMARK_CAPTURE(stepLoad, hetero_sat_active, LayoutKind::DiagonalBL,
                  kSatPktRate, false, kSatInFlightCap);
BENCHMARK_CAPTURE(stepLoad, hetero_sat_always, LayoutKind::DiagonalBL,
                  kSatPktRate, true, kSatInFlightCap);

/**
 * stepLoad with a Profiler attached, exporting the per-phase
 * wall-clock shares as user counters. Not part of the CI overhead
 * filter (the instrumented numbers answer "where does the time go",
 * not "how fast is it"); run it by hand to localize a stepLoad
 * regression to a pipeline phase — see DESIGN.md §6d for the
 * saturation-case attribution this produced.
 */
void
profiledStepLoad(benchmark::State &state, LayoutKind kind,
                 double pkt_rate, std::size_t max_in_flight = 0)
{
    NetworkConfig cfg = makeLayoutConfig(kind);
    Network net(cfg);
    Profiler prof;
    net.attachProfiler(&prof);
    TrafficGenerator gen(TrafficPattern::UniformRandom, 64, 8, 7);
    Cycle now = 0;
    for (auto _ : state) {
        for (NodeId n = 0; n < 64; ++n) {
            if (gen.shouldInject(n, pkt_rate, now)) {
                if (max_in_flight && net.packetsInFlight() >= max_in_flight)
                    continue;
                NodeId dst = gen.pickDest(n);
                if (dst != INVALID_NODE)
                    net.enqueuePacket(n, dst, cfg.dataPacketFlits());
            }
        }
        net.step();
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
    benchmark::DoNotOptimize(net.packetsDelivered());
    if (prof.ns(ProfPhase::StepTotal) == 0)
        return; // HNOC_TELEMETRY=OFF build: nothing collected
    auto total = static_cast<double>(prof.ns(ProfPhase::StepTotal));
    auto share = [&](const char *name, std::uint64_t ns) {
        state.counters[name] =
            benchmark::Counter(100.0 * static_cast<double>(ns) / total);
    };
    share("pct_channel_delivery", prof.ns(ProfPhase::ChannelDelivery));
    share("pct_ni_eject", prof.ns(ProfPhase::NiEject));
    share("pct_route_compute", prof.ns(ProfPhase::RouteCompute));
    share("pct_vc_allocate", prof.ns(ProfPhase::VcAllocate));
    share("pct_switch_allocate", prof.ns(ProfPhase::SwitchAllocate));
    share("pct_ni_inject", prof.ns(ProfPhase::NiInject));
    share("pct_scan_overhead", prof.unattributedNs());
    if (prof.numBlocks() > 0)
        state.counters["bytes_streamed_per_cycle"] =
            benchmark::Counter(prof.bytesStreamedPerCycle());
    state.counters["visits_per_cycle_sa"] = benchmark::Counter(
        static_cast<double>(prof.visits(ProfPhase::SwitchAllocate)) /
        static_cast<double>(prof.cycles() ? prof.cycles() : 1));
}
BENCHMARK_CAPTURE(profiledStepLoad, mesh_mid, LayoutKind::Baseline,
                  kMidPktRate);
BENCHMARK_CAPTURE(profiledStepLoad, mesh_sat, LayoutKind::Baseline,
                  kSatPktRate, kSatInFlightCap);

/**
 * Bitmask-arbiter microbenchmark isolating the VA/SA inner loops from
 * the rest of the router. One iteration is one arbitration cycle over
 * an 80-slot request ring (a flatfly-scale ports * vcs product, so the
 * multi-word mask path is exercised): a VA-style pass that visits every
 * requester in rotating-priority order and claims the first free
 * downstream VC, then an SA-style single-grant rotate-mask + ctz pick.
 * dense_reqs sets every slot (the saturated-router worst case);
 * sparse_reqs sets every 13th (the low-load common case where ctz
 * skips whole idle words).
 */
void
arbiter(benchmark::State &state, int nbits, int stride)
{
    std::uint64_t req[4] = {};
    const int nwords = bitops::maskWords(nbits);
    for (int i = 0; i < nbits; i += stride)
        bitops::maskSet(req, i);
    std::uint64_t alloc = 0;
    Cycle now = 0;
    std::uint64_t grants = 0;
    for (auto _ : state) {
        int start = static_cast<int>(now % nbits);
        bitops::forEachSetCyclic(req, nwords, nbits, start, [&](int) {
            int v = bitops::firstClearInRange64(alloc, 0, 7);
            if (v >= 0) {
                alloc |= std::uint64_t{1} << v;
                ++grants;
            }
            return true;
        });
        alloc = 0;
        int g = bitops::pickRoundRobin(req, nwords, nbits, start);
        benchmark::DoNotOptimize(g);
        ++now;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(grants));
    benchmark::DoNotOptimize(grants);
}
BENCHMARK_CAPTURE(arbiter, dense_reqs, 80, 1);
BENCHMARK_CAPTURE(arbiter, sparse_reqs, 80, 13);

/**
 * Cycles/second of an idle network: no injection, so every router's
 * routeCompute should skip all slots via the empty-rcMask fast path.
 */
void
BM_NetworkStepIdle(benchmark::State &state)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    Network net(cfg);
    for (auto _ : state)
        net.step();
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NetworkStepIdle);

/** Job-pool overhead: submit + drain a burst of trivial jobs. */
void
BM_JobPoolSubmitDrain(benchmark::State &state)
{
    JobPool pool(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto results = pool.runOrdered(
            64, [](std::size_t i) { return static_cast<int>(i * i); });
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_JobPoolSubmitDrain)->Arg(1)->Arg(2)->Arg(4);

namespace
{

const std::vector<double> kSweepRates = {0.01, 0.02, 0.03, 0.04};

SimPointOptions
sweepBenchOptions()
{
    // Short but non-trivial points; the serial/parallel pair below is
    // the perf-trajectory probe for the experiment engine.
    SimPointOptions opts;
    opts.warmupCycles = 500;
    opts.measureCycles = 1500;
    opts.drainCycles = 3000;
    return opts;
}

} // namespace

void
BM_SweepLoadSerial(benchmark::State &state)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    for (auto _ : state) {
        auto curve = sweepLoadSerial(cfg, TrafficPattern::UniformRandom,
                                     kSweepRates, sweepBenchOptions());
        benchmark::DoNotOptimize(curve.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSweepRates.size()));
}
BENCHMARK(BM_SweepLoadSerial)->Unit(benchmark::kMillisecond);

void
BM_SweepLoadParallel(benchmark::State &state)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    JobPool pool(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        auto curve = sweepLoad(cfg, TrafficPattern::UniformRandom,
                               kSweepRates, sweepBenchOptions(), &pool);
        benchmark::DoNotOptimize(curve.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSweepRates.size()));
}
BENCHMARK(BM_SweepLoadParallel)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

/**
 * Adaptive vs reference windows on the fig07 UR load sweep (Baseline
 * layout): the perf-trajectory probe for the simulation controller.
 * User counters carry the gate inputs: total simulated cycles,
 * pre-saturation mean latency, and the count of saturation-region
 * points (saturated, or accepted < 95 % of offered — the same rule
 * preSaturationAvgLatencyNs applies), so check_perf_regression.py can
 * assert >= 40 % cycle savings with <= 1 % latency drift and identical
 * saturation classification between the two variants.
 */
void
adaptiveSweep(benchmark::State &state, bool adaptive)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    const std::vector<double> rates = {0.004, 0.012, 0.020, 0.028,
                                       0.036, 0.044, 0.052, 0.060,
                                       0.068};
    SimPointOptions opts;
    opts.warmupCycles = 6000;
    opts.measureCycles = 15000;
    opts.drainCycles = 30000;
    if (adaptive)
        opts.control.mode = SimControlMode::Adaptive;

    std::uint64_t cycles = 0;
    double presat = 0.0;
    std::uint64_t sat_points = 0;
    for (auto _ : state) {
        auto curve = sweepLoadSerial(cfg, TrafficPattern::UniformRandom,
                                     rates, opts);
        cycles = 0;
        sat_points = 0;
        for (const auto &p : curve) {
            cycles += p.simulatedCycles;
            if (p.saturated ||
                (p.offeredRate > 0.0 &&
                 p.acceptedRate < 0.95 * p.offeredRate))
                ++sat_points;
        }
        presat = preSaturationAvgLatencyNs(curve);
        benchmark::DoNotOptimize(curve.data());
    }
    state.counters["simulated_cycles"] =
        benchmark::Counter(static_cast<double>(cycles));
    state.counters["presat_latency_ns"] = benchmark::Counter(presat);
    state.counters["saturated_points"] =
        benchmark::Counter(static_cast<double>(sat_points));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(rates.size()));
}
BENCHMARK_CAPTURE(adaptiveSweep, fig07_ur_reference, false)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(adaptiveSweep, fig07_ur_adaptive, true)
    ->Unit(benchmark::kMillisecond);

void
BM_PowerModelCalibration(benchmark::State &state)
{
    for (auto _ : state) {
        auto model =
            RouterPowerModel::calibrated(router_types::BIG, 2.07);
        benchmark::DoNotOptimize(model.powerAtActivity(0.5).total());
    }
}
BENCHMARK(BM_PowerModelCalibration);

void
BM_ResourceAccounting(benchmark::State &state)
{
    NetworkConfig cfg = makeLayoutConfig(LayoutKind::DiagonalBL);
    for (auto _ : state) {
        auto acc = accountResources(cfg);
        benchmark::DoNotOptimize(acc.bufferBits);
    }
}
BENCHMARK(BM_ResourceAccounting);

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
