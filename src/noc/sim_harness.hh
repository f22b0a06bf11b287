/**
 * @file
 * Open-loop simulation harness: warm up, measure over a fixed window,
 * drain; reports latency (with the paper's queuing/blocking/transfer
 * breakdown), accepted throughput, power, utilization maps and the
 * flit-combining rate. Drives every network-only experiment
 * (Figs 1, 2, 7, 8, 9 and the network side of Fig 10).
 *
 * Sim points are independent and deterministic (each constructs its own
 * Network, TrafficGenerator and Rng from its seed), so the batch layer
 * below fans them out across a JobPool; results are collected in input
 * order and are bit-identical to the serial loop.
 */

#ifndef HNOC_NOC_SIM_HARNESS_HH
#define HNOC_NOC_SIM_HARNESS_HH

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/job_pool.hh"
#include "noc/network.hh"
#include "noc/sim_control.hh"
#include "noc/traffic.hh"
#include "power/router_power.hh"

namespace hnoc
{

/** Knobs for one open-loop simulation point. */
struct SimPointOptions
{
    double injectionRate = 0.01; ///< packets/node/cycle offered
    Cycle warmupCycles = 10000;
    Cycle measureCycles = 30000;
    Cycle drainCycles = 60000; ///< post-measurement drain cap
    std::uint64_t seed = 1;
    /** Fraction of packets that are single-flit control packets;
     *  the rest are full data packets (1024 b). */
    double controlFraction = 0.0;

    /** Window policy. Reference keeps the fixed windows above; in
     *  Adaptive mode they become ceilings and the stopping rules of
     *  src/noc/sim_control.hh decide when each phase ends. */
    SimControlOptions control;

    /** Collect a MetricRegistry over the measurement window. */
    bool collectMetrics = false;
    /** Epoch length (cycles) of the registry's time series. */
    Cycle telemetryEpoch = 1000;

    /** @name Diagnostics (docs/OBSERVABILITY.md) */
    ///@{
    /** Attach a FlightRecorder for the whole run, so a watchdog-trip
     *  postmortem carries recent pipeline history and the result
     *  carries the ring (FlitTrace renders it as a trace). */
    bool flightRecorder = false;
    /** Ring capacity (events) when flightRecorder is set. */
    std::size_t flightRecorderCapacity = 1u << 16;
    /** Print a live progress line to stderr every N cycles (0 = off). */
    Cycle progressEvery = 0;
    /** Run the credit-conservation auditor every N cycles and panic on
     *  violation. 0 = automatic: every telemetry epoch in debug
     *  builds, off in release. */
    Cycle auditEvery = 0;
    /** Enable a ProgressWatchdog with this window (0 = off). A trip
     *  warns once per stalled window and, when postmortemPath is set,
     *  dumps an hnoc-postmortem-v1 document. */
    Cycle watchdogWindow = 0;
    /** Postmortem destination for watchdog trips (honors
     *  HNOC_JSON_DIR); empty = no dump. */
    std::string postmortemPath;
    /** Attach a Profiler for the whole run and return the per-phase
     *  wall-clock breakdown plus the end-of-run memory audit in the
     *  result. Report-only: simulated results stay bit-identical.
     *  No-op in HNOC_TELEMETRY=OFF builds. */
    bool profile = false;
    /** Attach a BlameCollector for the whole run and return the
     *  per-packet stall-cause attribution in the result. Report-only:
     *  simulated results stay bit-identical (the ledger is observation,
     *  never consulted by the model). No-op in HNOC_TELEMETRY=OFF
     *  builds. */
    bool collectBlame = false;
    ///@}
};

/** Results of one open-loop simulation point. */
struct SimPointResult
{
    double offeredRate = 0.0;  ///< packets/node/cycle
    double acceptedRate = 0.0; ///< packets/node/cycle in the window

    double avgLatencyCycles = 0.0; ///< created -> ejected
    double avgLatencyNs = 0.0;
    double avgQueuingNs = 0.0;  ///< source-queue wait
    double avgBlockingNs = 0.0; ///< in-network contention
    double avgTransferNs = 0.0; ///< contention-free component
    double p95LatencyNs = 0.0;

    double networkPowerW = 0.0;
    PowerBreakdown power;

    double combineRate = 0.0; ///< wide-channel pairing rate
    bool saturated = false;   ///< tracked packets still undelivered
    /** Drain ran to its drainCycles cap with tracked packets still in
     *  flight, so the latency means exclude the slowest packets and
     *  are biased low. Always false on a saturation fast-abort (the
     *  drain is skipped, not truncated). */
    bool drainTruncated = false;

    /** @name Simulation-control outcome (src/noc/sim_control.hh) */
    ///@{
    Cycle simulatedCycles = 0;   ///< total cycles stepped (all phases)
    Cycle warmupCyclesUsed = 0;  ///< warmup actually paid
    Cycle measureCyclesUsed = 0; ///< measurement window actually run
    StopReason stopReason = StopReason::FixedWindow;
    /** Relative CI half-width of the batch means at stop; -1 when not
     *  available (reference mode, or fewer than 2 batches). */
    double ciRelHalfWidth = -1.0;
    /** Half-width after each closed batch (convergence probe; empty
     *  in reference mode). */
    std::vector<double> ciHistory;
    ///@}

    std::vector<double> bufferUtilPct; ///< per router
    std::vector<double> linkUtilPct;   ///< per router

    std::uint64_t trackedDelivered = 0;
    std::uint64_t trackedCreated = 0;

    /** Mean packet latency (ns) binned by hop count (router
     *  traversals); empty bins are 0. Index = hops. */
    std::vector<double> latencyByHopsNs;

    /** Measurement-window metrics (opts.collectMetrics). shared_ptr
     *  so results stay cheap to copy through the batch layer. */
    std::shared_ptr<MetricRegistry> metrics;

    /** Watchdog trips observed (opts.watchdogWindow). */
    std::uint64_t watchdogTrips = 0;
    /** The whole run's recorder ring (opts.flightRecorder). shared_ptr
     *  so results stay cheap to copy through the batch layer. */
    std::shared_ptr<FlightRecorder> flightRecorder;

    /** @name Self-profile (opts.profile; docs/OBSERVABILITY.md) */
    ///@{
    /** Per-phase wall-clock attribution over the whole run. shared_ptr
     *  so results stay cheap to copy through the batch layer. */
    std::shared_ptr<Profiler> profile;
    /** End-of-run per-component memory audit (grown capacities). */
    std::shared_ptr<MemoryAudit> memory;
    ///@}

    /** Stall-cause blame attribution (opts.collectBlame). shared_ptr
     *  so results stay cheap to copy through the batch layer. */
    std::shared_ptr<BlameCollector> blame;

    /** Host detail, not a simulated result: Network::stepThreads() at
     *  the end of the run (DESIGN.md §6h). */
    int stepThreads = 1;
};

/** Run a single open-loop point. */
SimPointResult runOpenLoop(const NetworkConfig &config,
                           TrafficPattern pattern,
                           const SimPointOptions &opts);

/** One point of a heterogeneous batch: full (config, pattern, opts). */
struct BatchPoint
{
    NetworkConfig config;
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    SimPointOptions opts;
};

/**
 * Decorrelated per-point seed: splitmix64 of (base, index). Both the
 * serial and the parallel multi-seed paths derive seeds this way, so
 * the two produce bit-identical results point for point.
 */
std::uint64_t derivePointSeed(std::uint64_t base, std::uint64_t index);

/** Scale factor for simulation lengths from HNOC_SIM_SCALE (default 1). */
double simScale();

/** The scale an HNOC_SIM_SCALE value @p env (null: unset) asks for: 1
 *  when unset or not positive; fatal when not a number. */
double parseSimScale(const char *env);

/**
 * Generic parallel map over experiment points: runs fn(points[i]) on
 * @p pool (the shared pool when null) and returns results in input
 * order. fn must not touch shared mutable state; every sim point
 * already owns its Network/TrafficGenerator/Rng, so the results are
 * bit-identical to the serial loop regardless of thread count.
 */
template <typename Point, typename Fn>
auto
runPointsParallel(const std::vector<Point> &points, Fn fn,
                  JobPool *pool = nullptr)
    -> std::vector<decltype(fn(points[0]))>
{
    simScale(); // settle the env lookup before fanning out
    JobPool &p = pool ? *pool : JobPool::shared();
    return p.runOrdered(points.size(),
                        [&](std::size_t i) { return fn(points[i]); });
}

/** Run a heterogeneous batch of open-loop points in parallel. */
std::vector<SimPointResult> runBatch(const std::vector<BatchPoint> &points,
                                     JobPool *pool = nullptr);

/**
 * Run a load sweep over @p rates (shared warmup/measure options).
 * Points run in parallel on @p pool (shared pool when null); results
 * are ordered by rate and bit-identical to sweepLoadSerial.
 */
std::vector<SimPointResult>
sweepLoad(const NetworkConfig &config, TrafficPattern pattern,
          const std::vector<double> &rates, SimPointOptions opts,
          JobPool *pool = nullptr);

/** Serial reference implementation of sweepLoad (determinism tests). */
std::vector<SimPointResult>
sweepLoadSerial(const NetworkConfig &config, TrafficPattern pattern,
                const std::vector<double> &rates, SimPointOptions opts);

/**
 * Saturation throughput from a sweep: the highest accepted rate
 * observed (accepted flattens once the network saturates).
 */
double saturationThroughput(const std::vector<SimPointResult> &curve);

/**
 * Average latency (ns) over the pre-saturation region of a sweep
 * (points whose accepted rate tracks the offered rate within 5 %);
 * the paper's "average latency reduction" compares these.
 */
double preSaturationAvgLatencyNs(const std::vector<SimPointResult> &curve);

/**
 * Merge the registries of every point that collected one, in input
 * order. Pure integer arithmetic, so a parallel run merges to a
 * bit-identical registry as the serial loop. @return nullptr when no
 * point carried metrics.
 */
std::shared_ptr<MetricRegistry>
mergeRegistries(const std::vector<SimPointResult> &results);

/**
 * Merge the profilers of every point that ran with opts.profile, in
 * input order (addition of per-phase ns/visit totals, so the merge is
 * order-independent). @return nullptr when no point profiled.
 */
std::shared_ptr<Profiler>
mergeProfiles(const std::vector<SimPointResult> &results);

/**
 * Representative memory audit across a set of points: the audit with
 * the largest total footprint (per-point capacities are high-water
 * marks, so the max is the honest "what did this run cost" number).
 * @return nullptr when no point carried an audit.
 */
std::shared_ptr<MemoryAudit>
maxMemoryAudit(const std::vector<SimPointResult> &results);

/**
 * Merge the blame collectors of every point that ran with
 * opts.collectBlame, in input order (all aggregates are sums plus a
 * deterministic worst-packet leaderboard merge, so the result is
 * independent of worker-thread count). @return nullptr when no point
 * collected blame.
 */
std::shared_ptr<BlameCollector>
mergeBlame(const std::vector<SimPointResult> &results);

/**
 * Write a unified JSON run report (schema hnoc-run-report-v1) for a
 * set of labelled sim points, including each point's registry and the
 * cross-point merge under "registries"/"merged". Labels beyond
 * @p labels.size() are synthesized as "point<i>". Honors
 * HNOC_JSON_DIR like Table::writeCsv honors HNOC_CSV_DIR.
 */
bool writeRunReport(const std::string &path, const std::string &title,
                    const std::vector<std::string> &labels,
                    const std::vector<SimPointResult> &results);

} // namespace hnoc

#endif // HNOC_NOC_SIM_HARNESS_HH
