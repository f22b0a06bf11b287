#include "noc/sim_harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/stats.hh"
#include "noc/watchdog.hh"
#include "telemetry/run_report.hh"

namespace hnoc
{

namespace
{

/** Open-loop Bernoulli injector with measurement-window tracking. */
class OpenLoopClient : public NetworkClient
{
  public:
    OpenLoopClient(TrafficPattern pattern, const NetworkConfig &config,
                   const SimPointOptions &opts)
        : opts_(opts),
          gen_(pattern, config.numNodes(),
               nodeGridCols(config), opts.seed),
          rng_(opts.seed ^ 0xabcdef12345ULL)
    {}

    static int
    nodeGridCols(const NetworkConfig &config)
    {
        // Spatial patterns operate on the node grid: for concentrated
        // topologies the 64 nodes still form an 8x8 logical grid.
        int nodes = config.numNodes();
        int cols = 1;
        while (cols * cols < nodes)
            ++cols;
        return cols;
    }

    void
    preCycle(Network &net, Cycle now) override
    {
        if (!injecting_)
            return;
        int nodes = net.topology().numNodes();
        int data_flits = net.dataPacketFlits();
        for (NodeId n = 0; n < nodes; ++n) {
            if (!gen_.shouldInject(n, opts_.injectionRate, now))
                continue;
            NodeId dst = gen_.pickDest(n);
            if (dst == INVALID_NODE)
                continue;
            int flits = data_flits;
            if (opts_.controlFraction > 0.0 &&
                rng_.chance(opts_.controlFraction))
                flits = 1;
            bool tracked = measuring_;
            Packet *pkt = net.enqueuePacket(n, dst, flits,
                                            tracked ? 1 : 0);
            (void)pkt;
            if (tracked)
                ++trackedCreated_;
        }
    }

    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        (void)now;
        if (measuring_ || drainPhase_) {
            if (now >= windowStart_ && now < windowEnd_)
                ++deliveredInWindow_;
        }
        if (epochStats_) {
            auto lat = static_cast<double>(pkt.ejectedAt - pkt.createdAt);
            epochAllSum_ += lat;
            ++epochAllN_;
            if (pkt.tag == 1) {
                epochTrackedSum_ += lat;
                ++epochTrackedN_;
            }
        }
        if (pkt.tag != 1)
            return;
        ++trackedDelivered_;
        double ns_per_cycle = net.nsPerCycle();
        double total = latency_.add(net, pkt);

        latencyCycles_.add(total);
        latencyHist_.add(total * ns_per_cycle);

        auto hops = static_cast<std::size_t>(pkt.hops);
        if (hops >= byHops_.size())
            byHops_.resize(hops + 1);
        byHops_[hops].add(total * ns_per_cycle);
    }

    void
    beginMeasurement(Cycle now, Cycle window)
    {
        measuring_ = true;
        windowStart_ = now;
        windowEnd_ = now + window;
    }

    void
    endMeasurement(Cycle now)
    {
        measuring_ = false;
        drainPhase_ = true;
        // Adaptive runs stop mid-window; clamp so drain deliveries
        // past the actual window end are not counted as accepted.
        windowEnd_ = std::min(windowEnd_, now);
    }

    void stopInjecting() { injecting_ = false; }

    /** Turn on per-epoch latency accumulation (adaptive mode only,
     *  so the reference hot path keeps a single untaken branch). */
    void enableEpochStats() { epochStats_ = true; }

    /** Mean latency (cycles) and deliveries of the epoch just ended,
     *  over all delivered packets; resets the accumulator. */
    void
    takeEpochAll(double &mean, std::uint64_t &delivered)
    {
        delivered = epochAllN_;
        mean = delivered ? epochAllSum_ / static_cast<double>(delivered)
                         : 0.0;
        epochAllSum_ = 0.0;
        epochAllN_ = 0;
    }

    /** Same for tracked (measurement-window) packets only. */
    void
    takeEpochTracked(double &mean, std::uint64_t &delivered)
    {
        delivered = epochTrackedN_;
        mean = delivered
                   ? epochTrackedSum_ / static_cast<double>(delivered)
                   : 0.0;
        epochTrackedSum_ = 0.0;
        epochTrackedN_ = 0;
    }

    bool
    allTrackedDelivered() const
    {
        return trackedDelivered_ >= trackedCreated_;
    }

    const SimPointOptions opts_;
    TrafficGenerator gen_;
    Rng rng_;

    bool injecting_ = true;
    bool measuring_ = false;
    bool drainPhase_ = false;
    Cycle windowStart_ = 0;
    Cycle windowEnd_ = 0;

    std::uint64_t trackedCreated_ = 0;
    std::uint64_t trackedDelivered_ = 0;
    std::uint64_t deliveredInWindow_ = 0;

    bool epochStats_ = false;
    double epochAllSum_ = 0.0;
    std::uint64_t epochAllN_ = 0;
    double epochTrackedSum_ = 0.0;
    std::uint64_t epochTrackedN_ = 0;

    RunningStat latencyCycles_;
    NetLatencyStats latency_;
    Histogram latencyHist_{0.0, 2000.0, 4000};
    std::vector<RunningStat> byHops_;
};

} // namespace

double
parseSimScale(const char *env)
{
    if (!env)
        return 1.0;
    double v = 0.0;
    parseNumber("environment", "HNOC_SIM_SCALE", env, v);
    return v > 0.0 ? v : 1.0;
}

double
simScale()
{
    static const double scale = parseSimScale(std::getenv("HNOC_SIM_SCALE"));
    return scale;
}

SimPointResult
runOpenLoop(const NetworkConfig &config, TrafficPattern pattern,
            const SimPointOptions &opts_in)
{
    SimPointOptions opts = opts_in;
    opts.warmupCycles = static_cast<Cycle>(
        static_cast<double>(opts.warmupCycles) * simScale());
    opts.measureCycles = static_cast<Cycle>(
        static_cast<double>(opts.measureCycles) * simScale());
    opts.drainCycles = static_cast<Cycle>(
        static_cast<double>(opts.drainCycles) * simScale());
    opts.control.minWarmupCycles = static_cast<Cycle>(
        static_cast<double>(opts.control.minWarmupCycles) * simScale());
    opts.control.minMeasureCycles = static_cast<Cycle>(
        static_cast<double>(opts.control.minMeasureCycles) * simScale());

    Network net(config);
    OpenLoopClient client(pattern, config, opts);
    net.setClient(&client);

    std::shared_ptr<FlightRecorder> recorder;
    if (opts.flightRecorder) {
        recorder =
            std::make_shared<FlightRecorder>(opts.flightRecorderCapacity);
        net.attachFlightRecorder(recorder.get());
    }

    // Self-profiling covers the whole run (warmup, measurement and
    // drain): the attribution question is "where does the simulator
    // spend wall clock", not "what does the measurement window cost".
    Profiler prof;
    if (opts.profile && kTelemetryEnabled)
        net.attachProfiler(&prof);

    // Blame attribution also covers the whole run: every packet is
    // ledgered from creation, so the accounting identity holds for
    // warmup and drain traffic too.
    std::shared_ptr<BlameCollector> blame;
    if (opts.collectBlame && kTelemetryEnabled) {
        blame = net.makeBlameCollector();
        net.attachBlame(blame.get());
    }

    Cycle audit_every = opts.auditEvery;
#ifndef NDEBUG
    // Debug builds audit every telemetry epoch by default; release
    // builds audit only on demand (opts.auditEvery).
    if (audit_every == 0)
        audit_every = opts.telemetryEpoch;
#endif

    ProgressMeter meter(opts.warmupCycles + opts.measureCycles);
    ProgressWatchdog watchdog(
        opts.watchdogWindow > 0 ? opts.watchdogWindow : 50000);
    if (!opts.postmortemPath.empty())
        watchdog.setPostmortemPath(opts.postmortemPath);

    bool instrumented = opts.progressEvery > 0 || audit_every > 0 ||
                        opts.watchdogWindow > 0;
    auto run_phase = [&](Cycle cycles) {
        if (!instrumented) {
            net.run(cycles); // keep the uninstrumented loop tight
            return;
        }
        for (Cycle i = 0; i < cycles; ++i) {
            net.step();
            if (audit_every > 0 && net.now() % audit_every == 0) {
                std::string err;
                if (!net.auditCreditConservation(&err))
                    panic("credit conservation violated @ cycle %llu: %s",
                          static_cast<unsigned long long>(net.now()),
                          err.c_str());
            }
            if (opts.watchdogWindow > 0)
                watchdog.check(net);
            if (opts.progressEvery > 0 &&
                net.now() % opts.progressEvery == 0)
                std::fprintf(stderr, "%s\n", meter.line(net).c_str());
        }
    };

    SimPointResult res;
    res.offeredRate = opts.injectionRate;
    // Scope the registry to exactly the measurement window: attach
    // when the window opens, detach (finishing the partial epoch)
    // before drain.
    std::shared_ptr<MetricRegistry> reg;
    auto open_window = [&](Cycle epoch) {
        net.resetMeasurement();
        if (opts.collectMetrics) {
            reg = net.makeMetricRegistry(epoch);
            net.attachTelemetry(reg.get());
        }
        client.beginMeasurement(net.now(), opts.measureCycles);
    };
    bool measured = true; // false when warmup was aborted
    bool aborted = false; // saturation fast-abort: skip the drain

    if (opts.control.mode == SimControlMode::Adaptive) {
        // ---- Adaptive path: the fixed windows become ceilings and
        // the sim_control stopping rules end each phase. Every
        // decision below reads only simulated state at epoch
        // boundaries, so results are independent of thread count.
        const SimControlOptions &ctl = opts.control;
        Cycle epoch = opts.telemetryEpoch > 0 ? opts.telemetryEpoch
                                              : 1000;
        client.enableEpochStats();

        WarmupDetector warm(ctl);
        SaturationDetector sat(ctl, config.numNodes());
        BatchMeansController bm(ctl);

        // Warmup: epoch-sized chunks until the latency series is
        // steady (and the floor is paid), capped at warmupCycles.
        // Saturated points never stabilize, so the queue-growth
        // detector also watches warmup and aborts the point outright.
        Cycle warmup_used = 0;
        while (warmup_used < opts.warmupCycles) {
            Cycle chunk = std::min(epoch,
                                   opts.warmupCycles - warmup_used);
            run_phase(chunk);
            warmup_used += chunk;
            double mean = 0.0;
            std::uint64_t delivered = 0;
            client.takeEpochAll(mean, delivered);
            bool steady = warm.addEpoch(mean, delivered);
            if (sat.addEpoch(net.totalSourceQueueDepth())) {
                aborted = true;
                break;
            }
            if (steady && warmup_used >= ctl.minWarmupCycles)
                break;
        }
        res.warmupCyclesUsed = warmup_used;

        if (aborted) {
            // Saturation during warmup: no measurement is possible,
            // classify and skip the measure and drain phases.
            res.stopReason = StopReason::SaturationAbort;
            measured = false;
        } else {
            open_window(epoch);
            res.stopReason = StopReason::MeasureCeiling;
            Cycle measure_used = 0;
            while (measure_used < opts.measureCycles) {
                Cycle chunk = std::min(
                    epoch, opts.measureCycles - measure_used);
                run_phase(chunk);
                measure_used += chunk;
                double mean = 0.0;
                std::uint64_t delivered = 0;
                client.takeEpochTracked(mean, delivered);
                bm.addEpoch(mean, delivered);
                if (sat.addEpoch(net.totalSourceQueueDepth())) {
                    res.stopReason = StopReason::SaturationAbort;
                    aborted = true;
                    break;
                }
                if (measure_used >= ctl.minMeasureCycles &&
                    bm.converged()) {
                    res.stopReason = StopReason::CiConverged;
                    break;
                }
            }
        }
        double hw = bm.relHalfWidth();
        res.ciRelHalfWidth = std::isfinite(hw) ? hw : -1.0;
        res.ciHistory = bm.history();
    } else {
        run_phase(opts.warmupCycles);
        res.warmupCyclesUsed = opts.warmupCycles;
        open_window(opts.telemetryEpoch);
        run_phase(opts.measureCycles);
    }

    Cycle window = 0;
    if (measured) {
        // Snapshot window-scoped measurements before draining.
        window = net.measuredCycles();
        res.power = net.powerReport();
        res.networkPowerW = res.power.total();
        res.combineRate = net.combineRate();
        res.bufferUtilPct = net.bufferUtilizationPercent();
        res.linkUtilPct = net.linkUtilizationPercent();
        if (reg)
            net.detachTelemetry();
        client.endMeasurement(net.now());
    }
    if (!measured || aborted) {
        // A fast-aborted point is saturated and its stragglers would
        // never finish, so it skips the drain entirely.
        res.saturated = true;
    } else {
        // Drain: keep traffic flowing so tracked packets finish under
        // the same load, up to the drain cap.
        Cycle drained = 0;
        while (!client.allTrackedDelivered() &&
               drained < opts.drainCycles) {
            net.step();
            ++drained;
            if (instrumented && opts.watchdogWindow > 0)
                watchdog.check(net);
        }
        res.saturated = !client.allTrackedDelivered();
        res.drainTruncated = drained >= opts.drainCycles && res.saturated;
    }
    res.watchdogTrips = watchdog.trips();
    res.stepThreads = net.stepThreads();
    if (recorder)
        net.attachFlightRecorder(nullptr);
    res.flightRecorder = std::move(recorder);

    if (window > 0) {
        res.acceptedRate =
            static_cast<double>(client.deliveredInWindow_) /
            (static_cast<double>(config.numNodes()) *
             static_cast<double>(window));
    }
    res.measureCyclesUsed = window;
    res.simulatedCycles = net.now();
    res.avgLatencyCycles = client.latencyCycles_.mean();
    res.avgLatencyNs = client.latency_.totalNs.mean();
    res.avgQueuingNs = client.latency_.queuingNs.mean();
    res.avgBlockingNs = client.latency_.blockingNs.mean();
    res.avgTransferNs = client.latency_.transferNs.mean();
    res.p95LatencyNs = client.latencyHist_.percentile(0.95);
    res.trackedCreated = client.trackedCreated_;
    res.trackedDelivered = client.trackedDelivered_;
    res.latencyByHopsNs.reserve(client.byHops_.size());
    for (const RunningStat &s : client.byHops_)
        res.latencyByHopsNs.push_back(s.mean());
    res.metrics = std::move(reg);
    if (opts.profile && kTelemetryEnabled) {
        res.profile = std::make_shared<Profiler>(prof);
        res.memory = std::make_shared<MemoryAudit>(net.memoryAudit());
    }
    res.blame = blame;
    return res;
}

std::uint64_t
derivePointSeed(std::uint64_t base, std::uint64_t index)
{
    // splitmix64 over (base, index): decorrelated streams per point,
    // identical no matter which thread runs the point.
    std::uint64_t z = base + (index + 1) * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::vector<SimPointResult>
runBatch(const std::vector<BatchPoint> &points, JobPool *pool)
{
    return runPointsParallel(
        points,
        [](const BatchPoint &p) {
            return runOpenLoop(p.config, p.pattern, p.opts);
        },
        pool);
}

std::vector<SimPointResult>
sweepLoad(const NetworkConfig &config, TrafficPattern pattern,
          const std::vector<double> &rates, SimPointOptions opts,
          JobPool *pool)
{
    return runPointsParallel(
        rates,
        [&](double r) {
            SimPointOptions o = opts;
            o.injectionRate = r;
            return runOpenLoop(config, pattern, o);
        },
        pool);
}

std::vector<SimPointResult>
sweepLoadSerial(const NetworkConfig &config, TrafficPattern pattern,
                const std::vector<double> &rates, SimPointOptions opts)
{
    std::vector<SimPointResult> curve;
    curve.reserve(rates.size());
    for (double r : rates) {
        opts.injectionRate = r;
        curve.push_back(runOpenLoop(config, pattern, opts));
    }
    return curve;
}

double
saturationThroughput(const std::vector<SimPointResult> &curve)
{
    double best = 0.0;
    for (const auto &p : curve)
        best = std::max(best, p.acceptedRate);
    return best;
}

double
preSaturationAvgLatencyNs(const std::vector<SimPointResult> &curve)
{
    RunningStat s;
    for (const auto &p : curve) {
        if (p.saturated)
            continue;
        if (p.offeredRate > 0.0 &&
            p.acceptedRate < 0.95 * p.offeredRate)
            continue;
        s.add(p.avgLatencyNs);
    }
    return s.count() ? s.mean()
                     : (curve.empty() ? 0.0 : curve.front().avgLatencyNs);
}

std::shared_ptr<MetricRegistry>
mergeRegistries(const std::vector<SimPointResult> &results)
{
    std::shared_ptr<MetricRegistry> merged;
    for (const auto &r : results) {
        if (!r.metrics)
            continue;
        if (!merged)
            merged = std::make_shared<MetricRegistry>(*r.metrics);
        else
            merged->merge(*r.metrics);
    }
    return merged;
}

std::shared_ptr<Profiler>
mergeProfiles(const std::vector<SimPointResult> &results)
{
    std::shared_ptr<Profiler> merged;
    for (const auto &r : results) {
        if (!r.profile)
            continue;
        if (!merged)
            merged = std::make_shared<Profiler>(*r.profile);
        else
            merged->merge(*r.profile);
    }
    return merged;
}

std::shared_ptr<MemoryAudit>
maxMemoryAudit(const std::vector<SimPointResult> &results)
{
    std::shared_ptr<MemoryAudit> best;
    for (const auto &r : results) {
        if (!r.memory)
            continue;
        if (!best || r.memory->totalBytes() > best->totalBytes())
            best = r.memory;
    }
    return best;
}

std::shared_ptr<BlameCollector>
mergeBlame(const std::vector<SimPointResult> &results)
{
    std::shared_ptr<BlameCollector> merged;
    for (const auto &r : results) {
        if (!r.blame)
            continue;
        if (!merged)
            merged = std::make_shared<BlameCollector>(*r.blame);
        else
            merged->merge(*r.blame);
    }
    return merged;
}

bool
writeRunReport(const std::string &path, const std::string &title,
               const std::vector<std::string> &labels,
               const std::vector<SimPointResult> &results)
{
    RunReport report("sim_harness", title);
    report.meta("points", static_cast<double>(results.size()));
    for (std::size_t i = 0; i < results.size(); ++i) {
        std::string label = i < labels.size()
                                ? labels[i]
                                : "point" + std::to_string(i);
        report.addPoint(label, results[i]);
    }
    if (auto merged = mergeRegistries(results))
        report.addRegistry("merged", *merged);
    if (auto prof = mergeProfiles(results)) {
        auto mem = maxMemoryAudit(results);
        report.setProfile(*prof, mem ? *mem : MemoryAudit{});
    }
    if (auto b = mergeBlame(results))
        report.setBlame(*b);
    return report.writeFile(path);
}

} // namespace hnoc
