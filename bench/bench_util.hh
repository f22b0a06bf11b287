/**
 * @file
 * Shared helpers for the per-figure benchmark binaries: headers,
 * percentage formatting, standard CMP experiment driver, and the
 * closed-loop memory-request client of case study I (Fig 13).
 */

#ifndef HNOC_BENCH_BENCH_UTIL_HH
#define HNOC_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/report.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"

namespace hnoc::bench
{

inline void
printHeader(const std::string &id, const std::string &what)
{
    std::printf("================================================================\n");
    std::printf("%s — %s\n", id.c_str(), what.c_str());
    std::printf("================================================================\n");
}

/** Percent change of v relative to base; positive = v is larger. */
inline double
pctOver(double base, double v)
{
    return base != 0.0 ? 100.0 * (v - base) / base : 0.0;
}

/** Percent reduction of v relative to base; positive = v is smaller. */
inline double
pctReduction(double base, double v)
{
    return base != 0.0 ? 100.0 * (base - v) / base : 0.0;
}

/** Simulation length scaling (HNOC_SIM_SCALE). */
inline Cycle
scaled(Cycle c)
{
    return static_cast<Cycle>(static_cast<double>(c) * simScale());
}

/** True when argv carries --adaptive (fig benches, sweeps). */
inline bool
parseAdaptiveFlag(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--adaptive") == 0)
            return true;
    return false;
}

/** Switch @p opts to adaptive windows when @p adaptive is set. */
inline void
applyAdaptive(SimPointOptions &opts, bool adaptive)
{
    if (adaptive)
        opts.control.mode = SimControlMode::Adaptive;
}

/** Total simulated cycles across a set of sim points. */
inline std::uint64_t
totalSimulatedCycles(const std::vector<SimPointResult> &points)
{
    std::uint64_t total = 0;
    for (const auto &p : points)
        total += p.simulatedCycles;
    return total;
}

/** Result of one CMP timing run. */
struct CmpRunResult
{
    double avgLatencyNs = 0.0;
    double queuingNs = 0.0;
    double blockingNs = 0.0;
    double transferNs = 0.0;
    double ipc = 0.0;
    PowerBreakdown power;
    double powerW = 0.0;
    double roundTripMean = 0.0; ///< core cycles
    double roundTripStd = 0.0;
};

/** Standard CMP experiment: warm caches, warm timing, measure. */
inline CmpRunResult
runCmpExperiment(const NetworkConfig &net_cfg, const CmpConfig &cmp_cfg,
                 const WorkloadProfile &workload,
                 Cycle measure_cycles = 12000)
{
    CmpSystem sys(net_cfg, cmp_cfg);
    sys.assignWorkloadAll(workload);
    sys.warmCaches(static_cast<int>(scaled(40000)));
    sys.run(scaled(3000));
    sys.resetStats();
    sys.run(scaled(measure_cycles));

    CmpRunResult res;
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

/**
 * Closed-loop memory-request client (Fig 13 UR row): every node keeps
 * up to 16 outstanding single-flit requests to address-interleaved
 * memory controllers; each MC responds with a data packet after the
 * DRAM latency. Round-trip latency is measured request -> response.
 */
class ClosedLoopMemClient : public NetworkClient
{
  public:
    ClosedLoopMemClient(const std::vector<NodeId> &mc_tiles,
                        Cycle dram_latency, int max_outstanding,
                        std::uint64_t seed)
        : mcTiles_(mc_tiles), dramLatency_(dram_latency),
          maxOutstanding_(max_outstanding), rng_(seed)
    {}

    void
    preCycle(Network &net, Cycle now) override
    {
        if (outstanding_.empty())
            outstanding_.assign(
                static_cast<std::size_t>(net.topology().numNodes()), 0);
        // Service DRAM completions.
        while (!completions_.empty() && completions_.front().first <= now) {
            auto [at, job] = completions_.front();
            completions_.pop_front();
            if (job.mc != job.requester) {
                net.enqueuePacket(job.mc, job.requester,
                                  net.dataPacketFlits(), 1,
                                  reinterpret_cast<void *>(job.issued));
            }
        }
        // Issue new requests.
        int nodes = net.topology().numNodes();
        for (NodeId n = 0; n < nodes; ++n) {
            if (!injecting_)
                break;
            if (outstanding_[static_cast<std::size_t>(n)] >=
                maxOutstanding_)
                continue;
            if (rng_.uniform() >= issueProb_)
                continue;
            NodeId mc = mcTiles_[rng_.below(mcTiles_.size())];
            if (mc == n)
                continue;
            net.enqueuePacket(n, mc, 1, 0,
                              reinterpret_cast<void *>(now));
            ++outstanding_[static_cast<std::size_t>(n)];
        }
    }

    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        if (pkt.tag == 0) {
            // Request arrived at the controller: schedule DRAM access.
            Job job;
            job.mc = pkt.dst;
            job.requester = pkt.src;
            job.issued = reinterpret_cast<Cycle>(pkt.context);
            completions_.emplace_back(now + dramLatency_, job);
        } else {
            // Response back at the requester.
            auto issued = reinterpret_cast<Cycle>(pkt.context);
            if (measuring_)
                roundTripNs_.add(static_cast<double>(now - issued) *
                                 net.nsPerCycle());
            --outstanding_[static_cast<std::size_t>(pkt.dst)];
        }
    }

    void beginMeasure() { measuring_ = true; }
    void stop() { injecting_ = false; }

    const RunningStat &roundTripNs() const { return roundTripNs_; }

    /** Per-cycle issue attempt probability (controls load). */
    double issueProb_ = 0.3;

  private:
    struct Job
    {
        NodeId mc;
        NodeId requester;
        Cycle issued;
    };

    std::vector<NodeId> mcTiles_;
    Cycle dramLatency_;
    int maxOutstanding_;
    Rng rng_;
    std::vector<int> outstanding_;
    std::deque<std::pair<Cycle, Job>> completions_;
    bool measuring_ = false;
    bool injecting_ = true;
    RunningStat roundTripNs_;
};

/** Run the closed-loop UR memory experiment; returns round-trip stat. */
inline RunningStat
runClosedLoopMem(const NetworkConfig &net_cfg,
                 const std::vector<NodeId> &mc_tiles, std::uint64_t seed)
{
    Network net(net_cfg);
    // 400 core cycles at 2.2 GHz, in network cycles.
    auto dram = static_cast<Cycle>(400.0 * net.clockGHz() / 2.2);
    ClosedLoopMemClient client(mc_tiles, dram, 16, seed);
    net.setClient(&client);
    net.run(scaled(8000));
    client.beginMeasure();
    net.run(scaled(20000));
    return client.roundTripNs();
}

/** One layout's load-latency curve plus its zero-load latency. */
struct LayoutCurve
{
    LayoutKind kind;
    std::vector<SimPointResult> points;
    double zeroLoadNs = 0.0;
};

/**
 * Shared parallel runner for layout comparisons: every (layout, rate)
 * sim point plus one zero-load point per layout goes into a single
 * batch on the shared JobPool, so cross-layout points overlap instead
 * of running layout-by-layout. The zero-load point is a default-option
 * run at rate 0.001 with seed 1.
 */
inline std::vector<LayoutCurve>
runLayoutSweeps(const std::vector<LayoutKind> &kinds,
                TrafficPattern pattern, const std::vector<double> &rates,
                const SimPointOptions &opts)
{
    std::vector<BatchPoint> batch;
    batch.reserve(kinds.size() * (rates.size() + 1));
    for (LayoutKind kind : kinds) {
        NetworkConfig cfg = makeLayoutConfig(kind);
        for (double r : rates) {
            BatchPoint bp;
            bp.config = cfg;
            bp.pattern = pattern;
            bp.opts = opts;
            bp.opts.injectionRate = r;
            batch.push_back(std::move(bp));
        }
        BatchPoint zl;
        zl.config = cfg;
        zl.pattern = pattern;
        zl.opts.injectionRate = 0.001;
        zl.opts.seed = 1;
        batch.push_back(std::move(zl));
    }

    std::vector<SimPointResult> results = runBatch(batch);

    std::vector<LayoutCurve> curves;
    curves.reserve(kinds.size());
    std::size_t idx = 0;
    for (LayoutKind kind : kinds) {
        LayoutCurve c;
        c.kind = kind;
        c.points.assign(results.begin() + static_cast<std::ptrdiff_t>(idx),
                        results.begin() +
                            static_cast<std::ptrdiff_t>(idx + rates.size()));
        idx += rates.size();
        c.zeroLoadNs = results[idx++].avgLatencyNs;
        curves.push_back(std::move(c));
    }
    return curves;
}

/** Run one identical sim point per layout in parallel (input order). */
inline std::vector<SimPointResult>
runLayoutPoints(const std::vector<LayoutKind> &kinds,
                TrafficPattern pattern, const SimPointOptions &opts)
{
    std::vector<BatchPoint> batch;
    batch.reserve(kinds.size());
    for (LayoutKind kind : kinds) {
        BatchPoint bp;
        bp.config = makeLayoutConfig(kind);
        bp.pattern = pattern;
        bp.opts = opts;
        batch.push_back(std::move(bp));
    }
    return runBatch(batch);
}

/**
 * Shared driver for the Fig 7 / Fig 9 synthetic-traffic comparisons:
 * load-latency curves, throughput / average-latency / zero-load
 * summary bars, and power curves across HeteroNoC layouts. When
 * @p report_path is non-empty, the full set of sim points is also
 * exported as a unified JSON run report (honors HNOC_JSON_DIR).
 */
inline void
runSyntheticComparison(TrafficPattern pattern,
                       const std::vector<double> &rates,
                       const std::string &report_path = "",
                       bool adaptive = false)
{
    using Curve = LayoutCurve;

    SimPointOptions opts;
    opts.warmupCycles = 6000;
    opts.measureCycles = 15000;
    opts.drainCycles = 30000;
    applyAdaptive(opts, adaptive);

    auto wall_start = std::chrono::steady_clock::now();
    std::vector<Curve> curves =
        runLayoutSweeps(allLayouts(), pattern, rates, opts);
    double wall_s = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - wall_start)
                        .count();

    if (!report_path.empty()) {
        std::vector<std::string> labels;
        std::vector<SimPointResult> flat;
        for (const Curve &c : curves) {
            for (const auto &p : c.points) {
                labels.push_back(layoutName(c.kind) + "@" +
                                 Table::num(p.offeredRate, 4));
                flat.push_back(p);
            }
        }
        writeRunReport(report_path, "synthetic traffic comparison",
                       labels, flat);
    }

    const Curve &base = curves.front();

    std::printf("\n(a) Load-latency (ns; * = saturated):\n");
    std::printf("%-12s", "inj rate");
    for (double r : rates)
        std::printf("%9.4f", r);
    std::printf("\n");
    for (const Curve &c : curves) {
        std::printf("%-12s", layoutName(c.kind).c_str());
        for (const auto &p : c.points)
            std::printf("%8.1f%s", p.avgLatencyNs,
                        p.saturated ? "*" : " ");
        std::printf("\n");
    }

    // Common stable prefix: loads every layout sustains (accepted
    // tracks offered, not saturated). The paper's "average latency"
    // compares configurations over such a shared operating range.
    std::size_t stable = rates.size();
    for (const Curve &c : curves) {
        for (std::size_t i = 0; i < c.points.size(); ++i) {
            const auto &p = c.points[i];
            bool ok = !p.saturated &&
                      p.acceptedRate >= 0.95 * p.offeredRate;
            if (!ok) {
                stable = std::min(stable, i);
                break;
            }
        }
    }
    if (stable == 0)
        stable = 1;
    auto stable_avg = [&](const Curve &c) {
        RunningStat s;
        for (std::size_t i = 0; i < stable; ++i)
            s.add(c.points[i].avgLatencyNs);
        return s.mean();
    };

    std::printf("\n(b) Summary vs baseline "
                "(positive = hetero better; avg latency over the common "
                "stable range, %zu points):\n", stable);
    std::printf("%-12s %12s %12s %12s %14s %12s\n", "layout",
                "thrpt(pkt)%", "thrpt(flit)%", "avg lat %", "zero-load %",
                "combine");
    double base_sat = saturationThroughput(base.points);
    double base_lat = stable_avg(base);
    int base_flits =
        makeLayoutConfig(LayoutKind::Baseline).dataPacketFlits();
    for (const Curve &c : curves) {
        if (c.kind == LayoutKind::Baseline)
            continue;
        double sat = saturationThroughput(c.points);
        double lat = stable_avg(c);
        int flits = makeLayoutConfig(c.kind).dataPacketFlits();
        double combine = 0.0;
        for (const auto &p : c.points)
            combine = std::max(combine, p.combineRate);
        std::printf("%-12s %12.1f %12.1f %12.1f %14.1f %12.2f\n",
                    layoutName(c.kind).c_str(),
                    pctOver(base_sat, sat),
                    pctOver(base_sat * base_flits, sat * flits),
                    pctReduction(base_lat, lat),
                    pctReduction(base.zeroLoadNs, c.zeroLoadNs), combine);
    }

    std::printf("\n(c) Network power (W) across load (+BL layouts):\n");
    std::printf("%-12s", "inj rate");
    for (double r : rates)
        std::printf("%9.4f", r);
    std::printf("\n");
    for (const Curve &c : curves) {
        if (c.kind != LayoutKind::Baseline &&
            !isBufferLinkLayout(c.kind))
            continue;
        std::printf("%-12s", layoutName(c.kind).c_str());
        for (const auto &p : c.points)
            std::printf("%9.1f", p.networkPowerW);
        std::printf("\n");
    }

    // Per-point simulated cycles: the cost side of the adaptive vs
    // reference trade (docs/EXPERIMENTS.md "Adaptive vs reference
    // windows"). Markers: c = CI-converged, m = measure ceiling,
    // a = saturation fast-abort. Wall time goes to stderr so stdout
    // stays byte-identical across thread counts.
    std::uint64_t total_cycles = 0;
    std::printf("\n(d) Simulated cycles per point (%s windows):\n",
                adaptive ? "adaptive" : "reference");
    std::printf("%-12s", "inj rate");
    for (double r : rates)
        std::printf("%9.4f", r);
    std::printf("\n");
    for (const Curve &c : curves) {
        std::printf("%-12s", layoutName(c.kind).c_str());
        for (const auto &p : c.points) {
            char mark = ' ';
            if (p.stopReason == StopReason::CiConverged)
                mark = 'c';
            else if (p.stopReason == StopReason::MeasureCeiling)
                mark = 'm';
            else if (p.stopReason == StopReason::SaturationAbort)
                mark = 'a';
            std::printf("%8llu%c",
                        static_cast<unsigned long long>(
                            p.simulatedCycles),
                        mark);
            total_cycles += p.simulatedCycles;
        }
        std::printf("\n");
    }
    std::printf("total simulated cycles: %llu\n",
                static_cast<unsigned long long>(total_cycles));
    std::fprintf(stderr, "sweep wall time: %.2f s\n", wall_s);
}

} // namespace hnoc::bench

#endif // HNOC_BENCH_BENCH_UTIL_HH
