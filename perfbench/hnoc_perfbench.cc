/**
 * @file
 * hnoc_perfbench: host-time benchmark program for the HeteroNoC
 * simulator. It reads one batch of simulation points from an input
 * file (run.py next to this file generates it from the workload seed),
 * runs that batch on the shared JobPool again and again until a
 * host-time budget is spent, and prints one JSON record per batch on
 * stdout. A record carries per-point host timing taken around the
 * calls into each layer, plus the simulated outputs that the output
 * check digests. All arithmetic on the records lives in analysis.py.
 *
 * Input file, one directive per line:
 *
 *   seconds <s>        after one warm-up batch (index 0), keep starting
 *                      batches until s host seconds pass
 *   min_batches <n>    ... and until at least n timed batches ran
 *   trace <0|1>        1 = alternate plain and instrumented batches
 *   noc <layout> <radix> <pkt rate> <warmup> <measure> <drain> <seed>
 *   cmp <layout> <workload> <warm memops> <warm cycles> <measure cycles>
 *       <seed>
 *
 * Plain batches run the points exactly as the figure benches do.
 * Instrumented batches attach the report-only Profiler and a
 * watchdog, and on CMP points a forwarding NetworkClient that times
 * the calls into CmpSystem::preCycle / CmpSystem::onPacketDelivered.
 * Simulated outputs are identical either way; run.py checks that.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/job_pool.hh"
#include "heteronoc/layout.hh"
#include "noc/network.hh"
#include "noc/sim_harness.hh"
#include "noc/watchdog.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/metrics.hh"
#include "telemetry/profiler.hh"

namespace
{

using namespace hnoc;
using Clock = std::chrono::steady_clock;

/** Cycles without a delivery, while packets are in flight, that count
 *  as a hang (the harness default). */
constexpr Cycle kWatchdogWindow = 50000;

/** CMP points run in chunks of this many cycles between watchdog
 *  checks. */
constexpr Cycle kCmpChunk = 1000;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t
nsSince(Clock::time_point t0)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
}

/** One simulation point of the batch. */
struct Point
{
    bool cmp = false;
    NetworkConfig net;
    SimPointOptions opts;   ///< NoC points
    CmpConfig cmpConfig;    ///< CMP points
    WorkloadProfile workload;
    int warmMemops = 0;
    Cycle warmCycles = 0;
    Cycle measureCycles = 0;
};

struct Input
{
    double seconds = 1.0;
    int minBatches = 1;
    bool trace = false;
    std::vector<Point> points;
};

LayoutKind
parseLayout(const std::string &name)
{
    for (LayoutKind k : allLayouts())
        if (layoutName(k) == name)
            return k;
    throw std::runtime_error("unknown layout '" + name + "'");
}

const WorkloadProfile &
parseWorkload(const std::string &name)
{
    for (const WorkloadProfile &w : allWorkloads())
        if (w.name == name)
            return w;
    throw std::runtime_error("unknown workload '" + name + "'");
}

Input
readInput(const char *path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error(std::string("cannot open ") + path);
    Input input;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        std::istringstream ls(line);
        std::string op;
        if (!(ls >> op))
            continue;
        bool ok = true;
        if (op == "seconds") {
            ok = static_cast<bool>(ls >> input.seconds);
        } else if (op == "min_batches") {
            ok = static_cast<bool>(ls >> input.minBatches);
        } else if (op == "trace") {
            int t = 0;
            ok = static_cast<bool>(ls >> t);
            input.trace = t != 0;
        } else if (op == "noc") {
            Point p;
            std::string layout;
            int radix = 0;
            ok = static_cast<bool>(ls >> layout >> radix >>
                                   p.opts.injectionRate >>
                                   p.opts.warmupCycles >>
                                   p.opts.measureCycles >>
                                   p.opts.drainCycles >> p.opts.seed);
            if (ok)
                p.net = makeLayoutConfig(parseLayout(layout), radix);
            input.points.push_back(std::move(p));
        } else if (op == "cmp") {
            Point p;
            p.cmp = true;
            std::string layout, workload;
            ok = static_cast<bool>(ls >> layout >> workload >>
                                   p.warmMemops >> p.warmCycles >>
                                   p.measureCycles >> p.cmpConfig.seed);
            if (ok) {
                p.net = makeLayoutConfig(parseLayout(layout));
                p.workload = parseWorkload(workload);
            }
            input.points.push_back(std::move(p));
        } else {
            ok = false;
        }
        if (!ok)
            throw std::runtime_error(std::string(path) + ":" +
                                     std::to_string(lineno) +
                                     ": cannot parse '" + line + "'");
    }
    if (input.points.empty())
        throw std::runtime_error(std::string(path) + ": no points");
    return input;
}

/**
 * Forwarding NetworkClient: times each call into the CMP layer's
 * public callbacks from outside, so the CMP layer's share of a run is
 * measured without touching the system model.
 */
class TimedCmpClient : public NetworkClient
{
  public:
    explicit TimedCmpClient(CmpSystem &sys) : sys_(sys) {}

    void
    preCycle(Network &net, Cycle now) override
    {
        auto t0 = Clock::now();
        sys_.preCycle(net, now);
        preNs += nsSince(t0);
        ++preCalls;
    }

    void
    onPacketDelivered(Network &net, Packet &pkt, Cycle now) override
    {
        auto t0 = Clock::now();
        sys_.onPacketDelivered(net, pkt, now);
        deliverNs += nsSince(t0);
        ++deliverCalls;
    }

    std::uint64_t preNs = 0;
    std::uint64_t preCalls = 0;
    std::uint64_t deliverNs = 0;
    std::uint64_t deliverCalls = 0;

  private:
    CmpSystem &sys_;
};

/** Per-phase totals of @p prof, for ns/tile-cycle and shares. */
void
writeProfile(JsonWriter &w, const Profiler &prof)
{
    w.key("prof").beginObject();
    w.keyValue("cycles", prof.cycles());
    w.keyValue("step_ns", prof.ns(ProfPhase::StepTotal));
    w.keyValue("unattributed_ns", prof.unattributedNs());
    w.key("phase_ns").beginObject();
    for (ProfPhase p :
         {ProfPhase::ChannelDelivery, ProfPhase::NiEject,
          ProfPhase::RouteCompute, ProfPhase::VcAllocate,
          ProfPhase::SwitchAllocate, ProfPhase::NiInject})
        w.keyValue(profPhaseName(p), prof.ns(p));
    w.endObject();
    // Numerator of bytesStreamedPerCycle(), so points of different
    // shapes can be summed before dividing by the summed cycles.
    w.keyValue("streamed_bytes",
               prof.bytesStreamedPerCycle() *
                   static_cast<double>(prof.cycles()));
    w.endObject();
}

void
runNocPoint(const Point &p, bool traced, JsonWriter &w)
{
    SimPointOptions opts = p.opts;
    if (traced) {
        opts.profile = true;
        opts.watchdogWindow = kWatchdogWindow;
    }
    SimPointResult r =
        runOpenLoop(p.net, TrafficPattern::UniformRandom, opts);

    w.keyValue("tiles", p.net.numNodes());
    w.keyValue("sim_cycles", r.simulatedCycles);
    w.keyValue("watchdog_trips", r.watchdogTrips);
    w.keyValue("saturated", r.saturated);
    w.keyValue("created", r.trackedCreated);
    w.keyValue("delivered", r.trackedDelivered);
    w.keyValue("latency_ns", r.avgLatencyNs);
    w.keyValue("accepted", r.acceptedRate);
    w.keyValue("power_w", r.networkPowerW);
    if (r.profile)
        writeProfile(w, *r.profile);
    if (r.memory)
        w.keyValue("net_bytes_per_tile", r.memory->bytesPerTile());
}

void
runCmpPoint(const Point &p, bool traced, JsonWriter &w)
{
    auto t_setup = Clock::now();
    CmpSystem sys(p.net, p.cmpConfig);
    sys.assignWorkloadAll(p.workload);
    auto t_warm = Clock::now();
    sys.warmCaches(p.warmMemops);
    double warm_s = secondsSince(t_warm);
    double setup_s = secondsSince(t_setup);

    Network &net = sys.network();
    Profiler prof;
    TimedCmpClient client(sys);
    if (traced) {
        if (kTelemetryEnabled)
            net.attachProfiler(&prof);
        net.setClient(&client);
    }

    ProgressWatchdog watchdog(kWatchdogWindow);
    std::uint64_t run_ns = 0;
    auto run = [&](Cycle cycles) {
        for (Cycle done = 0; done < cycles; done += kCmpChunk) {
            auto t0 = Clock::now();
            sys.run(std::min(kCmpChunk, cycles - done));
            run_ns += nsSince(t0);
            watchdog.check(net);
        }
    };
    run(p.warmCycles);
    sys.resetStats();
    run(p.measureCycles);
    if (traced) {
        net.setClient(&sys);
        net.attachProfiler(nullptr);
    }

    w.keyValue("tiles", p.net.numNodes());
    w.keyValue("sim_cycles", net.now());
    w.keyValue("watchdog_trips", watchdog.trips());
    w.keyValue("setup_s", setup_s);
    w.keyValue("warm_s", warm_s);
    w.keyValue("latency_ns", sys.netLatency().totalNs.mean());
    w.keyValue("ipc", sys.avgIpc());
    w.keyValue("power_w", sys.networkPower().total());
    w.keyValue("packets", sys.packetsSent());
    w.keyValue("l1_misses", sys.l1Misses());
    w.keyValue("injected", net.packetsInjected());
    w.keyValue("net_delivered", net.packetsDelivered());
    w.keyValue("in_flight", static_cast<std::uint64_t>(net.packetsInFlight()));
    w.keyValue("credit_ok", net.auditCreditConservation());
    if (traced) {
        w.keyValue("run_ns", run_ns);
        w.keyValue("precycle_ns", client.preNs);
        w.keyValue("precycle_calls", client.preCalls);
        w.keyValue("deliver_ns", client.deliverNs);
        w.keyValue("deliver_calls", client.deliverCalls);
        if (kTelemetryEnabled)
            writeProfile(w, prof);
        w.keyValue("net_bytes_per_tile", net.memoryAudit().bytesPerTile());
        w.keyValue("cmp_bytes", sys.memoryAudit().totalBytes());
    }
}

/** One point's record: host timing relative to the batch start plus
 *  the layer's outputs. An exception becomes a failed record (every
 *  member written before it is complete, so the record stays valid). */
std::string
runPoint(const Point &p, bool traced, Clock::time_point batch_start)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("start_s", secondsSince(batch_start));
    std::string error;
    try {
        if (p.cmp)
            runCmpPoint(p, traced, w);
        else
            runNocPoint(p, traced, w);
    } catch (const std::exception &e) {
        error = e.what();
    } catch (...) {
        error = "unknown exception";
    }
    w.keyValue("end_s", secondsSince(batch_start));
    w.keyValue("ok", error.empty());
    if (!error.empty())
        w.keyValue("error", error);
    w.endObject();
    return w.str();
}

/** Host seconds to build every NoC point's Network: the set-up each
 *  point pays inside runOpenLoop before its first cycle. */
double
nocSetupSeconds(const std::vector<Point> &points)
{
    double total = 0.0;
    for (const Point &p : points) {
        if (p.cmp)
            continue;
        auto t0 = Clock::now();
        Network net(p.net);
        total += secondsSince(t0);
    }
    return total;
}

void
runOneBatch(const Input &input, int index, bool traced)
{
    double setup_s = nocSetupSeconds(input.points);
    auto t0 = Clock::now();
    std::vector<std::string> records = runPointsParallel(
        input.points,
        [&](const Point &p) { return runPoint(p, traced, t0); });
    double wall_s = secondsSince(t0);

    std::printf("{\"kind\":\"batch\",\"index\":%d,\"traced\":%s,"
                "\"wall_s\":%.17g,\"noc_setup_s\":%.17g,\"points\":[",
                index, traced ? "true" : "false", wall_s, setup_s);
    for (std::size_t i = 0; i < records.size(); ++i)
        std::printf("%s%s", i ? "," : "", records[i].c_str());
    std::printf("]}\n");
    std::fflush(stdout);
}

void
printEnv(const JobPool &pool)
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("kind", "env");
    w.keyValue("hardware_concurrency",
               static_cast<int>(std::thread::hardware_concurrency()));
    w.keyValue("pool_threads", pool.threadCount());
#if defined(__clang__)
    w.keyValue("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
    w.keyValue("compiler", std::string("gcc ") + __VERSION__);
#else
    w.keyValue("compiler", "unknown");
#endif
#ifdef NDEBUG
    w.keyValue("ndebug", true);
#else
    w.keyValue("ndebug", false);
#endif
    w.keyValue("telemetry", kTelemetryEnabled);
    w.keyValue("sim_scale", simScale());
    w.endObject();
    std::printf("%s\n", w.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <input file>\n", argv[0]);
        return 2;
    }
    Input input;
    try {
        input = readInput(argv[1]);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "hnoc_perfbench: %s\n", e.what());
        return 2;
    }

    JobPool &pool = JobPool::shared();
    printEnv(pool);

    // Batch 0 warms up: it pages in the code, grows the allocator's
    // pools and spins up the pool threads. It is checked but not timed.
    runOneBatch(input, 0, false);

    // Instrumented runs alternate plain and traced batches, so the
    // plain ones give the trace overhead's base; stop on a pair.
    int stride = input.trace ? 2 : 1;
    auto start = Clock::now();
    int timed = 0;
    while (timed < input.minBatches || timed % stride != 0 ||
           secondsSince(start) < input.seconds) {
        runOneBatch(input, timed + 1, input.trace && timed % 2 == 1);
        ++timed;
    }

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"kind\":\"end\",\"batches\":%d,\"peak_rss_kb\":%ld}\n",
                timed + 1, ru.ru_maxrss);
    return 0;
}
