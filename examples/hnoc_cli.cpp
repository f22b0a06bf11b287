/**
 * @file
 * Command-line front end to the simulator — the tool a downstream user
 * reaches for first.
 *
 *   hnoc_cli --layout Diagonal+BL --pattern uniform --rate 0.03
 *   hnoc_cli --layout Baseline --sweep 0.01:0.07:0.01 --csv out.csv
 *   hnoc_cli --topology torus --layout Center+BL --pattern transpose
 *   hnoc_cli --cmp TPC-C --layout Diagonal+BL --mc diamond
 *
 * Run with --help for the full flag list.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/report.hh"
#include "common/text_file.hh"
#include "heteronoc/layout.hh"
#include "noc/config_io.hh"
#include "noc/sim_harness.hh"
#include "sys/cmp_system.hh"
#include "sys/workloads.hh"
#include "telemetry/trace.hh"

using namespace hnoc;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::printf(
        "hnoc_cli — HeteroNoC simulator front end\n\n"
        "network-only mode (default):\n"
        "  --layout L     Baseline | Center+B | Row2_5+B | Diagonal+B |\n"
        "                 Center+BL | Row2_5+BL | Diagonal+BL\n"
        "  --pattern P    uniform | neighbor | transpose | bitcomp | "
        "selfsim\n"
        "  --rate R       injection rate, packets/node/cycle\n"
        "  --sweep A:B:S  sweep rates from A to B step S\n"
        "  --topology T   mesh | torus\n"
        "  --routing R    xy | yx\n"
        "  --radix N      mesh radix (default 8)\n"
        "  --seed S       RNG seed\n"
        "  --csv FILE     also write results as CSV\n"
        "  --json FILE    write a unified JSON run report (per-router\n"
        "                 telemetry registry included per point)\n"
        "  --trace FILE   write a Chrome-trace JSON of every flit\n"
        "                 (open in chrome://tracing or Perfetto;\n"
        "                 single --rate only)\n"
        "  --flitlog FILE write the compact JSONL flit event log\n"
        "                 (single --rate only)\n"
        "  --config FILE  load a saved network configuration\n"
        "  --dump-config FILE  save the effective configuration\n"
        "  --adaptive[=T] adaptive windows (docs/EXPERIMENTS.md):\n"
        "                 detect warmup, stop measuring once the\n"
        "                 relative CI of mean latency is <= T\n"
        "                 (default 0.02), fast-abort saturated points;\n"
        "                 the fixed windows become ceilings\n"
        "  --sim-options FILE  load sim/window options saved with\n"
        "                 --dump-sim-options (overrides --adaptive)\n"
        "  --dump-sim-options FILE  save the effective sim options\n\n"
        "diagnostics:\n"
        "  --postmortem FILE  arm a forward-progress watchdog with a\n"
        "                 flight recorder; on a stall, dump an\n"
        "                 hnoc-postmortem-v1 JSON to FILE (inspect it\n"
        "                 with `hnoc_inspect postmortem FILE`)\n"
        "  --progress[=N] print a live progress line to stderr every N\n"
        "                 cycles (default 10000): cycle, delivered,\n"
        "                 in-flight, flits/sec, ETA\n"
        "  --audit[=N]    run the credit/buffer-conservation audit\n"
        "                 every N cycles (default 1000); abort with a\n"
        "                 diagnostic on the first violation\n"
        "  --watchdog=N   trip the forward-progress watchdog after N\n"
        "                 cycles without a delivery (default 50000\n"
        "                 when --postmortem is given)\n"
        "  --profile      attribute simulator wall clock per step phase\n"
        "                 and print per-component memory footprints;\n"
        "                 adds a `profile` section to the --json report\n"
        "                 (no-op in HNOC_TELEMETRY=OFF builds)\n"
        "  --blame        per-packet stall-cause blame attribution:\n"
        "                 print blame heat maps plus a percentile\n"
        "                 ladder decomposed by cause, and add a\n"
        "                 `latency_blame` section to the --json report\n"
        "                 (inspect with `hnoc_inspect blame FILE`;\n"
        "                 no-op in HNOC_TELEMETRY=OFF builds)\n\n"
        "full-system mode:\n"
        "  --cmp W        run workload W on the 64-tile CMP\n"
        "                 (SAP SPECjbb TPC-C SJAS frrt fsim vips canl\n"
        "                  ddup sclst libquantum)\n"
        "  --mc M         corners | diamond | diagonal\n");
    std::exit(code);
}

LayoutKind
parseLayout(const std::string &s)
{
    for (LayoutKind k : allLayouts())
        if (layoutName(k) == s)
            return k;
    fatal("unknown layout '%s' (try --help)", s.c_str());
}

TrafficPattern
parsePattern(const std::string &s)
{
    if (s == "uniform")
        return TrafficPattern::UniformRandom;
    if (s == "neighbor")
        return TrafficPattern::NearestNeighbor;
    if (s == "transpose")
        return TrafficPattern::Transpose;
    if (s == "bitcomp")
        return TrafficPattern::BitComplement;
    if (s == "selfsim")
        return TrafficPattern::SelfSimilar;
    fatal("unknown pattern '%s' (try --help)", s.c_str());
}

/** @return @p val, the value of @p flag, as a T; fatal when it is not
 *  a number. */
template <typename T>
T
flagNumber(const std::string &flag, const std::string &val)
{
    T v{};
    parseNumber("hnoc_cli", flag, val, v);
    return v;
}

/** @return which of @p a and @p b (false, true) @p val names; fatal
 *  naming @p flag otherwise. */
bool
flagChoice(const std::string &flag, const std::string &val, const char *a,
           const char *b)
{
    if (val != a && val != b)
        fatal("hnoc_cli: %s wants %s or %s, not '%s'", flag.c_str(), a, b,
              val.c_str());
    return val == b;
}

McPlacement
parseMc(const std::string &s)
{
    if (s == "corners")
        return McPlacement::Corners;
    if (s == "diamond")
        return McPlacement::Diamond;
    if (s == "diagonal")
        return McPlacement::Diagonal;
    fatal("unknown MC placement '%s'", s.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    LayoutKind layout = LayoutKind::Baseline;
    TrafficPattern pattern = TrafficPattern::UniformRandom;
    std::vector<double> rates = {0.03};
    bool torus = false;
    bool yx = false;
    int radix = 8;
    std::uint64_t seed = 1;
    std::string csv_path;
    std::string json_path;
    std::string trace_path;
    std::string flitlog_path;
    std::string cmp_workload;
    std::string config_path;
    std::string dump_config_path;
    std::string sim_options_path;
    std::string dump_sim_options_path;
    std::string postmortem_path;
    bool adaptive = false;
    double ci_target = 0.02;
    Cycle progress_every = 0;
    Cycle audit_every = 0;
    Cycle watchdog_window = 0;
    bool profile = false;
    bool blame = false;
    McPlacement mc = McPlacement::Corners;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("missing value after %s", arg.c_str());
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h")
            usage(0);
        else if (arg == "--layout")
            layout = parseLayout(next());
        else if (arg == "--pattern")
            pattern = parsePattern(next());
        else if (arg == "--rate")
            rates = {flagNumber<double>(arg, next())};
        else if (arg == "--sweep") {
            double a;
            double b;
            double s;
            if (std::sscanf(next().c_str(), "%lf:%lf:%lf", &a, &b, &s) !=
                    3 || s <= 0.0)
                fatal("--sweep wants A:B:S");
            rates.clear();
            for (double r = a; r <= b + 1e-12; r += s)
                rates.push_back(r);
        } else if (arg == "--topology")
            torus = flagChoice(arg, next(), "mesh", "torus");
        else if (arg == "--routing")
            yx = flagChoice(arg, next(), "xy", "yx");
        else if (arg == "--radix")
            radix = flagNumber<int>(arg, next());
        else if (arg == "--seed")
            seed = flagNumber<std::uint64_t>(arg, next());
        else if (arg == "--csv")
            csv_path = next();
        else if (arg == "--json")
            json_path = next();
        else if (arg == "--trace")
            trace_path = next();
        else if (arg == "--flitlog")
            flitlog_path = next();
        else if (arg == "--config")
            config_path = next();
        else if (arg == "--dump-config")
            dump_config_path = next();
        else if (arg == "--adaptive")
            adaptive = true;
        else if (arg.rfind("--adaptive=", 0) == 0) {
            adaptive = true;
            ci_target = flagNumber<double>("--adaptive", arg.substr(11));
            if (ci_target <= 0.0)
                fatal("--adaptive=T wants a positive CI target");
        } else if (arg == "--sim-options")
            sim_options_path = next();
        else if (arg == "--dump-sim-options")
            dump_sim_options_path = next();
        else if (arg == "--cmp")
            cmp_workload = next();
        else if (arg == "--mc")
            mc = parseMc(next());
        else if (arg == "--postmortem")
            postmortem_path = next();
        else if (arg == "--progress")
            progress_every = 10000;
        else if (arg.rfind("--progress=", 0) == 0)
            progress_every = flagNumber<Cycle>("--progress", arg.substr(11));
        else if (arg == "--audit")
            audit_every = 1000;
        else if (arg.rfind("--audit=", 0) == 0)
            audit_every = flagNumber<Cycle>("--audit", arg.substr(8));
        else if (arg.rfind("--watchdog=", 0) == 0)
            watchdog_window = flagNumber<Cycle>("--watchdog", arg.substr(11));
        else if (arg == "--profile")
            profile = true;
        else if (arg == "--blame")
            blame = true;
        else
            usage(1);
    }

    NetworkConfig cfg = makeLayoutConfig(layout, radix);
    if (torus)
        cfg.topology = TopologyType::Torus;
    if (yx)
        cfg.routing = RoutingMode::YX;
    if (!config_path.empty())
        cfg = loadConfig(config_path); // file overrides the flags
    if (!dump_config_path.empty() &&
        !saveConfig(cfg, dump_config_path))
        fatal("cannot write %s", dump_config_path.c_str());

    if (!cmp_workload.empty()) {
        CmpConfig cmp;
        cmp.mcPlacement = mc;
        cmp.seed = seed;
        CmpSystem sys(cfg, cmp);
        sys.assignWorkloadAll(workloadByName(cmp_workload));
        sys.warmCaches(40000);
        sys.run(3000);
        sys.resetStats();
        sys.run(15000);
        Table t({"metric", "value"});
        t.row({"workload", cmp_workload});
        t.row({"layout", cfg.name});
        t.row({"MC placement", mcPlacementName(mc)});
        t.row({"avg IPC", Table::num(sys.avgIpc(), 3)});
        t.row({"net latency (ns)",
               Table::num(sys.netLatency().totalNs.mean(), 1)});
        t.row({"round trip (core cyc)",
               Table::num(sys.roundTripCoreCycles().mean(), 0)});
        t.row({"network power (W)",
               Table::num(sys.networkPower().total(), 1)});
        std::fputs(t.text().c_str(), stdout);
        if (!csv_path.empty())
            t.writeCsv(csv_path);
        return 0;
    }

    bool tracing = !trace_path.empty() || !flitlog_path.empty();
    if (tracing && rates.size() != 1)
        fatal("--trace/--flitlog need a single --rate, not a sweep");

    SimPointOptions opts;
    if (adaptive) {
        opts.control.mode = SimControlMode::Adaptive;
        opts.control.ciTarget = ci_target;
    }
    if (!sim_options_path.empty()) {
        std::ifstream in(sim_options_path);
        if (!in)
            fatal("cannot open %s", sim_options_path.c_str());
        std::stringstream buf;
        buf << in.rdbuf();
        opts = simOptionsFromString(buf.str()); // overrides the flags
    }
    if (!dump_sim_options_path.empty() &&
        !writeTextFile(dump_sim_options_path, simOptionsToString(opts)))
        fatal("cannot write %s", dump_sim_options_path.c_str());
    opts.seed = seed;
    opts.collectMetrics = !json_path.empty();
    opts.progressEvery = progress_every;
    opts.auditEvery = audit_every;
    opts.watchdogWindow = watchdog_window;
    opts.profile = profile;
    opts.collectBlame = blame;
    if (!postmortem_path.empty()) {
        opts.postmortemPath = postmortem_path;
        opts.flightRecorder = true;
        if (opts.watchdogWindow == 0)
            opts.watchdogWindow = 50000;
    }
    // The trace is rendered from the recorder ring after the run; with
    // --postmortem as well, the one recorder serves both.
    if (tracing) {
        opts.flightRecorder = true;
        opts.flightRecorderCapacity = FlitTrace::kRingCapacity;
    }
    if (tracing && !kTelemetryEnabled)
        std::fprintf(stderr, "--trace/--flitlog: built with "
                             "HNOC_TELEMETRY=OFF, no flit events recorded\n");

    std::vector<std::string> labels;
    std::vector<SimPointResult> results;
    Table t({"rate", "accepted", "latency(ns)", "queue(ns)",
             "block(ns)", "transfer(ns)", "power(W)", "combine",
             "saturated", "cycles", "stop"});
    for (double r : rates) {
        opts.injectionRate = r;
        SimPointResult res = runOpenLoop(cfg, pattern, opts);
        t.row({Table::num(r, 4), Table::num(res.acceptedRate, 4),
               Table::num(res.avgLatencyNs, 1),
               Table::num(res.avgQueuingNs, 1),
               Table::num(res.avgBlockingNs, 1),
               Table::num(res.avgTransferNs, 1),
               Table::num(res.networkPowerW, 1),
               Table::num(res.combineRate, 2),
               res.saturated ? "yes" : "no",
               std::to_string(res.simulatedCycles),
               stopReasonName(res.stopReason)});
        labels.push_back(cfg.name + "@" + Table::num(r, 4));
        if (res.watchdogTrips > 0)
            std::fprintf(stderr,
                         "rate %.4f: watchdog tripped %llu time(s)%s%s\n",
                         r,
                         static_cast<unsigned long long>(
                             res.watchdogTrips),
                         postmortem_path.empty() ? "" : ", postmortem: ",
                         postmortem_path.c_str());
        results.push_back(std::move(res));
    }
    std::printf("%s (%s, %s)\n", cfg.name.c_str(),
                trafficPatternName(pattern).c_str(),
                torus ? "torus" : "mesh");
    std::fputs(t.text().c_str(), stdout);
    if (!csv_path.empty())
        t.writeCsv(csv_path);
    if (profile) {
        if (auto prof = mergeProfiles(results)) {
            std::printf("\nself-profile (all points merged)\n%s",
                        prof->table().c_str());
            if (auto mem = maxMemoryAudit(results))
                std::printf("\n%s", mem->table().c_str());
        } else {
            std::fprintf(stderr,
                         "--profile: built with HNOC_TELEMETRY=OFF, "
                         "no profile collected\n");
        }
    }
    if (blame) {
        if (auto b = mergeBlame(results)) {
            std::printf("\nlatency blame (all points merged)\n%s",
                        b->table().c_str());
        } else {
            std::fprintf(stderr,
                         "--blame: built with HNOC_TELEMETRY=OFF, "
                         "no blame collected\n");
        }
    }
    if (!json_path.empty() &&
        writeRunReport(json_path, "hnoc_cli run", labels, results))
        std::printf("run report: %s\n", json_path.c_str());
    if (tracing) {
        FlitTrace trace(*results.front().flightRecorder);
        if (!trace_path.empty() && trace.writeChromeTrace(trace_path))
            std::printf("chrome trace: %s (%llu events, %zu packets)\n",
                        trace_path.c_str(),
                        static_cast<unsigned long long>(trace.eventCount()),
                        trace.packets().size());
        if (!flitlog_path.empty() && trace.writeFlitLog(flitlog_path))
            std::printf("flit log: %s\n", flitlog_path.c_str());
    }
    return 0;
}
