/**
 * @file
 * hnoc_inspect: offline analysis of hnoc JSON artifacts.
 *
 * Loads `hnoc-run-report-v1` documents (sim_harness::writeRunReport /
 * hnoc_cli --json), `hnoc-postmortem-v1` dumps (watchdog trips,
 * Network::writePostmortem) and JSONL flit logs (FlitTrace), and
 * answers the questions that come up when a run looks wrong: how did
 * the points behave, which routers were congested, what changed
 * between two runs, and what was the pipeline doing when it stalled.
 * See docs/OBSERVABILITY.md for a walkthrough.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/text_file.hh"
#include "telemetry/json_reader.hh"

using hnoc::JsonValue;
using hnoc::writeTextFile;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: hnoc_inspect <command> [options]\n"
        "\n"
        "commands:\n"
        "  summary <report.json>          per-point overview of a run "
        "report\n"
        "  top <report.json> [-k N]       top-N congested routers\n"
        "  heatmap <report.json> [-m buffer|link]\n"
        "                                 ASCII utilization heat map\n"
        "  diff <a.json> <b.json> [-t PCT] [--fail-over]\n"
        "                                 compare two run reports; "
        "deltas over\n"
        "                                 PCT%% are flagged (default "
        "5%%)\n"
        "  converge <report.json> [-t PCT]\n"
        "                                 stopping-rule analysis per "
        "point:\n"
        "                                 stop reason, cycles, CI "
        "trajectory,\n"
        "                                 offline warmup cutoff over "
        "the\n"
        "                                 telemetry epoch series "
        "(default\n"
        "                                 CI target 2%%)\n"
        "  profile <report.json> [--trace FILE]\n"
        "                                 simulator self-profile: "
        "per-phase\n"
        "                                 wall-clock attribution, "
        "per-block\n"
        "                                 timings and bytes streamed "
        "per cycle\n"
        "                                 (cache-blocked stepping), "
        "and\n"
        "                                 per-component memory "
        "footprints\n"
        "                                 (runs made with --profile); "
        "--trace\n"
        "                                 writes the phase spans as a "
        "Chrome-trace\n"
        "                                 JSON\n"
        "  blame <report.json> [--events DUMP.json] [--packet N]\n"
        "                                 stall-cause blame attribution "
        "of a\n"
        "                                 --blame run: cause "
        "decomposition,\n"
        "                                 percentile ladder, router/link "
        "class\n"
        "                                 split and worst packets; with\n"
        "                                 --events, replay one packet's\n"
        "                                 critical path cycle-by-cycle "
        "from an\n"
        "                                 hnoc-postmortem-v1 flight "
        "recorder\n"
        "                                 dump (--packet picks the id,\n"
        "                                 default: worst recorded "
        "packet)\n"
        "  postmortem <dump.json> [-n N]  summarize an "
        "hnoc-postmortem-v1 dump,\n"
        "                                 printing the last N recorder "
        "events\n"
        "  flitlog <trace.jsonl> [-k N]   statistics over a JSONL flit "
        "log\n");
    return 1;
}

/** Load one JSON document or exit(1) with a clear message. */
JsonValue
load(const std::string &path)
{
    JsonValue doc;
    std::string err;
    if (!hnoc::parseJsonFile(path, doc, &err)) {
        std::fprintf(stderr, "hnoc_inspect: %s\n", err.c_str());
        std::exit(1);
    }
    return doc;
}

void
requireSchema(const JsonValue &doc, const char *want,
              const std::string &path)
{
    std::string got = doc.strAt("schema");
    if (got != want) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s: expected schema \"%s\", found "
                     "\"%s\"\n",
                     path.c_str(), want, got.c_str());
        std::exit(1);
    }
}

// ---------------------------------------------------------------- summary

int
cmdSummary(const std::string &path)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);

    std::printf("%s: %s (%s)\n", doc.strAt("tool").c_str(),
                doc.strAt("title").c_str(), doc.strAt("schema").c_str());
    const auto &points = doc.arrayAt("points");
    std::printf("%zu point(s)\n\n", points.size());
    std::printf("%-24s %9s %9s %10s %10s %8s %5s\n", "label", "offered",
                "accepted", "avg ns", "p95 ns", "power W", "sat");
    for (const JsonValue &p : points) {
        std::printf("%-24s %9.4f %9.4f %10.1f %10.1f %8.3f %5s\n",
                    p.strAt("label").c_str(), p.numAt("offered_rate", 0),
                    p.numAt("accepted_rate", 0),
                    p.numAt("avg_latency_ns", 0),
                    p.numAt("p95_latency_ns", 0),
                    p.numAt("network_power_w", 0),
                    p.boolAt("saturated") ? "YES" : "no");
    }

    // Delivery accounting across all points.
    double created = 0;
    double delivered = 0;
    for (const JsonValue &p : points) {
        created += p.numAt("tracked_created", 0);
        delivered += p.numAt("tracked_delivered", 0);
    }
    std::printf("\ntracked packets: %.0f created, %.0f delivered\n",
                created, delivered);

    // Per-router arbitration health, derived from the merged telemetry
    // registry when the report carries one: SA grant rate (crossbar
    // grants per observed cycle), VA conflict rate, and the fraction
    // of switch requests lost to empty credit pools. High stall or
    // conflict rates with a low grant rate point at allocator
    // contention rather than link saturation. Every SA grant routes
    // one flit, so a router's grants are the column sum of the epoch
    // series' flits_routed.
    const JsonValue *merged = nullptr;
    if (const JsonValue *regs = doc.find("registries"))
        merged = regs->find("merged");
    const JsonValue *ctrs = merged ? merged->find("counters") : nullptr;
    const JsonValue *epochs = merged ? merged->find("epochs") : nullptr;
    double cycles = merged ? merged->numAt("observed_cycles", 0) : 0;
    if (ctrs && epochs && cycles > 0) {
        auto perRouter = [&](const char *name) -> std::vector<double> {
            if (const JsonValue *c = ctrs->find(name))
                return c->numbersAt("per_router");
            return {};
        };
        std::vector<double> grants;
        for (const JsonValue &row : epochs->arrayAt("flits_routed")) {
            grants.resize(std::max(grants.size(), row.array.size()), 0.0);
            for (std::size_t r = 0; r < row.array.size(); ++r)
                if (row.array[r].isNumber())
                    grants[r] += row.array[r].number;
        }
        std::vector<double> stalls = perRouter("credit_stalls");
        std::vector<double> conflicts = perRouter("va_conflicts");
        if (!grants.empty()) {
            std::vector<int> order(grants.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                order[i] = static_cast<int>(i);
            std::stable_sort(order.begin(), order.end(),
                             [&](int a, int b) {
                                 return grants[static_cast<std::size_t>(
                                            a)] >
                                        grants[static_cast<std::size_t>(
                                            b)];
                             });
            int shown = std::min<int>(8, static_cast<int>(order.size()));
            std::printf("\narbitration rates over %.0f observed "
                        "cycles (top %d of %zu routers by SA grant "
                        "rate)\n",
                        cycles, shown, grants.size());
            std::printf("%6s %14s %14s %12s\n", "router", "sa gnt/cyc",
                        "va conf/cyc", "stall frac");
            for (int i = 0; i < shown; ++i) {
                auto r = static_cast<std::size_t>(
                    order[static_cast<std::size_t>(i)]);
                double g = grants[r];
                double s = r < stalls.size() ? stalls[r] : 0.0;
                double c = r < conflicts.size() ? conflicts[r] : 0.0;
                std::printf("%6zu %14.4f %14.4f %12.4f\n", r,
                            g / cycles, c / cycles,
                            g + s > 0 ? s / (g + s) : 0.0);
            }
        }
    }
    return 0;
}

// -------------------------------------------------------------------- top

/** Per-router utilization of a report: the points' `<metric>_util_pct`
 *  averaged with each point's measure_cycles_used as its weight, i.e.
 *  the whole report's occupancy (or link flits) over its
 *  capacity-cycles. Points of another router count are skipped. */
std::vector<double>
routerUtil(const JsonValue &doc, const char *metric)
{
    std::string key = std::string(metric) + "_util_pct";
    std::vector<double> sum;
    double cycles = 0.0;
    for (const JsonValue &p : doc.arrayAt("points")) {
        std::vector<double> v = p.numbersAt(key);
        double w = p.numAt("measure_cycles_used", 0);
        if (v.empty() || w <= 0.0 || (!sum.empty() && v.size() != sum.size()))
            continue;
        sum.resize(v.size(), 0.0);
        for (std::size_t r = 0; r < v.size(); ++r)
            sum[r] += v[r] * w;
        cycles += w;
    }
    for (double &s : sum)
        s /= cycles;
    return sum;
}

int
gridCols(const JsonValue &doc, std::size_t routers)
{
    if (const JsonValue *regs = doc.find("registries"))
        if (const JsonValue *merged = regs->find("merged"))
            if (const JsonValue *dims = merged->find("dims")) {
                int cols = static_cast<int>(dims->numAt("grid_cols", 0));
                if (cols > 0)
                    return cols;
            }
    int cols = 1;
    while (static_cast<std::size_t>(cols) * static_cast<std::size_t>(cols)
           < routers)
        ++cols;
    return cols;
}

int
cmdTop(const std::string &path, int k)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);

    std::vector<double> buf = routerUtil(doc, "buffer");
    std::vector<double> link = routerUtil(doc, "link");
    if (buf.empty()) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s carries no per-router "
                     "utilization data\n",
                     path.c_str());
        return 1;
    }
    std::vector<int> order(buf.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return buf[static_cast<std::size_t>(a)] >
               buf[static_cast<std::size_t>(b)];
    });

    std::printf("top %d congested routers (by buffer utilization)\n", k);
    std::printf("%6s %12s %12s\n", "router", "buffer %", "link %");
    for (int i = 0; i < k && i < static_cast<int>(order.size()); ++i) {
        auto r = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
        std::printf("%6zu %12.2f %12.2f\n", r, buf[r],
                    r < link.size() ? link[r] : 0.0);
    }
    return 0;
}

// ---------------------------------------------------------------- heatmap

int
cmdHeatmap(const std::string &path, const char *metric)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);

    std::vector<double> util = routerUtil(doc, metric);
    if (util.empty()) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s carries no per-router "
                     "utilization data\n",
                     path.c_str());
        return 1;
    }
    int cols = gridCols(doc, util.size());
    double peak = 0.0;
    for (double v : util)
        peak = std::max(peak, v);

    // Darker glyph = busier router; scale is relative to the peak.
    static const char kRamp[] = " .:-=+*#%@";
    const int levels = static_cast<int>(std::strlen(kRamp)) - 1;
    std::printf("%s utilization heat map (peak %.2f%%, '%c' = peak)\n",
                metric, peak, kRamp[levels]);
    for (std::size_t r = 0; r < util.size(); ++r) {
        int level =
            peak > 0.0
                ? static_cast<int>(std::lround(util[r] / peak * levels))
                : 0;
        std::printf(" %c", kRamp[std::clamp(level, 0, levels)]);
        if ((r + 1) % static_cast<std::size_t>(cols) == 0)
            std::printf("\n");
    }
    if (util.size() % static_cast<std::size_t>(cols) != 0)
        std::printf("\n");
    std::printf("\nrow-major, %d columns; values are percent of the "
                "busiest router\n",
                cols);
    return 0;
}

// ------------------------------------------------------------------- diff

struct DiffMetric
{
    const char *key;
    const char *label;
};

int
cmdDiff(const std::string &path_a, const std::string &path_b,
        double threshold_pct, bool fail_over)
{
    JsonValue a = load(path_a);
    JsonValue b = load(path_b);
    requireSchema(a, "hnoc-run-report-v1", path_a);
    requireSchema(b, "hnoc-run-report-v1", path_b);

    std::map<std::string, const JsonValue *> b_points;
    for (const JsonValue &p : b.arrayAt("points"))
        b_points[p.strAt("label")] = &p;

    static const DiffMetric kMetrics[] = {
        {"accepted_rate", "accepted"},
        {"avg_latency_ns", "avg ns"},
        {"p95_latency_ns", "p95 ns"},
        {"network_power_w", "power W"},
    };

    std::printf("diff: %s -> %s (flag over %.1f%%)\n\n", path_a.c_str(),
                path_b.c_str(), threshold_pct);
    std::printf("%-24s %-10s %12s %12s %9s\n", "label", "metric", "a",
                "b", "delta");
    int flagged = 0;
    int compared = 0;
    for (const JsonValue &pa : a.arrayAt("points")) {
        std::string label = pa.strAt("label");
        auto it = b_points.find(label);
        if (it == b_points.end()) {
            std::printf("%-24s only in %s\n", label.c_str(),
                        path_a.c_str());
            continue;
        }
        ++compared;
        for (const DiffMetric &m : kMetrics) {
            double va = pa.numAt(m.key, 0);
            double vb = it->second->numAt(m.key, 0);
            double pct = va != 0.0 ? 100.0 * (vb - va) / va
                                   : (vb != 0.0 ? 100.0 : 0.0);
            bool over = std::fabs(pct) > threshold_pct;
            if (over)
                ++flagged;
            std::printf("%-24s %-10s %12.4f %12.4f %+8.2f%%%s\n",
                        label.c_str(), m.label, va, vb, pct,
                        over ? "  <-- over threshold" : "");
        }
        b_points.erase(it);
    }
    for (const auto &[label, p] : b_points) {
        (void)p;
        std::printf("%-24s only in %s\n", label.c_str(), path_b.c_str());
    }

    // Blame-share drift, when both runs carried --blame data: a cause
    // whose share of total latency moved by more than the threshold
    // (in percentage points) marks a behavior change even when the
    // headline latency barely moved.
    const JsonValue *bla = a.find("latency_blame");
    const JsonValue *blb = b.find("latency_blame");
    const JsonValue *ca = bla ? bla->find("causes") : nullptr;
    const JsonValue *cb = blb ? blb->find("causes") : nullptr;
    if (ca && cb) {
        std::printf("\nblame share (%% of total latency)\n");
        std::printf("%-20s %10s %10s %9s\n", "cause", "a", "b",
                    "delta pp");
        for (const auto &[name, va] : ca->object) {
            const JsonValue *vb = cb->find(name);
            double sa = va.numAt("share_pct", 0);
            double sb = vb ? vb->numAt("share_pct", 0) : 0.0;
            bool over = std::fabs(sb - sa) > threshold_pct;
            if (over)
                ++flagged;
            std::printf("%-20s %9.2f%% %9.2f%% %+8.2f%s\n",
                        name.c_str(), sa, sb, sb - sa,
                        over ? "  <-- over threshold" : "");
        }
    }

    std::printf("\n%d point(s) compared, %d metric delta(s) over "
                "%.1f%%\n",
                compared, flagged, threshold_pct);
    return fail_over && flagged > 0 ? 2 : 0;
}

// --------------------------------------------------------------- converge

/** Per-epoch total of a per-router epoch series ("flits_routed"...). */
std::vector<double>
epochTotals(const JsonValue &epochs, const char *key)
{
    std::vector<double> out;
    for (const JsonValue &row : epochs.arrayAt(key)) {
        double total = 0.0;
        for (const JsonValue &v : row.array)
            if (v.isNumber())
                total += v.number;
        out.push_back(total);
    }
    return out;
}

int
cmdConverge(const std::string &path, double target_pct)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);
    double target = target_pct / 100.0;

    if (const JsonValue *reasons = doc.find("stop_reasons")) {
        std::printf("stop reasons:");
        for (const auto &[name, n] : reasons->object)
            if (n.isNumber() && n.number > 0)
                std::printf("  %s=%.0f", name.c_str(), n.number);
        std::printf("\n\n");
    }

    std::printf("%-24s %-16s %10s %8s %8s\n", "label", "stop", "cycles",
                "CI %", "batches");
    for (const JsonValue &p : doc.arrayAt("points")) {
        std::vector<double> hist = p.numbersAt("ci_history");
        double ci = p.numAt("ci_rel_half_width", -1.0);
        std::string stop = p.strAt("stop_reason");
        if (stop.empty())
            stop = "-";
        char cibuf[16];
        if (ci >= 0.0)
            std::snprintf(cibuf, sizeof(cibuf), "%.2f", ci * 100.0);
        else
            std::snprintf(cibuf, sizeof(cibuf), "-");
        std::printf("%-24s %-16s %10.0f %8s %8zu\n",
                    p.strAt("label").c_str(), stop.c_str(),
                    p.numAt("simulated_cycles", 0), cibuf,
                    hist.size());
        // Batch at which the CI trajectory first crossed the target —
        // the would-have-stopped point for any target, not just the
        // one the run used.
        for (std::size_t i = 0; i < hist.size(); ++i) {
            if (hist[i] >= 0.0 && hist[i] <= target) {
                std::printf("%24s CI <= %.1f%% after batch %zu\n", "",
                            target_pct, i + 1);
                break;
            }
        }

        // Offline stopping-rule replay over the recorded telemetry
        // epoch series (same helpers the live controller uses).
        const JsonValue *tel = p.find("telemetry");
        const JsonValue *epochs = tel ? tel->find("epochs") : nullptr;
        if (!epochs)
            continue;
        std::vector<double> flits = epochTotals(*epochs, "flits_routed");
        if (flits.size() < 2)
            continue;
        int cut = hnoc::steadyEpochCutoff(flits, 0.05, 3);
        hnoc::EpochSeriesCi s = hnoc::epochSeriesCi(
            flits, cut > 0 ? static_cast<std::size_t>(cut) : 0);
        std::printf("%24s epochs: %zu, steady from %d, "
                    "mean flits/epoch %.0f, CI %.2f%%\n",
                    "", flits.size(), cut, s.mean,
                    std::isfinite(s.relHalfWidth)
                        ? s.relHalfWidth * 100.0
                        : -1.0);
    }
    return 0;
}

// ---------------------------------------------------------------- profile

/**
 * Render the `profile` section a --profile run attaches to its report:
 * the per-phase wall-clock table, the per-component memory table, and
 * (with --trace) the phase spans as a Chrome-trace JSON — one
 * synthetic "step" timeline whose slice widths are each phase's total
 * wall time, so Perfetto's flame view shows the attribution at a
 * glance.
 */
int
cmdProfile(const std::string &path, const std::string &trace_path)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);

    const JsonValue *prof = doc.find("profile");
    if (!prof) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s carries no profile section "
                     "(rerun with --profile)\n",
                     path.c_str());
        return 1;
    }

    const JsonValue *wall = prof->find("wall");
    if (wall) {
        double cycles = wall->numAt("cycles", 0);
        double total_ns = wall->numAt("step_total_ns", 0);
        double unattr_ns = wall->numAt("unattributed_ns", 0);
        std::printf("wall-clock attribution over %.0f cycles\n", cycles);
        std::printf("%-18s %14s %12s %7s\n", "phase", "wall ns",
                    "visits", "share");
        if (const JsonValue *phases = wall->find("phases")) {
            for (const auto &[name, p] : phases->object)
                std::printf("%-18s %14.0f %12.0f %6.1f%%\n",
                            name.c_str(), p.numAt("ns", 0),
                            p.numAt("visits", 0),
                            p.numAt("share_pct", 0));
        }
        std::printf("%-18s %14.0f %12s %6.1f%%\n", "(scan/overhead)",
                    unattr_ns, "",
                    total_ns > 0 ? 100.0 * unattr_ns / total_ns : 0.0);
        std::printf("%-18s %14.0f\n", "step_total", total_ns);
        if (cycles > 0)
            std::printf("%-18s %14.1f\n", "ns/cycle",
                        total_ns / cycles);

        // Per-block attribution from the cache-blocked step order
        // (§6g): wall time and touched-cycle count per spatial block,
        // each block's hot footprint, and the derived bytes the step
        // loop streams per simulated cycle.
        const JsonValue *blocks = wall->find("blocks");
        if (blocks && !blocks->array.empty()) {
            std::printf("\nper-block attribution (%zu blocks)\n",
                        blocks->array.size());
            std::printf("%-18s %14s %12s %12s %7s\n", "block",
                        "wall ns", "visits", "hot bytes", "share");
            for (std::size_t b = 0; b < blocks->array.size(); ++b) {
                const JsonValue &blk = blocks->array[b];
                char name[32];
                std::snprintf(name, sizeof(name), "block[%zu]", b);
                std::printf("%-18s %14.0f %12.0f %12.0f %6.1f%%\n",
                            name, blk.numAt("ns", 0),
                            blk.numAt("visits", 0),
                            blk.numAt("hot_bytes", 0),
                            blk.numAt("share_pct", 0));
            }
            std::printf("%-18s %14.1f\n", "bytes/cycle",
                        wall->numAt("bytes_streamed_per_cycle", 0));
        }
    }

    if (const JsonValue *mem = prof->find("memory")) {
        double tiles = mem->numAt("tiles", 0);
        std::printf("\nmemory audit (%.0f tiles)\n", tiles);
        std::printf("%-22s %12s %8s %12s\n", "component", "bytes",
                    "count", "bytes/tile");
        for (const JsonValue &c : mem->arrayAt("components"))
            std::printf("%-22s %12.0f %8.0f %12.1f\n",
                        c.strAt("name").c_str(), c.numAt("bytes", 0),
                        c.numAt("count", 0),
                        c.numAt("bytes_per_tile", 0));
        std::printf("%-22s %12.0f %8s %12.1f\n", "total",
                    mem->numAt("total_bytes", 0), "",
                    mem->numAt("bytes_per_tile", 0));
    }

    if (!trace_path.empty() && wall) {
        // Sequential X slices (1 ns wall = 1 ns trace), attributed
        // phases first, residual last.
        std::string doc = "{\"traceEvents\":[\n";
        double ts = 0.0;
        bool first = true;
        auto slice = [&](const std::string &name, double ns) {
            if (ns <= 0)
                return;
            char times[128];
            std::snprintf(times, sizeof(times),
                          "\"ts\":%.3f,\"dur\":%.3f,", ts / 1000.0,
                          ns / 1000.0);
            doc += first ? "" : ",\n";
            doc += "{\"name\":\"" + name +
                   "\",\"ph\":\"X\",\"pid\":0,\"tid\":0," + times +
                   "\"cat\":\"profile\"}";
            first = false;
            ts += ns;
        };
        if (const JsonValue *phases = wall->find("phases"))
            for (const auto &[name, p] : phases->object)
                slice(name, p.numAt("ns", 0));
        slice("(scan/overhead)", wall->numAt("unattributed_ns", 0));
        doc += "\n],\"displayTimeUnit\":\"ms\"}\n";
        if (!writeTextFile(trace_path, doc)) {
            std::fprintf(stderr, "hnoc_inspect: cannot write %s\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("\nphase trace: %s (open in chrome://tracing or "
                    "Perfetto)\n",
                    trace_path.c_str());
    }
    return 0;
}

// ------------------------------------------------------------------ blame

/** Largest entry of a tail_mean_blame / by_cause object, skipping the
 *  zero-load min terms. @return pointer to the winning pair or null. */
const std::pair<std::string, JsonValue> *
topStall(const JsonValue &blame)
{
    const std::pair<std::string, JsonValue> *best = nullptr;
    for (const auto &kv : blame.object) {
        if (kv.first == "min_head_latency" ||
            kv.first == "min_serialization")
            continue;
        if (!kv.second.isNumber())
            continue;
        if (!best || kv.second.number > best->second.number)
            best = &kv;
    }
    return best;
}

int
cmdBlame(const std::string &path, const std::string &events_path,
         double packet_sel)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-run-report-v1", path);

    const JsonValue *bl = doc.find("latency_blame");
    if (!bl) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s carries no latency_blame "
                     "section (rerun with --blame)\n",
                     path.c_str());
        return 1;
    }

    double packets = bl->numAt("packets", 0);
    std::printf("latency blame: %.0f packet(s), mean %.2f cyc, %.0f "
                "identity violation(s)\n",
                packets, bl->numAt("mean_latency_cycles", 0),
                bl->numAt("identity_violations", 0));

    if (const JsonValue *causes = bl->find("causes")) {
        std::printf("\n%-20s %14s %8s %10s\n", "cause", "cycles",
                    "share", "per-pkt");
        for (const auto &[name, c] : causes->object)
            std::printf("%-20s %14.0f %7.2f%% %10.3f\n", name.c_str(),
                        c.numAt("cycles", 0), c.numAt("share_pct", 0),
                        c.numAt("per_packet", 0));
    }

    if (const JsonValue *rungs = bl->find("percentiles")) {
        std::printf("\npercentile ladder (tail-mean blame)\n");
        for (const JsonValue &r : rungs->array) {
            std::printf("  p%-5g >= %5.0f cyc: %8.0f pkts, mean %8.1f",
                        r.numAt("percentile", 0),
                        r.numAt("latency_cycles", 0),
                        r.numAt("tail_packets", 0),
                        r.numAt("tail_mean_latency", 0));
            if (const JsonValue *tm = r.find("tail_mean_blame"))
                if (const auto *best = topStall(*tm))
                    std::printf(", top stall %s %.1f",
                                best->first.c_str(),
                                best->second.number);
            std::printf("\n");
        }
    }

    if (const JsonValue *classes = bl->find("classes")) {
        std::printf("\nrouter class x link class split\n");
        std::printf("%-7s %-7s %14s  %s\n", "router", "link", "cycles",
                    "top cause");
        for (const JsonValue &c : classes->array) {
            std::printf("%-7s %-7s %14.0f", c.strAt("router_class").c_str(),
                        c.strAt("link_class").c_str(),
                        c.numAt("cycles", 0));
            if (const JsonValue *by = c.find("by_cause"))
                if (const auto *best = topStall(*by))
                    std::printf("  %s %.0f", best->first.c_str(),
                                best->second.number);
            std::printf("\n");
        }
    }

    const JsonValue *worst = bl->find("worst_packets");
    if (worst && !worst->array.empty()) {
        std::printf("\nworst packets\n");
        std::printf("%10s %5s %5s %9s %8s %8s  %s\n", "id", "src",
                    "dst", "latency", "min hd", "min ser", "top stall");
        for (const JsonValue &p : worst->array) {
            std::printf("%10.0f %5.0f %5.0f %9.0f %8.0f %8.0f",
                        p.numAt("id", 0), p.numAt("src", 0),
                        p.numAt("dst", 0), p.numAt("latency_cycles", 0),
                        p.numAt("min_head_latency", 0),
                        p.numAt("min_serialization", 0));
            if (const JsonValue *b = p.find("blame"))
                if (const auto *best = topStall(*b))
                    std::printf("  %s %.0f", best->first.c_str(),
                                best->second.number);
            std::printf("\n");
        }
    }

    if (events_path.empty())
        return 0;

    // Critical-path replay: walk one packet's flight-recorder events
    // in time order, printing the per-hop gaps that make up its
    // latency. The recorder is a ring buffer, so only the recent
    // window of the run is available.
    JsonValue dump = load(events_path);
    requireSchema(dump, "hnoc-postmortem-v1", events_path);
    const JsonValue *fr = dump.find("flight_recorder");
    if (!fr) {
        std::fprintf(stderr,
                     "hnoc_inspect: %s carries no flight recorder "
                     "(rerun with --postmortem)\n",
                     events_path.c_str());
        return 1;
    }
    const auto &events = fr->arrayAt("events");

    // Pick the packet: --packet wins; otherwise prefer the worst
    // report packet that the recorder window still holds; otherwise
    // the packet with the most recorded events.
    std::map<double, std::uint64_t> counts;
    for (const JsonValue &e : events)
        if (e.find("pkt"))
            ++counts[e.numAt("pkt", -1)];
    double pkt = packet_sel;
    if (pkt < 0 && worst) {
        for (const JsonValue &p : worst->array) {
            double id = p.numAt("id", -1);
            if (counts.count(id)) {
                pkt = id;
                break;
            }
        }
    }
    if (pkt < 0) {
        std::uint64_t best_n = 0;
        for (const auto &[id, n] : counts)
            if (n > best_n) {
                best_n = n;
                pkt = id;
            }
    }
    if (pkt < 0 || !counts.count(pkt)) {
        std::fprintf(stderr,
                     "hnoc_inspect: packet %.0f not in the recorder "
                     "window of %s\n",
                     pkt, events_path.c_str());
        return 1;
    }

    std::printf("\ncritical-path replay: packet %.0f (%llu recorded "
                "event(s))\n",
                pkt, static_cast<unsigned long long>(counts[pkt]));
    double prev_t = -1.0;
    for (const JsonValue &e : events) {
        if (!e.find("pkt") || e.numAt("pkt", -1) != pkt)
            continue;
        double t = e.numAt("t", 0);
        std::printf("  t=%-8.0f", t);
        if (prev_t >= 0 && t > prev_t)
            std::printf(" (+%-5.0f)", t - prev_t);
        else
            std::printf("         ");
        std::printf(" %-12s r=%-3.0f p=%-2.0f vc=%-2.0f%s\n",
                    e.strAt("ev").c_str(), e.numAt("r", 0),
                    e.numAt("p", 0), e.numAt("vc", 0),
                    e.boolAt("head") ? " head" : "");
        prev_t = t;
    }
    return 0;
}

// ------------------------------------------------------------- postmortem

int
cmdPostmortem(const std::string &path, int tail)
{
    JsonValue doc = load(path);
    requireSchema(doc, "hnoc-postmortem-v1", path);

    std::printf("postmortem: %s (%s)\n", doc.strAt("reason").c_str(),
                doc.strAt("schema").c_str());
    std::printf("cycle %.0f | injected %.0f | delivered %.0f | in "
                "flight %.0f | queued %.0f\n",
                doc.numAt("cycle", 0), doc.numAt("packets_injected", 0),
                doc.numAt("packets_delivered", 0),
                doc.numAt("packets_in_flight", 0),
                doc.numAt("source_queue_depth", 0));
    std::printf("last delivery at cycle %.0f\n",
                doc.numAt("last_delivery_cycle", 0));
    if (const JsonValue *cfg = doc.find("config"))
        std::printf("config: %s, %.0f routers x %.0f ports, buffer "
                    "depth %.0f\n",
                    cfg->strAt("topology").c_str(),
                    cfg->numAt("routers", 0), cfg->numAt("ports", 0),
                    cfg->numAt("buffer_depth", 0));

    if (const JsonValue *cons = doc.find("conservation")) {
        if (cons->boolAt("ok"))
            std::printf("conservation audit: OK\n");
        else
            std::printf("conservation audit: FAILED — %s\n",
                        cons->strAt("error").c_str());
    }

    // Routers still holding flits, busiest first.
    std::vector<std::pair<double, const JsonValue *>> stuck;
    for (const JsonValue &r : doc.arrayAt("routers")) {
        double occ = r.numAt("occupancy", 0);
        if (occ > 0)
            stuck.emplace_back(occ, &r);
    }
    std::stable_sort(stuck.begin(), stuck.end(),
                     [](const auto &x, const auto &y) {
                         return x.first > y.first;
                     });
    std::printf("\n%zu router(s) holding flits:\n", stuck.size());
    for (const auto &[occ, r] : stuck) {
        std::printf("  router %.0f: %.0f flit(s)\n", r->numAt("id", 0),
                    occ);
        for (const JsonValue &vc : r->arrayAt("input_vcs")) {
            if (vc.numAt("occupancy", 0) == 0)
                continue;
            std::printf("    in port %.0f vc %.0f: %.0f flit(s), "
                        "%s, out port %.0f vc %.0f, head since "
                        "cycle %.0f, pkt %.0f\n",
                        vc.numAt("port", 0), vc.numAt("vc", 0),
                        vc.numAt("occupancy", 0),
                        vc.boolAt("active") ? "routed" : "awaiting RC",
                        vc.numAt("out_port", 0), vc.numAt("out_vc", 0),
                        vc.numAt("head_since", 0), vc.numAt("pkt", 0));
        }
    }

    const auto &queues = doc.arrayAt("source_queues");
    if (!queues.empty()) {
        std::printf("\nnon-empty source queues:\n");
        for (const JsonValue &q : queues)
            std::printf("  node %.0f: %.0f packet(s)\n",
                        q.numAt("node", 0), q.numAt("depth", 0));
    }

    if (const JsonValue *fr = doc.find("flight_recorder")) {
        const auto &events = fr->arrayAt("events");
        std::printf("\nflight recorder: %.0f recorded, %.0f "
                    "overwritten, %zu held\n",
                    fr->numAt("recorded", 0), fr->numAt("overwritten", 0),
                    events.size());
        std::size_t start =
            events.size() > static_cast<std::size_t>(tail)
                ? events.size() - static_cast<std::size_t>(tail)
                : 0;
        if (start > 0)
            std::printf("(showing last %d)\n", tail);
        for (std::size_t i = start; i < events.size(); ++i) {
            const JsonValue &e = events[i];
            std::printf("  t=%-8.0f %-12s r=%-3.0f p=%-2.0f vc=%-2.0f",
                        e.numAt("t", 0), e.strAt("ev").c_str(),
                        e.numAt("r", 0), e.numAt("p", 0),
                        e.numAt("vc", 0));
            if (e.find("pkt"))
                std::printf(" pkt=%.0f", e.numAt("pkt", 0));
            if (e.boolAt("head"))
                std::printf(" head");
            std::printf("\n");
        }
    } else {
        std::printf("\n(no flight recorder attached at dump time)\n");
    }
    return 0;
}

// ---------------------------------------------------------------- flitlog

int
cmdFlitlog(const std::string &path, int k)
{
    std::vector<JsonValue> events;
    std::string err;
    if (!hnoc::parseJsonLinesFile(path, events, &err)) {
        std::fprintf(stderr, "hnoc_inspect: %s\n", err.c_str());
        return 1;
    }
    if (events.empty()) {
        std::printf("%s: empty flit log\n", path.c_str());
        return 0;
    }

    double t_min = 0.0;
    double t_max = 0.0;
    bool first = true;
    std::map<int, std::uint64_t> arrivals;
    std::map<std::string, std::uint64_t> kinds;
    for (const JsonValue &e : events) {
        double t = e.numAt("t", 0);
        if (first || t < t_min)
            t_min = t;
        if (first || t > t_max)
            t_max = t;
        first = false;
        ++kinds[e.strAt("ev")];
        if (e.strAt("ev") == "arr")
            ++arrivals[static_cast<int>(e.numAt("r", -1))];
    }

    std::printf("%zu event(s) over cycles %.0f..%.0f\n", events.size(),
                t_min, t_max);
    for (const auto &[kind, n] : kinds)
        std::printf("  %-6s %llu\n", kind.c_str(),
                    static_cast<unsigned long long>(n));

    std::vector<std::pair<std::uint64_t, int>> busy;
    for (const auto &[r, n] : arrivals)
        busy.emplace_back(n, r);
    std::stable_sort(busy.begin(), busy.end(),
                     [](const auto &a, const auto &b) {
                         return a.first > b.first;
                     });
    std::printf("top %d routers by flit arrivals:\n", k);
    for (int i = 0; i < k && i < static_cast<int>(busy.size()); ++i)
        std::printf("  router %-3d %llu\n", busy[static_cast<std::size_t>(i)].second,
                    static_cast<unsigned long long>(
                        busy[static_cast<std::size_t>(i)].first));
    return 0;
}

/** Parse "-k N" style int option at argv[i]; advances i. */
bool
intOpt(int argc, char **argv, int &i, const char *name, int &out)
{
    if (std::strcmp(argv[i], name) != 0)
        return false;
    if (i + 1 >= argc) {
        std::fprintf(stderr, "hnoc_inspect: %s needs a value\n", name);
        std::exit(1);
    }
    out = std::atoi(argv[++i]);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    std::string cmd = argv[1];

    if (cmd == "summary") {
        if (argc < 3)
            return usage();
        return cmdSummary(argv[2]);
    }
    if (cmd == "top") {
        if (argc < 3)
            return usage();
        int k = 5;
        for (int i = 3; i < argc; ++i)
            if (!intOpt(argc, argv, i, "-k", k))
                return usage();
        return cmdTop(argv[2], k);
    }
    if (cmd == "heatmap") {
        if (argc < 3)
            return usage();
        const char *metric = "buffer";
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "-m") == 0 && i + 1 < argc) {
                metric = argv[++i];
            } else {
                return usage();
            }
        }
        if (std::strcmp(metric, "buffer") != 0 &&
            std::strcmp(metric, "link") != 0) {
            std::fprintf(stderr,
                         "hnoc_inspect: -m takes buffer or link\n");
            return 1;
        }
        return cmdHeatmap(argv[2], metric);
    }
    if (cmd == "diff") {
        if (argc < 4)
            return usage();
        double threshold = 5.0;
        bool fail_over = false;
        for (int i = 4; i < argc; ++i) {
            if (std::strcmp(argv[i], "-t") == 0 && i + 1 < argc) {
                threshold = std::atof(argv[++i]);
            } else if (std::strcmp(argv[i], "--fail-over") == 0) {
                fail_over = true;
            } else {
                return usage();
            }
        }
        return cmdDiff(argv[2], argv[3], threshold, fail_over);
    }
    if (cmd == "converge") {
        if (argc < 3)
            return usage();
        double target = 2.0;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "-t") == 0 && i + 1 < argc) {
                target = std::atof(argv[++i]);
            } else {
                return usage();
            }
        }
        return cmdConverge(argv[2], target);
    }
    if (cmd == "profile") {
        if (argc < 3)
            return usage();
        std::string trace_path;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
                trace_path = argv[++i];
            } else {
                return usage();
            }
        }
        return cmdProfile(argv[2], trace_path);
    }
    if (cmd == "blame") {
        if (argc < 3)
            return usage();
        std::string events_path;
        double packet = -1.0;
        for (int i = 3; i < argc; ++i) {
            if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
                events_path = argv[++i];
            } else if (std::strcmp(argv[i], "--packet") == 0 &&
                       i + 1 < argc) {
                packet = std::atof(argv[++i]);
            } else {
                return usage();
            }
        }
        return cmdBlame(argv[2], events_path, packet);
    }
    if (cmd == "postmortem") {
        if (argc < 3)
            return usage();
        int tail = 32;
        for (int i = 3; i < argc; ++i)
            if (!intOpt(argc, argv, i, "-n", tail))
                return usage();
        return cmdPostmortem(argv[2], tail);
    }
    if (cmd == "flitlog") {
        if (argc < 3)
            return usage();
        int k = 5;
        for (int i = 3; i < argc; ++i)
            if (!intOpt(argc, argv, i, "-k", k))
                return usage();
        return cmdFlitlog(argv[2], k);
    }
    std::fprintf(stderr, "hnoc_inspect: unknown command \"%s\"\n",
                 cmd.c_str());
    return usage();
}
