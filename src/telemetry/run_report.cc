#include "telemetry/run_report.hh"

#include "common/text_file.hh"
#include "telemetry/json_writer.hh"
#include "telemetry/metrics.hh"

namespace hnoc
{

RunReport::RunReport(std::string tool, std::string title)
    : tool_(std::move(tool)), title_(std::move(title))
{
}

void
RunReport::meta(const std::string &key, const std::string &value)
{
    metaStr_.emplace_back(key, value);
}

void
RunReport::meta(const std::string &key, double value)
{
    metaNum_.emplace_back(key, value);
}

void
RunReport::addPoint(const std::string &label, const SimPointResult &res)
{
    points_.emplace_back(label, res);
}

void
RunReport::addRegistry(const std::string &label,
                       const MetricRegistry &reg)
{
    registries_.emplace_back(label, reg);
}

void
RunReport::setProfile(const Profiler &prof, const MemoryAudit &audit)
{
    profile_ = std::make_unique<Profiler>(prof);
    memAudit_ = audit;
}

void
RunReport::setBlame(const BlameCollector &blame)
{
    blame_ = std::make_unique<BlameCollector>(blame);
}

void
RunReport::writePoint(JsonWriter &w, const std::string &label,
                      const SimPointResult &res) const
{
    w.beginObject();
    w.keyValue("label", label);
    w.keyValue("offered_rate", res.offeredRate);
    w.keyValue("accepted_rate", res.acceptedRate);
    w.keyValue("avg_latency_cycles", res.avgLatencyCycles);
    w.keyValue("avg_latency_ns", res.avgLatencyNs);
    w.keyValue("avg_queuing_ns", res.avgQueuingNs);
    w.keyValue("avg_blocking_ns", res.avgBlockingNs);
    w.keyValue("avg_transfer_ns", res.avgTransferNs);
    w.keyValue("p95_latency_ns", res.p95LatencyNs);
    w.keyValue("network_power_w", res.networkPowerW);
    w.keyValue("combine_rate", res.combineRate);
    w.keyValue("saturated", res.saturated);
    w.keyValue("drain_truncated", res.drainTruncated);
    w.keyValue("simulated_cycles", res.simulatedCycles);
    w.keyValue("warmup_cycles_used", res.warmupCyclesUsed);
    w.keyValue("measure_cycles_used", res.measureCyclesUsed);
    w.keyValue("stop_reason", stopReasonName(res.stopReason));
    w.keyValue("ci_rel_half_width", res.ciRelHalfWidth);
    if (!res.ciHistory.empty())
        w.keyArray("ci_history", res.ciHistory);
    w.keyValue("tracked_created", res.trackedCreated);
    w.keyValue("tracked_delivered", res.trackedDelivered);
    w.keyArray("buffer_util_pct", res.bufferUtilPct);
    w.keyArray("link_util_pct", res.linkUtilPct);
    w.keyArray("latency_by_hops_ns", res.latencyByHopsNs);
    if (res.metrics) {
        w.key("telemetry");
        res.metrics->writeJson(w);
    }
    w.endObject();
}

std::string
RunReport::json() const
{
    JsonWriter w;
    w.beginObject();
    w.keyValue("tool", tool_);
    w.keyValue("title", title_);
    w.keyValue("schema", "hnoc-run-report-v1");

    w.key("meta").beginObject();
    for (const auto &[k, v] : metaStr_)
        w.keyValue(k, v);
    for (const auto &[k, v] : metaNum_)
        w.keyValue(k, v);
    w.endObject();

    // Stop-reason tally across the run's points, so a dashboard can
    // see at a glance how often the adaptive rules fired.
    w.key("stop_reasons").beginObject();
    const StopReason kReasons[] = {
        StopReason::FixedWindow, StopReason::CiConverged,
        StopReason::MeasureCeiling, StopReason::SaturationAbort};
    for (StopReason r : kReasons) {
        std::uint64_t n = 0;
        for (const auto &[label, res] : points_)
            if (res.stopReason == r)
                ++n;
        w.keyValue(stopReasonName(r), n);
    }
    w.endObject();

    w.key("points").beginArray();
    for (const auto &[label, res] : points_)
        writePoint(w, label, res);
    w.endArray();

    if (!registries_.empty()) {
        w.key("registries").beginObject();
        for (const auto &[label, reg] : registries_) {
            w.key(label);
            reg.writeJson(w);
        }
        w.endObject();
    }

    if (profile_) {
        w.key("profile").beginObject();
        w.key("wall");
        profile_->writeJson(w);
        w.key("memory");
        memAudit_.writeJson(w);
        w.endObject();
    }

    if (blame_) {
        w.key("latency_blame");
        blame_->writeJson(w);
    }

    w.endObject();
    return w.str();
}

bool
RunReport::writeFile(const std::string &path) const
{
    return writeTextFile(path, json(), "HNOC_JSON_DIR");
}

} // namespace hnoc
