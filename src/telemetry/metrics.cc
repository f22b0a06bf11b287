#include "telemetry/metrics.hh"

#include <algorithm>
#include <cstdio>

#include "common/logging.hh"
#include "telemetry/json_writer.hh"

namespace hnoc
{

namespace
{

constexpr MetricInfo kCtrInfo[] = {
    {"credit_stalls", MetricScope::RouterPort,
     "switch requests blocked on zero downstream credits"},
    {"va_conflicts", MetricScope::RouterPortVc,
     "VC-allocation attempts that found no free downstream VC"},
    {"packets_injected", MetricScope::Global,
     "packets entering a source queue"},
    {"packets_delivered", MetricScope::Global,
     "packets fully ejected at their destination"},
    {"flits_ejected", MetricScope::Global,
     "flits delivered to destination interfaces"},
};
static_assert(sizeof(kCtrInfo) / sizeof(kCtrInfo[0]) ==
              static_cast<std::size_t>(Ctr::NumCtrs));

constexpr MetricInfo kGaugeInfo[] = {
    {"peak_occupancy", MetricScope::Router,
     "maximum buffered flits observed in one cycle"},
    {"peak_in_flight", MetricScope::Global,
     "maximum live packets network-wide"},
};
static_assert(sizeof(kGaugeInfo) / sizeof(kGaugeInfo[0]) ==
              static_cast<std::size_t>(Gauge::NumGauges));

constexpr MetricInfo kHistInfo[] = {
    {"packet_latency_cycles", MetricScope::Global,
     "per-packet created->ejected latency"},
    {"network_latency_cycles", MetricScope::Global,
     "per-packet injected->ejected latency"},
};
static_assert(sizeof(kHistInfo) / sizeof(kHistInfo[0]) ==
              static_cast<std::size_t>(Hist::NumHists));

} // namespace

const MetricInfo &
counterInfo(Ctr c)
{
    return kCtrInfo[static_cast<std::size_t>(c)];
}

const MetricInfo &
gaugeInfo(Gauge g)
{
    return kGaugeInfo[static_cast<std::size_t>(g)];
}

const MetricInfo &
histogramInfo(Hist h)
{
    return kHistInfo[static_cast<std::size_t>(h)];
}

MetricRegistry::MetricRegistry(const Dims &dims, Cycle epoch_cycles)
    : dims_(dims), epochCycles_(epoch_cycles)
{
    if (dims_.routers <= 0 || dims_.ports <= 0 || dims_.vcs <= 0)
        panic("MetricRegistry: invalid dims %dx%dx%d", dims_.routers,
              dims_.ports, dims_.vcs);
    if (epochCycles_ == 0)
        panic("MetricRegistry: epoch length must be >= 1");
    if (dims_.gridCols <= 0)
        dims_.gridCols = dims_.routers; // degenerate single-row grid

    for (std::size_t c = 0; c < counters_.size(); ++c)
        counters_[c].assign(
            scopeSize(kCtrInfo[c].scope), 0);
    for (std::size_t g = 0; g < gauges_.size(); ++g)
        gauges_[g].assign(scopeSize(kGaugeInfo[g].scope), 0);

    // Latency histograms: 1-cycle buckets would be exact but large;
    // 4-cycle buckets over [0, 4096) keep percentiles tight for every
    // workload the benches run.
    hists_.reserve(static_cast<std::size_t>(Hist::NumHists));
    for (int h = 0; h < static_cast<int>(Hist::NumHists); ++h)
        hists_.emplace_back(0.0, 4096.0, 1024);

    auto n = static_cast<std::size_t>(dims_.routers);
    last_.occupancyFlitCycles.assign(n, 0);
    last_.linkFlits.assign(n, 0);
    last_.flitsRouted.assign(n, 0);
}

std::size_t
MetricRegistry::scopeSize(MetricScope s) const
{
    switch (s) {
    case MetricScope::Global:
        return 1;
    case MetricScope::Router:
        return static_cast<std::size_t>(dims_.routers);
    case MetricScope::RouterPort:
        return static_cast<std::size_t>(dims_.routers * dims_.ports);
    case MetricScope::RouterPortVc:
        return static_cast<std::size_t>(dims_.routers * dims_.ports *
                                        dims_.vcs);
    }
    return 1;
}

void
MetricRegistry::beginWindow(Cycle start, EpochRow totals)
{
    windowStart_ = start;
    last_ = std::move(totals);
}

std::uint64_t
MetricRegistry::total(Ctr c) const
{
    std::uint64_t sum = 0;
    for (std::uint64_t v : counters_[static_cast<std::size_t>(c)])
        sum += v;
    return sum;
}

std::uint64_t
MetricRegistry::at(Ctr c, int r, int p) const
{
    return counters_[static_cast<std::size_t>(c)]
                    [static_cast<std::size_t>(r * dims_.ports + p)];
}

std::uint64_t
MetricRegistry::at(Ctr c, int r, int p, int v) const
{
    return counters_[static_cast<std::size_t>(c)][static_cast<std::size_t>(
        (r * dims_.ports + p) * dims_.vcs + v)];
}

std::uint64_t
MetricRegistry::gauge(Gauge g, int r) const
{
    return gauges_[static_cast<std::size_t>(g)]
                  [static_cast<std::size_t>(r)];
}

const Histogram &
MetricRegistry::histogram(Hist h) const
{
    return hists_[static_cast<std::size_t>(h)];
}

std::vector<std::uint64_t>
MetricRegistry::perRouter(Ctr c) const
{
    const auto &info = counterInfo(c);
    const auto &vals = counters_[static_cast<std::size_t>(c)];
    std::vector<std::uint64_t> out(
        static_cast<std::size_t>(dims_.routers), 0);
    switch (info.scope) {
    case MetricScope::Global:
        break; // no per-router view
    case MetricScope::Router:
        out = vals;
        break;
    case MetricScope::RouterPort:
    case MetricScope::RouterPortVc: {
        std::size_t stride = vals.size() / out.size();
        for (std::size_t r = 0; r < out.size(); ++r)
            for (std::size_t i = 0; i < stride; ++i)
                out[r] += vals[r * stride + i];
        break;
    }
    }
    return out;
}

const std::vector<std::uint64_t> &
MetricRegistry::values(Ctr c) const
{
    return counters_[static_cast<std::size_t>(c)];
}

void
MetricRegistry::closeEpoch(const EpochRow &totals)
{
    auto n = static_cast<std::size_t>(dims_.routers);
    EpochRow row;
    row.cycles = cyclesInEpoch_;
    row.occupancyFlitCycles.resize(n);
    row.linkFlits.resize(n);
    row.flitsRouted.resize(n);
    for (std::size_t r = 0; r < n; ++r) {
        row.occupancyFlitCycles[r] =
            totals.occupancyFlitCycles[r] - last_.occupancyFlitCycles[r];
        row.linkFlits[r] = totals.linkFlits[r] - last_.linkFlits[r];
        row.flitsRouted[r] = totals.flitsRouted[r] - last_.flitsRouted[r];
    }
    last_ = totals;
    epochs_.push_back(std::move(row));
    cyclesInEpoch_ = 0;
}

void
MetricRegistry::finish(const EpochRow &totals)
{
    if (finished_)
        return;
    finished_ = true;
    if (cyclesInEpoch_ > 0)
        closeEpoch(totals);
}

void
MetricRegistry::merge(const MetricRegistry &other)
{
    if (dims_.routers != other.dims_.routers ||
        dims_.ports != other.dims_.ports || dims_.vcs != other.dims_.vcs)
        panic("MetricRegistry::merge: dims mismatch (%dx%dx%d vs "
              "%dx%dx%d)",
              dims_.routers, dims_.ports, dims_.vcs, other.dims_.routers,
              other.dims_.ports, other.dims_.vcs);
    if (epochCycles_ != other.epochCycles_)
        panic("MetricRegistry::merge: epoch mismatch (%llu vs %llu)",
              static_cast<unsigned long long>(epochCycles_),
              static_cast<unsigned long long>(other.epochCycles_));

    for (std::size_t c = 0; c < counters_.size(); ++c)
        for (std::size_t i = 0; i < counters_[c].size(); ++i)
            counters_[c][i] += other.counters_[c][i];
    for (std::size_t g = 0; g < gauges_.size(); ++g)
        for (std::size_t i = 0; i < gauges_[g].size(); ++i)
            gauges_[g][i] = std::max(gauges_[g][i], other.gauges_[g][i]);
    for (std::size_t h = 0; h < hists_.size(); ++h)
        hists_[h].merge(other.hists_[h]);

    // Epoch rows add element-wise; a longer series keeps its tail.
    if (other.epochs_.size() > epochs_.size())
        epochs_.resize(other.epochs_.size());
    auto n = static_cast<std::size_t>(dims_.routers);
    for (std::size_t e = 0; e < other.epochs_.size(); ++e) {
        EpochRow &dst = epochs_[e];
        const EpochRow &src = other.epochs_[e];
        if (dst.occupancyFlitCycles.empty()) {
            dst.occupancyFlitCycles.assign(n, 0);
            dst.linkFlits.assign(n, 0);
            dst.flitsRouted.assign(n, 0);
        }
        dst.cycles += src.cycles;
        for (std::size_t r = 0; r < n; ++r) {
            dst.occupancyFlitCycles[r] += src.occupancyFlitCycles[r];
            dst.linkFlits[r] += src.linkFlits[r];
            dst.flitsRouted[r] += src.flitsRouted[r];
        }
    }

    observedCycles_ += other.observedCycles_;
    windowStart_ = std::min(windowStart_, other.windowStart_);
}

std::uint64_t
MetricRegistry::footprintBytes() const
{
    std::uint64_t b = sizeof(*this);
    for (const auto &vec : counters_)
        b += vec.capacity() * sizeof(std::uint64_t);
    for (const auto &vec : gauges_)
        b += vec.capacity() * sizeof(std::uint64_t);
    b += hists_.capacity() * sizeof(Histogram);
    auto rowBytes = [](const EpochRow &row) {
        return (row.occupancyFlitCycles.capacity() +
                row.linkFlits.capacity() + row.flitsRouted.capacity()) *
               sizeof(std::uint64_t);
    };
    b += epochs_.capacity() * sizeof(EpochRow);
    for (const EpochRow &row : epochs_)
        b += rowBytes(row);
    b += rowBytes(last_);
    return b;
}

void
MetricRegistry::writeJson(JsonWriter &w) const
{
    w.beginObject();
    w.keyValue("epoch_cycles", static_cast<std::uint64_t>(epochCycles_));
    w.keyValue("observed_cycles",
               static_cast<std::uint64_t>(observedCycles_));
    w.keyValue("window_start", static_cast<std::uint64_t>(windowStart_));

    w.key("dims").beginObject();
    w.keyValue("routers", dims_.routers);
    w.keyValue("ports", dims_.ports);
    w.keyValue("vcs", dims_.vcs);
    w.keyValue("grid_cols", dims_.gridCols);
    w.endObject();

    w.key("counters").beginObject();
    for (int c = 0; c < static_cast<int>(Ctr::NumCtrs); ++c) {
        auto ctr = static_cast<Ctr>(c);
        const MetricInfo &info = counterInfo(ctr);
        w.key(info.name).beginObject();
        w.keyValue("scope",
                   info.scope == MetricScope::Global ? "global"
                   : info.scope == MetricScope::Router ? "router"
                   : info.scope == MetricScope::RouterPort
                       ? "router.port"
                       : "router.port.vc");
        w.keyValue("help", info.help);
        w.keyValue("total", total(ctr));
        if (info.scope != MetricScope::Global)
            w.keyArray("per_router", perRouter(ctr));
        if (info.scope == MetricScope::RouterPort ||
            info.scope == MetricScope::RouterPortVc)
            w.keyArray("values", values(ctr));
        w.endObject();
    }
    w.endObject();

    w.key("gauges").beginObject();
    for (int g = 0; g < static_cast<int>(Gauge::NumGauges); ++g) {
        auto gg = static_cast<Gauge>(g);
        const MetricInfo &info = gaugeInfo(gg);
        w.key(info.name).beginObject();
        w.keyValue("help", info.help);
        if (info.scope == MetricScope::Global) {
            w.keyValue("value", gauge(gg));
        } else {
            w.keyArray("per_router",
                       gauges_[static_cast<std::size_t>(g)]);
        }
        w.endObject();
    }
    w.endObject();

    w.key("histograms").beginObject();
    for (int h = 0; h < static_cast<int>(Hist::NumHists); ++h) {
        auto hh = static_cast<Hist>(h);
        const Histogram &hist = histogram(hh);
        w.key(histogramInfo(hh).name).beginObject();
        w.keyValue("count", hist.count());
        w.keyValue("mean", hist.mean());
        w.keyValue("p50", hist.percentile(0.50));
        w.keyValue("p95", hist.percentile(0.95));
        w.keyValue("p99", hist.percentile(0.99));
        w.keyArray("buckets", hist.buckets());
        w.endObject();
    }
    w.endObject();

    w.key("epochs").beginObject();
    {
        std::vector<std::uint64_t> cyc;
        cyc.reserve(epochs_.size());
        for (const EpochRow &e : epochs_)
            cyc.push_back(e.cycles);
        w.keyArray("cycles", cyc);
    }
    w.key("occupancy_flit_cycles").beginArray();
    for (const EpochRow &e : epochs_) {
        w.beginArray();
        for (std::uint64_t v : e.occupancyFlitCycles)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.key("link_flits").beginArray();
    for (const EpochRow &e : epochs_) {
        w.beginArray();
        for (std::uint64_t v : e.linkFlits)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.key("flits_routed").beginArray();
    for (const EpochRow &e : epochs_) {
        w.beginArray();
        for (std::uint64_t v : e.flitsRouted)
            w.value(v);
        w.endArray();
    }
    w.endArray();
    w.endObject();

    w.endObject();
}

std::string
MetricRegistry::json() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

std::string
MetricRegistry::summary(int top_n) const
{
    char buf[160];
    std::string out;
    std::snprintf(buf, sizeof(buf),
                  "telemetry: %llu cycles observed, %zu epochs\n",
                  static_cast<unsigned long long>(observedCycles_),
                  epochs_.size());
    out += buf;
    std::snprintf(
        buf, sizeof(buf),
        "packets injected/delivered: %llu / %llu (peak in flight %llu)\n",
        static_cast<unsigned long long>(total(Ctr::PacketsInjected)),
        static_cast<unsigned long long>(total(Ctr::PacketsDelivered)),
        static_cast<unsigned long long>(gauge(Gauge::PeakInFlight)));
    out += buf;

    // Hottest routers by credit stalls; the first places to look when
    // a run stalls. Network::dumpState() prints the occupancy grid.
    std::vector<std::uint64_t> stalls = perRouter(Ctr::CreditStalls);
    std::vector<std::uint64_t> conflicts = perRouter(Ctr::VaConflicts);
    std::vector<int> order(static_cast<std::size_t>(dims_.routers));
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = static_cast<int>(i);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return stalls[static_cast<std::size_t>(a)] >
               stalls[static_cast<std::size_t>(b)];
    });
    out += "hottest routers (credit stalls | VA conflicts | peak occ):\n";
    for (int i = 0; i < top_n && i < dims_.routers; ++i) {
        auto r = static_cast<std::size_t>(order[static_cast<std::size_t>(i)]);
        std::snprintf(
            buf, sizeof(buf), "  router %2zu: %8llu | %8llu | %4llu\n", r,
            static_cast<unsigned long long>(stalls[r]),
            static_cast<unsigned long long>(conflicts[r]),
            static_cast<unsigned long long>(
                gauge(Gauge::PeakOccupancy, static_cast<int>(r))));
        out += buf;
    }
    return out;
}

} // namespace hnoc
