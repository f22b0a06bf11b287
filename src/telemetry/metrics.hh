/**
 * @file
 * The metrics registry of the telemetry subsystem.
 *
 * A MetricRegistry holds a fixed catalog of named counters, gauges and
 * histograms over per-router × per-port × per-VC dimensions, plus
 * time-bucketed (epoch) series of per-router activity. The registry
 * consumes Probe events (noc/probe.hh), which call the inline add()
 * methods below; with nothing attached the cost is a single
 * predictable branch per hook site, and configuring the build with
 * -DHNOC_TELEMETRY=OFF compiles the hooks out entirely.
 *
 * Buffer, crossbar, link and occupancy activity is not counted here:
 * the network's always-on counters (RouterActivity, the router
 * occupancy sum, Channel::flitsSent) are the only record of those
 * events. The epoch rows are deltas of those counters, which the
 * network hands over each time the epoch clock closes a row.
 *
 * Registries are single-threaded by design: every sim point owns its
 * own instance, and multi-seed / multi-point runs combine them after
 * the JobPool joins via merge(), which is pure integer arithmetic in
 * input order — a parallel run's merged registry is bit-identical to
 * the serial single-thread merge (pinned by test_telemetry_metrics).
 */

#ifndef HNOC_TELEMETRY_METRICS_HH
#define HNOC_TELEMETRY_METRICS_HH

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"

namespace hnoc
{

class JsonWriter;

/** Compile-time kill switch (-DHNOC_TELEMETRY=OFF). */
#ifdef HNOC_TELEMETRY_DISABLED
inline constexpr bool kTelemetryEnabled = false;
#else
inline constexpr bool kTelemetryEnabled = true;
#endif

/** Dimensionality of a metric. */
enum class MetricScope : std::uint8_t
{
    Global,       ///< one value for the whole network
    Router,       ///< one value per router
    RouterPort,   ///< one value per (router, port)
    RouterPortVc, ///< one value per (router, port, VC)
};

/** The counter catalog. Scopes/names live in counterInfo(). */
enum class Ctr : int
{
    CreditStalls,        ///< SA requests blocked on zero credits (r, out port)
    VaConflicts,         ///< VC-allocation attempts that failed (r,p,vc)
    PacketsInjected,     ///< packets entering a source queue (global)
    PacketsDelivered,    ///< packets fully ejected (global)
    FlitsEjected,        ///< flits delivered to destination NIs (global)
    NumCtrs,
};

/** The gauge catalog (merge takes the maximum). */
enum class Gauge : int
{
    PeakOccupancy, ///< max buffered flits seen in one cycle (r)
    PeakInFlight,  ///< max live packets network-wide (global)
    NumGauges,
};

/** The histogram catalog. */
enum class Hist : int
{
    PacketLatencyCycles,  ///< created -> ejected, cycles (global)
    NetworkLatencyCycles, ///< injected -> ejected, cycles (global)
    NumHists,
};

/** Static description of a catalog entry. */
struct MetricInfo
{
    const char *name;
    MetricScope scope;
    const char *help;
};

const MetricInfo &counterInfo(Ctr c);
const MetricInfo &gaugeInfo(Gauge g);
const MetricInfo &histogramInfo(Hist h);

/**
 * Registry of all telemetry metrics for one network over one
 * measurement window. Construct via Network::makeMetricRegistry()
 * (which sizes the dimensions) or directly with Dims for unit tests.
 */
class MetricRegistry
{
  public:
    /** Network shape; strides for the flat metric arrays. */
    struct Dims
    {
        int routers = 0;
        int ports = 0;
        int vcs = 0;     ///< max VCs per port across routers
        int gridCols = 0; ///< router-grid columns (heat-map layout)
    };

    MetricRegistry(const Dims &dims, Cycle epoch_cycles = 1000);

    const Dims &dims() const { return dims_; }
    Cycle epochCycles() const { return epochCycles_; }

    /**
     * @name Hot-path hooks
     *
     * Caution: an explicit count must be std::uint64_t-typed. A plain
     * int literal in the count position overload-resolves as the next
     * index (router/port/VC) instead — debug builds assert on the
     * resulting out-of-scope index.
     */
    ///@{
    void
    add(Ctr c, std::uint64_t n = 1)
    {
        slot(c, 0) += n;
    }

    void
    add(Ctr c, int r, int p, std::uint64_t n = 1)
    {
        slot(c, static_cast<std::size_t>(r * dims_.ports + p)) += n;
    }

    void
    add(Ctr c, int r, int p, int v, std::uint64_t n = 1)
    {
        slot(c, static_cast<std::size_t>(
                    (r * dims_.ports + p) * dims_.vcs + v)) += n;
    }

    void
    gaugeMax(Gauge g, std::uint64_t v)
    {
        auto &s = gauges_[static_cast<std::size_t>(g)][0];
        if (v > s)
            s = v;
    }

    void
    gaugeMax(Gauge g, int r, std::uint64_t v)
    {
        auto &vec = gauges_[static_cast<std::size_t>(g)];
        assert(static_cast<std::size_t>(r) < vec.size() &&
               "gauge index out of scope bounds");
        auto &s = vec[static_cast<std::size_t>(r)];
        if (v > s)
            s = v;
    }

    void
    histAdd(Hist h, double x)
    {
        hists_[static_cast<std::size_t>(h)].add(x);
    }

    /**
     * Advance the epoch clock by one cycle. Called once per
     * Network::step(). @return true when the current epoch is full;
     * the caller then closes it with closeEpoch().
     */
    bool
    tick()
    {
        ++observedCycles_;
        return ++cyclesInEpoch_ >= epochCycles_;
    }
    ///@}

    /** @name Epoch series */
    ///@{
    /**
     * One epoch of per-router activity (raw integer sums). The same
     * shape carries the network's cumulative counter totals into
     * beginWindow(), closeEpoch() and finish(), which store the
     * difference from the previous totals as a row.
     */
    struct EpochRow
    {
        Cycle cycles = 0; ///< cycles covered (last row may be partial)
        std::vector<std::uint64_t> occupancyFlitCycles; ///< per router
        std::vector<std::uint64_t> linkFlits;           ///< per router
        std::vector<std::uint64_t> flitsRouted;         ///< per router
    };

    /** Mark the start of the measurement window (absolute cycle) and
     *  the counter totals the first epoch row is measured from. */
    void beginWindow(Cycle start, EpochRow totals);

    /** Close the current epoch: its row is @p totals minus the totals
     *  at the previous boundary. */
    void closeEpoch(const EpochRow &totals);

    /** Close the partial final epoch against @p totals (idempotent).
     *  Call at detach. */
    void finish(const EpochRow &totals);

    const std::vector<EpochRow> &epochs() const { return epochs_; }
    ///@}

    /** @name Reading */
    ///@{
    Cycle observedCycles() const { return observedCycles_; }
    Cycle windowStart() const { return windowStart_; }

    std::uint64_t total(Ctr c) const;
    std::uint64_t at(Ctr c, int r, int p) const;
    std::uint64_t at(Ctr c, int r, int p, int v) const;
    std::uint64_t gauge(Gauge g, int r = 0) const;
    const Histogram &histogram(Hist h) const;

    /** Per-router sums of any counter (reduces port/VC dimensions). */
    std::vector<std::uint64_t> perRouter(Ctr c) const;

    /** @return raw flat value array of @p c (layout per its scope). */
    const std::vector<std::uint64_t> &values(Ctr c) const;
    ///@}

    /**
     * Merge @p other into this registry: counters, histograms, epoch
     * rows and observed cycles add; gauges take the maximum. Pure
     * integer arithmetic, so the result is independent of how the
     * inputs were produced (serial or parallel) and depends only on
     * the merge order. Dims must match.
     */
    void merge(const MetricRegistry &other);

    /**
     * Steady-state memory footprint: counter/gauge arrays, the epoch
     * baseline and accumulated epoch rows, from container capacities.
     * Histograms are counted shallow (their bucket arrays are small
     * and fixed). Grows with epochs, so call it at report time.
     */
    std::uint64_t footprintBytes() const;

    /** Serialize the full registry (schema in docs/OBSERVABILITY.md). */
    void writeJson(JsonWriter &w) const;

    /** @return writeJson output as a standalone document. */
    std::string json() const;

    /** Multi-line text summary (watchdog dumps, debugging). */
    std::string summary(int top_n = 5) const;

  private:
    /** Bounds-asserted access to one counter slot (debug builds). */
    std::uint64_t &
    slot(Ctr c, std::size_t idx)
    {
        auto &vec = counters_[static_cast<std::size_t>(c)];
        assert(idx < vec.size() && "counter index out of scope bounds");
        return vec[idx];
    }

    std::size_t scopeSize(MetricScope s) const;

    Dims dims_;
    Cycle epochCycles_;
    Cycle windowStart_ = 0;
    Cycle observedCycles_ = 0;
    Cycle cyclesInEpoch_ = 0;
    bool finished_ = false;

    std::array<std::vector<std::uint64_t>,
               static_cast<std::size_t>(Ctr::NumCtrs)>
        counters_;
    std::array<std::vector<std::uint64_t>,
               static_cast<std::size_t>(Gauge::NumGauges)>
        gauges_;
    std::vector<Histogram> hists_;

    std::vector<EpochRow> epochs_;
    /** Counter totals at the last epoch boundary (delta source). */
    EpochRow last_;
};

} // namespace hnoc

#endif // HNOC_TELEMETRY_METRICS_HH
