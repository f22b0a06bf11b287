/**
 * @file
 * Simulator self-profiling: where do the *simulator's* wall-clock
 * nanoseconds and bytes go?
 *
 * The metrics/trace/flight-recorder stack observes the simulated
 * network; the Profiler observes the simulation loop itself. It holds
 * one accumulator per hot-path phase (channel delivery, NI ejection,
 * RC, VA, SA/ST, NI injection, telemetry epoch work) and a scoped
 * steady_clock timer (ProfScope) that hook sites open around each
 * phase. Wall-clock data is report-only: nothing the simulation
 * computes ever reads it, so goldens and bit-identity are untouched
 * whether a profiler is attached or not (pinned by test_profiler).
 *
 * Cost model matches the registry hooks: one pointer test per phase
 * while detached, compiled out entirely under -DHNOC_TELEMETRY=OFF
 * (hook sites resolve the pointer through `kTelemetryEnabled ? ... :
 * nullptr`, which constant-folds to nullptr). While attached, each
 * phase costs two steady_clock reads — acceptable for profiling runs,
 * never paid by measurement runs.
 *
 * Threading: like MetricRegistry, a Profiler is single-threaded by
 * design. Each parallel sim point owns its own instance; after the
 * JobPool joins, merge() adds the accumulators (pure integer sums, so
 * the merged totals are independent of merge order up to commutative
 * addition — pinned by test_profiler).
 *
 * The companion MemoryAudit struct carries the per-component
 * footprintBytes() breakdown that Network::memoryAudit() /
 * CmpSystem::memoryAudit() fill in — a plain struct, so this library
 * never links against the NoC.
 */

#ifndef HNOC_TELEMETRY_PROFILER_HH
#define HNOC_TELEMETRY_PROFILER_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace hnoc
{

class JsonWriter;

/** Simulation-loop phases attributed by the profiler. */
enum class ProfPhase : int
{
    ChannelDelivery, ///< flit/credit pipe drain into router inputs
    NiEject,         ///< flit/credit delivery at terminal NIs
    RouteCompute,    ///< router RC over the rcMask slots
    VcAllocate,      ///< router VA over the vaReqMask slots
    SwitchAllocate,  ///< router SA walks + switch/link traversal
    NiInject,        ///< NI source-queue / stream stepping
    TelemetryTick,   ///< registry epoch clock + rollover
    StepTotal,       ///< whole Network::step (residual = scan/overhead)
    NumPhases,
};

/** @return the stable snake_case name of @p p (report schema). */
const char *profPhaseName(ProfPhase p);

/** Per-phase wall-clock accumulators for one simulation thread. */
class Profiler
{
  public:
    using clock = std::chrono::steady_clock;

    Profiler();

    /** Hot-path hook: charge @p ns of wall clock to phase @p p. */
    void
    add(ProfPhase p, std::uint64_t ns, std::uint64_t visits = 1)
    {
        auto i = static_cast<std::size_t>(p);
        ns_[i] += ns;
        visits_[i] += visits;
    }

    /** Drop all accumulated samples. */
    void reset();

    /**
     * Merge @p other into this profiler (accumulators add). Used to
     * combine per-point profilers after a parallel run; addition is
     * commutative, so totals do not depend on the merge order.
     */
    void merge(const Profiler &other);

    /** @name Reading */
    ///@{
    std::uint64_t ns(ProfPhase p) const
    {
        return ns_[static_cast<std::size_t>(p)];
    }

    std::uint64_t visits(ProfPhase p) const
    {
        return visits_[static_cast<std::size_t>(p)];
    }

    /** Wall nanoseconds charged to all phases except StepTotal. */
    std::uint64_t attributedNs() const;

    /** StepTotal minus attributedNs(): active-set scan + loop
     *  overhead + anything not wrapped in a phase scope. Clamped at
     *  zero (scope timers nest inside the StepTotal scope, so timer
     *  granularity can make the sum exceed the total by a hair). */
    std::uint64_t unattributedNs() const;

    /** Cycles covered (StepTotal visits). */
    std::uint64_t cycles() const
    {
        return visits(ProfPhase::StepTotal);
    }
    ///@}

    /** @name Per-block attribution (cache-blocked stepping, §6g) */
    ///@{
    /** Arm per-block accumulators for @p n spatial blocks (idempotent
     *  when already sized; clears on shrink-to-zero via reset()). */
    void enableBlocks(std::size_t n);

    /** Charge @p ns of wall clock and @p visits visits to block @p b
     *  (one visit = one touched cycle: empty blocks are not visited). */
    void
    addBlock(std::size_t b, std::uint64_t ns, std::uint64_t visits = 1)
    {
        if (b < blocks_.size()) {
            blocks_[b].ns += ns;
            blocks_[b].visits += visits;
        }
    }

    /** Record block @p b's steady-state hot footprint in bytes. */
    void setBlockBytes(std::size_t b, std::uint64_t bytes);

    std::size_t numBlocks() const { return blocks_.size(); }
    std::uint64_t blockNs(std::size_t b) const { return blocks_[b].ns; }
    std::uint64_t blockVisits(std::size_t b) const
    {
        return blocks_[b].visits;
    }
    std::uint64_t blockBytes(std::size_t b) const
    {
        return blocks_[b].bytes;
    }

    /** Bytes the blocked step order streams per simulated cycle:
     *  sum over blocks of hot-footprint x touched-cycles, divided by
     *  cycles covered. 0 without block data. */
    double bytesStreamedPerCycle() const;
    ///@}

    /**
     * Emit the `profile.phases` object: per-phase ns / visits / share
     * of StepTotal, plus the unattributed residual.
     */
    void writeJson(JsonWriter &w) const;

    /** @return writeJson output as a standalone document. */
    std::string json() const;

    /** Human-readable phase table (hnoc_cli --profile). */
    std::string table() const;

  private:
    /** One spatial block's wall/visit/footprint accumulators. */
    struct BlockStat
    {
        std::uint64_t ns = 0;
        std::uint64_t visits = 0;
        std::uint64_t bytes = 0;
    };

    std::uint64_t ns_[static_cast<std::size_t>(ProfPhase::NumPhases)];
    std::uint64_t visits_[static_cast<std::size_t>(ProfPhase::NumPhases)];
    std::vector<BlockStat> blocks_;
};

/**
 * RAII phase timer. Constructed with nullptr (the detached state) it
 * is a no-op costing one branch; hook sites pass
 * `kTelemetryEnabled ? profiler_ : nullptr` so the OFF build folds the
 * whole scope away.
 */
class ProfScope
{
  public:
    ProfScope(Profiler *p, ProfPhase phase) : p_(p), phase_(phase)
    {
        if (p_)
            t0_ = Profiler::clock::now();
    }

    ~ProfScope()
    {
        if (p_)
            p_->add(phase_,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            Profiler::clock::now() - t0_)
                            .count()));
    }

    ProfScope(const ProfScope &) = delete;
    ProfScope &operator=(const ProfScope &) = delete;

  private:
    Profiler *p_;
    ProfPhase phase_;
    Profiler::clock::time_point t0_;
};

/**
 * Per-component memory breakdown, filled by Network::memoryAudit()
 * (and extended by CmpSystem::memoryAudit() with cache/directory
 * rows). Byte counts are steady-state footprints computed from
 * container capacities — the O(tiles) directory-per-line cost shows
 * up here as measured bytes, not as an estimate.
 */
struct MemoryAudit
{
    struct Component
    {
        std::string name;       ///< e.g. "routers", "mesi_directory"
        std::uint64_t bytes = 0;
        std::uint64_t count = 0; ///< instances aggregated into bytes
    };

    int tiles = 0; ///< terminal nodes (per-tile normalization basis)
    std::vector<Component> components;

    std::uint64_t totalBytes() const;
    double bytesPerTile() const;

    /** Append a component row (skips zero-count placeholder rows). */
    void add(const std::string &name, std::uint64_t bytes,
             std::uint64_t count);

    /** Emit the `profile.memory` object. */
    void writeJson(JsonWriter &w) const;

    /** Human-readable component table (hnoc_cli --profile). */
    std::string table() const;
};

} // namespace hnoc

#endif // HNOC_TELEMETRY_PROFILER_HH
