/**
 * @file
 * Forward-progress watchdog: detects deadlock/livelock by checking
 * that a network with packets in flight keeps delivering. Used by
 * long-running harnesses and the property tests. Alongside it, the
 * progress meter renders the live progress line of a long run.
 */

#ifndef HNOC_NOC_WATCHDOG_HH
#define HNOC_NOC_WATCHDOG_HH

#include <chrono>
#include <cstdio>
#include <string>

#include "common/logging.hh"
#include "common/portability.hh"
#include "noc/network.hh"

namespace hnoc
{

/**
 * Call check() periodically; it trips when the network has held
 * packets in flight for more than `window` cycles with no delivery.
 */
class ProgressWatchdog
{
  public:
    /**
     * @param window cycles without any delivery (while packets are in
     *        flight) before the watchdog trips
     * @param fatal_on_trip panic() on trip instead of returning false
     */
    explicit ProgressWatchdog(Cycle window = 50000,
                              bool fatal_on_trip = false)
        : window_(window), fatalOnTrip_(fatal_on_trip)
    {}

    /**
     * @return true while the network is making progress; false (or
     * panic) once no packet has been delivered for the whole window
     * despite packets being in flight. A trip warns exactly once and
     * restarts the window, so a persistent stall produces one warning
     * per stalled window rather than one per call.
     */
    bool
    check(const Network &net)
    {
        if (net.packetsInFlight() == 0) {
            lastProgress_ = net.now();
            lastDelivered_ = net.packetsDelivered();
            return true;
        }
        if (net.packetsDelivered() != lastDelivered_) {
            lastProgress_ = net.now();
            lastDelivered_ = net.packetsDelivered();
            return true;
        }
        if (net.now() - lastProgress_ <= window_)
            return true;
        Cycle stalled = net.now() - lastProgress_;
        ++trips_;
        lastDiagnostics_ = diagnostics(net);
        if (!postmortemPath_.empty())
            net.writePostmortem(postmortemPath_, "watchdog trip");
        // Restart the window before reporting: the next check() call
        // must not re-trip until another full window passes without
        // progress.
        lastProgress_ = net.now();
        if (fatalOnTrip_)
            panic("watchdog: no delivery for %llu cycles with %zu "
                  "packets in flight\n%s",
                  static_cast<unsigned long long>(stalled),
                  net.packetsInFlight(), lastDiagnostics_.c_str());
        warn("watchdog tripped: no delivery for %llu cycles with %zu "
             "packets in flight\n%s",
             static_cast<unsigned long long>(stalled),
             net.packetsInFlight(), lastDiagnostics_.c_str());
        return false;
    }

    /**
     * Trip-time snapshot: buffer-occupancy grid, stuck source queues
     * and in-flight count, plus the telemetry hot-spot summary when a
     * MetricRegistry is attached to the network.
     */
    std::string
    diagnostics(const Network &net) const
    {
        std::string out = net.dumpState();
        if (const MetricRegistry *reg = net.telemetry())
            out += reg->summary();
        return out;
    }

    /** Reset the progress window (e.g. after reconfiguration). */
    void
    reset(const Network &net)
    {
        lastProgress_ = net.now();
        lastDelivered_ = net.packetsDelivered();
    }

    /** Write an `hnoc-postmortem-v1` dump to @p path on every trip
     *  (empty disables; honors HNOC_JSON_DIR like run reports). */
    void
    setPostmortemPath(std::string path)
    {
        postmortemPath_ = std::move(path);
    }

    /** Times the watchdog has tripped (== warnings issued). */
    std::uint64_t trips() const { return trips_; }

    /** Diagnostics captured at the most recent trip. */
    const std::string &lastDiagnostics() const { return lastDiagnostics_; }

  private:
    Cycle window_;
    bool fatalOnTrip_;
    Cycle lastProgress_ = 0;
    std::uint64_t lastDelivered_ = 0;
    std::uint64_t trips_ = 0;
    std::string lastDiagnostics_;
    std::string postmortemPath_;
};

/**
 * Live progress line for long runs (hnoc_cli --progress):
 *   cycle 40000/100000 40% | delivered 12034 | in-flight 182 |
 *   2.31 Mflit/s | 1.18 Mcyc/s | 847 ns/cyc | rss 12 MB | ETA 51s
 * Rates come from wall-clock time between calls (monotonic clock);
 * the first call reports them as 0. Wall-clock fields make the line
 * nondeterministic, so it goes to stderr, never into results.
 */
class ProgressMeter
{
  public:
    /** @param target_cycles cycles the run intends to simulate (the
     *  completion and ETA basis; 0 = neither is shown) */
    explicit ProgressMeter(Cycle target_cycles = 0)
        : targetCycles_(target_cycles)
    {}

    std::string
    line(const Network &net)
    {
        return line(net.now(), net.packetsDelivered(),
                    net.packetsInFlight(), net.flitsDelivered());
    }

    /** line(net) from the raw counters it reads. */
    std::string
    line(Cycle now, std::uint64_t delivered, std::size_t in_flight,
         std::uint64_t flits)
    {
        double now_wall = std::chrono::duration<double>(
                              std::chrono::steady_clock::now()
                                  .time_since_epoch())
                              .count();
        if (startWall_ < 0.0) {
            startWall_ = now_wall;
            startCycle_ = now;
        }

        double cyc_rate = 0.0;
        double flit_rate = 0.0;
        if (lastWall_ >= 0.0 && now_wall > lastWall_) {
            double dt = now_wall - lastWall_;
            cyc_rate = static_cast<double>(now - lastCycle_) / dt;
            flit_rate = static_cast<double>(flits - lastFlits_) / dt;
        }
        lastWall_ = now_wall;
        lastCycle_ = now;
        lastFlits_ = flits;

        char cyc_s[32];
        char flit_s[32];
        siRate(cyc_s, sizeof(cyc_s), cyc_rate);
        siRate(flit_s, sizeof(flit_s), flit_rate);

        char buf[256];
        std::string out;
        if (targetCycles_ > 0)
            std::snprintf(buf, sizeof(buf), "cycle %llu/%llu %.0f%%",
                          static_cast<unsigned long long>(now),
                          static_cast<unsigned long long>(targetCycles_),
                          100.0 * static_cast<double>(now) /
                              static_cast<double>(targetCycles_));
        else
            std::snprintf(buf, sizeof(buf), "cycle %llu",
                          static_cast<unsigned long long>(now));
        out += buf;
        std::snprintf(buf, sizeof(buf),
                      " | delivered %llu | in-flight %zu | %sflit/s | "
                      "%scyc/s",
                      static_cast<unsigned long long>(delivered),
                      in_flight, flit_s, cyc_s);
        out += buf;

        // Live simulator cost: wall ns per simulated cycle over the
        // last interval, and the process peak RSS.
        if (cyc_rate > 0.0) {
            std::snprintf(buf, sizeof(buf), " | %.0f ns/cyc",
                          1e9 / cyc_rate);
            out += buf;
        }
        if (std::uint64_t rss = peakRssBytes()) {
            std::snprintf(buf, sizeof(buf), " | rss %.0f MB",
                          static_cast<double>(rss) / (1024.0 * 1024.0));
            out += buf;
        }

        // ETA from the average rate since the first call; steadier
        // than the instantaneous rate on bursty hosts.
        double elapsed = now_wall - startWall_;
        auto done = static_cast<double>(now - startCycle_);
        if (targetCycles_ > now && elapsed > 0.0 && done > 0.0) {
            double eta =
                static_cast<double>(targetCycles_ - now) * elapsed / done;
            if (eta >= 60.0)
                std::snprintf(buf, sizeof(buf), " | ETA %dm%02ds",
                              static_cast<int>(eta) / 60,
                              static_cast<int>(eta) % 60);
            else
                std::snprintf(buf, sizeof(buf), " | ETA %.0fs", eta);
            out += buf;
        }
        return out;
    }

  private:
    /** Format a rate with an SI prefix into @p buf ("2.31 M"). */
    static void
    siRate(char *buf, std::size_t n, double v)
    {
        if (v >= 1e6)
            std::snprintf(buf, n, "%.2f M", v / 1e6);
        else if (v >= 1e3)
            std::snprintf(buf, n, "%.1f k", v / 1e3);
        else
            std::snprintf(buf, n, "%.0f ", v);
    }

    Cycle targetCycles_;
    double startWall_ = -1.0;
    Cycle startCycle_ = 0;
    double lastWall_ = -1.0;
    Cycle lastCycle_ = 0;
    std::uint64_t lastFlits_ = 0;
};

} // namespace hnoc

#endif // HNOC_NOC_WATCHDOG_HH
