#include "power/router_power.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "power/frequency_model.hh"

namespace hnoc
{

namespace
{

// Baseline calibration anchors (Table 1 / Fig 8b).
constexpr double BASELINE_POWER_W = 0.67;     // at 50 % activity
constexpr double SMALL_POWER_W = 0.30;
constexpr double BIG_POWER_W = 1.19;
constexpr double BASELINE_FREQ_GHZ = 2.20;

// Component shares of baseline router power at 50 % activity.
constexpr double SHARE_BUFFERS = 0.35;
constexpr double SHARE_XBAR = 0.30;
constexpr double SHARE_LINKS = 0.20;
constexpr double SHARE_ARB = 0.15;

// Fraction of each component that is leakage (static) at the
// calibration point. Keeps network power > 0 at zero load (Fig 7c).
constexpr double LEAKAGE_FRACTION = 0.15;

struct RawCoefficients
{
    double bufWritePjPerBit;
    double bufReadPjPerBit;
    double xbarPjPerBit2;
    double arbPjPerUnit;
    double linkPjPerBit;
    double leakBufWPerBit;
    double leakXbarWPerBit2;
    double leakArbWPerUnit;
    double leakLinkWPerBit;
};

/**
 * Derive the per-bit coefficients from the baseline anchor. Event rates
 * at activity a: a*p buffer writes + a*p reads + a*p crossbar + a*p
 * arbitration grants + a*p link traversals per cycle.
 */
const RawCoefficients &
rawCoefficients()
{
    static const RawCoefficients coeffs = [] {
        RawCoefficients c{};
        const RouterPhysParams &b = router_types::BASELINE;
        const double a = 0.5;
        const double f_hz = BASELINE_FREQ_GHZ * 1e9;
        const double event_rate = a * b.ports * f_hz; // events/s per kind
        const double w = b.datapathBits;

        auto dyn = [](double share) {
            return share * BASELINE_POWER_W * (1.0 - LEAKAGE_FRACTION);
        };
        auto leak = [](double share) {
            return share * BASELINE_POWER_W * LEAKAGE_FRACTION;
        };

        // Buffers: write is costlier than read (bitline precharge).
        // Keyed to the FIFO word width, not the crossbar width.
        double wb = b.bufferWidthBits;
        double e_buf_pair_pj = dyn(SHARE_BUFFERS) / event_rate * 1e12;
        c.bufWritePjPerBit = 0.55 * e_buf_pair_pj / wb;
        c.bufReadPjPerBit = 0.45 * e_buf_pair_pj / wb;

        // Crossbar: energy grows with w^2 (wire length tracks width).
        double e_x_pj = dyn(SHARE_XBAR) / event_rate * 1e12;
        c.xbarPjPerBit2 = e_x_pj / (w * w);

        // Arbitration: scales with (v + p) request fan-in.
        double e_a_pj = dyn(SHARE_ARB) / event_rate * 1e12;
        c.arbPjPerUnit = e_a_pj / (b.vcsPerPort + b.ports);

        // Links: per-bit, per traversal.
        double e_l_pj = dyn(SHARE_LINKS) / event_rate * 1e12;
        c.linkPjPerBit = e_l_pj / w;

        c.leakBufWPerBit =
            leak(SHARE_BUFFERS) / static_cast<double>(b.bufferBits());
        c.leakXbarWPerBit2 = leak(SHARE_XBAR) / (w * w);
        c.leakArbWPerUnit = leak(SHARE_ARB) / (b.vcsPerPort + b.ports);
        c.leakLinkWPerBit = leak(SHARE_LINKS) / w;
        return c;
    }();
    return coeffs;
}

/** Published 50 %-activity total for a known router class, or 0. */
double
anchorPowerW(const RouterPhysParams &params)
{
    if (params == router_types::BASELINE)
        return BASELINE_POWER_W;
    if (params == router_types::SMALL)
        return SMALL_POWER_W;
    if (params == router_types::BIG)
        return BIG_POWER_W;
    return 0.0;
}

} // namespace

RouterPowerModel
RouterPowerModel::calibrated(const RouterPhysParams &params, double freq_ghz)
{
    if (params.ports < 2 || params.vcsPerPort < 1 ||
        params.bufferDepthFlits < 1 || params.datapathBits < 1) {
        fatal("RouterPowerModel: invalid router parameters (p=%d v=%d "
              "d=%d w=%d)", params.ports, params.vcsPerPort,
              params.bufferDepthFlits, params.datapathBits);
    }

    const RawCoefficients &c = rawCoefficients();
    const double w = params.datapathBits;
    const double wb = params.bufferWidthBits;
    const double arb_units = params.vcsPerPort + params.ports;

    RouterPowerModel m;
    m.params_ = params;
    m.freqGhz_ = freq_ghz;
    m.bufWritePj_ = c.bufWritePjPerBit * wb;
    m.bufReadPj_ = c.bufReadPjPerBit * wb;
    // Per-traversal crossbar energy: bits switched (one flit, the
    // buffer word width) times wire length (tracks datapath width).
    m.xbarPj_ = c.xbarPjPerBit2 * wb * w;
    m.arbPj_ = c.arbPjPerUnit * arb_units;
    m.linkPjPerBit_ = c.linkPjPerBit;
    m.leakage_.buffers =
        c.leakBufWPerBit * static_cast<double>(params.bufferBits());
    m.leakage_.crossbar = c.leakXbarWPerBit2 * w * w;
    m.leakage_.arbiters = c.leakArbWPerUnit * arb_units;
    m.leakage_.links = c.leakLinkWPerBit * w;

    // Pin the published classes to their Table 1 totals by scaling all
    // energies uniformly (preserves the component breakdown shape).
    double anchor = anchorPowerW(params);
    if (anchor > 0.0) {
        double raw = m.powerAtActivity(0.5).total();
        double scale = anchor / raw;
        m.bufWritePj_ *= scale;
        m.bufReadPj_ *= scale;
        m.xbarPj_ *= scale;
        m.arbPj_ *= scale;
        m.linkPjPerBit_ *= scale;
        m.leakage_.buffers *= scale;
        m.leakage_.crossbar *= scale;
        m.leakage_.arbiters *= scale;
        m.leakage_.links *= scale;
    }
    return m;
}

PowerBreakdown
RouterPowerModel::power(const RouterActivity &activity) const
{
    PowerBreakdown p = leakage_;
    if (activity.cycles == 0)
        return p;
    double seconds =
        static_cast<double>(activity.cycles) / (freqGhz_ * 1e9);
    double to_watts = 1e-12 / seconds;
    p.buffers +=
        (static_cast<double>(activity.bufferWrites) * bufWritePj_ +
         static_cast<double>(activity.bufferReads) * bufReadPj_) * to_watts;
    p.crossbar +=
        static_cast<double>(activity.bufferReads) * xbarPj_ * to_watts;
    p.arbiters +=
        static_cast<double>(activity.arbOps) * arbPj_ * to_watts;
    p.links += activity.linkBitTraversals * linkPjPerBit_ * to_watts;
    return p;
}

PowerBreakdown
RouterPowerModel::powerAtActivity(double a) const
{
    RouterActivity act;
    const std::uint64_t cycles = 1000000;
    // Activity factor = fraction of datapath capacity in use: a router
    // whose crossbar is twice as wide as its flits (the big router)
    // moves two flits per active port-cycle.
    int lanes = std::max(1, params_.datapathBits /
                                std::max(1, params_.bufferWidthBits));
    auto events = static_cast<std::uint64_t>(
        a * params_.ports * lanes * static_cast<double>(cycles));
    act.cycles = cycles;
    act.bufferWrites = events;
    act.bufferReads = events;
    act.arbOps = events;
    act.linkBitTraversals =
        static_cast<double>(events) * params_.bufferWidthBits;
    return power(act);
}

} // namespace hnoc
