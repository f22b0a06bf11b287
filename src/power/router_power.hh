/**
 * @file
 * Orion-style router power model (paper §4, Table 1, Figs 7c/8b/11c/d).
 *
 * Dynamic energy is charged per micro-architectural event (buffer write,
 * buffer read, crossbar traversal, arbitration, link traversal) with
 * per-event energies that scale with datapath width and VC count;
 * leakage is charged per cycle. The per-bit coefficients are derived
 * from the paper's baseline router (0.67 W at a 50 % activity factor,
 * with the component shares of Fig 8b: buffers 35 %, crossbar 30 %,
 * links 20 %, arbiters+logic 15 %), and each of the three published
 * router classes carries a calibration factor that pins its total at
 * 50 % activity exactly to Table 1 (0.67 / 0.30 / 1.19 W).
 *
 * The simulator never assumes an activity factor: it counts actual
 * events (paper footnote 3) and converts to watts over the simulated
 * wall-clock interval.
 */

#ifndef HNOC_POWER_ROUTER_POWER_HH
#define HNOC_POWER_ROUTER_POWER_HH

#include <cstdint>

#include "power/router_params.hh"

namespace hnoc
{

/** Power split into the four categories plotted by the paper. */
struct PowerBreakdown
{
    double buffers = 0.0;  ///< watts
    double crossbar = 0.0; ///< watts
    double arbiters = 0.0; ///< watts (arbiters + control logic)
    double links = 0.0;    ///< watts

    double
    total() const
    {
        return buffers + crossbar + arbiters + links;
    }

    PowerBreakdown &
    operator+=(const PowerBreakdown &o)
    {
        buffers += o.buffers;
        crossbar += o.crossbar;
        arbiters += o.arbiters;
        links += o.links;
        return *this;
    }
};

/** Event counts accumulated by the simulator for one router. */
struct RouterActivity
{
    std::uint64_t bufferWrites = 0; ///< flits written into input FIFOs
    std::uint64_t bufferReads = 0;  ///< FIFO reads = crossbar traversals
    std::uint64_t arbOps = 0;       ///< VA/SA arbitration grant operations
    std::uint64_t cycles = 0;       ///< elapsed router cycles

    /** Flit-traversals of outgoing links, weighted by link width in
     *  bits (summed widths, so mixed-width routers account correctly). */
    double linkBitTraversals = 0.0;

    RouterActivity &
    operator+=(const RouterActivity &o)
    {
        bufferWrites += o.bufferWrites;
        bufferReads += o.bufferReads;
        arbOps += o.arbOps;
        cycles += o.cycles;
        linkBitTraversals += o.linkBitTraversals;
        return *this;
    }
};

/**
 * Per-router-class power model.
 *
 * Construct via calibrated() so that the three paper router classes
 * reproduce Table 1 exactly.
 */
class RouterPowerModel
{
  public:
    /**
     * Build a model for @p params running at @p freq_ghz.
     * Applies the class calibration factor when @p params matches one
     * of the three published router classes.
     */
    static RouterPowerModel calibrated(const RouterPhysParams &params,
                                       double freq_ghz);

    /** @return energy of one flit buffer write, picojoules. */
    double bufWriteEnergyPj() const { return bufWritePj_; }

    /** @return energy of one flit buffer read, picojoules. */
    double bufReadEnergyPj() const { return bufReadPj_; }

    /** @return energy of one flit crossbar traversal, picojoules. */
    double xbarEnergyPj() const { return xbarPj_; }

    /** @return energy of one arbitration grant operation, picojoules. */
    double arbEnergyPj() const { return arbPj_; }

    /** @return per-bit link traversal energy, picojoules per bit. */
    double linkEnergyPerBitPj() const { return linkPjPerBit_; }

    /** @return leakage, watts, split per category. */
    const PowerBreakdown &leakage() const { return leakage_; }

    /**
     * Average power over an activity window (measured events).
     * @param activity event counts, @return watts per category.
     */
    PowerBreakdown power(const RouterActivity &activity) const;

    /**
     * Analytic power at a uniform activity factor @p a (fraction of
     * port-cycles carrying a flit). Used for Table 1 and the layout
     * power-budget inequality of §2.
     */
    PowerBreakdown powerAtActivity(double a) const;

    /** @return the router parameters this model was built for. */
    const RouterPhysParams &params() const { return params_; }

    /** @return clock frequency in GHz used for conversions. */
    double frequencyGHz() const { return freqGhz_; }

  private:
    RouterPowerModel() = default;

    RouterPhysParams params_;
    double freqGhz_ = 2.2;

    double bufWritePj_ = 0.0;
    double bufReadPj_ = 0.0;
    double xbarPj_ = 0.0;
    double arbPj_ = 0.0;
    double linkPjPerBit_ = 0.0;
    PowerBreakdown leakage_;
};

} // namespace hnoc

#endif // HNOC_POWER_ROUTER_POWER_HH
