/**
 * @file
 * Figure 1: buffer and link utilization heat maps of the homogeneous
 * 8x8 mesh under uniform-random traffic near saturation
 * (~0.06 packets/node/cycle, footnote 1). Expected shape: central
 * routers ~2x the utilization of peripheral ones; corners slightly
 * above their row/column peers. The heat maps are the measurement
 * window's always-on router occupancy and channel counters
 * (SimPointResult::bufferUtilPct / linkUtilPct).
 */

#include "bench_util.hh"
#include "common/report.hh"
#include "noc/sim_harness.hh"

using namespace hnoc;
using namespace hnoc::bench;

int
main()
{
    printHeader("Figure 1",
                "buffer/link utilization heat maps, 8x8 mesh, UR traffic");

    NetworkConfig cfg = makeLayoutConfig(LayoutKind::Baseline);
    SimPointOptions opts;
    opts.injectionRate = 0.065; // near saturation, as in the paper
    opts.warmupCycles = 8000;
    opts.measureCycles = 30000;
    opts.drainCycles = 0;
    opts.collectMetrics = true;
    SimPointResult res =
        runOpenLoop(cfg, TrafficPattern::UniformRandom, opts);
    const std::vector<double> &buf_util = res.bufferUtilPct;
    const std::vector<double> &link_util = res.linkUtilPct;

    std::printf("%s\n",
                formatHeatMap(buf_util, 8,
                              "(a) Buffer utilization (%)").c_str());
    std::printf("%s\n",
                formatHeatMap(link_util, 8,
                              "(b) Link utilization (%)").c_str());

    writeHeatMapCsv("FIG01_buffer_util.csv", buf_util, 8);
    writeHeatMapCsv("FIG01_link_util.csv", link_util, 8);
    writeRunReport("FIG01_report.json",
                   "Figure 1: 8x8 mesh utilization heat maps",
                   {"baseline_ur_0.065"}, {res});

    // Paper-shape summary: center vs periphery.
    auto region_mean = [&](const std::vector<double> &v, bool center) {
        double sum = 0.0;
        int n = 0;
        for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
                bool is_center = x >= 2 && x <= 5 && y >= 2 && y <= 5;
                bool is_edge = x == 0 || x == 7 || y == 0 || y == 7;
                if ((center && is_center) || (!center && is_edge)) {
                    sum += v[static_cast<std::size_t>(y * 8 + x)];
                    ++n;
                }
            }
        }
        return sum / n;
    };

    double buf_center = region_mean(buf_util, true);
    double buf_edge = region_mean(buf_util, false);
    double link_center = region_mean(link_util, true);
    double link_edge = region_mean(link_util, false);
    std::printf("center/edge buffer utilization: %.1f%% / %.1f%% "
                "(ratio %.2fx; paper: ~75%% vs ~35%%, ~2x)\n",
                buf_center, buf_edge, buf_center / buf_edge);
    std::printf("center/edge link utilization:   %.1f%% / %.1f%% "
                "(ratio %.2fx)\n",
                link_center, link_edge, link_center / link_edge);
    return 0;
}
