#include "noc/config_io.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/logging.hh"
#include "common/parse.hh"
#include "common/text_file.hh"

namespace hnoc
{

const char *
topologyName(TopologyType t)
{
    switch (t) {
      case TopologyType::Mesh:
        return "mesh";
      case TopologyType::Torus:
        return "torus";
      case TopologyType::ConcentratedMesh:
        return "cmesh";
      case TopologyType::FlattenedButterfly:
        return "flatfly";
    }
    return "mesh";
}

namespace
{

TopologyType
topologyFromName(const std::string &s)
{
    if (s == "mesh")
        return TopologyType::Mesh;
    if (s == "torus")
        return TopologyType::Torus;
    if (s == "cmesh")
        return TopologyType::ConcentratedMesh;
    if (s == "flatfly")
        return TopologyType::FlattenedButterfly;
    fatal("config: unknown topology '%s'", s.c_str());
}

const char *
linkModeName(LinkWidthMode m)
{
    switch (m) {
      case LinkWidthMode::Uniform:
        return "uniform";
      case LinkWidthMode::EndpointMax:
        return "endpoint-max";
      case LinkWidthMode::CentralBand:
        return "central-band";
    }
    return "uniform";
}

LinkWidthMode
linkModeFromName(const std::string &s)
{
    if (s == "uniform")
        return LinkWidthMode::Uniform;
    if (s == "endpoint-max")
        return LinkWidthMode::EndpointMax;
    if (s == "central-band")
        return LinkWidthMode::CentralBand;
    fatal("config: unknown link mode '%s'", s.c_str());
}

const char *
routingName(RoutingMode m)
{
    switch (m) {
      case RoutingMode::XY:
        return "xy";
      case RoutingMode::YX:
        return "yx";
      case RoutingMode::O1Turn:
        return "o1turn";
      case RoutingMode::TableXY:
        return "table-xy";
    }
    return "xy";
}

RoutingMode
routingFromName(const std::string &s)
{
    if (s == "xy")
        return RoutingMode::XY;
    if (s == "yx")
        return RoutingMode::YX;
    if (s == "o1turn")
        return RoutingMode::O1Turn;
    if (s == "table-xy")
        return RoutingMode::TableXY;
    fatal("config: unknown routing mode '%s'", s.c_str());
}

template <typename T>
std::string
joinInts(const std::vector<T> &v)
{
    std::string out;
    for (std::size_t i = 0; i < v.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(v[i]);
    }
    return out;
}

std::vector<int>
splitInts(const std::string &key, const std::string &s)
{
    std::vector<int> out;
    std::stringstream in(s);
    std::string item;
    while (std::getline(in, item, ','))
        if (!item.empty())
            parseNumber("config", key, item, out.emplace_back());
    return out;
}

} // namespace

std::string
configToString(const NetworkConfig &c)
{
    std::ostringstream out;
    out << "name=" << c.name << '\n';
    out << "topology=" << topologyName(c.topology) << '\n';
    out << "radix_x=" << c.radixX << '\n';
    out << "radix_y=" << c.radixY << '\n';
    out << "concentration=" << c.concentration << '\n';
    out << "flit_bits=" << c.flitWidthBits << '\n';
    out << "data_packet_bits=" << c.dataPacketBits << '\n';
    out << "buffer_depth=" << c.bufferDepth << '\n';
    out << "default_vcs=" << c.defaultVcs << '\n';
    out << "default_width_bits=" << c.defaultWidthBits << '\n';
    if (!c.routerVcs.empty())
        out << "router_vcs=" << joinInts(c.routerVcs) << '\n';
    if (!c.routerWidthBits.empty())
        out << "router_width_bits=" << joinInts(c.routerWidthBits)
            << '\n';
    out << "link_mode=" << linkModeName(c.linkWidthMode) << '\n';
    out << "uniform_link_bits=" << c.uniformLinkBits << '\n';
    out << "band_wide_links=" << c.bandWideLinks << '\n';
    out << "routing=" << routingName(c.routing) << '\n';
    if (!c.tableRoutedNodes.empty())
        out << "table_nodes=" << joinInts(c.tableRoutedNodes) << '\n';
    out << "escape_threshold=" << c.escapeThreshold << '\n';
    out << "intra_packet_pairing=" << (c.intraPacketPairing ? 1 : 0)
        << '\n';
    out << "always_step=" << (c.alwaysStep ? 1 : 0) << '\n';
    out << "block_tiles=" << c.blockTiles << '\n';
    out << "pipeline_stages=" << c.pipelineStages << '\n';
    out << "link_latency=" << c.linkLatency << '\n';
    out << "clock_ghz=" << c.clockGHz << '\n';
    return out.str();
}

NetworkConfig
configFromString(const std::string &text)
{
    NetworkConfig c;
    std::stringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("config: malformed line '%s'", line.c_str());
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        auto parse = [&](auto &field) {
            parseNumber("config", key, val, field);
        };

        if (key == "name")
            c.name = val;
        else if (key == "topology")
            c.topology = topologyFromName(val);
        else if (key == "radix_x")
            parse(c.radixX);
        else if (key == "radix_y")
            parse(c.radixY);
        else if (key == "concentration")
            parse(c.concentration);
        else if (key == "flit_bits")
            parse(c.flitWidthBits);
        else if (key == "data_packet_bits")
            parse(c.dataPacketBits);
        else if (key == "buffer_depth")
            parse(c.bufferDepth);
        else if (key == "default_vcs")
            parse(c.defaultVcs);
        else if (key == "default_width_bits")
            parse(c.defaultWidthBits);
        else if (key == "router_vcs")
            c.routerVcs = splitInts(key, val);
        else if (key == "router_width_bits")
            c.routerWidthBits = splitInts(key, val);
        else if (key == "link_mode")
            c.linkWidthMode = linkModeFromName(val);
        else if (key == "uniform_link_bits")
            parse(c.uniformLinkBits);
        else if (key == "band_wide_links")
            parse(c.bandWideLinks);
        else if (key == "routing")
            c.routing = routingFromName(val);
        else if (key == "table_nodes") {
            c.tableRoutedNodes.clear();
            for (int n : splitInts(key, val))
                c.tableRoutedNodes.push_back(n);
        } else if (key == "escape_threshold")
            parse(c.escapeThreshold);
        else if (key == "intra_packet_pairing")
            parse(c.intraPacketPairing);
        else if (key == "always_step")
            parse(c.alwaysStep);
        else if (key == "block_tiles")
            parse(c.blockTiles);
        else if (key == "pipeline_stages")
            parse(c.pipelineStages);
        else if (key == "link_latency")
            parse(c.linkLatency);
        else if (key == "clock_ghz")
            parse(c.clockGHz);
        else
            fatal("config: unknown key '%s'", key.c_str());
    }
    return c;
}

std::string
simOptionsToString(const SimPointOptions &o)
{
    std::ostringstream out;
    out.precision(17); // exact double round-trip
    out << "injection_rate=" << o.injectionRate << '\n';
    out << "warmup_cycles=" << o.warmupCycles << '\n';
    out << "measure_cycles=" << o.measureCycles << '\n';
    out << "drain_cycles=" << o.drainCycles << '\n';
    out << "seed=" << o.seed << '\n';
    out << "control_fraction=" << o.controlFraction << '\n';
    out << "collect_metrics=" << (o.collectMetrics ? 1 : 0) << '\n';
    out << "telemetry_epoch=" << o.telemetryEpoch << '\n';
    out << "control_mode=" << simControlModeName(o.control.mode)
        << '\n';
    out << "min_warmup_cycles=" << o.control.minWarmupCycles << '\n';
    out << "warmup_epochs=" << o.control.warmupEpochs << '\n';
    out << "warmup_tolerance=" << o.control.warmupTolerance << '\n';
    out << "ci_target=" << o.control.ciTarget << '\n';
    out << "ci_confidence=" << o.control.ciConfidence << '\n';
    out << "min_batches=" << o.control.minBatches << '\n';
    out << "epochs_per_batch=" << o.control.epochsPerBatch << '\n';
    out << "min_measure_cycles=" << o.control.minMeasureCycles << '\n';
    out << "sat_epochs=" << o.control.satEpochs << '\n';
    out << "sat_depth_per_node=" << o.control.satDepthPerNode << '\n';
    out << "sat_growth_per_node=" << o.control.satGrowthPerNode
        << '\n';
    return out.str();
}

SimPointOptions
simOptionsFromString(const std::string &text)
{
    SimPointOptions o;
    std::stringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        auto eq = line.find('=');
        if (eq == std::string::npos)
            fatal("sim options: malformed line '%s'", line.c_str());
        std::string key = line.substr(0, eq);
        std::string val = line.substr(eq + 1);
        auto parse = [&](auto &field) {
            parseNumber("sim options", key, val, field);
        };

        if (key == "injection_rate")
            parse(o.injectionRate);
        else if (key == "warmup_cycles")
            parse(o.warmupCycles);
        else if (key == "measure_cycles")
            parse(o.measureCycles);
        else if (key == "drain_cycles")
            parse(o.drainCycles);
        else if (key == "seed")
            parse(o.seed);
        else if (key == "control_fraction")
            parse(o.controlFraction);
        else if (key == "collect_metrics")
            parse(o.collectMetrics);
        else if (key == "telemetry_epoch")
            parse(o.telemetryEpoch);
        else if (key == "control_mode")
            o.control.mode = simControlModeFromName(val);
        else if (key == "min_warmup_cycles")
            parse(o.control.minWarmupCycles);
        else if (key == "warmup_epochs")
            parse(o.control.warmupEpochs);
        else if (key == "warmup_tolerance")
            parse(o.control.warmupTolerance);
        else if (key == "ci_target")
            parse(o.control.ciTarget);
        else if (key == "ci_confidence")
            parse(o.control.ciConfidence);
        else if (key == "min_batches")
            parse(o.control.minBatches);
        else if (key == "epochs_per_batch")
            parse(o.control.epochsPerBatch);
        else if (key == "min_measure_cycles")
            parse(o.control.minMeasureCycles);
        else if (key == "sat_epochs")
            parse(o.control.satEpochs);
        else if (key == "sat_depth_per_node")
            parse(o.control.satDepthPerNode);
        else if (key == "sat_growth_per_node")
            parse(o.control.satGrowthPerNode);
        else
            fatal("sim options: unknown key '%s'", key.c_str());
    }
    return o;
}

bool
saveConfig(const NetworkConfig &config, const std::string &path)
{
    return writeTextFile(path, configToString(config));
}

NetworkConfig
loadConfig(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("config: cannot open %s", path.c_str());
    std::stringstream buf;
    buf << in.rdbuf();
    return configFromString(buf.str());
}

} // namespace hnoc
