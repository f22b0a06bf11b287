/**
 * @file
 * NetworkConfig text serialization: a stable key=value format so
 * experiment configurations can be saved, diffed and replayed
 * (hnoc_cli --dump-config / --config).
 */

#ifndef HNOC_NOC_CONFIG_IO_HH
#define HNOC_NOC_CONFIG_IO_HH

#include <string>

#include "noc/network_config.hh"
#include "noc/sim_harness.hh"

namespace hnoc
{

/** Stable short name of @p t ("mesh", "torus", "cmesh", "flatfly"). */
const char *topologyName(TopologyType t);

/** Serialize @p config to the key=value text format. */
std::string configToString(const NetworkConfig &config);

/**
 * Parse a configuration previously produced by configToString.
 * Unknown keys are fatal (catches typos and version skew).
 */
NetworkConfig configFromString(const std::string &text);

/** Write @p config to @p path. @return true on success (warns on
 *  failure, see writeTextFile). */
bool saveConfig(const NetworkConfig &config, const std::string &path);

/** Load a configuration from @p path; fatal on I/O or parse errors. */
NetworkConfig loadConfig(const std::string &path);

/**
 * Serialize the window and simulation-control knobs of @p opts to the
 * same key=value format (doubles at full precision, so a round-trip
 * is exact). Diagnostics (recorder, watchdog, profiler, blame) are
 * runtime attachments and are not serialized.
 */
std::string simOptionsToString(const SimPointOptions &opts);

/**
 * Parse options previously produced by simOptionsToString. Unknown
 * keys are fatal (catches typos and version skew).
 */
SimPointOptions simOptionsFromString(const std::string &text);

} // namespace hnoc

#endif // HNOC_NOC_CONFIG_IO_HH
