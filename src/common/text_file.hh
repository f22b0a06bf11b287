/**
 * @file
 * The one text-file writer behind every report, trace, CSV,
 * postmortem and config dump the simulator and its tools emit.
 */

#ifndef HNOC_COMMON_TEXT_FILE_HH
#define HNOC_COMMON_TEXT_FILE_HH

#include <string>

namespace hnoc
{

/**
 * Write @p data to @p path, replacing any existing file. When
 * @p dir_env names a set environment variable (e.g. "HNOC_JSON_DIR"),
 * the file lands in that directory under @p path's base name instead.
 * Warns and returns false when the file cannot be opened, a write
 * falls short, or the close fails (a full disk surfaces there).
 */
bool writeTextFile(const std::string &path, const std::string &data,
                   const char *dir_env = nullptr);

} // namespace hnoc

#endif // HNOC_COMMON_TEXT_FILE_HH
