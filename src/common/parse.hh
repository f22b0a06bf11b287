/**
 * @file
 * The one number parser for input from outside the program: config
 * and sim-option files, environment variables and command-line flags.
 * A malformed value is a user error, so it is fatal and named.
 */

#ifndef HNOC_COMMON_PARSE_HH
#define HNOC_COMMON_PARSE_HH

#include <charconv>
#include <string>
#include <system_error>

#include "common/logging.hh"

namespace hnoc
{

/**
 * Parse @p val, the value of @p key in @p what (a file kind, the
 * environment, a program's flags), as a T. Fatal, naming the key and
 * the value, unless the whole value is a number in T's range: no
 * trailing junk, no sign on an unsigned field.
 */
template <typename T>
void
parseNumber(const char *what, const std::string &key, const std::string &val,
            T &out)
{
    const char *end = val.data() + val.size();
    auto [ptr, ec] = std::from_chars(val.data(), end, out);
    if (ec != std::errc() || ptr != end)
        fatal("%s: %s='%s' is not a number in range", what, key.c_str(),
              val.c_str());
}

/** A flag is written as a number; any non-zero value sets it. */
inline void
parseNumber(const char *what, const std::string &key, const std::string &val,
            bool &out)
{
    int v = 0;
    parseNumber(what, key, val, v);
    out = v != 0;
}

} // namespace hnoc

#endif // HNOC_COMMON_PARSE_HH
