#pragma once

/**
 * @file portability.hh
 * Small shims over platform-specific process introspection so the
 * rest of the tree never includes OS headers directly.
 *
 * Policy: every probe has a portable fallback that compiles on any
 * hosted C++20 implementation and returns a well-defined "unknown"
 * value; callers must treat 0 as "probe unavailable", not as a
 * measurement.
 */

#include <cstdint>

#if defined(__linux__) || defined(__unix__) || defined(__APPLE__)
#define HNOC_HAVE_RUSAGE 1
#include <sys/resource.h>
#else
#define HNOC_HAVE_RUSAGE 0
#endif

namespace hnoc
{

/** True when the build has a real getrusage()-backed RSS probe. */
inline constexpr bool kHasRusage = HNOC_HAVE_RUSAGE != 0;

namespace detail
{

/** Portable fallback used when no OS probe exists: 0 = unknown.
 *  Kept as a named function (rather than a literal at the call site)
 *  so the fallback path stays unit-testable on platforms where the
 *  real probe is compiled in. */
inline std::uint64_t
peakRssFallback()
{
    return 0;
}

} // namespace detail

/** Peak resident set size of this process in bytes; 0 if unknown.
 *  ru_maxrss is kilobytes on Linux and BSDs, bytes on macOS — both
 *  are monotone, and the progress meter only prints the value, so the
 *  kilobyte convention is applied uniformly (macOS then under-reports
 *  by 1024x, which still beats reporting nothing). */
inline std::uint64_t
peakRssBytes()
{
#if HNOC_HAVE_RUSAGE
    struct rusage ru{};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return detail::peakRssFallback();
    return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;
#else
    return detail::peakRssFallback();
#endif
}

} // namespace hnoc
