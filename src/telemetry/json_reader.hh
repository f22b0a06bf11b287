/**
 * @file
 * Strict JSON reader for the telemetry documents this repo emits:
 * run reports (hnoc-run-report-v1), postmortems (hnoc-postmortem-v1),
 * Chrome traces, and JSONL flit logs.
 *
 * The parser accepts exactly the JSON grammar — trailing commas, bare
 * NaN/Inf literals, raw control characters in strings and trailing
 * garbage after the document are all rejected — so round-trip tests
 * against it also pin that the emitters never produce malformed
 * output. Promoted from the in-test parser of test_trace.cc so the
 * offline tooling (hnoc_inspect) and the tests share one grammar.
 */

#ifndef HNOC_TELEMETRY_JSON_READER_HH
#define HNOC_TELEMETRY_JSON_READER_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hnoc
{

/** A parsed JSON value: tagged union over the six JSON types. */
struct JsonValue
{
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Members in document order (duplicate keys kept; find() returns
     *  the first, matching RFC 8259 "last one wins" readers loosely —
     *  our emitters never duplicate keys). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** @return the member named @p key, or nullptr. */
    const JsonValue *find(std::string_view key) const;

    /** Numeric member lookup; @p fallback when absent or non-numeric.
     *  The -1 default makes a missing field fail >= 0 assertions. */
    double numAt(std::string_view key, double fallback = -1.0) const;

    /** String member lookup; empty when absent or non-string. */
    std::string strAt(std::string_view key) const;

    /** Boolean member lookup. */
    bool boolAt(std::string_view key, bool fallback = false) const;

    /** The member named @p key as an array (empty vector if absent). */
    const std::vector<JsonValue> &arrayAt(std::string_view key) const;

    /** Numeric array member as doubles (empty if absent/mistyped). */
    std::vector<double> numbersAt(std::string_view key) const;
};

/**
 * Parse one complete JSON document.
 * @param error when non-null, receives "byte N: reason" on failure
 * @return true iff @p doc parsed and was fully consumed
 */
bool parseJson(std::string_view doc, JsonValue &out,
               std::string *error = nullptr);

/** Read and parse a whole file. @p error reports open/parse failures. */
bool parseJsonFile(const std::string &path, JsonValue &out,
                   std::string *error = nullptr);

/**
 * Parse a JSONL document (one JSON value per newline-terminated line,
 * e.g. the FlitTrace flit log). Blank lines are skipped. Stops at
 * the first malformed line.
 * @return true iff every line parsed
 */
bool parseJsonLines(std::string_view doc, std::vector<JsonValue> &out,
                    std::string *error = nullptr);

/** parseJsonLines over a file's contents. */
bool parseJsonLinesFile(const std::string &path,
                        std::vector<JsonValue> &out,
                        std::string *error = nullptr);

} // namespace hnoc

#endif // HNOC_TELEMETRY_JSON_READER_HH
