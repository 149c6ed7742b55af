/**
 * @file
 * Minimal recursive-descent JSON parser — just enough DOM for the
 * observability file formats (trace_event files, stats.json, crash
 * bundles), with no external dependencies.  Extracted from
 * trace_check.cc so every tool parses the same dialect.
 */

#ifndef VIP_OBS_JSON_HH
#define VIP_OBS_JSON_HH

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace vip
{
namespace json
{

/** One parsed JSON value; object members keep file order. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool b = false;
    double num = 0.0;
    std::string str;
    std::vector<JsonValue> arr;
    std::vector<std::pair<std::string, JsonValue>> obj;

    const JsonValue *
    find(const std::string &key) const
    {
        for (const auto &[k, v] : obj)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/** Parse a complete JSON document.  Throws SimFatal on bad input. */
JsonValue parse(const std::string &text);

/** Parse a complete JSON document from a stream (reads to EOF). */
JsonValue parse(std::istream &is);

/** Object member as string ("" when missing or not a string). */
std::string strField(const JsonValue &obj, const char *key);

/** Object member as number (0.0 when missing or not a number). */
double numField(const JsonValue &obj, const char *key);

/** Escape a string for embedding in a JSON document (adds quotes):
 *  `"` and `\` get a backslash, newline, tab and carriage return
 *  their short forms, and every other byte below 0x20 a `\u00XX`
 *  escape.  The only JSON string escaper in the tree. */
std::string quoted(const std::string &s);

} // namespace json
} // namespace vip

#endif // VIP_OBS_JSON_HH
