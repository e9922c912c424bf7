/**
 * @file
 * Minimal JSON emission helpers shared by every machine-readable dump
 * (stats registry, interval sampler, trace-event sink, result rows,
 * checker verdicts). Reading is obs/json_reader's job.
 */

#ifndef PROTEUS_SIM_JSON_UTIL_HH
#define PROTEUS_SIM_JSON_UTIL_HH

#include <cmath>
#include <cstdio>
#include <ostream>
#include <string>

namespace proteus {
namespace json {

/** Append @p s to @p out with JSON string escaping (no quotes added). */
inline void
appendEscaped(std::string &out, const std::string &s)
{
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
}

/** @return @p s as a quoted, escaped JSON string literal. */
inline std::string
quoted(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
    appendEscaped(out, s);
    out += '"';
    return out;
}

/**
 * Write @p v as a JSON number. NaN and infinities are not representable
 * in JSON and would corrupt the document, so they are mapped to null.
 */
inline void
writeNumber(std::ostream &os, double v)
{
    if (!std::isfinite(v))
        os << "null";
    else
        os << v;
}

} // namespace json
} // namespace proteus

#endif // PROTEUS_SIM_JSON_UTIL_HH
