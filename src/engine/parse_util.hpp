// Shared low-level parsing for the engine's CLI spec grammars
// (axis specs, refine specs, scenario specs): one number parser (over the
// tree-wide plain-decimal grammar) and one separator splitter, so the
// grammars cannot drift apart on locale/whitespace/partial-token handling.
#pragma once

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "util/assert.hpp"
#include "util/decimal.hpp"

namespace p2p::engine {

/// Parses one number token. `spec` is the enclosing CLI spec, echoed
/// verbatim on failure so the user sees which argument is bad. When
/// `allow_inf`, the literal token "inf" (exactly that spelling) parses to
/// +infinity; every other spelling must be a plain finite decimal
/// (util/decimal.hpp) — "1x", "", " 2", "-.5", "nan", "infinity", "INF",
/// "0x1p3" and out-of-range decimals all abort.
inline double parse_number(const std::string& token, const std::string& spec,
                           bool allow_inf, const char* what) {
  if (allow_inf && token == "inf") {
    return std::numeric_limits<double>::infinity();
  }
  const std::optional<double> v = parse_plain_decimal(token);
  P2P_ASSERT_MSG(v.has_value(), std::string(what) + " (got \"" + spec + "\")");
  return *v;
}

/// Splits `body` at every `sep` (no escaping; empty pieces preserved).
inline std::vector<std::string> split_list(const std::string& body,
                                           char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = body.find(sep, start);
    out.push_back(body.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start));
    if (pos == std::string::npos) break;
    start = pos + 1;
  }
  return out;
}

}  // namespace p2p::engine
