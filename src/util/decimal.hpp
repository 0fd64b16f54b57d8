// The one plain-decimal number parser behind every text grammar in the
// tree: report cells, CLI flags, engine spec tokens and event-log
// timestamps. Each caller keeps its own error text; they share what a
// number is.
#pragma once

#include <charconv>
#include <optional>
#include <string_view>
#include <system_error>

namespace p2p {

/// Parses `token` as a plain finite decimal: an optional leading '-',
/// then a digit, then whatever std::from_chars (general format) reads —
/// which must be the whole token. So "", "-", ".5", "-.5", "+2", " 2",
/// "2 ", "1x", "0x10", "nan", "inf" and "infinity" are all rejected, and
/// so is every out-of-range spelling in either direction ("1e400", and
/// "1e-400", which would round to zero; subnormals such as "5e-324" are
/// in range). format_number emits none of the rejected spellings.
/// Locale-independent and allocation-free.
inline std::optional<double> parse_plain_decimal(std::string_view token) {
  const std::size_t first = !token.empty() && token[0] == '-' ? 1 : 0;
  if (token.size() <= first || token[first] < '0' || token[first] > '9') {
    return std::nullopt;
  }
  double v = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, v);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return v;
}

}  // namespace p2p
