// Minimal command-line flag parsing for the example drivers.
//
// Supports --name=value and --name value, typed getters with defaults,
// and an auto-generated usage listing. No external dependencies; strict:
// unknown flags abort with the usage text (so typos never silently run a
// different experiment).
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>

#include "util/decimal.hpp"

namespace p2p {

class Flags {
 public:
  Flags(int argc, char** argv) {
    program_ = argc > 0 ? argv[0] : "";
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        fail("positional arguments are not supported: " + arg);
      }
      arg = arg.substr(2);
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        set_once(arg.substr(0, eq), arg.substr(eq + 1));
      } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) !=
                                     0) {
        set_once(arg, argv[++i]);
      } else {
        set_once(arg, "true");  // bare boolean flag
      }
    }
  }

  double get_double(const std::string& name, double fallback,
                    const std::string& help) {
    const std::string* token = take(name, std::to_string(fallback), help);
    return token != nullptr ? parse_decimal(name, *token) : fallback;
  }

  int get_int(const std::string& name, int fallback,
              const std::string& help) {
    const std::string* token = take(name, std::to_string(fallback), help);
    if (token == nullptr) return fallback;
    const double v = parse_decimal(name, *token);
    // Range-check before the cast: float-to-int conversion of an
    // out-of-range value is undefined behavior, not a detectable wrap.
    constexpr double lo = std::numeric_limits<int>::min();
    constexpr double hi = std::numeric_limits<int>::max();
    if (!(v >= lo && v <= hi) || v != std::floor(v)) {
      fail("flag --" + name + " expects an integer, got '" + *token + "'");
    }
    return static_cast<int>(v);
  }

  /// Unsigned 64-bit flag (RNG seeds): plain decimal digits over the
  /// whole [0, 2^64 - 1] range, parsed exactly rather than through a
  /// double. A negative or too-large value is an out-of-range error
  /// echoing the token; it never wraps.
  std::uint64_t get_uint64(const std::string& name, std::uint64_t fallback,
                           const std::string& help) {
    const std::string* token = take(name, std::to_string(fallback), help);
    if (token == nullptr) return fallback;
    const bool negative = token->size() > 1 && (*token)[0] == '-';
    const std::size_t first = negative ? 1 : 0;
    const bool digits =
        token->size() > first &&
        token->find_first_not_of("0123456789", first) == std::string::npos;
    if (!digits) {
      fail("flag --" + name + " expects an unsigned integer, got '" + *token +
           "'");
    }
    std::uint64_t v = 0;
    const auto res =
        std::from_chars(token->data(), token->data() + token->size(), v);
    if (negative || res.ec != std::errc()) {
      fail("flag --" + name + " is out of range [0, " +
           std::to_string(std::numeric_limits<std::uint64_t>::max()) +
           "], got '" + *token + "'");
    }
    return v;
  }

  std::string get_string(const std::string& name, const std::string& fallback,
                         const std::string& help) {
    const std::string* token = take(name, fallback, help);
    return token != nullptr ? *token : fallback;
  }

  /// Boolean flag: bare (--name), or one of true/yes/1 and false/no/0.
  /// Any other token is an error echoing it — "--fluid=no" must not run
  /// with the fluid column, nor "--fluid foo" swallow a stray argument.
  bool get_bool(const std::string& name, bool fallback,
                const std::string& help) {
    const std::string* token = take(name, fallback ? "true" : "false", help);
    if (token == nullptr) return fallback;
    if (*token == "true" || *token == "yes" || *token == "1") return true;
    if (*token == "false" || *token == "no" || *token == "0") return false;
    fail("flag --" + name +
         " expects a boolean (true/false/yes/no/1/0), got '" + *token + "'");
  }

  /// Whether `name` appeared on the command line at all, whatever its
  /// value — for checks that must reject a flag even when it was given
  /// its default. Does not consume the flag.
  bool given(const std::string& name) const { return values_.count(name) > 0; }

  /// Call after all getters: aborts with usage on unknown flags or --help.
  void finish() {
    if (values_.count("help")) {
      print_usage();
      std::exit(0);
    }
    for (const auto& [name, value] : values_) {
      if (!consumed_.count(name)) {
        fail("unknown flag --" + name);
      }
    }
  }

 private:
  /// A repeated flag is a hard error: letting the last occurrence win
  /// silently runs a different experiment than the command line suggests.
  void set_once(const std::string& name, std::string value) {
    if (!values_.emplace(name, std::move(value)).second) {
      fail("flag --" + name + " given more than once");
    }
  }

  /// Parses a flag value as a plain finite decimal (util/decimal.hpp),
  /// aborting with the token echoed as typed: "nan", "inf"/"infinity",
  /// hex floats, "-.5" and leading whitespace would silently run a
  /// different experiment than the flag suggests.
  double parse_decimal(const std::string& name, const std::string& token) {
    const std::optional<double> v = parse_plain_decimal(token);
    if (!v) {
      fail("flag --" + name + " expects a number (finite decimal), got '" +
           token + "'");
    }
    return *v;
  }

  /// Records the flag for the usage listing; returns its value as
  /// typed (marking it consumed), or null when it was not given.
  const std::string* take(const std::string& name, const std::string& fallback,
                          const std::string& help) {
    described_[name] = {fallback, help};
    const auto it = values_.find(name);
    if (it == values_.end()) return nullptr;
    consumed_.insert(name);
    return &it->second;
  }

  struct Description {
    std::string fallback;
    std::string help;
  };

  void print_usage() const {
    std::fprintf(stderr, "usage: %s [--flag=value ...]\n", program_.c_str());
    for (const auto& [name, d] : described_) {
      std::fprintf(stderr, "  --%-16s %s (default %s)\n", name.c_str(),
                   d.help.c_str(), d.fallback.c_str());
    }
  }

  [[noreturn]] void fail(const std::string& message) {
    std::fprintf(stderr, "error: %s\n", message.c_str());
    print_usage();
    std::exit(2);
  }

  std::string program_;
  std::map<std::string, std::string> values_;
  std::map<std::string, Description> described_;
  std::set<std::string> consumed_;
};

}  // namespace p2p
