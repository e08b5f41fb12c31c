// Command-line helpers shared by the swcaffe_* tools: "--name value" /
// "--name=value" flag matching and strict number parsing. Every usage error
// (a missing value, a malformed or out-of-range number) prints a message that
// names the flag and exits with status 2, swcaffe_check's documented
// usage-error code.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>
#include <type_traits>

namespace swcaffe::cli {

inline constexpr int kExitUsage = 2;

/// Matches "--name value" and "--name=value"; advances `i` past the value.
inline bool flag_value(int argc, char** argv, int& i, const char* name,
                       std::string& out) {
  const std::string arg = argv[i];
  const std::string prefix = std::string(name) + "=";
  if (arg == name) {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", name);
      std::exit(kExitUsage);
    }
    out = argv[++i];
    return true;
  }
  if (arg.rfind(prefix, 0) == 0) {
    out = arg.substr(prefix.size());
    return true;
  }
  return false;
}

/// Parses all of `text` as a T: an integer in T's range, or a finite
/// floating-point number. Anything else ("12x", "abc", "", "1e999") is a
/// usage error that names `flag`.
template <typename T>
T parse_number(const char* flag, const std::string& text) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  bool ok = !text.empty() && ec == std::errc{} && stop == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(value);
  if (!ok) {
    std::fprintf(stderr, "invalid value '%s' for %s\n", text.c_str(), flag);
    std::exit(kExitUsage);
  }
  return value;
}

/// flag_value, then parse_number of the matched value into `out`.
template <typename T>
bool flag_number(int argc, char** argv, int& i, const char* name, T& out) {
  std::string v;
  if (!flag_value(argc, argv, i, name, v)) return false;
  out = parse_number<T>(name, v);
  return true;
}

}  // namespace swcaffe::cli
