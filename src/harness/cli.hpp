// Strict number parsing for the command-line programs (examples/ and
// bench/). A malformed value is a usage error that exits 2: std::stoul
// and std::stod throw (an abort when uncaught) on "abc", read "1x" as 1
// and "-1" as 2^64-1, and std::stod accepts "nan" and "inf".
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <system_error>

namespace aqueduct::harness {

/// Prints a program's usage text to `os`.
using UsageFn = void (*)(const char* prog, std::ostream& os);

/// Says why `text` is not a valid value of `flag`, prints usage, exits 2.
[[noreturn]] inline void reject_flag_value(const char* prog, const char* flag,
                                           const char* text, const char* needs,
                                           UsageFn usage) {
  std::cerr << prog << ": flag " << flag << " needs " << needs << ", not '" << text
            << "'\n";
  usage(prog, std::cerr);
  std::exit(2);
}

/// The value of `flag` as an unsigned decimal count. Anything else (a
/// sign, trailing characters, no digits, a value past 2^64-1) is rejected.
inline std::uint64_t parse_count(const char* prog, const char* flag, const char* text,
                                 UsageFn usage) {
  std::uint64_t value = 0;
  const char* end = text + std::strlen(text);
  const auto [rest, error] = std::from_chars(text, end, value);
  if (error != std::errc() || rest != end) {
    reject_flag_value(prog, flag, text, "an unsigned integer", usage);
  }
  return value;
}

/// The value of `flag` as a finite decimal number ("1.5", "-2", "1e3").
/// Trailing characters, NaN, infinities and out-of-range values are
/// rejected.
inline double parse_real(const char* prog, const char* flag, const char* text,
                         UsageFn usage) {
  double value = 0.0;
  const char* end = text + std::strlen(text);
  const auto [rest, error] = std::from_chars(text, end, value);
  if (error != std::errc() || rest != end || !std::isfinite(value)) {
    reject_flag_value(prog, flag, text, "a finite number", usage);
  }
  return value;
}

/// parse_real() restricted to a probability in [0, 1].
inline double parse_probability(const char* prog, const char* flag, const char* text,
                                UsageFn usage) {
  const double value = parse_real(prog, flag, text, usage);
  if (value < 0.0 || value > 1.0) {
    reject_flag_value(prog, flag, text, "a probability in [0, 1]", usage);
  }
  return value;
}

}  // namespace aqueduct::harness
