#pragma once

/// \file units.hpp
/// Engineering-notation parsing/formatting and the unit conventions used
/// throughout the library.
///
/// Internal convention: strict SI — seconds, volts, amperes, ohms,
/// farads.  Anything leaving the library for a human (tables, logs,
/// Liberty files) goes through the formatters here or the Liberty
/// writer's unit scaling.

#include <string>
#include <string_view>

namespace waveletic::util {

/// Parses a SPICE/engineering-notation number such as "8.5", "4.8f",
/// "100fF", "1k", "2.2meg", "150ps", "0.5n".  Suffix matching is
/// case-insensitive; a trailing unit name (F, s, V, Ohm, Hz, A, m) after
/// the scale suffix is ignored.  Throws util::Error on malformed input,
/// including non-finite results ("nan", "inf", "1e305meg").
[[nodiscard]] double parse_eng(std::string_view text);

/// Returns true and sets `out` instead of throwing.
[[nodiscard]] bool try_parse_eng(std::string_view text, double& out) noexcept;

/// Formats a value with an engineering suffix and the given unit, e.g.
/// format_eng(4.8e-15, "F") == "4.8fF".  `digits` is significant digits.
[[nodiscard]] std::string format_eng(double value, std::string_view unit = "",
                                     int digits = 4);

/// Convenience: format seconds as picoseconds with fixed decimals, e.g.
/// format_ps(1.5e-10) == "150.0".  Used by the paper-style tables that
/// report delays in ps.
[[nodiscard]] std::string format_ps(double seconds, int decimals = 1);

// Scale factors (multiply to convert into SI).
inline constexpr double femto = 1e-15;
inline constexpr double pico = 1e-12;
inline constexpr double nano = 1e-9;
inline constexpr double micro = 1e-6;
inline constexpr double milli = 1e-3;
inline constexpr double kilo = 1e3;
inline constexpr double mega = 1e6;
inline constexpr double giga = 1e9;

}  // namespace waveletic::util
