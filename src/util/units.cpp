#include "util/units.hpp"

#include <array>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace waveletic::util {
namespace {

struct Suffix {
  std::string_view text;
  double scale;
};

// Longest-match order: "meg"/"mil" must be tested before "m".
constexpr std::array<Suffix, 12> suffixes{{
    {"meg", 1e6},
    {"mil", 25.4e-6},
    {"t", 1e12},
    {"g", 1e9},
    {"k", 1e3},
    {"m", 1e-3},
    {"u", 1e-6},
    {"n", 1e-9},
    {"p", 1e-12},
    {"f", 1e-15},
    {"a", 1e-18},
    {"z", 1e-21},
}};

bool iequal_prefix(std::string_view text, std::string_view prefix) {
  if (text.size() < prefix.size()) return false;
  for (size_t i = 0; i < prefix.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(text[i])) != prefix[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool try_parse_eng(std::string_view text, double& out) noexcept {
  // Trim surrounding whitespace.
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  if (text.empty()) return false;

  // Numeric prefix (std::from_chars handles "1e-9" style exponents).
  double value = 0.0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin) return false;

  std::string_view rest(ptr, static_cast<size_t>(end - ptr));
  double scale = 1.0;
  if (!rest.empty()) {
    for (const auto& s : suffixes) {
      if (iequal_prefix(rest, s.text)) {
        scale = s.scale;
        rest.remove_prefix(s.text.size());
        break;
      }
    }
    // Remaining characters must be a plain unit name (letters only),
    // e.g. the "F" of "100fF" or "s" of "150ps"; "Ohm" etc.
    for (char c : rest) {
      if (!std::isalpha(static_cast<unsigned char>(c))) return false;
    }
  }
  // from_chars accepts "nan"/"inf"/"infinity", and a finite mantissa
  // can still overflow once scaled ("1e305meg"): no SI quantity the
  // library reads may be non-finite.
  const double scaled = value * scale;
  if (!std::isfinite(scaled)) return false;
  out = scaled;
  return true;
}

double parse_eng(std::string_view text) {
  double out = 0.0;
  require(try_parse_eng(text, out), "malformed engineering number: '", text,
          "'");
  return out;
}

std::string format_eng(double value, std::string_view unit, int digits) {
  if (value == 0.0 || !std::isfinite(value)) {
    std::ostringstream os;
    os << value;
    if (!unit.empty()) os << unit;
    return os.str();
  }
  struct Band {
    double scale;
    std::string_view suffix;
  };
  static constexpr std::array<Band, 9> bands{{
      {1e12, "T"},
      {1e9, "G"},
      {1e6, "M"},
      {1e3, "k"},
      {1.0, ""},
      {1e-3, "m"},
      {1e-6, "u"},
      {1e-9, "n"},
      {1e-12, "p"},
  }};
  const double mag = std::fabs(value);
  double scale = 1e-15;
  std::string_view suffix = "f";
  for (const auto& b : bands) {
    if (mag >= b.scale * 0.9999999) {
      scale = b.scale;
      suffix = b.suffix;
      break;
    }
  }
  std::ostringstream os;
  os.precision(digits);
  os << value / scale << suffix << unit;
  return os.str();
}

std::string format_ps(double seconds, int decimals) {
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(decimals);
  os << seconds / 1e-12;
  return os.str();
}

}  // namespace waveletic::util
