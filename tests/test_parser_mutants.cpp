// Seeded mutation tests of the liberty and Verilog parsers: truncated,
// byte-flipped and huge-number mutants of the golden inputs
// (tests/golden/golden.{lib,v}) must each either parse or throw
// util::Error — never crash, never throw anything else.  Like every
// suite this runs in the ASan/UBSan job, which turns an out-of-bounds
// read or an absurd allocation into a failure.

#include <gtest/gtest.h>

#include <cctype>
#include <exception>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "liberty/parser.hpp"
#include "netlist/verilog.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace wu = waveletic::util;

namespace {

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(WAVELETIC_TEST_DIR) + "/golden/" + name,
                   std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Numbers spliced over a digit run: overflowing, non-finite, huge
/// counts and negative sizes.
constexpr std::string_view kHugeNumbers[] = {
    "1e308", "-1e309", "1e999", "nan", "inf", "-inf",
    "18446744073709551616", "4294967296", "2147483647", "-2147483648",
    "99999999999999999999999999", "0x7fffffffffffffff", "1e-400", "-0"};

struct MutantCounts {
  int parsed = 0;
  int errors = 0;
};

/// Runs `parse` on `text`: a parse or a util::Error is fine, anything
/// else fails the test naming the mutant.
template <class Parse>
void parse_or_error(std::string_view text, const Parse& parse,
                    const std::string& what, MutantCounts& counts) {
  try {
    (void)parse(text);
    ++counts.parsed;
  } catch (const wu::Error&) {
    ++counts.errors;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << " threw a non-util::Error exception: "
                  << e.what();
  } catch (...) {
    ADD_FAILURE() << what << " threw a non-exception object";
  }
}

/// `n` seeded mutants of each kind — truncation, 1–4 byte flips, a
/// huge-number splice — fed to `parse`.
template <class Parse>
MutantCounts run_mutants(const std::string& text, uint64_t seed, int n,
                         const Parse& parse, const std::string& file) {
  wu::Rng rng(seed);
  MutantCounts counts;
  std::vector<size_t> digit_runs;  // start offsets of digit runs
  for (size_t i = 0; i < text.size(); ++i) {
    if (std::isdigit(static_cast<unsigned char>(text[i])) != 0 &&
        (i == 0 || std::isdigit(static_cast<unsigned char>(text[i - 1])) ==
                       0)) {
      digit_runs.push_back(i);
    }
  }
  for (int k = 0; k < n; ++k) {
    const size_t cut = rng.below(text.size() + 1);
    parse_or_error(std::string_view(text).substr(0, cut), parse,
                   file + " truncated at " + std::to_string(cut), counts);

    std::string flipped = text;
    std::ostringstream where;
    for (uint64_t f = 0, nf = 1 + rng.below(4); f < nf; ++f) {
      const size_t at = rng.below(flipped.size());
      flipped[at] = static_cast<char>(flipped[at] ^
                                      static_cast<char>(1 + rng.below(255)));
      where << " " << at;
    }
    parse_or_error(flipped, parse, file + " byte-flipped at" + where.str(),
                   counts);

    if (digit_runs.empty()) continue;
    const size_t start = digit_runs[rng.below(digit_runs.size())];
    size_t end = start;
    while (end < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[end])) != 0) {
      ++end;
    }
    const auto huge = kHugeNumbers[rng.below(std::size(kHugeNumbers))];
    std::string spliced = text;
    spliced.replace(start, end - start, huge);
    parse_or_error(spliced, parse,
                   file + " with " + std::string(huge) + " at " +
                       std::to_string(start),
                   counts);
  }
  return counts;
}

}  // namespace

TEST(ParserMutants, LibertyMutantsParseOrThrowUtilError) {
  const std::string text = read_golden("golden.lib");
  ASSERT_FALSE(text.empty());
  ASSERT_NO_THROW((void)lb::parse_liberty(text));  // the seed parses
  const auto counts = run_mutants(
      text, 0x11b5eedull, 1000,
      [](std::string_view t) { return lb::parse_liberty(t); }, "golden.lib");
  // Both outcomes occur, so the mutants reach past the first token.
  EXPECT_GT(counts.parsed, 0);
  EXPECT_GT(counts.errors, 0);
}

TEST(ParserMutants, VerilogMutantsParseOrThrowUtilError) {
  const std::string text = read_golden("golden.v");
  ASSERT_FALSE(text.empty());
  ASSERT_NO_THROW((void)nl::parse_verilog(text));
  const auto counts = run_mutants(
      text, 0x5eed5eedull, 1000,
      [](std::string_view t) { return nl::parse_verilog(t); }, "golden.v");
  EXPECT_GT(counts.parsed, 0);
  EXPECT_GT(counts.errors, 0);
}
