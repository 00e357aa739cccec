// Seeded mutation tests of the liberty, Verilog and SPICE parsers:
// truncated, byte-flipped and huge-number (NaN, ±inf, overflowing
// counts) mutants of the golden inputs (tests/golden/golden.{lib,v})
// and of the SPICE decks of tests/test_spice_parser.cpp must each
// either parse or throw util::Error — never crash, never throw anything
// else.  Like every suite this runs in the ASan/UBSan job, which turns
// an out-of-bounds read or an absurd allocation into a failure.

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
#include "spice/parser.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace lb = waveletic::liberty;
namespace nl = waveletic::netlist;
namespace sp = waveletic::spice;
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

TEST(ParserMutants, SpiceMutantsParseOrThrowUtilError) {
  // The decks of tests/test_spice_parser.cpp: sources (dc, pwl, pulse),
  // continuation lines, comments, models and MOSFETs, flat and nested
  // subcircuits, and a .tran card.
  const std::vector<std::string> decks = {
      "* simple divider\nv1 top 0 dc 1.0\nr1 top mid 1k\nr2 mid 0 3k\n",
      "c1 a 0 4.8f\nr1 a 0 8.5\n",
      "v1 in 0 pwl(0 0, 1n 1.2, 2n 0)\nr1 in 0 1k\n",
      "v1 in 0 pulse(0 1.2 1n 0.1n 0.1n 2n 5n)\nr1 in 0 1k\n",
      "v1 in 0 pwl(0 0\n+ 1n 1.2\n+ 2n 0)\nr1 in 0 1k\n",
      "* full-line comment\nr1 a 0 100 ; trailing comment\n\n"
      "r2 a 0 100 $ dollar comment\n",
      ".subckt divider top bottom\nr1 top mid 1k\nr2 mid bottom 1k\n.ends\n"
      "v1 a 0 dc 2.0\nx1 a 0 divider\nx2 a 0 divider\n",
      ".subckt leaf a b\nr1 a b 2k\n.ends\n.subckt pair x y\nxl x m leaf\n"
      "xr m y leaf\n.ends\nv1 in 0 dc 1.0\nxp in 0 pair\n",
      "r1 a 0 1\n.tran 1p 5n method=be\n",
      "* transistor-level inverter with explicit caps\n"
      ".model n1 nmos (vth=0.35 alpha=1.3 kc=600 kv=0.9 lambda=0.05)\n"
      ".model p1 pmos (vth=0.32 alpha=1.3 kc=270 kv=0.9 lambda=0.05)\n"
      ".subckt inv in out vdd\nmp out in vdd vdd p1 w=1.04u\n"
      "mn out in 0 0 n1 w=0.52u\ncg in 0 1.5f\ncd out 0 1.0f\n.ends\n"
      "vdd vdd 0 dc 1.2\nvin in 0 pwl(0 0 0.9n 0 1.05n 1.2)\n"
      "x1 in out vdd inv\ncl out 0 10f\n.tran 1p 3n\n",
  };
  MutantCounts total;
  for (size_t d = 0; d < decks.size(); ++d) {
    ASSERT_NO_THROW((void)sp::parse_deck(decks[d])) << "deck " << d;
    const auto counts = run_mutants(
        decks[d], 0x5b1ce000ull + d, 200,
        [](std::string_view t) { return sp::parse_deck(t); },
        "spice deck " + std::to_string(d));
    total.parsed += counts.parsed;
    total.errors += counts.errors;
  }
  EXPECT_GT(total.parsed, 0);
  EXPECT_GT(total.errors, 0);
}
