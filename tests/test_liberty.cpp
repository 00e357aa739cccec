// Liberty model/parser/writer tests: generic tree parsing, semantic
// mapping with unit scaling, NLDM interpolation properties, round-trip.

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "liberty/library.hpp"
#include "liberty/nldm.hpp"
#include "liberty/parser.hpp"
#include "liberty/writer.hpp"
#include "util/error.hpp"

namespace lb = waveletic::liberty;
namespace wu = waveletic::util;

namespace {

const char* kSmallLib = R"(
/* test library */
library (testlib) {
  time_unit : "1ns";
  capacitive_load_unit (1, pf);
  nom_voltage : 1.2;
  slew_lower_threshold_pct_rise : 10;
  slew_upper_threshold_pct_rise : 90;
  input_threshold_pct_rise : 50;

  lu_table_template (delay_template) {
    variable_1 : input_net_transition;
    variable_2 : total_output_net_capacitance;
    index_1 ("0.01, 0.1, 0.4");
    index_2 ("0.001, 0.01, 0.1");
  }

  cell (INVX1) {
    area : 1.0;
    pin (A) {
      direction : input;
      capacitance : 0.0016;
    }
    pin (Y) {
      direction : output;
      max_capacitance : 0.2;
      function : "!A";
      timing () {
        related_pin : "A";
        timing_sense : negative_unate;
        cell_rise (delay_template) {
          values ("0.02, 0.05, 0.30", \
                  "0.03, 0.06, 0.31", \
                  "0.06, 0.09, 0.34");
        }
        rise_transition (delay_template) {
          values ("0.02, 0.07, 0.50", \
                  "0.03, 0.08, 0.51", \
                  "0.08, 0.12, 0.55");
        }
        cell_fall (delay_template) {
          values ("0.015, 0.04, 0.25", \
                  "0.025, 0.05, 0.26", \
                  "0.05, 0.08, 0.29");
        }
        fall_transition (delay_template) {
          values ("0.015, 0.05, 0.40", \
                  "0.025, 0.06, 0.41", \
                  "0.06, 0.10, 0.45");
        }
      }
    }
  }
}
)";

}  // namespace

// ---------------------------------------------------------------------------
// Generic tree
// ---------------------------------------------------------------------------

TEST(LibertyTree, ParsesGroupsAttributesComplex) {
  const auto tree = lb::parse_liberty_tree(kSmallLib);
  EXPECT_EQ(tree.type, "library");
  ASSERT_FALSE(tree.args.empty());
  EXPECT_EQ(tree.args[0], "testlib");
  ASSERT_NE(tree.find_attribute("time_unit"), nullptr);
  EXPECT_EQ(tree.find_attribute("time_unit")->value, "1ns");
  ASSERT_NE(tree.find_complex("capacitive_load_unit"), nullptr);
  EXPECT_EQ(tree.find_complex("capacitive_load_unit")->values.size(), 2u);
  EXPECT_EQ(tree.children_of_type("cell").size(), 1u);
  EXPECT_EQ(tree.children_of_type("lu_table_template").size(), 1u);
}

TEST(LibertyTree, HandlesCommentsAndContinuations) {
  const auto tree = lb::parse_liberty_tree(
      "library (x) { // line comment\n"
      "  /* block\n     comment */\n"
      "  foo : 1; \\\n"
      "  bar : \"a b\";\n"
      "}\n");
  EXPECT_NE(tree.find_attribute("foo"), nullptr);
  EXPECT_EQ(tree.find_attribute("bar")->value, "a b");
}

TEST(LibertyTree, ErrorsOnBadSyntax) {
  EXPECT_THROW((void)lb::parse_liberty_tree("library (x) {"), wu::Error);
  EXPECT_THROW((void)lb::parse_liberty_tree("library (x) { foo : ; }"),
               wu::Error);
  EXPECT_THROW((void)lb::parse_liberty_tree("library (x) {} extra"),
               wu::Error);
  EXPECT_THROW((void)lb::parse_liberty_tree("library (x) { \"str\" }"),
               wu::Error);
}

TEST(LibertyTree, NumberListParsing) {
  const auto nums = lb::parse_number_list("0.01, 0.1,0.4  1.5");
  ASSERT_EQ(nums.size(), 4u);
  EXPECT_DOUBLE_EQ(nums[0], 0.01);
  EXPECT_DOUBLE_EQ(nums[3], 1.5);
  EXPECT_THROW((void)lb::parse_number_list("a b"), wu::Error);
}

// ---------------------------------------------------------------------------
// Semantic mapping
// ---------------------------------------------------------------------------

TEST(LibertySemantic, UnitsScaledToSi) {
  const auto lib = lb::parse_liberty(kSmallLib);
  EXPECT_EQ(lib.name, "testlib");
  EXPECT_DOUBLE_EQ(lib.time_unit, 1e-9);
  EXPECT_DOUBLE_EQ(lib.capacitance_unit, 1e-12);
  const auto& cell = lib.cell("INVX1");
  const auto* a = cell.find_pin("A");
  ASSERT_NE(a, nullptr);
  EXPECT_NEAR(a->capacitance, 1.6e-15, 1e-21);  // 0.0016 pF
  const auto& tmpl = *lib.find_template("delay_template");
  EXPECT_NEAR(tmpl.index_1[0], 0.01e-9, 1e-15);   // 0.01 ns
  EXPECT_NEAR(tmpl.index_2[2], 0.1e-12, 1e-18);   // 0.1 pF
}

TEST(LibertySemantic, ThresholdsAndVoltage) {
  const auto lib = lb::parse_liberty(kSmallLib);
  EXPECT_DOUBLE_EQ(lib.nom_voltage, 1.2);
  EXPECT_DOUBLE_EQ(lib.slew_lower, 0.1);
  EXPECT_DOUBLE_EQ(lib.slew_upper, 0.9);
  EXPECT_DOUBLE_EQ(lib.delay_threshold, 0.5);
}

TEST(LibertySemantic, ArcLookupAtGridPoint) {
  const auto lib = lb::parse_liberty(kSmallLib);
  const auto& y = lib.cell("INVX1").output_pin();
  const auto* arc = y.find_arc("A");
  ASSERT_NE(arc, nullptr);
  EXPECT_EQ(arc->sense, lb::TimingSense::kNegativeUnate);
  // Exact grid point: in_slew = 0.1ns, load = 0.01pF -> 0.06ns.
  const auto rise = arc->rise(0.1e-9, 0.01e-12);
  EXPECT_NEAR(rise.delay, 0.06e-9, 1e-15);
  EXPECT_NEAR(rise.out_slew, 0.08e-9, 1e-15);
  const auto fall = arc->fall(0.1e-9, 0.01e-12);
  EXPECT_NEAR(fall.delay, 0.05e-9, 1e-15);
}

TEST(LibertySemantic, NonFiniteTableValueRejected) {
  // A 1-D table (explicit index_1, no template) whose only defect is
  // its first entry: the finite control parses, "nan" must not.
  const auto lib_with = [](const std::string& values) {
    return "library (nanlib) {\n"
           "  time_unit : \"1ns\";\n"
           "  cell (INVX1) {\n"
           "    pin (A) { direction : input; capacitance : 0.0016; }\n"
           "    pin (Y) {\n"
           "      direction : output;\n"
           "      function : \"!A\";\n"
           "      timing () {\n"
           "        related_pin : \"A\";\n"
           "        timing_sense : negative_unate;\n"
           "        cell_rise (scalar) {\n"
           "          index_1 (\"0.01, 0.1\");\n"
           "          values (\"" + values + "\");\n"
           "        }\n"
           "      }\n"
           "    }\n"
           "  }\n"
           "}\n";
  };
  EXPECT_NO_THROW((void)lb::parse_liberty(lib_with("0.5, 1")));
  try {
    (void)lb::parse_liberty(lib_with("nan, 1"));
    FAIL() << "a nan table value was accepted";
  } catch (const wu::Error& e) {
    EXPECT_NE(std::string(e.what()).find("nan"), std::string::npos)
        << e.what();
  }
}

TEST(LibertySemantic, CellAndPinLookupErrors) {
  const auto lib = lb::parse_liberty(kSmallLib);
  EXPECT_THROW((void)lib.cell("NOPE"), wu::Error);
  EXPECT_EQ(lib.find_cell("nope"), nullptr);
  EXPECT_NE(lib.find_cell("invx1"), nullptr);  // case-insensitive
  const auto& cell = lib.cell("INVX1");
  EXPECT_EQ(cell.find_pin("Z"), nullptr);
  EXPECT_EQ(cell.input_pins().size(), 1u);
  EXPECT_EQ(cell.output_pin().name, "Y");
}

// ---------------------------------------------------------------------------
// NLDM interpolation properties
// ---------------------------------------------------------------------------

TEST(Nldm, ExactAtAllCorners) {
  lb::NldmTable t({1.0, 2.0, 4.0}, {10.0, 20.0},
                  {1.0, 2.0, 3.0, 4.0, 5.0, 6.0});
  for (size_t i = 0; i < 3; ++i) {
    for (size_t j = 0; j < 2; ++j) {
      EXPECT_DOUBLE_EQ(t.lookup(t.index_1()[i], t.index_2()[j]),
                       t.value_at(i, j));
    }
  }
}

TEST(Nldm, BilinearMidpoint) {
  lb::NldmTable t({0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0, 2.0, 3.0});
  EXPECT_DOUBLE_EQ(t.lookup(0.5, 0.5), 1.5);
  EXPECT_DOUBLE_EQ(t.lookup(0.25, 0.75), 0.25 * 2.0 + 0.75);
}

TEST(Nldm, LinearExtrapolationOutsideGrid) {
  lb::NldmTable t({0.0, 1.0}, {0.0, 1.0}, {0.0, 1.0, 2.0, 3.0});
  // Planar table z = 2*x1 + x2 extends exactly.
  EXPECT_DOUBLE_EQ(t.lookup(2.0, 0.0), 4.0);
  EXPECT_DOUBLE_EQ(t.lookup(-1.0, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(t.lookup(0.0, 3.0), 3.0);
}

TEST(Nldm, OneDimensionalTable) {
  lb::NldmTable t({0.0, 1.0, 2.0}, {}, {5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(t.lookup(0.5), 6.0);
  EXPECT_DOUBLE_EQ(t.lookup(3.0), 11.0);  // extrapolated
}

TEST(Nldm, RejectsMalformedTables) {
  EXPECT_THROW(lb::NldmTable({1.0, 1.0}, {}, {0.0, 0.0}), wu::Error);
  EXPECT_THROW(lb::NldmTable({1.0, 2.0}, {1.0}, {0.0}), wu::Error);
  EXPECT_THROW(lb::NldmTable({}, {}, {}), wu::Error);
}

TEST(Nldm, MonotoneTablePreservedByInterpolation) {
  // Delay tables are monotone in load; interpolation must preserve that
  // along any scanline.
  lb::NldmTable t({0.01, 0.1, 0.4}, {0.001, 0.01, 0.1},
                  {0.02, 0.05, 0.30, 0.03, 0.06, 0.31, 0.06, 0.09, 0.34});
  double prev = -1.0;
  for (double load = 0.001; load <= 0.1; load += 0.001) {
    const double d = t.lookup(0.2, load);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(Nldm, LocateClampsToEdgeSegments) {
  const std::vector<double> axis{1.0, 2.0, 4.0};
  EXPECT_EQ(lb::locate(axis, 0.0).lo, 0u);
  EXPECT_LT(lb::locate(axis, 0.0).frac, 0.0);
  EXPECT_EQ(lb::locate(axis, 8.0).lo, 1u);
  EXPECT_GT(lb::locate(axis, 8.0).frac, 1.0);
  EXPECT_EQ(lb::locate(axis, 3.0).lo, 1u);
  EXPECT_NEAR(lb::locate(axis, 3.0).frac, 0.5, 1e-12);
}

// ---------------------------------------------------------------------------
// Round trip
// ---------------------------------------------------------------------------

TEST(LibertyRoundTrip, WriteThenParsePreservesEverything) {
  const auto lib = lb::parse_liberty(kSmallLib);
  const auto text = lb::to_liberty_string(lib);
  const auto lib2 = lb::parse_liberty(text);

  EXPECT_EQ(lib2.name, lib.name);
  EXPECT_DOUBLE_EQ(lib2.nom_voltage, lib.nom_voltage);
  ASSERT_EQ(lib2.cells.size(), lib.cells.size());
  const auto& y1 = lib.cell("INVX1").output_pin();
  const auto& y2 = lib2.cell("INVX1").output_pin();
  EXPECT_EQ(y2.function, y1.function);
  ASSERT_EQ(y2.arcs.size(), y1.arcs.size());
  const auto& a1 = y1.arcs[0];
  const auto& a2 = y2.arcs[0];
  EXPECT_EQ(a2.sense, a1.sense);
  ASSERT_EQ(a2.cell_rise.values().size(), a1.cell_rise.values().size());
  for (size_t i = 0; i < a1.cell_rise.values().size(); ++i) {
    EXPECT_NEAR(a2.cell_rise.values()[i], a1.cell_rise.values()[i],
                std::fabs(a1.cell_rise.values()[i]) * 1e-9 + 1e-18);
  }
  // Interpolated lookups agree everywhere, not just at corners.
  for (double slew : {0.02e-9, 0.15e-9, 0.35e-9}) {
    for (double load : {0.002e-12, 0.05e-12}) {
      EXPECT_NEAR(y2.arcs[0].rise(slew, load).delay,
                  y1.arcs[0].rise(slew, load).delay, 1e-15);
    }
  }
}

TEST(LibertyRoundTrip, MissingTablesStayMissing) {
  lb::Library lib;
  lb::Cell cell;
  cell.name = "TIE1";
  lb::Pin out;
  out.name = "Y";
  out.direction = lb::PinDirection::kOutput;
  out.function = "1";
  cell.pins.push_back(out);
  lib.add_cell(std::move(cell));
  const auto lib2 = lb::parse_liberty(lb::to_liberty_string(lib));
  EXPECT_TRUE(lib2.cell("TIE1").output_pin().arcs.empty());
}

TEST(Library, DuplicateCellRejected) {
  lb::Library lib;
  lb::Cell c;
  c.name = "X";
  lib.add_cell(c);
  EXPECT_THROW(lib.add_cell(c), wu::Error);
}
