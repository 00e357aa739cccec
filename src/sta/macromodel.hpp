#pragma once

/// \file macromodel.hpp
/// Hierarchical timing macro-models — block interface characterization.
///
/// Flat propagation of noisy waveforms hits a memory/time wall long
/// before production design sizes: every sweep point re-walks the whole
/// levelized graph even though most of it is unchanged context around
/// the block under analysis.  Following Li/Chen/Schlichtmann's timing
/// model extraction (PAPERS.md, arxiv 1705.04976) and hierarchical SSTA
/// (arxiv 1705.04975), this layer characterizes a block of the design
/// into a *macro-model*: port-to-port delay/slew NLDM tables over an
/// input-slew × output-load grid (the same grid shape
/// charlib::characterize_cell fits single cells on) plus a noise-
/// transfer sensitivity per interface arc, so a noise bump annotated on
/// a net inside one block still perturbs the blocks downstream of it.
///
/// The extracted BlockModel converts to an ordinary liberty::Cell
/// (BlockModel::to_cell()): the hierarchical engine in hiergraph.hpp
/// instantiates abstracted blocks as single instances of that cell, and
/// the existing levelized engine evaluates their arcs through the
/// standard NLDM table-lookup path — no waveform fitting happens inside
/// an abstracted block, because its interior nets no longer exist.
///
/// Accuracy contract (docs/HIER_GUIDE.md spells it out in full):
///  - at extraction grid points, a macro arc reproduces the flat
///    engine's port-to-port delay/slew bitwise at interior grid points
///    (bilinear interpolation with frac = 0) and to ≤ 1 ulp at the last
///    grid row/column (frac = 1.0 lerp);
///  - between grid points, values are bilinearly interpolated — the
///    standard NLDM accuracy model;
///  - timing inside the one block expanded flat is bitwise identical to
///    the fully-flat engine (per-vertex in-edge fold order is
///    instance-local), which tests/test_sta_hier.cpp enforces at
///    multiple thread counts.

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "wave/waveform.hpp"

namespace waveletic::sta {

/// Extraction knobs of extract_block_model().
struct BlockModelOptions {
  /// Input-slew grid axis [s] of every extracted table.  Empty selects
  /// the charlib::CharGrid default characterization slews.
  std::vector<double> slews;
  /// Output-load grid axis [F] of every extracted table.  Empty selects
  /// the charlib::CharGrid default x1-drive loads.
  std::vector<double> loads;
  /// Name of the synthesized macro cell (BlockModel::to_cell()).
  std::string name = "BLOCK";
  /// Interior nets (beyond the always-characterized input-port nets) to
  /// probe for noise-transfer sensitivity — typically the block's
  /// coupling-prone nets a generated sweep would annotate.
  std::vector<std::string> noise_nets;
  /// Probe-bump peak as a fraction of the library nominal voltage; the
  /// sensitivity is the observed output-arrival push-out divided by
  /// this amplitude [s/V].
  double noise_amplitude_fraction = 0.4;
  /// Polarity of the probe bump's victim transition.
  wave::Polarity noise_polarity = wave::Polarity::kFalling;
  /// Sample count of the synthesized probe waveform.
  size_t waveform_samples = 512;
  /// Characterization jobs in flight at once (1 = serial, ≤ 0 = the
  /// hardware concurrency).  Each (input port, output load) grid column
  /// and each noise probe is one job on a serial forked engine, so the
  /// model is bitwise identical at any value.
  int threads = 1;
};

/// One port-to-port timing arc of a macro-model: NLDM delay/transition
/// tables over the extraction grid, evaluated by the standard engine
/// table-lookup path once the model is instantiated as a cell.
struct BlockPortArc {
  /// Source (input) port name.
  std::string from_port;
  /// Destination (output) port name.
  std::string to_port;
  /// The synthesized liberty arc (sense kNonUnate: each valid input
  /// transition feeds both output transitions, matching how the flat
  /// block relaxes rise/fall paths into its output ports).
  liberty::TimingArc arc;
  /// Noise-transfer sensitivity of this interface arc [s/V]: output
  /// arrival push-out at `to_port` per volt of bump peak annotated on
  /// the `from_port` net, measured at the reference grid point.  Zero
  /// when the probe produced no measurable push-out.
  double noise_transfer = 0.0;
};

/// Noise-transfer sensitivity from one characterized net to one output
/// port — the record hiergraph uses to lower a bump annotated inside an
/// abstracted block onto the block's interface.
struct NoiseTransfer {
  /// Characterized net name (an input-port net or an interior
  /// BlockModelOptions::noise_nets entry).
  std::string net;
  /// Output port whose arrival the bump pushes out.
  std::string to_port;
  /// Arrival push-out per volt of bump peak [s/V], ≥ 0.
  double sensitivity = 0.0;
};

/// A characterized block: its interface ports, port-to-port NLDM arcs,
/// and noise-transfer sensitivities.  Produced by extract_block_model();
/// consumed by HierDesign (hiergraph.hpp) via to_cell().
struct BlockModel {
  /// One interface port of the block.
  struct PortSpec {
    /// Port name (equals the block-netlist port/net name).
    std::string name;
    /// True for input ports, false for output ports.
    bool is_input = false;
    /// Input-pin capacitance presented to the driving net [F]: the sum
    /// of the liberty input-pin capacitances on the port net (zero for
    /// output ports).
    double capacitance = 0.0;
  };

  /// Macro cell name (BlockModelOptions::name).
  std::string name;
  /// Interface ports, inputs first, in block-netlist port order.
  std::vector<PortSpec> ports;
  /// Port-to-port arcs; only structurally reachable (from, to) pairs
  /// are present.
  std::vector<BlockPortArc> arcs;
  /// Noise-transfer sensitivities for every characterized net (all
  /// input-port nets plus BlockModelOptions::noise_nets) × reachable
  /// output port.
  std::vector<NoiseTransfer> transfers;
  /// Extraction grid axes the tables were sampled on.
  std::vector<double> slews;
  /// Output-load grid axis [F] (see slews).
  std::vector<double> loads;

  /// Synthesizes the macro liberty cell: one input pin per input port
  /// (carrying its capacitance), one output pin per output port
  /// (carrying the port's arcs).  Add the cell to a Library *copy* that
  /// outlives any engine built on it — the engine stores raw arc
  /// pointers into the library.
  [[nodiscard]] liberty::Cell to_cell() const;

  /// Sensitivity from `net` to `to_port` [s/V]; 0 when the pair was not
  /// characterized (or not reachable).
  [[nodiscard]] double transfer(const std::string& net,
                                const std::string& to_port) const noexcept;
};

/// Characterizes `block` against `lib` into a BlockModel: for every
/// (input port, output load) a forked engine drives that single input
/// across the slew grid and reads every reachable output port's arrival
/// (→ delay table: the input is driven at arrival 0) and slew
/// (→ transition table); a reference-point engine (all inputs at the
/// mid-grid slew, all outputs at the mid-grid load) gives the base
/// arrivals, and a fork of it per characterized net annotates a probe
/// bump and reads the output-arrival push-out (the noise-transfer
/// sensitivities).  The grid columns and probes run as independent
/// jobs (BlockModelOptions::threads at a time), each writing only its
/// own samples, so the result is deterministic at any thread count.
/// Options are checked before any characterization: std::invalid_argument
/// names a grid axis value that is not finite, positive and strictly
/// increasing, an unknown noise net, a noise_amplitude_fraction outside
/// (0, 1], or fewer than 2 waveform_samples.
[[nodiscard]] BlockModel extract_block_model(
    const netlist::Netlist& block, const liberty::Library& lib,
    const BlockModelOptions& options = {});

/// Carves the sub-netlist induced by `instances` (names into `design`)
/// out of the design: kept instances keep their cells and connections; a
/// net driven outside but consumed inside becomes an input port, a net
/// driven inside and consumed outside (or exported by the design)
/// becomes an output port, and purely interior nets stay interior.  The
/// result is a standalone netlist (validate()-clean) ready for
/// extract_block_model().  Throws std::invalid_argument on unknown
/// instance names or when the carve has no ports.
[[nodiscard]] netlist::Netlist carve_block(const netlist::Netlist& design,
                                           const liberty::Library& lib,
                                           std::span<const std::string> instances,
                                           const std::string& block_name = "block");

}  // namespace waveletic::sta
