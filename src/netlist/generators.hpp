#pragma once

/// \file generators.hpp
/// Synthetic netlist generators shared by tests, benches and demos.

#include "netlist/netlist.hpp"

namespace waveletic::netlist {

/// `width` parallel 3-inverter chains (INVX1, INVX1, INVX4 per chain,
/// nets c<i>_1..c<i>_3 from input a<i>) folded pairwise through
/// NAND2X1 stages into a single output `y`; odd chains pass through an
/// INVX1.  Wide levels exercise intra-level parallelism, the fold
/// exercises multi-input relax ordering.  Requires the VCL013 cell set.
[[nodiscard]] Netlist make_chain_tree(int width);

/// Seed-deterministic random layered DAG over the fast VCL013 cell set
/// (INVX1/INVX4/NAND2X1): `inputs` primary inputs feed
/// `layers` layers of `layer_width` random gates; each gate draws its
/// 1–2 source signals from the already-created ones (biased towards
/// recent layers, so the graph is deep), every input is consumed at
/// least once, and every signal nothing consumes becomes an output
/// port.  Varied fanouts, reconvergence and multiple output cones make
/// this the determinism torture shape.  Uses a private LCG — the same
/// seed builds the same netlist on every platform.
[[nodiscard]] Netlist make_random_dag(uint64_t seed, int inputs, int layers,
                                      int layer_width);

/// How stitch_blocks() wires the tiled block copies together.
enum class StitchTopology {
  /// Every copy's inputs/outputs are top-level ports — copies are
  /// independent cones.  Interface net loads fold identically to the
  /// flat design, so hierarchical-vs-flat timing inside the expanded
  /// copy is bitwise identical (the contract tests/test_sta_hier.cpp
  /// enforces).
  kParallel,
  /// Copy k's inputs are driven by copy k-1's outputs (round-robin when
  /// the counts differ); only copy 0's inputs and the last copy's
  /// outputs surface as top-level ports.  Interface loads fold in a
  /// different float-sum order than flat, so agreement is approximate.
  kChain,
};

/// Options of stitch_blocks() / stitch_blocks_flat().
struct StitchOptions {
  /// Number of block copies tiled into the design.
  size_t copies = 4;
  /// Wiring between copies.
  StitchTopology topology = StitchTopology::kParallel;
  /// Index of the one copy left expanded flat (the "block under
  /// analysis"); negative abstracts every copy.  Ignored by
  /// stitch_blocks_flat(), which expands all copies.
  int expanded = 0;
  /// Macro cell name abstracted copies instantiate — must match the
  /// BlockModel/to_cell() name registered in the engine's library.
  std::string block_cell = "BLOCK";
};

/// Tiles `options.copies` copies of `block` into one hierarchical
/// design: copy k's instances and interior nets are prefixed "u<k>/";
/// its ports become "u<k>/<port>" nets (top-level ports or chain nets
/// per the topology).  Abstracted copies collapse to ONE instance
/// "u<k>.blk" of `options.block_cell` whose pins are the block's ports
/// (the ".blk" suffix keeps macro pin vertices "u<k>.blk/<port>" out of
/// the "u<k>/<port>" port/net namespace); the
/// expanded copy keeps its full gate-level contents.  The result is the
/// hierarchical testbench HierDesign (sta/hiergraph.hpp) analyzes.
[[nodiscard]] Netlist stitch_blocks(const Netlist& block,
                                    const StitchOptions& options);

/// The fully-flat oracle of stitch_blocks(): same tiling, same names,
/// but every copy expanded gate-level.  Feasible only at small copy
/// counts; the bitwise-agreement tests compare against this.
[[nodiscard]] Netlist stitch_blocks_flat(const Netlist& block,
                                         const StitchOptions& options);

/// Flat-equivalent timing-vertex count of a stitched design: copies ×
/// (block ports + Σ instance pins) + extra top chain nets — the size
/// the flat engine would have to levelize, used by the 1M-vertex bench
/// headline without ever materializing the flat graph.
[[nodiscard]] size_t stitched_flat_vertex_count(const Netlist& block,
                                                const StitchOptions& options);

}  // namespace waveletic::netlist
