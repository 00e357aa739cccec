#pragma once

/// \file hiergraph.hpp
/// Hierarchical top-level timing graph: block instances carrying
/// macro-models, with one block under analysis expanded flat.
///
/// HierDesign stitches B copies of a characterized block
/// (netlist::stitch_blocks) into one top-level netlist where abstracted
/// copies are single instances of the BlockModel's synthesized liberty
/// cell and exactly one copy keeps its gate-level contents.  The
/// existing levelized StaEngine propagates the result unchanged: macro
/// arcs are ordinary NLDM arcs, so the "new arc kind" evaluates table
/// lookups through the standard cell-edge path instead of waveform
/// fits — there is nothing to fit inside an abstracted block because
/// its interior nets no longer exist.  Sweep cost therefore drops from
/// O(design) to O(block + interfaces): a stitched ≥1M flat-equivalent-
/// vertex design sweeps on one machine while the hierarchical graph
/// holds only copies × (ports + 1) macro vertices plus the expanded
/// block.
///
/// Accuracy contract (docs/HIER_GUIDE.md):
///  - timing inside the expanded copy is bitwise identical to the
///    fully-flat engine under StitchTopology::kParallel (enforced by
///    tests/test_sta_hier.cpp at 1/2/4 threads);
///  - timing through abstracted copies is table-interpolated (exact at
///    extraction grid points, bilinear between them);
///  - a bump annotated inside an abstracted copy is lowered onto its
///    interface by first-order sensitivity (lower_interior_bump).

#include <cstddef>
#include <memory>
#include <string>

#include "liberty/library.hpp"
#include "netlist/generators.hpp"
#include "netlist/netlist.hpp"
#include "sta/engine.hpp"
#include "sta/macromodel.hpp"
#include "sta/scengen.hpp"
#include "sta/sweep.hpp"

namespace waveletic::sta {

/// A stitched hierarchical design: owns the augmented library (base
/// library + the macro cell), the stitched netlist, and the StaEngine
/// analyzing it — in that order, so the engine's raw arc/netlist
/// pointers stay valid for its whole lifetime.  Move-only.
class HierDesign {
 public:
  /// Builds the design: copies `base_lib`, registers `model.to_cell()`
  /// in the copy, stitches `options.copies` copies of `block`
  /// (options.block_cell is overridden with the model's name so the
  /// abstracted instances resolve), and constructs the engine.
  /// `block` must be the netlist `model` was extracted from.
  [[nodiscard]] static HierDesign build(const netlist::Netlist& block,
                                        const liberty::Library& base_lib,
                                        const BlockModel& model,
                                        netlist::StitchOptions options);

  /// The engine over the stitched graph — constrain ports, run() and
  /// query it exactly like a flat engine.
  [[nodiscard]] StaEngine& engine() noexcept { return *engine_; }
  /// Const engine access (queries on a finished run()).
  [[nodiscard]] const StaEngine& engine() const noexcept { return *engine_; }
  /// The stitched top-level netlist.
  [[nodiscard]] const netlist::Netlist& netlist() const noexcept {
    return *netlist_;
  }
  /// The augmented library (base + macro cell) the engine reads.
  [[nodiscard]] const liberty::Library& library() const noexcept {
    return *library_;
  }
  /// The macro-model the abstracted copies instantiate.
  [[nodiscard]] const BlockModel& model() const noexcept { return model_; }
  /// Stitch options the design was built with (block_cell resolved).
  [[nodiscard]] const netlist::StitchOptions& stitch_options() const noexcept {
    return stitch_;
  }

  /// Flat-equivalent timing-vertex count — what the flat engine would
  /// levelize (netlist::stitched_flat_vertex_count); the bench headline
  /// size, never materialized.
  [[nodiscard]] size_t stitched_vertex_count() const noexcept {
    return flat_vertices_;
  }
  /// Actual vertex count of the hierarchical graph.
  [[nodiscard]] size_t hier_vertex_count() const noexcept {
    return engine_->vertex_count();
  }
  /// Index of the expanded copy, or negative when every copy is
  /// abstracted.
  [[nodiscard]] int expanded_copy() const noexcept { return stitch_.expanded; }
  /// Vertex-name prefix of the expanded copy ("u<k>/"), empty when no
  /// copy is expanded.
  [[nodiscard]] std::string expanded_prefix() const;

  /// Sweeps corners × scenarios over the hierarchical graph —
  /// identical semantics to StaEngine::sweep(SweepSpec).
  [[nodiscard]] SweepResult sweep(const SweepSpec& spec) {
    return engine_->sweep(spec);
  }
  /// Streams a generated scenario space over the hierarchical graph —
  /// identical semantics to StaEngine::sweep(GeneratedSweepSpec).
  [[nodiscard]] GeneratedSweepResult sweep(const GeneratedSweepSpec& spec) {
    return engine_->sweep(spec);
  }

  /// Lowers a noise bump annotated on interior net `net` of abstracted
  /// copy `copy` onto that copy's interface: for every output port with
  /// a characterized transfer from `net`, the returned scenario
  /// re-annotates the macro's output net with a clean ramp pushed out
  /// by sensitivity × `amplitude` [V] from the current run() baseline —
  /// the first-order contract by which bumps inside one block still
  /// perturb downstream blocks.  Call run() first (the baseline
  /// arrivals/slews are read from the engine).  Throws
  /// std::invalid_argument when `copy` is out of range or expanded, or
  /// when `net` has no characterized transfer.
  [[nodiscard]] NoiseScenario lower_interior_bump(
      size_t copy, const std::string& net, double amplitude,
      wave::Polarity polarity = wave::Polarity::kFalling,
      size_t samples = 512) const;

 private:
  HierDesign() = default;

  // Destruction order (reverse of declaration): engine first, then the
  // netlist and library it points into.
  std::unique_ptr<liberty::Library> library_;
  std::unique_ptr<netlist::Netlist> netlist_;
  std::unique_ptr<StaEngine> engine_;
  BlockModel model_;
  netlist::StitchOptions stitch_;
  size_t flat_vertices_ = 0;
};

}  // namespace waveletic::sta
