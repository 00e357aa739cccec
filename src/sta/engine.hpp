#pragma once

/// \file engine.hpp
/// Mini static-timing-analysis engine.
///
/// Vertices are pins ("u1/A", "u1/Y") and top-level ports ("a");
/// edges are cell timing arcs (NLDM delay/slew lookup, rise/fall aware,
/// unateness respected) and net arcs (driver → sinks, optional lumped
/// parasitic delay).  Forward propagation computes worst arrival and
/// slew per (vertex, transition); backward propagation computes
/// required times and slack; the critical path is recovered from
/// predecessor links.
///
/// Crosstalk integration (the paper's use case): a net may be annotated
/// with a *noisy waveform*.  At each gate input on that net the engine
/// replaces the propagated ramp with Γeff computed by a pluggable
/// equivalent-waveform technique (default SGDP), exactly the flow the
/// paper proposes for commercial STA.  The noiseless input ramp is the
/// propagated (arrival, slew); the noiseless output is synthesized from
/// the receiving gate's NLDM response, so no extra library
/// characterization is needed — the paper's compatibility claim.
///
/// Propagation is *levelized*: topological levels are computed once at
/// construction and stored on the graph.  Every vertex in a level
/// depends only on strictly lower levels, so a level's vertices can be
/// processed in parallel; each vertex folds its incoming edges in a
/// fixed order, which makes results bitwise-identical at any thread
/// count.  Only levels wider than one chunk (kLevelChunk vertices) are
/// dispatched; narrower ones cost less inline than a pool round trip.
/// The timing state lives in a separate TimingState object, so a
/// prepared engine can evaluate many (noise scenario × corner) points
/// concurrently through the const, reentrant evaluation path.  There
/// is one full-graph routine, evaluate() (chunk-gated level-parallel
/// when given a pool), used by run(), sweep baselines and service
/// rebuilds, and one delta fold, which re-propagates a dirty cone on
/// top of its corner baseline: evaluate_delta() runs it on a copy of
/// the baseline (full-state sweep points, service edits), endpoint-only
/// sweeps run it in place (see sweep.hpp).
///
/// Handle-based API: names are resolved ONCE to PinId / NetId / PortId
/// handles (pin(), net(), port()), and the primary overloads of every
/// constraint setter and result accessor take handles — they index
/// dense arrays, no string hashing anywhere on a resolved path.  The
/// string overloads are thin resolve-then-forward wrappers.  Noise
/// annotations live in a dense NetId-indexed table that
/// compile_edge_annotations() turns, once per run or sweep, into a
/// per-net-edge pointer array, so propagate_net_edge() performs ZERO
/// map lookups.

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/method.hpp"
#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/ids.hpp"
#include "util/error.hpp"
#include "wave/kernels.hpp"
#include "wave/waveform.hpp"

namespace waveletic::util {
class ThreadPool;
}

namespace waveletic::sta {

class GammaCache;
struct NoiseScenario;        // sweep.hpp
struct SweepSpec;            // sweep.hpp
class SweepResult;           // sweep.hpp
struct GeneratedSweepSpec;   // scengen.hpp
class GeneratedSweepResult;  // scengen.hpp

enum class RiseFall { kRise = 0, kFall = 1 };

[[nodiscard]] constexpr RiseFall flip(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? RiseFall::kFall : RiseFall::kRise;
}
[[nodiscard]] const char* to_string(RiseFall rf) noexcept;

/// Timing state of one (vertex, transition).
struct PinTiming {
  double arrival = -std::numeric_limits<double>::infinity();
  double slew = 0.0;
  double required = std::numeric_limits<double>::infinity();
  bool valid = false;  ///< reachable from a constrained input

  [[nodiscard]] double slack() const noexcept { return required - arrival; }
};

struct PathStep {
  std::string pin;
  RiseFall rf = RiseFall::kRise;
  double arrival = 0.0;
};

/// A noisy-waveform annotation on a net; `key` is a content hash used
/// to memoize Γeff fits (annotations with equal keys must be equal).
struct NoiseAnnotation {
  wave::Waveform waveform;
  wave::Polarity polarity = wave::Polarity::kFalling;
  uint64_t key = 0;
};

/// Per-vertex derived timing (both transitions + critical-path links).
struct VertexTiming {
  PinTiming timing[2];  // indexed by RiseFall
  int critical_pred[2] = {-1, -1};
  RiseFall critical_pred_rf[2] = {RiseFall::kRise, RiseFall::kRise};
};

/// The complete timing state of one analysis (one sweep point).
/// Separate from the engine so N points can be evaluated over the
/// same prepared graph concurrently, each with its own state.
class TimingState {
 public:
  TimingState() = default;
  explicit TimingState(size_t vertices) : v_(vertices) {}

  [[nodiscard]] size_t size() const noexcept { return v_.size(); }
  [[nodiscard]] VertexTiming& operator[](size_t i) noexcept { return v_[i]; }
  [[nodiscard]] const VertexTiming& operator[](size_t i) const noexcept {
    return v_[i];
  }
  void reset(size_t vertices) { v_.assign(vertices, VertexTiming{}); }

 private:
  std::vector<VertexTiming> v_;
};

class StaEngine {
 public:
  /// Both netlist and library must outlive the engine, and the netlist
  /// must not be modified afterwards (handles index its net/port order).
  StaEngine(const netlist::Netlist& nl, const liberty::Library& lib);
  ~StaEngine();  // out of line: ThreadPool is forward-declared

  // -- handle resolution ---------------------------------------------------
  // Resolve once, then run dense.  All three throw util::Error for
  // unknown names, naming the offending string and the nearest known
  // names.  A handle is only valid on the engine that minted it;
  // passing a stale/foreign/default handle to any accessor throws.

  /// Handle to a pin ("u1/A") or port ("y") vertex.
  [[nodiscard]] PinId pin(const std::string& name) const;
  /// Non-throwing pin lookup: the handle, or an invalid PinId
  /// (!valid()) when the name is unknown.  For probing callers (e.g.
  /// the scenario-space builder walking nets whose pins may not all be
  /// timing vertices); prefer pin() where absence is a bug.
  [[nodiscard]] PinId find_pin(const std::string& name) const noexcept;
  /// Handle to a net.
  [[nodiscard]] NetId net(const std::string& name) const;
  /// Handle to a top-level port.
  [[nodiscard]] PortId port(const std::string& name) const;

  [[nodiscard]] const std::string& name(PinId pin) const;
  [[nodiscard]] const std::string& name(NetId net) const;
  [[nodiscard]] const std::string& name(PortId port) const;

  /// The liberty library the engine analyzes against (the constructor
  /// argument; outlives the engine by contract).
  [[nodiscard]] const liberty::Library& library() const noexcept {
    return *library_;
  }

  // -- constraints -------------------------------------------------------
  /// Arrival + slew applied to both transitions of an input port.
  void set_input(PortId port, double arrival, double slew);
  void set_input(PortId port, RiseFall rf, double arrival, double slew);
  void set_input(const std::string& port, double arrival, double slew);
  void set_input(const std::string& port, RiseFall rf, double arrival,
                 double slew);
  /// Extra load on an output port [F].
  void set_output_load(PortId port, double cap);
  void set_output_load(const std::string& port, double cap);
  /// Required (latest allowed) arrival at an output port.
  void set_required(PortId port, double time);
  void set_required(const std::string& port, double time);
  /// Lumped net parasitics: extra capacitive load on the driver and a
  /// wire delay added to every sink arrival (e.g. the Elmore delay from
  /// interconnect::RcTree).
  void set_net_parasitics(NetId net, double cap, double delay);
  void set_net_parasitics(const std::string& net, double cap, double delay);

  /// Engine-level corner (derate) applied by run(); sweep() points
  /// override it.  Default: nominal (no derate).
  void set_corner(Corner corner);
  void clear_corner();
  [[nodiscard]] const Corner* corner() const noexcept {
    return corner_ ? &*corner_ : nullptr;
  }

  // -- crosstalk hooks ----------------------------------------------------
  /// Technique used at noisy nets (defaults to SGDP).
  void set_noise_method(std::unique_ptr<core::EquivalentWaveformMethod> m);
  [[nodiscard]] const core::EquivalentWaveformMethod& noise_method()
      const noexcept {
    return *noise_method_;
  }
  /// Annotates a net with the noisy waveform observed at its sinks for
  /// the transition of the given polarity.  Stored in a dense
  /// NetId-indexed table (one slot per net).
  void annotate_noisy_net(NetId net, wave::Waveform waveform,
                          wave::Polarity polarity);
  void annotate_noisy_net(const std::string& net, wave::Waveform waveform,
                          wave::Polarity polarity);
  /// Removes the annotation on one net (no-op when the net is clean) —
  /// the ECO-service counterpart of annotate_noisy_net().
  void clear_noisy_net(NetId net);
  void clear_noisy_net(const std::string& net);
  /// Removes all noisy-net annotations (scenario loops re-annotate).
  void clear_noisy_nets();
  /// The annotation on `net`, or null when the net is clean.
  [[nodiscard]] const NoiseAnnotation* noisy_net(NetId net) const;
  [[nodiscard]] const NoiseAnnotation* noisy_net(const std::string& net) const;
  [[nodiscard]] size_t noisy_net_count() const noexcept {
    return noisy_net_count_;
  }

  // -- analysis ------------------------------------------------------------
  /// Number of worker threads run() may use (≤ 0 selects the hardware
  /// concurrency; default 1).  Only levels wider than kLevelChunk go to
  /// the pool (see evaluate()), so on graphs without such levels run()
  /// stays serial at any setting.
  void set_threads(int threads);

  /// Vertices per pool task of a level-parallel evaluate().  A level
  /// is dispatched only when it spans more than one chunk; a narrower
  /// level folds inline, because a dispatch costs more than its work.
  static constexpr size_t kLevelChunk = 1024;

  /// Runs forward (arrival) and backward (required) propagation under
  /// the engine-level annotations and corner.
  void run();

  /// Sweeps the cross product of spec.corners × spec.scenarios over
  /// this engine: one evaluate() baseline per corner, then every point
  /// as a delta against it (defined in sweep.cpp; include sweep.hpp for
  /// SweepSpec/SweepResult).  Runs on the engine's own worker pool,
  /// sized by spec.threads.
  [[nodiscard]] SweepResult sweep(const SweepSpec& spec);

  /// Streams a lazily generated scenario space (feasibility-filtered
  /// cross product of coupling pairs × alignments × strengths) through
  /// the sweep pipeline in bounded chunks — endpoint-only storage, one
  /// chunk of scenarios resident at a time (defined in scengen.cpp;
  /// include scengen.hpp for GeneratedSweepSpec/GeneratedSweepResult).
  /// All chunks of one call share one Γeff memo.
  [[nodiscard]] GeneratedSweepResult sweep(const GeneratedSweepSpec& spec);

  /// Timing of a pin/port.  Handle overload is the primary; the string
  /// overload resolves and forwards.  Throws for unknown names or
  /// foreign handles, or when run() has not been called.
  [[nodiscard]] const PinTiming& timing(PinId pin, RiseFall rf) const;
  [[nodiscard]] const PinTiming& timing(const std::string& pin,
                                        RiseFall rf) const;
  /// Worst slack over output ports (the analysis must have run).
  [[nodiscard]] double worst_slack() const;
  /// Critical path: backtracked predecessor chain of the worst-slack
  /// endpoint, source first.
  [[nodiscard]] std::vector<PathStep> worst_path() const;
  /// Multi-line human-readable summary.
  [[nodiscard]] std::string report() const;

  /// Number of graph vertices (pins + ports); for tests.
  [[nodiscard]] size_t vertex_count() const noexcept {
    return vertex_names_.size();
  }
  /// Name of vertex `v` (diagnostics; 0 ≤ v < vertex_count()).
  [[nodiscard]] const std::string& vertex_name(size_t v) const {
    return vertex_names_.at(v);
  }
  /// Number of net arcs in the prepared graph (the length of a compiled
  /// per-edge annotation table).
  [[nodiscard]] size_t net_edge_count() const noexcept {
    return net_edges_.size();
  }

  // -- reentrant point-evaluation path -------------------------------------
  // A prepared engine is immutable during evaluation, so many sweep
  // points can be evaluated concurrently over the same graph, each with
  // its own TimingState.  run() is evaluate() on the engine's own state;
  // sweep() drives evaluate() for its corner baselines and the delta
  // path for its points.

  /// Inputs of one evaluation.  `edge_noise` is a compiled per-net-edge
  /// annotation pointer array (compile_edge_annotations(); null = no
  /// noise anywhere) — propagation indexes it, it never searches;
  /// `corner` is the derate point (null = nominal) and `corner_key` its
  /// Corner::key() (0 when null), folded into Γeff memo keys; `method`
  /// is the Γeff technique (must be reentrant — all built-in techniques
  /// are); `cache` optionally memoizes Γeff fits across points/threads.
  /// Γeff fits draw their scratch from the running thread's
  /// util::thread_scratch() arena, so a warmed thread propagates
  /// allocation-free; results never depend on which thread fits.
  struct EvalContext {
    const NoiseAnnotation* const* edge_noise = nullptr;
    const Corner* corner = nullptr;
    uint64_t corner_key = 0;
    const core::EquivalentWaveformMethod* method = nullptr;
    GammaCache* cache = nullptr;
  };

  /// Compiles the effective annotation of every net edge into a dense
  /// pointer array of net_edge_count() entries: the engine-level table,
  /// overlaid by `overlay`'s entries when given (the scenario wins on
  /// nets both annotate).  The returned pointers alias the engine's
  /// table and the overlay scenario — both must outlive the evaluation.
  [[nodiscard]] std::vector<const NoiseAnnotation*> compile_edge_annotations(
      const NoiseScenario* overlay = nullptr) const;

  /// A no-op kept for compatibility.  Net loads are always current:
  /// construction fills them and every setter that changes one
  /// (set_output_load(), set_net_parasitics(), copy_config_from())
  /// refreshes exactly the nets it touches, so a constructed engine is
  /// ready for const evaluation at any time.
  void prepare() {}

  /// Topological levels, computed once at construction: levels()[0] are
  /// sources; every vertex depends only on strictly lower levels.
  [[nodiscard]] const std::vector<std::vector<int>>& levels() const noexcept {
    return levels_;
  }
  /// Topological level of each vertex (levels() flattened per vertex).
  [[nodiscard]] const std::vector<int>& vertex_levels() const noexcept {
    return vertex_level_;
  }

  /// Resets `state` and applies the input/required constraints.
  void init_state(TimingState& state) const;
  /// Folds all incoming edges of vertex `v` (fixed order → deterministic).
  /// Requires every lower-level vertex of `state` to be final.
  void forward_vertex(int v, TimingState& state, const EvalContext& ctx) const;
  /// Propagates required times backwards through the outgoing edges of
  /// `v`.  Requires every higher-level vertex of `state` to be final.
  void backward_vertex(int v, TimingState& state) const;
  /// Full forward + backward sweep of one point into `state`: the one
  /// full-graph routine (run(), sweep baselines, service rebuilds) and
  /// the test oracle every other path is checked against.
  /// With a `pool`, each level wider than kLevelChunk is split into
  /// contiguous kLevelChunk-vertex chunks that run as pool tasks;
  /// narrower levels run inline.  Every vertex folds its in-edges in a
  /// fixed order after all of its predecessors, so the result is
  /// bitwise identical at any thread count.
  void evaluate(TimingState& state, const EvalContext& ctx,
                util::ThreadPool* pool = nullptr) const;

  // -- baseline + delta propagation ----------------------------------------
  // The paper's central observation: a noise bump perturbs timing only
  // through the fanout cone of the victim net.  A sweep therefore
  // computes ONE nominal TimingState per corner and derives each
  // scenario point from it, re-propagating only the scenario's dirty
  // cone — bitwise identical to full propagation, because every dirty
  // vertex still folds its fixed-order in-edges exactly once and every
  // clean vertex keeps a value that full propagation would reproduce.

  /// The per-scenario dirty sets of baseline + delta propagation,
  /// computed once on the graph layer and shared by every corner of the
  /// scenario (the cone is a pure function of the annotated nets).
  struct DeltaPlan {
    /// Dirty vertices — the transitive fanout cone of the scenario's
    /// annotated nets (sink vertices of their net edges, closed over
    /// out-edges) — sorted by (topological level, vertex): a valid
    /// serial forward-propagation order.
    std::vector<int> forward;
    /// Required-time recompute set: the transitive fanin closure of
    /// `forward` (which it includes), sorted by (descending level,
    /// vertex): a valid serial backward-propagation order.  Arrivals
    /// change only inside the cone, but required times bleed upstream
    /// of it.
    std::vector<int> backward;
    /// Endpoint ordinals (indices into endpoint_ports()) whose vertex
    /// is dirty: the only endpoints whose timing can differ from the
    /// corner baseline.  Empty means every endpoint summary of the
    /// scenario equals the baseline exactly.
    std::vector<int32_t> endpoints;
    /// Graph size the plan was computed for (validation).
    size_t num_vertices = 0;
  };
  /// Computes the dirty-cone plan of `scenario`.  Throws util::Error
  /// when the scenario annotates an unknown net (naming scenario and
  /// net).  A scenario with no entries yields an empty plan: its point
  /// IS the baseline.
  [[nodiscard]] DeltaPlan delta_plan(const NoiseScenario& scenario) const;

  /// Generalized dirty-seed description of a constraint/netlist edit
  /// batch — the edit-class → dirty-cone mapping of the incremental
  /// service (see docs/SERVICE_GUIDE.md).  All ordinals index this
  /// engine's net/port orders; delta_plan(EditSeeds) validates them.
  struct EditSeeds {
    /// Nets whose capacitive load changed (output-load retarget,
    /// parasitic cap edit, sink pin-cap change): dirties every cell
    /// arc driving the net plus every noisy-sink synthesis reading it.
    std::vector<int32_t> load_nets;
    /// Nets whose wire delay changed (parasitic delay edit): dirties
    /// the net's sink vertices.
    std::vector<int32_t> delay_nets;
    /// Nets whose noise annotation changed (annotate or clear):
    /// dirties the net's sink vertices — the scenario-delta rule.
    std::vector<int32_t> noise_nets;
    /// Input-port ordinals whose arrival/slew constraint changed:
    /// dirties the port vertex (and thus its fanout cone).
    std::vector<int32_t> arrival_ports;
    /// Output-port ordinals whose required time changed: joins the
    /// backward (required-recompute) closure and the endpoint list
    /// without dirtying any arrival.
    std::vector<int32_t> required_ports;
    /// Extra forward-dirty vertices (structural edits: every pin of a
    /// retyped instance, a rerouted sink).
    std::vector<int> vertices;
  };
  /// Computes the dirty-cone plan of an edit batch: forward = fanout
  /// closure of every arrival-affecting seed; backward = fanin closure
  /// of the forward set ∪ the required-edit port vertices.  Bitwise
  /// contract: evaluate_delta() of the plan against a pre-edit
  /// baseline equals a from-scratch evaluate() under the post-edit
  /// configuration.  Throws util::Error on out-of-range ordinals or
  /// direction-mismatched ports.
  [[nodiscard]] DeltaPlan delta_plan(const EditSeeds& seeds) const;

  // -- copy-on-write forking (the incremental-service substrate) -----------
  /// A configuration-level copy sharing this engine's immutable graph:
  /// O(config tables) instead of O(V + E), with handles minted by
  /// either engine interchangeable (same graph tag).  The fork copies
  /// constraints, parasitics, annotations, loads, corner and thread
  /// count, clones the noise method, and starts unanalyzed with its
  /// own empty state and pool.
  [[nodiscard]] std::unique_ptr<StaEngine> fork() const;
  /// Copies `other`'s configuration (constraints, loads, parasitics,
  /// annotations, corner, method, threads) onto this engine across a
  /// REBUILD — `other` may be prepared on a different Graph as long as
  /// `other`'s net order is a prefix of this engine's (edits may only
  /// append nets — the service's ordinal-stability contract) and the
  /// port orders are identical.  Appended nets get default parasitics
  /// and no annotation; vertex-keyed constraints are remapped through
  /// port ordinals.  Throws when the net/port axes differ.
  void copy_config_from(const StaEngine& other);
  /// Liveness token released at destruction; SweepResult/TimingView
  /// watch it through weak_ptr and throw instead of dangling.
  [[nodiscard]] std::shared_ptr<const void> liveness() const noexcept {
    return liveness_;
  }

  /// Derives one full-state scenario point from a corner baseline:
  /// copies `baseline` into `state`, then runs the forward fold every
  /// delta path shares — reset the plan's dirty vertices to their
  /// initial constraints, fold them in level order under `ctx` (whose
  /// edge_noise table must be the scenario overlay the plan was
  /// computed for) — and finally resets and re-folds required times
  /// over the plan's backward set.  Bitwise identical to evaluate()
  /// with the same context: clean vertices keep baseline values, which
  /// full propagation would reproduce, and dirty vertices fold the same
  /// fixed-order in-edges against them.  Endpoint-only sweeps run the
  /// same forward fold in place on a per-worker copy of the baseline
  /// and skip the copy and the backward fold (see sweep.hpp).
  void evaluate_delta(TimingState& state, const TimingState& baseline,
                      const DeltaPlan& plan, const EvalContext& ctx) const;

  /// Evaluates many full-state scenario points as deltas against
  /// per-point corner baselines: point p runs evaluate_delta() of
  /// *baselines[p] and *plans[p] under contexts[p] into states[p].
  /// Points are independent and their dirty worklists unbalanced, so
  /// they run dynamically scheduled on the pool
  /// (ThreadPool::parallel_for_dynamic).  Results are bitwise identical
  /// to evaluate() with the same contexts at any thread count.  Throws
  /// util::Error naming the point when a baseline or plan pointer is
  /// null.
  void evaluate_points_delta(
      std::span<TimingState> states, std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans,
      util::ThreadPool* pool = nullptr) const;

  // -- lane-block grouping (perfbench probes only) -------------------------
  // No propagation path uses these: perfbench's traced sta.lanes.*
  // probes do, and they go when those probes are retired.

  /// One group of compatible sweep points: up to `width` points (same
  /// baseline, same corner, plan content equal or merged into a
  /// cone-superset union plan).
  struct LaneBlock {
    /// Indices into the call's point spans, grouped in first-seen
    /// order; size 1..width.
    std::vector<uint32_t> points;
    /// The plan covering every point of the block: the points' shared
    /// plan, or the (level, vertex)-merged union of their plans.
    const DeltaPlan* plan = nullptr;
    /// Owns `plan` when it is a merged union (null when `plan` aliases
    /// a caller plan).
    std::shared_ptr<const DeltaPlan> owned_plan;
  };

  /// Groups compatible points into lane blocks of at most `width`
  /// lanes: points qualify for the same block when they share a
  /// baseline pointer and corner/method/cache identity, and their
  /// plans have equal content (edge-noise tables may differ).
  /// Sub-width leftovers sharing a (baseline, corner) are merged under
  /// a union plan.
  /// Deterministic: block membership is a pure function of the inputs
  /// in first-seen order.
  [[nodiscard]] std::vector<LaneBlock> group_lane_blocks(
      std::span<const EvalContext> contexts,
      std::span<const TimingState* const> baselines,
      std::span<const DeltaPlan* const> plans, int width) const;

  /// Result accessors against an external state (sweep/service results).
  [[nodiscard]] const PinTiming& timing_in(const TimingState& state,
                                           PinId pin, RiseFall rf) const;
  [[nodiscard]] const PinTiming& timing_in(const TimingState& state,
                                           const std::string& pin,
                                           RiseFall rf) const;
  [[nodiscard]] double worst_slack_in(const TimingState& state) const;
  [[nodiscard]] std::vector<PathStep> worst_path_in(
      const TimingState& state) const;

  // -- endpoints -----------------------------------------------------------
  /// Output-port ordinals in port order: the endpoint axis that
  /// endpoint-only sweep results summarize over.  Invariant: an
  /// output-port vertex is never the source of an edge (net edges start
  /// at input ports and instance outputs, cell arcs at instance
  /// inputs), so its required time is exactly its set_required()
  /// constraint — no backward fold can move it.  Endpoint-only sweeps
  /// rely on this to skip the required-time pass.
  [[nodiscard]] const std::vector<int32_t>& endpoint_ports() const noexcept {
    return endpoint_ports_;
  }

  /// The critical endpoint of a state: worst slack over constrained
  /// output-port transitions, or (when nothing is constrained) the
  /// latest arrival.  `endpoint` indexes endpoint_ports(); -1 when no
  /// endpoint transition is valid.  Deterministic: ties keep the first
  /// endpoint in port order.  worst_path_in() backtracks from exactly
  /// this endpoint.
  struct WorstEndpoint {
    int32_t endpoint = -1;
    RiseFall rf = RiseFall::kRise;
    bool constrained = false;
    double slack = std::numeric_limits<double>::infinity();
    double arrival = -std::numeric_limits<double>::infinity();
  };
  [[nodiscard]] WorstEndpoint worst_endpoint_in(
      const TimingState& state) const;

 private:
  // Edges carry structure only; per-net loads and wire delays live in
  // the engine's mutable tables (net_loads_, net_parasitics_) so forks
  // can share one immutable Graph while editing loads independently.
  struct CellArcEdge {
    int from = -1;  // instance input pin vertex
    int to = -1;    // instance output pin vertex
    const liberty::TimingArc* arc = nullptr;
    int32_t out_net = -1;  // net the arc's output pin drives (ordinal)
  };

  struct NetEdge {
    int from = -1;
    int to = -1;
    int32_t net = -1;  // net ordinal (NetId::index)
    const liberty::Pin* sink_pin = nullptr;   // liberty pin at the sink
    const liberty::Cell* sink_cell = nullptr;
    int32_t sink_out_net = -1;  // net the sink gate's output drives
  };

  /// One rise/fall input constraint of an input port.
  struct InputConstraint {
    double arrival = 0.0;
    double slew = 0.0;
    bool set = false;
  };

  /// A top-level port, with its vertex resolved once at construction.
  struct PortRec {
    std::string name;
    int vertex = -1;
    netlist::PortDirection direction = netlist::PortDirection::kInput;
  };

  /// The immutable structure layer: everything derived purely from
  /// (netlist, library) topology.  Built once by make_graph() and held
  /// through shared_ptr<const Graph>; engine forks share ONE Graph, so
  /// a copy-on-write snapshot costs O(config tables), not O(V + E).
  /// Handles minted by any fork are interchangeable — they all carry
  /// the same tag and index the same vertex/net/port orders.
  struct Graph {
    uint32_t tag = 0;  ///< handle tag shared by every fork
    std::vector<std::string> vertex_names;
    std::unordered_map<std::string, int> vertex_index;
    std::vector<std::string> sorted_vertex_names;
    std::vector<PortRec> ports;
    std::vector<CellArcEdge> cell_edges;
    std::vector<NetEdge> net_edges;
    std::vector<std::vector<uint32_t>> edges_of_net;
    /// Net ordinal → cell arcs driving it (an arc's delay reads its
    /// output net's load): the load-edit dirty-seed table.
    std::vector<std::vector<uint32_t>> arcs_of_net;
    /// Net ordinal → net edges whose SINK gate drives it (noisy-edge
    /// Γeff synthesis reads that output load at the sink).
    std::vector<std::vector<uint32_t>> sink_load_edges_of_net;
    std::vector<std::vector<std::pair<bool, uint32_t>>> in_edges;
    std::vector<std::vector<std::pair<bool, uint32_t>>> out_edges;
    std::vector<std::vector<int>> levels;
    std::vector<int> vertex_level;
    std::vector<int32_t> endpoint_ports;
    /// Vertex → endpoint ordinal (index into endpoint_ports), -1 for
    /// every vertex that is not an output port: plans list their dirty
    /// endpoints from their cone instead of scanning every endpoint.
    std::vector<int32_t> endpoint_of_vertex;
    /// Net ordinal → sum of the input-pin caps on the net, folded in
    /// (instance, pin-map) order from 0.0: the structural part of the
    /// net's load (see net_load()).
    std::vector<double> net_pin_cap;
    /// Net ordinal → ordinal of the output port named after the net,
    /// or -1 (the port whose set_output_load() adds to the net's load).
    std::vector<int32_t> net_output_port;
    /// Port ordinal → ordinal of the net an output port loads, or -1
    /// (input ports, and output ports without a net).
    std::vector<int32_t> port_net;
  };
  /// Builds the structure layer (validate + vertices + edges + levels)
  /// — the expensive part of construction that forks skip.
  [[nodiscard]] static std::shared_ptr<const Graph> make_graph(
      const netlist::Netlist& nl, const liberty::Library& lib);
  static void levelize(Graph& g);
  struct ForkTag {};
  StaEngine(const StaEngine& other, ForkTag);

  [[nodiscard]] int find_vertex(const std::string& name) const;
  /// Index checks behind every handle accessor; throw on foreign/stale
  /// handles and return the dense index.
  [[nodiscard]] int check(PinId pin) const;
  [[nodiscard]] int check(NetId net) const;
  [[nodiscard]] int check(PortId port) const;
  [[nodiscard]] util::Error unknown_vertex_error(
      const std::string& name) const;
  /// The load of net `ord`: its sink pin caps + parasitic cap + output
  /// port load, folded in that order — the one load formula every
  /// setter refreshes net_loads_ through.
  [[nodiscard]] double net_load(size_t ord) const noexcept;
  /// The engine's worker pool resized to `threads` (≤ 0 selects the
  /// hardware concurrency).  run(), sweep() and the generated sweep
  /// share it.
  util::ThreadPool& worker_pool(int threads);
  /// sweep(SweepSpec) with a caller-owned Γeff memo: the generated
  /// sweep hands every chunk the same one.  The result's cache_stats()
  /// reads empty; the public overload calls this with a fresh memo and
  /// hands it to the result.
  [[nodiscard]] SweepResult sweep(const SweepSpec& spec, GammaCache& memo);
  /// Shared closure step of both delta_plan overloads: `seeds` are the
  /// forward (arrival-dirty) seed vertices, `back_seeds` extra
  /// backward-only seeds; both may repeat.  The fanout closure of
  /// `seeds` and, when `with_backward`, the fanin closure of that cone
  /// plus `back_seeds` become the sorted worklists.  Marks live in a
  /// per-thread array that the plan clears entry by entry, so a plan
  /// costs O(cone), however large the graph.
  [[nodiscard]] DeltaPlan finish_plan(std::span<const int> seeds,
                                      std::span<const int> back_seeds,
                                      bool with_backward) const;
  /// delta_plan(scenario), without the backward closure when
  /// `with_backward` is false: the plan of an endpoint-only sweep
  /// point, which reads no required time the cone could move (see
  /// endpoint_ports()).
  [[nodiscard]] DeltaPlan scenario_plan(const NoiseScenario& scenario,
                                        bool with_backward) const;
  /// The forward half of evaluate_delta(): resets the plan's dirty
  /// vertices of `state` — which must hold the corner baseline at
  /// every vertex the plan reads — to their initial constraints, then
  /// folds them in level order under `ctx`.
  void fold_forward(TimingState& state, const DeltaPlan& plan,
                    const EvalContext& ctx) const;
  /// init_state() for a single vertex: default timing plus the input /
  /// required constraints of `v` (delta propagation resets dirty
  /// vertices through this so they match a fresh init_state bitwise).
  void reset_vertex(TimingState& state, int v) const;
  /// Resets only the required times of `v` (the backward-delta reset).
  void reset_required(TimingState& state, int v) const;
  void propagate_cell_edge(const CellArcEdge& e, TimingState& state,
                           const EvalContext& ctx) const;
  void propagate_net_edge(size_t edge_index, TimingState& state,
                          const EvalContext& ctx) const;
  /// The Γeff replacement step at a noisy net sink: gates on
  /// (annotation, sink pin, polarity, arc), then rewrites (arrival,
  /// slew) via cache or fit.
  void noisy_fit(const NetEdge& e, const NoiseAnnotation* noisy, int rf_i,
                 const EvalContext& ctx, double& arrival, double& slew) const;
  static void relax(TimingState& state, int to, RiseFall to_rf, double arrival,
                    double slew, int from, RiseFall from_rf);

  const netlist::Netlist* netlist_;
  const liberty::Library* library_;
  /// The shared immutable structure layer; initialized first so the
  /// read aliases below may bind to it in their default initializers.
  std::shared_ptr<const Graph> graph_;
  uint32_t graph_tag_ = 0;  ///< == graph_->tag; carried by handles
  // Read aliases into *graph_, preserving the names the propagation
  // and accessor code has always used.  References make the engine
  // non-assignable, which is fine: engines live behind unique_ptr.
  const std::vector<std::string>& vertex_names_ = graph_->vertex_names;
  const std::unordered_map<std::string, int>& vertex_index_ =
      graph_->vertex_index;
  const std::vector<std::string>& sorted_vertex_names_ =
      graph_->sorted_vertex_names;
  const std::vector<PortRec>& ports_ = graph_->ports;
  const std::vector<CellArcEdge>& cell_edges_ = graph_->cell_edges;
  const std::vector<NetEdge>& net_edges_ = graph_->net_edges;
  const std::vector<std::vector<uint32_t>>& edges_of_net_ =
      graph_->edges_of_net;
  const std::vector<std::vector<std::pair<bool, uint32_t>>>& in_edges_ =
      graph_->in_edges;
  const std::vector<std::vector<std::pair<bool, uint32_t>>>& out_edges_ =
      graph_->out_edges;
  const std::vector<std::vector<int>>& levels_ = graph_->levels;
  const std::vector<int>& vertex_level_ = graph_->vertex_level;
  const std::vector<int32_t>& endpoint_ports_ = graph_->endpoint_ports;

  std::map<int, std::array<InputConstraint, 2>> input_constraints_;
  std::map<int, double> required_;
  std::vector<double> output_loads_;  ///< by port ordinal (0 = none)
  /// Dense per-net tables indexed by NetId::index.
  std::vector<std::pair<double, double>> net_parasitics_;  ///< (cap, delay)
  /// Per-net capacitive load, net_load() of every net: filled at
  /// construction, refreshed per net by set_output_load() and
  /// set_net_parasitics() and in full by copy_config_from(), so it is
  /// always current and propagation reads it directly.
  std::vector<double> net_loads_;
  std::vector<std::optional<NoiseAnnotation>> net_annotations_;
  size_t noisy_net_count_ = 0;
  std::optional<Corner> corner_;
  std::unique_ptr<core::EquivalentWaveformMethod> noise_method_;
  /// Liveness token: results that point into this engine hold a
  /// weak_ptr to it and throw instead of dangling after destruction.
  std::shared_ptr<const char> liveness_ = std::make_shared<const char>('e');

  TimingState state_;  ///< default state written by run()
  int threads_ = 1;
  std::unique_ptr<util::ThreadPool> pool_;  ///< see worker_pool()
  bool analyzed_ = false;
};

}  // namespace waveletic::sta
