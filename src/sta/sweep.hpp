#pragma once

/// \file sweep.hpp
/// The unified sweep surface: the cross product of noise scenarios ×
/// corner (derate) settings over one prepared engine.
///
/// A crosstalk sign-off sweeps many noise scenarios — aggressor
/// alignments, strengths, switching-window corners — and modern flows
/// sweep them *per library corner*.  Running each (scenario, corner)
/// point as its own engine run repeats the levelized walk N×M times.
/// StaEngine::sweep(SweepSpec) instead compiles the engine-level
/// annotations into one dense per-net-edge pointer table (each worker
/// overlays a point's scenario onto its own copy and restores exactly
/// the overlaid edges afterwards), and evaluates every point through
/// ONE path:
///
///  1. one clean baseline per corner — StaEngine::evaluate(), the
///     chunk-gated level-parallel full-graph routine (or
///     SweepSpec::corner_baselines when the caller already holds them);
///  2. every scenario point as a *delta* against its corner baseline —
///     re-propagating only the transitive fanout cone of its annotated
///     nets, the paper's observation that a noise bump perturbs timing
///     only through the victim's cone.  Every point runs the engine's
///     one forward delta fold, dynamically scheduled over the engine's
///     worker pool (ThreadPool::parallel_for_dynamic), since dirty
///     cones are unbalanced: a full-state point through
///     evaluate_delta() into its own TimingState, an endpoint-only
///     point in place (see below).
///
/// All points share a thread-safe Γeff memo (GammaCache) keyed on exact
/// inputs + the corner key, so fits recur at most once per distinct
/// (net edge, ramp, annotation, corner).  On top of the delta path,
/// SweepSpec::prune == PruneMode::kSafe orders points most-critical-
/// first by a conservative slack lower bound (worst baseline slack
/// inside the cone minus a push-out bound from the annotation
/// magnitudes) and early-outs points that provably cannot set the
/// sweep's worst slack — FRAME-style screening before exact analysis.
///
/// Determinism: points write disjoint results, each vertex folds
/// its in-edges in a fixed order after all of its predecessors, and
/// cache hits return bitwise what the fit would produce — so every
/// point is bitwise identical to a serial evaluate() of its (corner,
/// scenario), at any thread count.  Serial
/// evaluate() is the test oracle (tests/sta_test_util.hpp).
///
/// Result storage: the default keeps a full TimingState per point.  For
/// sweep-scale point counts (10k+), `endpoint_only = true` keeps only
/// {worst slack, critical endpoint, arrival at endpoints} per point —
/// far less memory: a point stores arrivals only for the endpoints in
/// its cone, the rest read one baseline row per corner — and evaluates
/// points in place: each worker copies each corner baseline once per
/// call, folds a point's cone forward on that copy, summarizes it and
/// restores the cone.  A summary reads only the cone's endpoints plus a
/// per-corner list of the worst baseline endpoints, so a point costs
/// O(cone + its endpoints), however large the graph.  Those points skip
/// the backward (required-time) closure and pass: an output port drives
/// no edge, so its required time is its constraint
/// (StaEngine::endpoint_ports()).

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "sta/engine.hpp"
#include "sta/gamma_cache.hpp"

namespace waveletic::noise {
struct CaseWaveforms;
}

namespace waveletic::sta {

/// One named noise scenario: per-net noisy-waveform annotations, stored
/// as a flat entry list (annotate() replaces an existing entry for the
/// same net).  During a sweep they overlay the engine-level dense
/// annotation table: engine annotations apply to every scenario, and a
/// scenario's own annotation wins on nets both touch — resolved once at
/// compile time into the per-edge pointer table, never during
/// propagation.
struct NoiseScenario {
  /// Scenario label carried into SweepResult::scenario_name() and
  /// reports (make_aggressor_scenario encodes net/alignment/strength).
  std::string name;

  /// One per-net annotation of the scenario.
  struct Entry {
    std::string net;             ///< annotated net name
    NoiseAnnotation annotation;  ///< noisy waveform + polarity
  };
  /// The annotations, one entry per distinct net (see annotate()).
  std::vector<Entry> entries;

  /// Annotates `net`; the memoization key is derived from the waveform
  /// content, so identical annotations across scenarios share Γeff fits.
  void annotate(const std::string& net, wave::Waveform waveform,
                wave::Polarity polarity);
  /// The annotation this scenario puts on `net`, or null.
  [[nodiscard]] const NoiseAnnotation* find(
      const std::string& net) const noexcept;
};

/// Builds a scenario modelling one aggressor coupling event on `net`:
/// the clean ramp of the victim transition (as propagated by a clean
/// run: `victim_arrival`/`victim_slew`) plus a Gaussian coupling bump.
/// `alignment` offsets the bump centre from the victim 50% crossing
/// [s]; `strength` is the bump peak [V] (the aggressor coupling
/// magnitude).  This is the synthetic stand-in for the golden
/// noise::NoiseRunner sweep, parameterized the same way (aggressor
/// alignment/strength).
[[nodiscard]] NoiseScenario make_aggressor_scenario(
    const std::string& net, double victim_arrival, double victim_slew,
    double vdd, wave::Polarity polarity, double alignment, double strength,
    size_t samples = 512);

/// Builds a scenario from a golden noise::NoiseRunner case: annotates
/// `net` with the simulated noisy waveform at the victim receiver input.
[[nodiscard]] NoiseScenario scenario_from_case(
    const std::string& net, const noise::CaseWaveforms& case_waveforms);

/// Scenario-pruning mode of a sweep (SweepSpec::prune).
enum class PruneMode : uint8_t {
  /// Evaluate every (corner, scenario) point.
  kOff = 0,
  /// Order points by a conservative per-point slack lower bound — the
  /// worst corner-baseline slack among the endpoints inside the
  /// scenario's fanout cone, minus a push-out bound derived from the
  /// annotation magnitudes against the corner baseline — and early-out
  /// points whose bound shows they cannot beat the worst slack seen so
  /// far.  The sweep-level worst_slack()/worst_point()/
  /// critical_endpoint() answers stay exact: a pruned point's true
  /// worst slack is strictly above the final worst, so the argmin
  /// (ties included) is always evaluated.  "Safe" is a margin-backed
  /// engineering guarantee (×3 on the waveform-envelope push-out,
  /// validated against unpruned sweeps in tests and monitored by
  /// PruneStats::min_bound_gap), not a formal proof — an adversarial
  /// library whose delay-vs-slew sensitivities compound past the
  /// margin could in principle defeat the bound.  Per-point accessors
  /// of pruned points throw, mirroring endpoint_only semantics;
  /// worst_slack_bound() works on every point.
  kSafe = 1,
};

/// Stable lowercase name of a PruneMode ("off" / "safe").
[[nodiscard]] const char* to_string(PruneMode mode) noexcept;

/// Counters of one sweep's baseline + delta / pruning machinery
/// (SweepResult::prune_stats()).
struct PruneStats {
  size_t points = 0;     ///< corners × scenarios
  size_t evaluated = 0;  ///< points actually propagated
  /// Points whose cone contains no endpoint: every endpoint summary
  /// equals the corner baseline, so they are recorded exactly without
  /// propagation (prune == kSafe with endpoint_only only — a
  /// full-state result materializes such points instead, since their
  /// in-cone internal vertices DO differ from the baseline).
  size_t reused = 0;
  /// Points whose bound proved they cannot set the worst slack; not
  /// propagated, per-point accessors throw.
  size_t pruned = 0;
  /// Mean |fanout cone| / vertices over the scenario axis.
  double dirty_vertex_fraction = 0.0;
  /// Bound tightness: mean and minimum of (exact worst slack − bound)
  /// over evaluated points [s].  A negative minimum would mean the
  /// bound was NOT conservative (asserted never to happen in tests).
  double mean_bound_gap = 0.0;
  /// Minimum of (exact worst slack − bound) over evaluated points [s].
  double min_bound_gap = 0.0;
};

/// Renders PruneStats with its canonical field names (points /
/// evaluated / reused / pruned / dirty_vertex_fraction /
/// mean_bound_gap / min_bound_gap) — the one formatting shared by the
/// examples, bench_runtime and docs/SWEEP_GUIDE.md, so docs and
/// binaries never drift.
[[nodiscard]] std::string format_prune_stats(const PruneStats& stats);

/// The cross product a sweep evaluates: every corner × every scenario.
struct SweepSpec {
  /// Corner/derate axis; empty selects one point — the engine-level
  /// corner if set, else nominal.
  std::vector<Corner> corners;
  /// Noise-scenario axis; empty selects one clean scenario (the
  /// engine-level annotations still apply).
  std::vector<NoiseScenario> scenarios;
  /// Size of the engine's worker pool for this sweep; ≤ 0 selects the
  /// hardware concurrency.  Results are bitwise identical at any count.
  int threads = 0;
  /// Technique override; null uses the engine's configured method.
  const core::EquivalentWaveformMethod* method = nullptr;
  /// Keep only {worst slack, critical endpoint, endpoint arrivals} per
  /// point instead of a full TimingState — far less result memory for
  /// 10k+-point sweeps, and each point folds in place at O(cone + its
  /// endpoints) cost.  Full-state accessors (state(), view(),
  /// timing(), critical_path()) then throw.
  bool endpoint_only = false;
  /// Scenario pruning (see PruneMode).
  PruneMode prune = PruneMode::kOff;
  /// Seed for the pruning pass's running worst slack [s].  Default +inf
  /// reproduces the self-contained behaviour; a streaming caller (the
  /// generated sweep) passes the worst slack observed in earlier chunks
  /// so later chunks prune against it from the start.  Exactness
  /// contract: the seed must be a slack actually attained by some
  /// already-evaluated point of the SAME streamed sweep — admission
  /// uses a strict `bound > worst_seen` test, so a point pruned by the
  /// seed has true worst slack ≥ bound > seed and can neither beat nor
  /// tie the global argmin.  Seeding with an arbitrary low value
  /// instead turns worst_point() into "worst among points at most that
  /// critical" (and may prune everything).  Ignored when prune ==
  /// PruneMode::kOff.
  double prune_seed_slack = std::numeric_limits<double>::infinity();
  /// External per-corner clean baselines: one TimingState per resolved
  /// corner (same order as `corners`), each the clean evaluate() of
  /// THIS engine under that corner with the same method and
  /// engine-level annotations this sweep uses.  The sweep then skips
  /// its own baseline pass — the streaming generated sweep computes
  /// baselines once per corner group and hands them to every chunk.
  /// Null (default) computes baselines internally.  Size or
  /// vertex-count mismatches throw util::Error.
  const std::vector<TimingState>* corner_baselines = nullptr;
};

class SweepResult;

/// Read-only window onto one sweep point.  Valid while the SweepResult
/// it came from (and the engine) are alive; accessors that reach into
/// the engine throw util::Error — instead of dangling — once the
/// engine has been destroyed (they watch its liveness() token).
class TimingView {
 public:
  /// Timing of (pin, transition) at this point, by handle.
  [[nodiscard]] const PinTiming& timing(PinId pin, RiseFall rf) const;
  /// Timing of (pin, transition) at this point, by hierarchical name.
  [[nodiscard]] const PinTiming& timing(const std::string& pin,
                                        RiseFall rf) const;
  /// Worst slack over this point's constrained endpoints.
  [[nodiscard]] double worst_slack() const;
  /// The point's critical path, input port to worst endpoint.
  [[nodiscard]] std::vector<PathStep> critical_path() const;
  /// The corner this point was evaluated under.
  [[nodiscard]] const Corner& corner() const noexcept { return *corner_; }
  /// Name of the point's noise scenario.
  [[nodiscard]] const std::string& scenario_name() const noexcept {
    return *scenario_name_;
  }
  /// The point's full TimingState (advanced/internal use).
  [[nodiscard]] const TimingState& state() const noexcept { return *state_; }

 private:
  friend class SweepResult;
  TimingView(const StaEngine* engine, std::weak_ptr<const void> liveness,
             const TimingState* state, const Corner* corner,
             const std::string* scenario_name) noexcept
      : engine_(engine), liveness_(std::move(liveness)), state_(state),
        corner_(corner), scenario_name_(scenario_name) {}

  /// Dereferences engine_ behind the liveness check: throws util::Error
  /// instead of dangling when the engine has been destroyed.
  [[nodiscard]] const StaEngine& live_engine() const;

  const StaEngine* engine_;
  std::weak_ptr<const void> liveness_;  ///< engine liveness token
  const TimingState* state_;
  const Corner* corner_;
  const std::string* scenario_name_;
};

/// All results of one sweep, indexed by flat point (corner-major:
/// point = corner * num_scenarios + scenario) or by (corner, scenario).
/// The engine that produced it must outlive it; accessors that reach
/// into the engine throw util::Error — instead of dangling — once the
/// engine has been destroyed (they watch its liveness() token).
/// Service queries avoid the hazard entirely: their results co-own the
/// snapshot (see sta/service.hpp).
///
/// Two storage modes (SweepSpec::endpoint_only):
///  - full (default): one TimingState per point; every accessor works.
///  - endpoint-only: per point only {worst slack, critical endpoint,
///    arrival at every endpoint × transition of its cone}, other
///    endpoints reading the corner baseline — the full-state
///    accessors (state(), view(), timing(), critical_path()) throw a
///    clear error; everything endpoint-level (worst_slack(),
///    worst_point(), critical_endpoint(), endpoint_arrival()) agrees
///    bitwise with full mode on the same spec.
///
/// Under SweepSpec::prune == PruneMode::kSafe a point can additionally
/// be *pruned* (its bound proved it cannot set the worst slack — no
/// timing was computed; per-point accessors throw, worst_slack_bound()
/// works) or — in endpoint-only mode — *reused* (its cone touches no
/// endpoint, so its endpoint summaries are the corner baseline's,
/// recorded exactly without propagation).  worst_point() skips pruned
/// points and stays exact; in a full-state result every surviving
/// point carries a full TimingState.
class SweepResult {
 public:
  SweepResult() = default;

  /// Corner-axis length of the sweep.
  [[nodiscard]] size_t num_corners() const noexcept {
    return corners_.size();
  }
  /// Scenario-axis length of the sweep.
  [[nodiscard]] size_t num_scenarios() const noexcept {
    return scenario_names_.size();
  }
  /// Total points = corners × scenarios.
  [[nodiscard]] size_t size() const noexcept {
    return corners_.size() * scenario_names_.size();
  }
  /// True when the result keeps only endpoint summaries per point.
  [[nodiscard]] bool endpoint_only() const noexcept {
    return endpoint_only_;
  }

  /// Flat index of (corner, scenario); throws when out of range.
  [[nodiscard]] size_t point(size_t corner, size_t scenario) const;

  // -- full-state accessors (throw in endpoint-only mode) ------------------
  /// Read-only view of one point, by flat index.
  [[nodiscard]] TimingView view(size_t point) const;
  /// Read-only view of one point, by (corner, scenario).
  [[nodiscard]] TimingView view(size_t corner, size_t scenario) const;

  /// The point's full TimingState (advanced/internal use).
  [[nodiscard]] const TimingState& state(size_t point) const;
  /// Timing of (pin, transition) at `point`, by handle.
  [[nodiscard]] const PinTiming& timing(size_t point, PinId pin,
                                        RiseFall rf) const;
  /// Timing of (pin, transition) at `point`, by hierarchical name.
  [[nodiscard]] const PinTiming& timing(size_t point, const std::string& pin,
                                        RiseFall rf) const;
  /// The point's critical path, input port to worst endpoint.
  [[nodiscard]] std::vector<PathStep> critical_path(size_t point) const;

  // -- endpoint-level accessors (work in both modes, bitwise equal) --------
  /// Worst slack of one point over its constrained endpoints.
  [[nodiscard]] double worst_slack(size_t point) const;

  /// The point with the smallest worst-slack over all (corner,
  /// scenario) pairs.
  struct WorstPoint {
    size_t point = 0;     ///< flat point index (corner-major)
    size_t corner = 0;    ///< corner ordinal of the worst point
    size_t scenario = 0;  ///< scenario ordinal of the worst point
    /// Exact worst slack of the sweep [s].
    double slack = std::numeric_limits<double>::infinity();
  };
  /// The sweep's worst point (ties resolve to the smallest flat index;
  /// pruned points are skipped — they provably cannot win).
  [[nodiscard]] WorstPoint worst_point() const;

  /// Endpoint axis: the engine's output ports, in port order.
  [[nodiscard]] size_t num_endpoints() const noexcept {
    return endpoint_names_.size();
  }
  /// Name of one endpoint (an output port), by endpoint ordinal.
  [[nodiscard]] const std::string& endpoint_name(size_t endpoint) const;
  /// Arrival of (endpoint, transition) at `point` (-inf when the
  /// transition never became valid).  An endpoint-only point stores
  /// arrivals only for the endpoints inside its fanout cone; every
  /// other endpoint reads the point's corner baseline row, which the
  /// result holds once per corner — the same bits, since a point moves
  /// no arrival outside its cone.
  [[nodiscard]] double endpoint_arrival(size_t point, size_t endpoint,
                                        RiseFall rf) const;
  /// The critical endpoint of a point: argmin slack over constrained
  /// endpoint transitions (endpoint = -1 when nothing was valid).
  struct CriticalEndpoint {
    int32_t endpoint = -1;          ///< endpoint ordinal; -1 = none valid
    RiseFall rf = RiseFall::kRise;  ///< critical transition
    /// Slack of that (endpoint, transition) [s].
    double slack = std::numeric_limits<double>::infinity();
  };
  /// The critical endpoint of one point (see CriticalEndpoint).
  [[nodiscard]] CriticalEndpoint critical_endpoint(size_t point) const;

  // -- pruning (SweepSpec::prune) ------------------------------------------
  /// The pruning mode the sweep ran under.
  [[nodiscard]] PruneMode prune_mode() const noexcept { return prune_; }
  /// True when `point` was pruned (no timing computed; per-point
  /// accessors throw for it).
  [[nodiscard]] bool pruned(size_t point) const;
  /// The conservative lower bound on `point`'s worst slack the pruning
  /// pass computed — available for every point, pruned or not (an
  /// evaluated point's exact worst_slack() is ≥ its bound).  Throws
  /// when the sweep ran with prune == PruneMode::kOff.
  [[nodiscard]] double worst_slack_bound(size_t point) const;
  /// Baseline + delta / pruning counters of the sweep.  Always
  /// populated: with pruning off, evaluated == points and the bound
  /// fields are zero.
  [[nodiscard]] const PruneStats& prune_stats() const noexcept {
    return prune_stats_;
  }

  /// Approximate owned bytes of result storage per point.  Full state:
  /// one TimingState (vertex_count() × sizeof(VertexTiming)).
  /// Endpoint-only: the point's own summary — worst slack, critical
  /// endpoint, an arrival offset and the (rise, fall) arrivals of the
  /// endpoints in its cone — plus its share of what the points share:
  /// the per-corner baseline arrival rows and the per-plan cone
  /// endpoint lists, divided over all points.
  [[nodiscard]] size_t result_bytes_per_point() const noexcept;

  /// The corner at ordinal `i` of the corner axis.
  [[nodiscard]] const Corner& corner(size_t i) const;
  /// Name of the scenario at ordinal `i` of the scenario axis.
  [[nodiscard]] const std::string& scenario_name(size_t i) const;

  /// Γeff memo statistics of the sweep.
  [[nodiscard]] GammaCache::Stats cache_stats() const noexcept;

 private:
  friend class StaEngine;  // sweep() populates the result

  /// Storage/evaluation status of one point.
  enum class PointStatus : uint8_t {
    kFull,     ///< full TimingState kept; every accessor works
    kSummary,  ///< endpoint summaries only (endpoint-only or reused)
    kPruned,   ///< nothing computed; per-point accessors throw
  };

  /// Shared error shape of the "this accessor is unavailable" family:
  /// names the accessor, the disabling SweepSpec field, and the
  /// accessors that WOULD work (satisfying the error-message
  /// consistency contract between endpoint-only and pruned results).
  [[noreturn]] void throw_unavailable(const char* accessor,
                                      const char* disabling_field,
                                      const char* explanation,
                                      const char* alternatives) const;
  /// Throws util::Error when this is an endpoint-only result.
  void require_full_state(const char* accessor) const;
  /// Throws util::Error when `point` was pruned (or, for full-state
  /// accessors via require_full_state, summarized).
  void require_not_pruned(const char* accessor, size_t point) const;
  [[nodiscard]] PointStatus status(size_t point) const noexcept {
    return status_.empty() ? PointStatus::kFull : status_[point];
  }
  /// Dereferences engine_ behind the liveness check: throws util::Error
  /// (naming `accessor`) instead of dangling when the engine this
  /// result points into has been destroyed.
  [[nodiscard]] const StaEngine& live_engine(const char* accessor) const;

  const StaEngine* engine_ = nullptr;
  std::weak_ptr<const void> engine_liveness_;  ///< engine liveness token
  std::vector<Corner> corners_;
  std::vector<std::string> scenario_names_;
  std::vector<TimingState> states_;  ///< corner-major; empty in
                                     ///< endpoint-only mode
  bool endpoint_only_ = false;
  std::vector<std::string> endpoint_names_;  ///< output ports, port order
  // Endpoint-only storage, filled as points are evaluated:
  std::vector<double> worst_slacks_;        ///< per point
  std::vector<CriticalEndpoint> critical_;  ///< per point
  /// Corner baseline arrivals, [corner][endpoint][rf]: the arrival of
  /// every endpoint outside a point's cone.
  std::vector<double> base_arrivals_;
  /// Sorted cone endpoint ordinals per distinct plan, and the plan of
  /// each scenario (scenarios annotating the same nets share one).
  std::vector<std::vector<int32_t>> plan_endpoints_;
  std::vector<uint32_t> scenario_plan_;  ///< per scenario
  /// Per point, the offset of its cone arrivals in cone_arrivals_:
  /// [cone endpoint][rf], in plan_endpoints_ order.
  std::vector<size_t> arrival_offsets_;
  std::vector<double> cone_arrivals_;
  // Pruning state (empty status_ means every point is kFull):
  std::vector<PointStatus> status_;  ///< per point
  PruneMode prune_ = PruneMode::kOff;
  std::vector<double> bounds_;  ///< per point; prune == kSafe only
  PruneStats prune_stats_;
  std::unique_ptr<GammaCache> cache_;  ///< the sweep's shared Γeff memo
};

}  // namespace waveletic::sta
