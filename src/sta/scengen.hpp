#pragma once

/// \file scengen.hpp
/// Streaming combinatorial scenario generation with FRAME-style
/// feasibility filtering, over single AND compound aggressor events.
///
/// The paper propagates one hand-built noisy waveform; a crosstalk
/// sign-off wants the whole attack surface — every plausible
/// (victim, aggressor-set, alignment, strength) coupling event.
/// Enumerated eagerly that cross product explodes: 256 coupling pairs ×
/// 64 alignments × 64 strengths is already a million scenarios, each
/// carrying a sampled waveform — and compound events (k-subsets of the
/// pairs superposing their bumps, the paper's multi-aggressor bus) grow
/// it combinatorially on top.  This layer instead materializes points
/// *lazily* — `ScenarioSpace` describes the cross product symbolically
/// (the event axis is enumerated arithmetically through the
/// combinatorial number system, so not even the k-subsets are ever
/// listed), `ScenarioGenerator` pulls one candidate at a time, and
/// `StaEngine::sweep(const GeneratedSweepSpec&)` streams the survivors
/// through the existing baseline + delta + prune pipeline in bounded
/// chunks, so peak memory is one chunk of scenarios plus 40 B/point of
/// endpoint summaries plus the call's Γeff memo, about 120 B per
/// distinct fit (only evaluated points fit; filtered and pruned
/// candidates add nothing) — never the full cross product.  The
/// million-point test funnel evaluates 4.7k points and ends with about
/// 6.8k memo entries (~0.8 MB).
///
/// In front of propagation sit the *feasibility filters* in the spirit
/// of FRAME (PAPERS.md, arxiv 1502.02236 — screen infeasible aggressor
/// combinations before any expensive analysis):
///
///  1. **Timing-window overlap**: a coupling bump at a given alignment
///     is infeasible when its support cannot overlap the victim
///     transition window (a bump that never comes near the transition
///     cannot move any crossing — the paper's alignment observation),
///     or when it falls outside the aggressor's own switching window
///     from the corner baseline (the aggressor cannot switch then).
///     A compound event must pass this per member: every aggressor's
///     bump, offset by the shared alignment from its own victim anchor,
///     must overlap its windows.  With
///     GeneratedSweepSpec::per_corner_windows the windows are re-read
///     from each corner's own baseline (rewindow_scenario_space()).
///  2. **Logical correlation**: a pluggable `CorrelationRule` rejects
///     victim/aggressor combinations that cannot switch simultaneously;
///     the built-in `StructuralCorrelationRule` rejects same-net,
///     same-driver (complementary outputs) and causally-ordered pairs
///     (either net inside the other's transitive fanout cone, via
///     `netlist::Netlist::transitive_fanout_nets`).  For compound
///     events the pairwise rule is *lifted to set semantics*: every
///     member must pass it, every two members must be structurally
///     independent (distinct aggressors, no member's aggressor doubling
///     as another's victim) and pairwise co-switchable — all counted in
///     `correlation_killed` — and on top of that
///     `CorrelationRule::can_switch_set` may reject the aggressor *set*
///     as a whole, counted separately in `GenStats::set_killed`.
///
/// All filters run on candidate *indices* — the scenario waveform is
/// only sampled for points that survive, and whole alignment/strength
/// blocks are skipped arithmetically, so filtering a million-point
/// space costs on the order of events × alignments cheap window tests.
/// `GenStats` reports the per-stage funnel: generated → window-killed →
/// correlation-killed → set-killed → prune-killed → reused/evaluated.
///
/// Surviving points are bitwise identical to eagerly enumerating the
/// same scenarios through `StaEngine::sweep(SweepSpec)`: the generated
/// path *is* that sweep, fed in chunks, with the running worst slack
/// carried across chunks through `SweepSpec::prune_seed_slack`.

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "interconnect/coupled.hpp"
#include "sta/sweep.hpp"

namespace waveletic::liberty {
class Library;
}
namespace waveletic::netlist {
class Netlist;
struct Instance;
}  // namespace waveletic::netlist

namespace waveletic::sta {

/// Pin-direction oracle used wherever the library-agnostic netlist
/// needs to know which instance pins drive their nets (fanout cones,
/// driver lookup, victim-sink selection).  Returns true when `pin` of
/// `instance` is an output.
using DrivesPredicate =
    std::function<bool(const netlist::Instance&, const std::string& pin)>;

/// Builds the standard DrivesPredicate from a liberty library: a pin
/// drives iff its library direction is `PinDirection::kOutput`.
/// Unknown cells/pins are treated as non-driving.
[[nodiscard]] DrivesPredicate make_drives_predicate(
    const liberty::Library& library);

/// One victim/aggressor coupling pair of a ScenarioSpace, with the
/// baseline timing windows the feasibility filter tests against.
/// Normally produced by make_scenario_space() from
/// interconnect::CouplingCandidate seeds; hand-construction is fine for
/// tests and custom spaces.
struct ScenarioPair {
  /// Victim net ordinal in the netlist (the annotated net).
  int32_t victim_net = -1;
  /// Aggressor net ordinal (the coupling source; used by correlation
  /// rules — the generated scenario itself annotates only the victim).
  int32_t aggressor_net = -1;
  /// Victim net name — the NoiseScenario annotation target.
  std::string victim_name;
  /// Aggressor net name (diagnostics / reports).
  std::string aggressor_name;
  /// Baseline victim 50% crossing at the chosen sink [s] (bump centres
  /// are offsets from this).
  double victim_arrival = 0.0;
  /// Baseline victim transition time at that sink [s] (sets both the
  /// bump width and the victim overlap window).
  double victim_slew = 0.0;
  /// Earliest instant the aggressor can be switching, from the corner
  /// baseline over both transitions of every pin on the aggressor net
  /// (arrival − slew, minimized) [s].
  double aggressor_window_lo = 0.0;
  /// Latest instant the aggressor can be switching (arrival + slew,
  /// maximized) [s].
  double aggressor_window_hi = 0.0;
  /// Relative coupling strength of this pair (Cm / reference Cm);
  /// multiplies the strength-grid value when the scenario materializes.
  double coupling_scale = 1.0;
  /// Victim anchor pin (full "instance/pin" vertex name) —
  /// rewindow_scenario_space() re-reads the victim timing here under a
  /// different corner.  Empty (hand-built pairs) keeps the stored
  /// windows under re-windowing.
  std::string victim_pin;
  /// Aggressor vertex names (pins on the net, plus the interface-port
  /// vertex when present) whose corner timing envelopes the aggressor
  /// switching window under re-windowing.  Empty keeps the stored
  /// window.
  std::vector<std::string> aggressor_pins;
};

/// Options of make_scenario_space().
struct ScenarioSpaceOptions {
  /// Samples per generated scenario waveform (make_aggressor_scenario's
  /// `samples`; small keeps million-point materialization cheap).
  size_t waveform_samples = 64;
  /// Extra slack added to every window-overlap test [s] (0 = exact
  /// envelope overlap; > 0 keeps marginal candidates).
  double window_slop = 0.0;
  /// Reference coupling capacitance [F]: a candidate's coupling_scale
  /// is its cm_total divided by this.
  double cm_reference = 100e-15;
};

/// Bump-shape source of a ScenarioSpace: how the aggressor coupling
/// bump superposed on the victim waveform is synthesized.
enum class BumpShape : uint8_t {
  /// Analytic Gaussian stand-in (sigma = ½ × victim_slew) — the
  /// historical default, bitwise compatible with
  /// make_aggressor_scenario().
  kGaussian = 0,
  /// Physically derived shape from a coupled-line transient
  /// (interconnect::coupled_bump_shape over the space's coupled_pair,
  /// Cm scaled per pair by coupling_scale); cached per (testbench,
  /// amplitude) in a CoupledBumpCache, so repeated alignments and
  /// corner passes of one sweep reuse one waveform.
  kCoupledLine = 1,
};

/// Shape name ("gaussian" / "coupled_line") for reports and bench keys.
[[nodiscard]] const char* to_string(BumpShape shape) noexcept;

/// The symbolic cross product a generated sweep explores:
/// compound events × aggressor-alignment grid × strength grid, where an
/// *event* is a k-subset of the coupling pairs (k ≤ max_aggressors)
/// whose bumps superpose in one scenario.  Never materialized —
/// ScenarioGenerator walks it lazily, one candidate at a time, in
/// lexicographic (event, alignment, strength) order.  Events are
/// ordered singletons-first (event e < pairs.size() is exactly pair e,
/// so a max_aggressors == 1 space is index- and funnel-identical to the
/// historical single-aggressor generator), then all 2-subsets, then
/// 3-subsets, …, each k-block in lexicographic combination order;
/// event_members() decodes an event arithmetically (combinatorial
/// number system), so not even the subset list is ever materialized.
struct ScenarioSpace {
  /// Victim/aggressor coupling pairs (the event-member axis).
  std::vector<ScenarioPair> pairs;
  /// Bump-centre offsets from each member pair's victim arrival [s]
  /// (one shared alignment value per candidate).
  std::vector<double> alignments;
  /// Bump peak amplitudes [V] (scaled per member pair by
  /// coupling_scale).
  std::vector<double> strengths;
  /// Supply voltage of the generated waveforms [V].
  double vdd = 1.2;
  /// Victim transition polarity the bumps push against.
  wave::Polarity polarity = wave::Polarity::kFalling;
  /// Samples per generated scenario waveform.
  size_t waveform_samples = 64;
  /// Extra slack on every window-overlap test [s].
  double window_slop = 0.0;
  /// Maximum aggressors per compound event: events are all k-subsets of
  /// the pairs with 1 ≤ k ≤ max_aggressors.  1 (the default) reproduces
  /// the single-aggressor space bit for bit.
  int max_aggressors = 1;
  /// How member bumps are synthesized (see BumpShape).
  BumpShape bump_shape = BumpShape::kGaussian;
  /// Coupled-line testbench template of kCoupledLine: per member pair
  /// the generator simulates this with cm_total scaled by the pair's
  /// coupling_scale and the ramp transition set to the victim slew.
  interconnect::CoupledLinePair coupled_pair;
  /// Transient/sampling knobs of the kCoupledLine synthesis (the
  /// `transition` field is overridden per pair by the victim slew).
  interconnect::CoupledBumpOptions coupled_bump;

  /// Compound-event count: sum over k ≤ max_aggressors of C(pairs, k).
  [[nodiscard]] uint64_t num_events() const noexcept;

  /// Member pair indices of one event, strictly ascending (size = the
  /// event's k).  Throws util::Error when out of range.
  [[nodiscard]] std::vector<uint32_t> event_members(uint64_t event) const;

  /// Total candidate count: events × alignments × strengths.
  [[nodiscard]] uint64_t size() const noexcept {
    return num_events() * alignments.size() * strengths.size();
  }

  /// Grid coordinates of one flat candidate index.
  struct Coordinates {
    /// Compound-event index; equals the pair index for singleton events
    /// (pair < pairs.size()), event_members() decodes the rest.
    uint32_t pair = 0;
    uint32_t alignment = 0;  ///< index into alignments
    uint32_t strength = 0;   ///< index into strengths
  };
  /// Decodes a flat candidate index (lexicographic: event-major, then
  /// alignment, then strength).  Throws util::Error when out of range.
  [[nodiscard]] Coordinates decode(uint64_t candidate) const;
  /// Flat index of grid coordinates (inverse of decode()).
  [[nodiscard]] uint64_t encode(const Coordinates& c) const noexcept {
    return (static_cast<uint64_t>(c.pair) * alignments.size() + c.alignment) *
               strengths.size() +
           c.strength;
  }
};

/// Builds a ScenarioSpace from netlist coupling candidates: for each
/// candidate whose victim has a valid baseline transition (polarity per
/// `options`) at one of its sinks and whose aggressor has any valid
/// baseline switching window, emits a ScenarioPair carrying those
/// windows.  Candidates without valid baseline timing are dropped (they
/// cannot couple in this corner).  `sta` must have been run() — the
/// windows come from its corner baseline TimingState.  Deterministic:
/// pairs keep candidate order; the victim sink is the latest-arrival
/// valid sink in netlist pin order.  Throws util::Error, naming the
/// field, on a non-finite or negative window_slop or fewer than 2
/// waveform_samples.
[[nodiscard]] ScenarioSpace make_scenario_space(
    const StaEngine& sta, const netlist::Netlist& netlist,
    std::span<const interconnect::CouplingCandidate> candidates,
    const DrivesPredicate& drives, std::vector<double> alignments,
    std::vector<double> strengths,
    const ScenarioSpaceOptions& options = {});

/// Pluggable logical-correlation predicate: rejects victim/aggressor
/// combinations that cannot switch simultaneously (FRAME's logic-
/// correlation screen).  Implementations must be deterministic; the
/// generator calls them once per pair.
class CorrelationRule {
 public:
  virtual ~CorrelationRule() = default;
  /// Human-readable rule name (reports/diagnostics).
  [[nodiscard]] virtual const char* name() const noexcept = 0;
  /// True when the two nets can switch in the same window; false kills
  /// every candidate of the pair (counted correlation_killed).
  [[nodiscard]] virtual bool can_switch_together(
      int32_t victim_net, int32_t aggressor_net) const = 0;
  /// Set-level verdict on a compound event: `victim_nets[i]` is the
  /// victim of the event's i-th member and `aggressor_nets[i]` its
  /// aggressor (parallel spans, ascending member order).  The generator
  /// consults it only AFTER the pairwise lift passed (every member and
  /// every member pair survived can_switch_together), so overrides
  /// express genuinely set-level constraints — e.g. a simultaneous-
  /// switching budget — and their kills are counted in
  /// GenStats::set_killed, not correlation_killed.  The default accepts
  /// every set.
  [[nodiscard]] virtual bool can_switch_set(
      std::span<const int32_t> victim_nets,
      std::span<const int32_t> aggressor_nets) const;
};

/// The built-in structural rule.  Rejects a (victim, aggressor) pair
/// when the nets are logically forced apart:
///  - same net (a net cannot aggress itself),
///  - same driving instance (complementary outputs of one cell cannot
///    make an independent simultaneous aggressor),
///  - causal ordering: either net lies in the other's transitive
///    fanout cone (Netlist::transitive_fanout_nets) — the "aggressor"
///    transition would be *caused by* the victim's (or vice versa), a
///    gate delay apart, not an independent simultaneous switch.
/// Fanout cones are memoized per net; the rule is NOT thread-safe (the
/// generator queries it from one thread).
class StructuralCorrelationRule final : public CorrelationRule {
 public:
  /// `netlist` must outlive the rule; `drives` is the pin-direction
  /// oracle (see make_drives_predicate()).
  StructuralCorrelationRule(const netlist::Netlist& netlist,
                            DrivesPredicate drives);
  /// Rule name: "structural".
  [[nodiscard]] const char* name() const noexcept override;
  /// Applies the same-net / same-driver / causal-ordering checks.
  [[nodiscard]] bool can_switch_together(
      int32_t victim_net, int32_t aggressor_net) const override;

 private:
  [[nodiscard]] const std::vector<int>& fanout(int32_t net) const;

  const netlist::Netlist* netlist_;
  DrivesPredicate drives_;
  /// Net → sorted transitive-fanout ordinals, filled on first query.
  mutable std::unordered_map<int32_t, std::vector<int>> fanout_memo_;
};

/// Per-stage kill counters of a generated sweep — the funnel report.
/// On a ScenarioGenerator the counters are in candidate units (the
/// scenario axis only); on a GeneratedSweepResult they are in
/// (corner × candidate) point units, matching PruneStats::points, and
/// satisfy  generated == window_killed + correlation_killed +
/// set_killed + prune_killed + reused + evaluated.
struct GenStats {
  /// Candidates drawn from the cross product so far.
  uint64_t generated = 0;
  /// Killed by the timing-window-overlap filter (stage 1).
  uint64_t window_killed = 0;
  /// Killed by the logical-correlation rule's pairwise lift (stage 2:
  /// a member pair failed can_switch_together, two members shared an
  /// aggressor, or a member's aggressor doubled as another's victim).
  uint64_t correlation_killed = 0;
  /// Killed by the set-level rule (stage 2b: can_switch_set rejected a
  /// compound event whose every member pair survived the lift).
  uint64_t set_killed = 0;
  /// Killed by slack-bound pruning inside the sweep (stage 3; 0 when
  /// the sweep ran with prune == PruneMode::kOff).
  uint64_t prune_killed = 0;
  /// Recorded exactly from the corner baseline without propagation
  /// (cone misses every endpoint; see PruneStats::reused).
  uint64_t reused = 0;
  /// Fully evaluated through baseline + delta propagation.
  uint64_t evaluated = 0;
  /// Chunks streamed (GeneratedSweepResult only).
  uint64_t chunks = 0;
  /// Peak scenarios resident at once — the bounded-memory guarantee:
  /// never exceeds GeneratedSweepSpec::gen_chunk.
  uint64_t peak_resident_scenarios = 0;
  /// Coupled-bump cache hits (kCoupledLine only): scaled or unit shapes
  /// served from the CoupledBumpCache instead of re-simulated/re-scaled.
  /// Diagnostic counters — NOT part of the funnel identity (check()),
  /// and NOT scaled to point units on a GeneratedSweepResult (cache
  /// traffic is per materialized waveform, not per point).
  uint64_t bump_cache_hits = 0;
  /// Coupled-bump cache misses (see bump_cache_hits).
  uint64_t bump_cache_misses = 0;

  /// Funnel-identity check: true iff generated == window_killed +
  /// correlation_killed + set_killed + prune_killed + reused +
  /// evaluated.  Meaningful once every drawn survivor has been
  /// dispatched to a sweep stage — i.e. on result-unit stats, which the
  /// streaming sweep asserts (debug builds) at every chunk boundary —
  /// NOT on a bare generator mid-drain, whose pending survivors sit in
  /// no bucket yet.
  [[nodiscard]] bool check() const noexcept;
};

/// Exact content key of one coupled-line bump: the bit patterns of
/// every number coupled_bump_shape() consumes, plus the applied
/// amplitude for a scaled entry.  Equal keys mean the same physical
/// testbench (and amplitude), so equal waveforms.
struct CoupledBumpKey {
  /// Segment counts, RC totals, coupling, drive/hold resistances, load
  /// cap, then the transient options (see coupled_bump_key()).
  std::array<uint64_t, 14> testbench{};
  /// True for a scaled entry (unit shape × amplitude).
  bool scaled = false;
  /// IEEE-754 bits of the applied amplitude (scaled entries only).
  uint64_t amplitude_bits = 0;

  [[nodiscard]] bool operator==(const CoupledBumpKey&) const = default;
  /// The key of this unit shape scaled by `amplitude`.
  [[nodiscard]] CoupledBumpKey scaled_by(double amplitude) const noexcept;
};

/// Persistent coupled-line bump-shape store, shared across generator
/// instances, sweeps and corners — the kCoupledLine counterpart of the
/// Γeff memo.  Each sweep(GeneratedSweepSpec) owns one for its corner
/// passes unless the caller passes its own (GeneratedSweepSpec::
/// bump_cache), which keeps shapes across calls.  Entries are keyed on
/// exact *content* (CoupledBumpKey: the post-scaling
/// CoupledLinePair/CoupledBumpOptions numbers, plus the amplitude for
/// scaled entries), so two generators whose pairs resolve to the same
/// physical testbench share one simulated shape even across different
/// spaces or corners — bitwise-safe, because
/// interconnect::coupled_bump_shape is a deterministic function of
/// exactly those numbers.  The hash only picks the bucket; a hit
/// compares the whole key.  The store grows by one entry per distinct
/// (testbench, amplitude) shape, about 1 KB each.  References returned
/// by find()/insert() stay valid for the cache's lifetime (node-based
/// storage).  NOT thread-safe: share it across sequential sweeps, not
/// across threads.
class CoupledBumpCache {
 public:
  /// Hit/miss counters since construction (or reset_stats()).
  struct Stats {
    uint64_t hits = 0;    ///< lookups served from the cache
    uint64_t misses = 0;  ///< lookups that had to build the waveform
  };

  /// The waveform stored under `key`, or null; counts one hit or miss.
  [[nodiscard]] const wave::Waveform* find(const CoupledBumpKey& key) noexcept;
  /// Stores `waveform` under `key` (overwriting any previous entry) and
  /// returns the stored copy.
  const wave::Waveform& insert(const CoupledBumpKey& key,
                               wave::Waveform waveform);
  /// The hit/miss counters.
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  /// Zeroes the counters; cached waveforms stay.
  void reset_stats() noexcept { stats_ = {}; }
  /// Number of cached waveforms.
  [[nodiscard]] size_t size() const noexcept { return entries_.size(); }

 private:
  struct KeyHash {
    [[nodiscard]] size_t operator()(const CoupledBumpKey& k) const noexcept;
  };
  std::unordered_map<CoupledBumpKey, wave::Waveform, KeyHash> entries_;
  Stats stats_;
};

/// Content key of one coupled-line unit bump: the numeric fields of
/// `pair` and `options` exactly as coupled_bump_shape() consumes them
/// (line names are excluded — they do not affect the shape).  Callers
/// pass the pair/options AFTER per-ScenarioPair scaling (cm_total ×
/// coupling_scale, transition = victim slew), so the key identifies the
/// physical testbench, not the ScenarioPair index — the property that
/// lets the cache persist across generators, sweeps and corners.
[[nodiscard]] CoupledBumpKey coupled_bump_key(
    const interconnect::CoupledLinePair& pair,
    const interconnect::CoupledBumpOptions& options) noexcept;

/// Pull-based lazy iterator over a ScenarioSpace: next() yields the
/// next *feasible* candidate in lexicographic (event, alignment,
/// strength) order, applying the window filter, then the pairwise-
/// lifted correlation rule, then the set-level rule, updating stats();
/// materialize() builds the candidate's NoiseScenario (the only step
/// that samples a waveform).  Infeasible (event, alignment) blocks are
/// skipped whole — strength never affects feasibility — so draining a
/// million-point space costs on the order of events × alignments cheap
/// window tests; event-level correlation/set verdicts are resolved once
/// per event (member-pair verdicts memoized across events).  The space
/// (and rule, when given) must outlive the generator.  NOT thread-safe:
/// one thread pulls and materializes (the streaming sweep's pattern) —
/// materialize() fills the mutable coupled-bump caches and the per-pair
/// clean victim waveforms.
class ScenarioGenerator {
 public:
  /// `correlation == nullptr` disables the correlation stages (every
  /// pair and set passes).  `bump_cache` is the persistent kCoupledLine
  /// shape store (must outlive the generator); null makes the generator
  /// own a private one, reproducing the historical per-generator
  /// caching.  Cache traffic is counted in stats()
  /// (bump_cache_hits/misses) either way.  Throws util::Error, naming
  /// the field and value, on a non-finite or negative window_slop, a
  /// non-finite alignment or strength, or fewer than 2
  /// waveform_samples.
  explicit ScenarioGenerator(const ScenarioSpace& space,
                             const CorrelationRule* correlation = nullptr,
                             CoupledBumpCache* bump_cache = nullptr);

  /// One feasible candidate: the flat index plus its decoded grid
  /// coordinates.
  struct Candidate {
    uint64_t index = 0;      ///< flat lexicographic index in the space
    uint32_t pair = 0;       ///< event index (see Coordinates::pair)
    uint32_t alignment = 0;  ///< index into space().alignments
    uint32_t strength = 0;   ///< index into space().strengths
  };

  /// The next feasible candidate, or nullopt when the space is
  /// exhausted.  Advances stats() over every candidate it skips.
  [[nodiscard]] std::optional<Candidate> next();

  /// Materializes the candidate's scenario: per event member, a bump of
  /// amplitude strengths[c.strength] × member.coupling_scale centred
  /// alignments[c.alignment] after that member's victim arrival,
  /// superposed on the member victim's clean ramp — one NoiseScenario
  /// entry per distinct victim net, in ascending-member first-
  /// occurrence order.  A singleton Gaussian candidate reproduces
  /// make_aggressor_scenario() bitwise (waveform, name and key), so
  /// eager enumeration can build the identical scenario.  Compound
  /// names join the member descriptors with '+'.  Throws util::Error
  /// naming the pair when a Gaussian member's victim_slew is not
  /// positive.
  [[nodiscard]] NoiseScenario materialize(const Candidate& c) const;

  /// Stage-1 window test of one (member pair, alignment) cell: the bump
  /// support (±3σ around the centre) must overlap BOTH the victim
  /// transition window and the aggressor switching window, each
  /// widened by the space's window_slop.  A compound candidate is
  /// window-feasible iff every member passes this.
  [[nodiscard]] bool window_feasible(uint32_t pair,
                                     uint32_t alignment) const;

  /// Funnel counters over the candidates drained so far, in candidate
  /// units (prune_killed/reused/evaluated stay 0 here — those stages
  /// live in the sweep; the funnel identity of GenStats::check() does
  /// NOT hold on these mid-drain counters).
  [[nodiscard]] const GenStats& stats() const noexcept { return stats_; }

  /// The space this generator walks.
  [[nodiscard]] const ScenarioSpace& space() const noexcept {
    return *space_;
  }

 private:
  /// Event-level correlation verdict (kOk passes both stages).
  enum class EventVerdict : uint8_t { kOk, kCorrelationKilled, kSetKilled };

  /// Decodes `event` into cur_members_ and resolves its verdict.
  void refresh_event(uint32_t event);
  /// Pairwise lift between two member pairs (memoized): structural
  /// independence plus the rule's cross can_switch_together queries.
  [[nodiscard]] bool members_compatible(uint32_t a, uint32_t b) const;
  /// The coupled-line testbench of a member pair: the space's pair
  /// with Cm scaled by its coupling_scale, transition = victim slew.
  [[nodiscard]] std::pair<interconnect::CoupledLinePair,
                          interconnect::CoupledBumpOptions>
  testbench(uint32_t pair) const;
  /// The scaled coupled-line bump of (member pair, strength index):
  /// unit shape × (sign × strength × coupling_scale), built and cached
  /// in the bump store on first use.
  [[nodiscard]] const wave::Waveform& scaled_bump(uint32_t pair,
                                                  uint32_t strength) const;
  /// The clean victim ramp of a member pair (its anchor timing, the
  /// space's polarity and sample count), built on first use.
  [[nodiscard]] const wave::Waveform& clean_victim(uint32_t pair) const;

  const ScenarioSpace* space_;
  const CorrelationRule* correlation_;
  /// Correlation verdict per singleton pair, resolved at construction.
  std::vector<char> pair_feasible_;
  uint64_t cursor_ = 0;  ///< next flat index to consider
  /// Mutable because scaled_bump() (const) counts cache hits/misses.
  mutable GenStats stats_;
  /// Decoded members + verdict of the event the cursor sits in.
  uint64_t cur_event_ = std::numeric_limits<uint64_t>::max();
  std::vector<uint32_t> cur_members_;
  EventVerdict cur_verdict_ = EventVerdict::kOk;
  /// Member-pair compatibility memo, key (min<<32)|max.
  mutable std::unordered_map<uint64_t, char> compat_memo_;
  /// External persistent bump store, or null to use the owned fallback.
  CoupledBumpCache* bump_cache_;
  /// Per-generator fallback store (the historical behavior).
  mutable CoupledBumpCache owned_bump_cache_;
  /// Content key of each pair's unit bump (kCoupledLine only; empty
  /// when the space uses Gaussian shapes), precomputed at construction.
  std::vector<CoupledBumpKey> pair_bump_key_;
  /// Per pair, its clean victim waveform once materialize() needed it:
  /// every candidate of the pair copies this template instead of
  /// rebuilding the ramp.
  mutable std::vector<std::optional<wave::Waveform>> clean_victim_;
};

/// A generated sweep: the streaming counterpart of SweepSpec, with the
/// scenario axis described symbolically by a ScenarioSpace instead of
/// an eager std::vector<NoiseScenario>.  Evaluation is forced
/// endpoint-only (full TimingStates cannot be kept for a million
/// points); every other knob mirrors SweepSpec and feeds the per-chunk
/// sweeps unchanged.  Every chunk and corner pass of one call shares
/// one Γeff memo, dropped when the call returns (no knob).
struct GeneratedSweepSpec {
  /// The candidate cross product (see make_scenario_space()).
  ScenarioSpace space;
  /// Logical-correlation filter; null disables stage 2.  Must outlive
  /// the sweep call.
  const CorrelationRule* correlation = nullptr;
  /// Corner/derate axis; empty selects one point (engine corner or
  /// nominal), exactly as SweepSpec::corners.
  std::vector<Corner> corners;
  /// Size of the engine's worker pool, shared by every chunk (≤ 0
  /// selects the hardware concurrency).
  int threads = 0;
  /// Technique override; null uses the engine's configured method.
  const core::EquivalentWaveformMethod* method = nullptr;
  /// Slack-bound pruning per chunk (SweepSpec::prune); the running
  /// worst slack is carried across chunks through
  /// SweepSpec::prune_seed_slack, so later chunks prune harder.
  PruneMode prune = PruneMode::kSafe;
  /// Feasible scenarios materialized per streamed chunk — the peak
  /// resident-scenario bound; 0 selects 512.  The call's Γeff memo is
  /// not bounded by it: it keeps every distinct fit of the call.
  size_t gen_chunk = 0;
  /// Record a {candidate, corner, worst_slack} tuple per surviving
  /// point (see GeneratedSweepResult::points()).  Memory is bounded by
  /// the survivor count, not the space size; disable for pure funnel
  /// reports.
  bool keep_point_records = true;
  /// Re-window the space per corner: with corners given, each corner
  /// re-derives the stage-1 windows from its OWN baseline
  /// (rewindow_scenario_space()) and streams its own generator pass, so
  /// a derate that moves arrivals also moves which candidates are
  /// feasible.  The funnel stays in point units (each corner's pass
  /// contributes its candidates once) and the worst-point tie-break is
  /// unchanged.  false (default) filters every corner against the
  /// engine-baseline windows stored in the space.
  bool per_corner_windows = false;
  /// Persistent coupled-line bump store shared across this sweep's
  /// per-corner generator passes AND across successive sweeps when the
  /// caller keeps the cache alive (must outlive the call).  Null makes
  /// the sweep own one for its duration — corner passes still share it.
  CoupledBumpCache* bump_cache = nullptr;
};

/// Recomputes the stage-1 feasibility windows of `space` against the
/// engine's baseline under `corner`: each pair's victim anchor timing
/// is re-read at its stored victim_pin and the aggressor switching
/// window re-enveloped over its stored aggressor_pins.  Pairs without
/// stored pin names (hand-built spaces) keep their windows; pairs whose
/// corner timing is invalid get an empty aggressor window, so every
/// alignment of theirs is window-killed — candidate indices stay stable
/// across corners by construction.  Evaluates one corner baseline of
/// its own; when the caller already holds that baseline
/// (sweep(GeneratedSweepSpec) always does), prefer the overload below,
/// which skips the redundant full-graph pass.
[[nodiscard]] ScenarioSpace rewindow_scenario_space(StaEngine& sta,
                                                    const Corner& corner,
                                                    ScenarioSpace space);

/// Re-windowing against a caller-provided corner baseline: identical
/// result to the overload above when `baseline` is the clean evaluate()
/// of `sta` under `corner` (same EvalContext the sweep uses), but with
/// no propagation of its own — the engine stays const.  `baseline` must
/// have been produced by THIS engine (vertex count must match; throws
/// util::Error otherwise).
[[nodiscard]] ScenarioSpace rewindow_scenario_space(
    const StaEngine& sta, const Corner& corner, ScenarioSpace space,
    const TimingState& baseline);

/// Result of a generated sweep: the funnel, the aggregated prune/delta
/// statistics, the exact worst point, and (optionally) one record per
/// surviving point.  All values are bitwise identical to eagerly
/// enumerating the surviving scenarios through
/// StaEngine::sweep(SweepSpec) with the same settings.
class GeneratedSweepResult {
 public:
  GeneratedSweepResult() = default;

  /// One surviving (evaluated or reused) point.
  struct PointRecord {
    /// Flat candidate index in the ScenarioSpace (decode() maps it
    /// back to grid coordinates).
    uint64_t candidate = 0;
    /// Corner ordinal of the point.
    uint32_t corner = 0;
    /// Exact worst slack of the point [s].
    double worst_slack = 0.0;
  };

  /// The sweep's worst point.
  struct WorstPoint {
    /// Flat candidate index of the worst point.
    uint64_t candidate = std::numeric_limits<uint64_t>::max();
    /// Corner ordinal of the worst point.
    size_t corner = 0;
    /// Scenario name of the worst point (make_aggressor_scenario
    /// naming: net@align=..,strength=..).
    std::string scenario_name;
    /// Exact worst slack [s].
    double slack = std::numeric_limits<double>::infinity();
  };

  /// The per-stage funnel, in (corner × candidate) point units.
  [[nodiscard]] const GenStats& gen_stats() const noexcept {
    return gen_stats_;
  }
  /// Aggregated baseline+delta / pruning counters over all chunks
  /// (fractions and bound gaps are survivor-weighted means).
  [[nodiscard]] const PruneStats& prune_stats() const noexcept {
    return prune_stats_;
  }
  /// Exact worst slack over all surviving points; throws util::Error
  /// when every candidate was filtered out.
  [[nodiscard]] double worst_slack() const;
  /// The worst point (ties resolve to the smallest (corner, candidate)
  /// — the same argmin an eager corner-major sweep reports).  Throws
  /// when every candidate was filtered out.
  [[nodiscard]] const WorstPoint& worst_point() const;
  /// One record per surviving point, in stream order (empty when
  /// GeneratedSweepSpec::keep_point_records was false).
  [[nodiscard]] const std::vector<PointRecord>& points() const noexcept {
    return points_;
  }
  /// Corner count of the sweep.
  [[nodiscard]] size_t num_corners() const noexcept { return num_corners_; }

  /// Multi-line human-readable funnel: one line per stage with counts
  /// and percentages — the canonical field names
  /// (generated/window_killed/correlation_killed/set_killed/
  /// prune_killed/reused/evaluated) shared by docs/SWEEP_GUIDE.md, the
  /// examples and bench_runtime.
  [[nodiscard]] std::string funnel_report() const;

 private:
  friend class StaEngine;  // sweep(GeneratedSweepSpec) populates

  GenStats gen_stats_;
  PruneStats prune_stats_;
  WorstPoint worst_;
  bool has_worst_ = false;
  std::vector<PointRecord> points_;
  size_t num_corners_ = 1;
};

}  // namespace waveletic::sta
