#include "sta/scengen.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/workspace.hpp"
#include "wave/kernels.hpp"
#include "wave/ramp.hpp"

namespace waveletic::sta {

namespace {

/// Exact C(n, k) in uint64 arithmetic: the running product
/// r × (n-k+i) / i is an integer at every step (it equals C(n-k+i, i)),
/// so the division is exact and overflow only happens when the true
/// binomial overflows.
uint64_t choose(uint64_t n, uint64_t k) {
  if (k > n) return 0;
  if (k > n - k) k = n - k;
  uint64_t r = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    r = r / i * (n - k + i) + r % i * (n - k + i) / i;
  }
  return r;
}

// FNV-1a-style mixing of the bump-store hash, which only picks a
// bucket: a hit compares the whole CoupledBumpKey.
constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t mix(uint64_t h, uint64_t v) noexcept { return (h ^ v) * kFnvPrime; }

/// Sigma of the Gaussian bump as a fraction of the victim slew (the
/// make_aggressor_scenario shape).  The window filter and materialize()
/// both read it, so a window-killed candidate is one whose bump really
/// misses the victim transition.
constexpr double kBumpSigmaFactor = 0.5;

/// Rejects the space knobs that would otherwise fail silently: a NaN
/// slop makes every window comparison false (no candidate is ever
/// window-killed), and fewer than 2 samples only fails later, inside
/// materialize(), without naming the field.
void check_space_knobs(const char* who, double window_slop,
                       size_t waveform_samples) {
  util::require(std::isfinite(window_slop) && window_slop >= 0.0, who,
                ": window_slop ", window_slop, " must be finite and >= 0");
  util::require(waveform_samples >= 2, who, ": waveform_samples ",
                waveform_samples, " is below 2");
}

/// Rejects a non-finite alignment or strength grid value, naming the
/// grid and the index.
void check_grid_finite(const char* grid, const std::vector<double>& values) {
  for (size_t i = 0; i < values.size(); ++i) {
    util::require(std::isfinite(values[i]), "ScenarioGenerator: ", grid, " ",
                  values[i], " at index ", i, " is not finite");
  }
}

}  // namespace

DrivesPredicate make_drives_predicate(const liberty::Library& library) {
  return [&library](const netlist::Instance& inst, const std::string& pin) {
    const auto* cell = library.find_cell(inst.cell);
    if (cell == nullptr) return false;
    const auto* p = cell->find_pin(pin);
    return p != nullptr && p->direction == liberty::PinDirection::kOutput;
  };
}

// ---------------------------------------------------------------------------
// ScenarioSpace
// ---------------------------------------------------------------------------

const char* to_string(BumpShape shape) noexcept {
  return shape == BumpShape::kCoupledLine ? "coupled_line" : "gaussian";
}

uint64_t ScenarioSpace::num_events() const noexcept {
  const auto p = static_cast<uint64_t>(pairs.size());
  const auto k_max =
      std::min<uint64_t>(max_aggressors < 1 ? 1 : max_aggressors, p);
  uint64_t total = 0;
  for (uint64_t k = 1; k <= k_max; ++k) total += choose(p, k);
  return total;
}

std::vector<uint32_t> ScenarioSpace::event_members(uint64_t event) const {
  util::require(event < num_events(), "ScenarioSpace::event_members: event ",
                event, " out of range (", num_events(), " events)");
  // Find the k-block the rank falls in (singletons first, then
  // 2-subsets, …), then unrank within it: combinations are ordered
  // lexicographically, so member after member we count how many
  // combinations keep a smaller element in this slot and skip them.
  const auto p = static_cast<uint64_t>(pairs.size());
  uint64_t k = 1;
  while (event >= choose(p, k)) {
    event -= choose(p, k);
    ++k;
  }
  std::vector<uint32_t> members;
  members.reserve(static_cast<size_t>(k));
  uint64_t next = 0;
  for (uint64_t slot = k; slot >= 1; --slot) {
    while (true) {
      const uint64_t tail = choose(p - 1 - next, slot - 1);
      if (event < tail) break;
      event -= tail;
      ++next;
    }
    members.push_back(static_cast<uint32_t>(next));
    ++next;
  }
  return members;
}

ScenarioSpace::Coordinates ScenarioSpace::decode(uint64_t candidate) const {
  util::require(candidate < size(), "ScenarioSpace::decode: candidate ",
                candidate, " out of range (", size(), " candidates)");
  const uint64_t block =
      static_cast<uint64_t>(alignments.size()) * strengths.size();
  Coordinates c;
  const uint64_t event = candidate / block;
  util::require(event <= std::numeric_limits<uint32_t>::max(),
                "ScenarioSpace::decode: event index overflows uint32");
  c.pair = static_cast<uint32_t>(event);
  const uint64_t rem = candidate % block;
  c.alignment = static_cast<uint32_t>(rem / strengths.size());
  c.strength = static_cast<uint32_t>(rem % strengths.size());
  return c;
}

ScenarioSpace make_scenario_space(
    const StaEngine& sta, const netlist::Netlist& netlist,
    std::span<const interconnect::CouplingCandidate> candidates,
    const DrivesPredicate& drives, std::vector<double> alignments,
    std::vector<double> strengths, const ScenarioSpaceOptions& options) {
  util::require(options.cm_reference > 0.0,
                "make_scenario_space: cm_reference must be > 0");
  check_space_knobs("make_scenario_space", options.window_slop,
                    options.waveform_samples);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ScenarioSpace space;
  space.alignments = std::move(alignments);
  space.strengths = std::move(strengths);
  space.vdd = sta.library().nom_voltage;
  space.waveform_samples = options.waveform_samples;
  space.window_slop = options.window_slop;
  // The generated bump pushes against a falling victim transition (the
  // paper's Figure 1 worst case), so victim timing is read at kFall.
  const RiseFall victim_rf = RiseFall::kFall;
  const auto n_nets = static_cast<int32_t>(netlist.nets().size());
  for (const auto& cand : candidates) {
    if (cand.victim_net < 0 || cand.victim_net >= n_nets ||
        cand.aggressor_net < 0 || cand.aggressor_net >= n_nets) {
      continue;
    }
    const std::string& victim =
        netlist.nets()[static_cast<size_t>(cand.victim_net)];
    const std::string& aggressor =
        netlist.nets()[static_cast<size_t>(cand.aggressor_net)];
    // Victim anchor: the latest-arriving valid falling sink of the net
    // (the transition a coupling bump has the most time to disturb).
    double v_arrival = -kInf;
    double v_slew = 0.0;
    bool v_ok = false;
    std::string v_pin;
    for (const auto& ref : netlist.pins_on_net(victim)) {
      if (drives(*ref.instance, ref.pin)) continue;
      std::string vertex = ref.instance->name + "/" + ref.pin;
      const PinId id = sta.find_pin(vertex);
      if (!id.valid()) continue;
      const auto& t = sta.timing(id, victim_rf);
      if (!t.valid || t.slew <= 0.0) continue;
      if (!v_ok || t.arrival > v_arrival) {
        v_arrival = t.arrival;
        v_slew = t.slew;
        v_pin = std::move(vertex);
        v_ok = true;
      }
    }
    if (!v_ok) continue;  // victim never makes a falling transition here
    // Aggressor switching window: the envelope of (arrival ± slew) over
    // both transitions of every pin on the aggressor net (port vertex
    // included) — outside it the aggressor cannot be switching, so a
    // bump there is infeasible.
    double lo = kInf;
    double hi = -kInf;
    std::vector<std::string> a_pins;
    auto widen = [&](const std::string& vertex_name) {
      const PinId id = sta.find_pin(vertex_name);
      if (!id.valid()) return;
      a_pins.push_back(vertex_name);
      for (int rf = 0; rf < 2; ++rf) {
        const auto& t = sta.timing(id, static_cast<RiseFall>(rf));
        if (!t.valid) continue;
        lo = std::min(lo, t.arrival - t.slew);
        hi = std::max(hi, t.arrival + t.slew);
      }
    };
    for (const auto& ref : netlist.pins_on_net(aggressor)) {
      widen(ref.instance->name + "/" + ref.pin);
    }
    if (netlist.is_interface_net(aggressor)) widen(aggressor);
    if (!(lo <= hi)) continue;  // aggressor never switches in this corner
    ScenarioPair pair;
    pair.victim_net = cand.victim_net;
    pair.aggressor_net = cand.aggressor_net;
    pair.victim_name = victim;
    pair.aggressor_name = aggressor;
    pair.victim_arrival = v_arrival;
    pair.victim_slew = v_slew;
    pair.aggressor_window_lo = lo;
    pair.aggressor_window_hi = hi;
    pair.coupling_scale = cand.cm_total / options.cm_reference;
    pair.victim_pin = std::move(v_pin);
    pair.aggressor_pins = std::move(a_pins);
    space.pairs.push_back(std::move(pair));
  }
  return space;
}

// ---------------------------------------------------------------------------
// CorrelationRule / GenStats
// ---------------------------------------------------------------------------

bool CorrelationRule::can_switch_set(
    std::span<const int32_t> /*victim_nets*/,
    std::span<const int32_t> /*aggressor_nets*/) const {
  return true;  // pairwise lift only; no set-level constraint by default
}

bool GenStats::check() const noexcept {
  return generated == window_killed + correlation_killed + set_killed +
                          prune_killed + reused + evaluated;
}

// ---------------------------------------------------------------------------
// CoupledBumpCache
// ---------------------------------------------------------------------------

CoupledBumpKey CoupledBumpKey::scaled_by(double amplitude) const noexcept {
  CoupledBumpKey k = *this;
  k.scaled = true;
  k.amplitude_bits = std::bit_cast<uint64_t>(amplitude);
  return k;
}

size_t CoupledBumpCache::KeyHash::operator()(
    const CoupledBumpKey& k) const noexcept {
  uint64_t h = kFnvOffset;
  for (const uint64_t w : k.testbench) h = mix(h, w);
  h = mix(h, static_cast<uint64_t>(k.scaled));
  return static_cast<size_t>(mix(h, k.amplitude_bits));
}

const wave::Waveform* CoupledBumpCache::find(
    const CoupledBumpKey& key) noexcept {
  const auto it = entries_.find(key);
  if (it == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

const wave::Waveform& CoupledBumpCache::insert(const CoupledBumpKey& key,
                                               wave::Waveform waveform) {
  return entries_.insert_or_assign(key, std::move(waveform)).first->second;
}

CoupledBumpKey coupled_bump_key(
    const interconnect::CoupledLinePair& pair,
    const interconnect::CoupledBumpOptions& options) noexcept {
  // Exactly the numbers coupled_bump_shape() consumes; line names are
  // display-only and excluded.
  const auto b = [](double v) { return std::bit_cast<uint64_t>(v); };
  CoupledBumpKey k;
  k.testbench = {static_cast<uint64_t>(pair.aggressor.segments),
                 b(pair.aggressor.r_total),
                 b(pair.aggressor.c_total),
                 static_cast<uint64_t>(pair.victim.segments),
                 b(pair.victim.r_total),
                 b(pair.victim.c_total),
                 b(pair.cm_total),
                 b(pair.drive_resistance),
                 b(pair.hold_resistance),
                 b(pair.load_cap),
                 b(options.transition),
                 static_cast<uint64_t>(options.steps),
                 static_cast<uint64_t>(options.samples),
                 b(options.span_factor)};
  return k;
}

// ---------------------------------------------------------------------------
// StructuralCorrelationRule
// ---------------------------------------------------------------------------

StructuralCorrelationRule::StructuralCorrelationRule(
    const netlist::Netlist& netlist, DrivesPredicate drives)
    : netlist_(&netlist), drives_(std::move(drives)) {}

const char* StructuralCorrelationRule::name() const noexcept {
  return "structural";
}

const std::vector<int>& StructuralCorrelationRule::fanout(int32_t net) const {
  auto it = fanout_memo_.find(net);
  if (it == fanout_memo_.end()) {
    const int seed = net;
    it = fanout_memo_
             .emplace(net, netlist_->transitive_fanout_nets(
                               std::span<const int>(&seed, 1), drives_))
             .first;
  }
  return it->second;
}

bool StructuralCorrelationRule::can_switch_together(
    int32_t victim_net, int32_t aggressor_net) const {
  if (victim_net == aggressor_net) return false;
  const auto* victim_driver = netlist_->driver_of(victim_net, drives_);
  const auto* aggressor_driver = netlist_->driver_of(aggressor_net, drives_);
  if (victim_driver != nullptr && victim_driver == aggressor_driver) {
    return false;  // complementary outputs of one cell
  }
  // Causal ordering: fanout sets are sorted ascending
  // (transitive_fanout_nets contract), so membership is a binary search.
  const auto& victim_cone = fanout(victim_net);
  if (std::binary_search(victim_cone.begin(), victim_cone.end(),
                         aggressor_net)) {
    return false;
  }
  const auto& aggressor_cone = fanout(aggressor_net);
  return !std::binary_search(aggressor_cone.begin(), aggressor_cone.end(),
                             victim_net);
}

// ---------------------------------------------------------------------------
// ScenarioGenerator
// ---------------------------------------------------------------------------

ScenarioGenerator::ScenarioGenerator(const ScenarioSpace& space,
                                     const CorrelationRule* correlation,
                                     CoupledBumpCache* bump_cache)
    : space_(&space), correlation_(correlation), bump_cache_(bump_cache) {
  util::require(space.max_aggressors >= 1,
                "ScenarioGenerator: max_aggressors must be >= 1");
  check_space_knobs("ScenarioGenerator", space.window_slop,
                    space.waveform_samples);
  check_grid_finite("alignment", space.alignments);
  check_grid_finite("strength", space.strengths);
  util::require(space.num_events() <= std::numeric_limits<uint32_t>::max(),
                "ScenarioGenerator: event count overflows uint32");
  if (space.bump_shape == BumpShape::kCoupledLine) {
    // Content keys of the unit shapes, one per pair: the pair/option
    // numbers AFTER per-pair scaling, so pairs resolving to the same
    // physical testbench share one cache entry — within this generator
    // and across any generators sharing the external cache.
    pair_bump_key_.reserve(space.pairs.size());
    for (uint32_t p = 0; p < space.pairs.size(); ++p) {
      const auto [bench, opts] = testbench(p);
      pair_bump_key_.push_back(coupled_bump_key(bench, opts));
    }
  }
  // Per-member correlation depends only on the pair, so it is resolved
  // once here; the per-candidate accounting still happens in next() so
  // the funnel counts every skipped candidate.
  clean_victim_.resize(space.pairs.size());
  pair_feasible_.assign(space.pairs.size(), 1);
  if (correlation != nullptr) {
    for (size_t p = 0; p < space.pairs.size(); ++p) {
      pair_feasible_[p] =
          correlation->can_switch_together(space.pairs[p].victim_net,
                                           space.pairs[p].aggressor_net)
              ? 1
              : 0;
    }
  }
}

bool ScenarioGenerator::members_compatible(uint32_t a, uint32_t b) const {
  const uint32_t lo = std::min(a, b);
  const uint32_t hi = std::max(a, b);
  const uint64_t key = (static_cast<uint64_t>(lo) << 32) | hi;
  if (const auto it = compat_memo_.find(key); it != compat_memo_.end()) {
    return it->second != 0;
  }
  const auto& pa = space_->pairs[lo];
  const auto& pb = space_->pairs[hi];
  // Structural independence: two members of one event must bring
  // distinct aggressors, and no member's aggressor may double as
  // another member's victim (the "aggressor" would be the disturbed
  // net itself, not an independent simultaneous switch).
  bool ok = pa.aggressor_net != pb.aggressor_net &&
            pa.aggressor_net != pb.victim_net &&
            pb.aggressor_net != pa.victim_net;
  // Cross queries of the pairwise rule: each victim against the other
  // member's aggressor, and the two aggressors against each other.
  if (ok && correlation_ != nullptr) {
    ok = correlation_->can_switch_together(pa.victim_net, pb.aggressor_net) &&
         correlation_->can_switch_together(pb.victim_net, pa.aggressor_net) &&
         correlation_->can_switch_together(pa.aggressor_net,
                                           pb.aggressor_net);
  }
  compat_memo_.emplace(key, ok ? 1 : 0);
  return ok;
}

void ScenarioGenerator::refresh_event(uint32_t event) {
  cur_event_ = event;
  cur_members_ = space_->event_members(event);
  cur_verdict_ = EventVerdict::kOk;
  for (const uint32_t m : cur_members_) {
    if (pair_feasible_[m] == 0) {
      cur_verdict_ = EventVerdict::kCorrelationKilled;
      return;
    }
  }
  for (size_t i = 0; i + 1 < cur_members_.size(); ++i) {
    for (size_t j = i + 1; j < cur_members_.size(); ++j) {
      if (!members_compatible(cur_members_[i], cur_members_[j])) {
        cur_verdict_ = EventVerdict::kCorrelationKilled;
        return;
      }
    }
  }
  // Only sets whose every member and member pair survived the lift
  // reach the set-level rule — its kills are genuinely set-level.
  if (correlation_ != nullptr) {
    std::vector<int32_t> victims;
    std::vector<int32_t> aggressors;
    victims.reserve(cur_members_.size());
    aggressors.reserve(cur_members_.size());
    for (const uint32_t m : cur_members_) {
      victims.push_back(space_->pairs[m].victim_net);
      aggressors.push_back(space_->pairs[m].aggressor_net);
    }
    if (!correlation_->can_switch_set(victims, aggressors)) {
      cur_verdict_ = EventVerdict::kSetKilled;
    }
  }
}

bool ScenarioGenerator::window_feasible(uint32_t pair,
                                        uint32_t alignment) const {
  const auto& p = space_->pairs[pair];
  // The generated bump is a Gaussian of sigma = kBumpSigmaFactor ×
  // victim_slew centred (victim_arrival + alignment); its support is
  // taken as ±3σ (beyond that the bump is < 0.02% of its peak and
  // cannot move a crossing).
  const double sigma = kBumpSigmaFactor * p.victim_slew;
  const double half_width = 3.0 * sigma;
  const double center = p.victim_arrival + space_->alignments[alignment];
  const double slop = space_->window_slop;
  // (a) the bump must overlap the victim transition window …
  const double victim_lo = p.victim_arrival - p.victim_slew;
  const double victim_hi = p.victim_arrival + p.victim_slew;
  if (center + half_width < victim_lo - slop) return false;
  if (center - half_width > victim_hi + slop) return false;
  // (b) … and the aggressor must be able to switch when the bump fires.
  if (center + half_width < p.aggressor_window_lo - slop) return false;
  if (center - half_width > p.aggressor_window_hi + slop) return false;
  return true;
}

std::optional<ScenarioGenerator::Candidate> ScenarioGenerator::next() {
  const uint64_t total = space_->size();
  const auto n_strengths = static_cast<uint64_t>(space_->strengths.size());
  while (cursor_ < total) {
    const auto c = space_->decode(cursor_);
    if (c.pair != cur_event_) refresh_event(c.pair);
    if (c.strength == 0) {
      // Block head: feasibility is strength-independent, so one verdict
      // covers the whole strength block — kills advance the cursor past
      // all |strengths| candidates at once.  Stage order (window before
      // correlation before set) is per block, matching the historical
      // single-aggressor funnel bit for bit at k = 1.
      bool windows_ok = true;
      for (const uint32_t m : cur_members_) {
        if (!window_feasible(m, c.alignment)) {
          windows_ok = false;
          break;
        }
      }
      if (!windows_ok) {
        stats_.generated += n_strengths;
        stats_.window_killed += n_strengths;
        cursor_ += n_strengths;
        continue;
      }
      if (cur_verdict_ == EventVerdict::kCorrelationKilled) {
        stats_.generated += n_strengths;
        stats_.correlation_killed += n_strengths;
        cursor_ += n_strengths;
        continue;
      }
      if (cur_verdict_ == EventVerdict::kSetKilled) {
        stats_.generated += n_strengths;
        stats_.set_killed += n_strengths;
        cursor_ += n_strengths;
        continue;
      }
    }
    ++stats_.generated;
    const Candidate out{cursor_, c.pair, c.alignment, c.strength};
    ++cursor_;
    return out;
  }
  return std::nullopt;
}

std::pair<interconnect::CoupledLinePair, interconnect::CoupledBumpOptions>
ScenarioGenerator::testbench(uint32_t pair) const {
  const auto& p = space_->pairs[pair];
  interconnect::CoupledLinePair bench = space_->coupled_pair;
  bench.cm_total *= p.coupling_scale;
  interconnect::CoupledBumpOptions opts = space_->coupled_bump;
  if (p.victim_slew > 0.0) opts.transition = p.victim_slew;
  return {bench, opts};
}

const wave::Waveform& ScenarioGenerator::scaled_bump(uint32_t pair,
                                                     uint32_t strength) const {
  CoupledBumpCache& cache =
      bump_cache_ != nullptr ? *bump_cache_ : owned_bump_cache_;
  const auto probe = [&](const CoupledBumpKey& key) -> const wave::Waveform* {
    const wave::Waveform* w = cache.find(key);
    if (w != nullptr) {
      ++stats_.bump_cache_hits;
    } else {
      ++stats_.bump_cache_misses;
    }
    return w;
  };
  const double sign =
      space_->polarity == wave::Polarity::kFalling ? 1.0 : -1.0;
  const double amp =
      sign * space_->strengths[strength] * space_->pairs[pair].coupling_scale;
  // Scaled entries key on (unit content, applied amplitude): identical
  // content ⇒ bitwise-identical waveform (coupled_bump_shape and the
  // scaling below are deterministic functions of exactly those
  // numbers), so sharing across generators and corners is safe.
  const CoupledBumpKey& unit_key = pair_bump_key_[pair];
  const CoupledBumpKey scaled_key = unit_key.scaled_by(amp);
  if (const wave::Waveform* hit = probe(scaled_key)) return *hit;
  const wave::Waveform* unit = probe(unit_key);
  if (unit == nullptr) {
    const auto [bench, opts] = testbench(pair);
    unit = &cache.insert(unit_key,
                         interconnect::coupled_bump_shape(bench, opts));
  }
  std::vector<double> t(unit->times().begin(), unit->times().end());
  std::vector<double> v(unit->values().begin(), unit->values().end());
  for (auto& x : v) x *= amp;
  return cache.insert(scaled_key, wave::Waveform(std::move(t), std::move(v)));
}

const wave::Waveform& ScenarioGenerator::clean_victim(uint32_t pair) const {
  auto& slot = clean_victim_[pair];
  if (!slot.has_value()) {
    const auto& p = space_->pairs[pair];
    slot = wave::Ramp::from_arrival_slew(p.victim_arrival, p.victim_slew,
                                         space_->vdd)
               .denormalized(space_->polarity, space_->waveform_samples);
  }
  return *slot;
}

NoiseScenario ScenarioGenerator::materialize(const Candidate& c) const {
  const double alignment = space_->alignments[c.alignment];
  const double strength = space_->strengths[c.strength];
  const std::vector<uint32_t> members = space_->event_members(c.pair);
  NoiseScenario s;
  {
    std::ostringstream name;
    for (size_t i = 0; i < members.size(); ++i) {
      const auto& pair = space_->pairs[members[i]];
      if (i != 0) name << "+";
      name << pair.victim_name << "@align=" << alignment * 1e12
           << "ps,strength=" << strength * pair.coupling_scale << "V";
    }
    s.name = name.str();
  }
  if (space_->bump_shape == BumpShape::kGaussian) {
    // A zero slew is a zero-width bump (NaN samples).
    for (const uint32_t m : members) {
      const auto& pair = space_->pairs[m];
      util::require(pair.victim_slew > 0.0, "materialize: pair ", m,
                    " (victim ", pair.victim_name,
                    ") has non-positive victim slew ", pair.victim_slew);
    }
  }
  const double sign =
      space_->polarity == wave::Polarity::kFalling ? 1.0 : -1.0;
  // One NoiseScenario entry per distinct victim net: members sharing a
  // victim superpose their bumps on one clean ramp (the first such
  // member's anchor timing), in ascending member order.
  std::vector<char> done(members.size(), 0);
  for (size_t i = 0; i < members.size(); ++i) {
    if (done[i] != 0) continue;
    const auto& anchor = space_->pairs[members[i]];
    const auto& clean = clean_victim(members[i]);
    std::vector<double> t(clean.times().begin(), clean.times().end());
    std::vector<double> v(clean.values().begin(), clean.values().end());
    for (size_t j = i; j < members.size(); ++j) {
      const auto& pair = space_->pairs[members[j]];
      if (pair.victim_net != anchor.victim_net) continue;
      done[j] = 1;
      const double center = pair.victim_arrival + alignment;
      if (space_->bump_shape == BumpShape::kGaussian) {
        // The make_aggressor_scenario bump, term for term: a k = 1
        // event materializes that scenario bitwise.
        const double sigma = kBumpSigmaFactor * pair.victim_slew;
        const double amp = strength * pair.coupling_scale;
        for (size_t n = 0; n < t.size(); ++n) {
          v[n] += sign * amp *
                  std::exp(-std::pow((t[n] - center) / sigma, 2.0));
        }
      } else {
        // The shifted grid is monotone, so one merge scan samples it
        // bitwise as bump.at() would point by point.
        const auto& bump = scaled_bump(members[j], c.strength);
        auto& ws = util::thread_scratch();
        const auto scope = ws.scope();
        const std::span<double> shifted = ws.alloc(t.size());
        const std::span<double> sampled = ws.alloc(t.size());
        for (size_t n = 0; n < t.size(); ++n) shifted[n] = t[n] - center;
        wave::sample_into(bump, shifted, sampled);
        for (size_t n = 0; n < t.size(); ++n) v[n] += sampled[n];
      }
    }
    s.annotate(anchor.victim_name, wave::Waveform(std::move(t), std::move(v)),
               space_->polarity);
  }
  return s;
}

// ---------------------------------------------------------------------------
// GeneratedSweepResult
// ---------------------------------------------------------------------------

double GeneratedSweepResult::worst_slack() const {
  return worst_point().slack;
}

const GeneratedSweepResult::WorstPoint& GeneratedSweepResult::worst_point()
    const {
  util::require(has_worst_,
                "GeneratedSweepResult::worst_point: no point survived the "
                "funnel (every candidate was window-, correlation- or "
                "prune-killed; see gen_stats())");
  return worst_;
}

std::string GeneratedSweepResult::funnel_report() const {
  const auto& g = gen_stats_;
  std::ostringstream os;
  os << "scenario funnel (" << num_corners_ << " corner(s) x "
     << (num_corners_ > 0 ? g.generated / num_corners_ : 0)
     << " candidates = " << g.generated << " points; chunks=" << g.chunks
     << " peak_resident_scenarios=" << g.peak_resident_scenarios << ")\n";
  const auto line = [&os, &g](const char* field, uint64_t value) {
    const double pct =
        g.generated != 0
            ? 100.0 * static_cast<double>(value) /
                  static_cast<double>(g.generated)
            : 0.0;
    char buf[80];
    std::snprintf(buf, sizeof(buf), "  %-20s %14llu  (%6.2f%%)\n", field,
                  static_cast<unsigned long long>(value), pct);
    os << buf;
  };
  line("generated", g.generated);
  line("window_killed", g.window_killed);
  line("correlation_killed", g.correlation_killed);
  line("set_killed", g.set_killed);
  line("prune_killed", g.prune_killed);
  line("reused", g.reused);
  line("evaluated", g.evaluated);
  return os.str();
}

// ---------------------------------------------------------------------------
// rewindow_scenario_space
// ---------------------------------------------------------------------------

namespace {

/// The shared re-windowing pass of both rewindow_scenario_space()
/// overloads: rewrites each pair's windows from `base` (the corner
/// baseline of `sta`).
void apply_rewindow(const StaEngine& sta, const TimingState& base,
                    ScenarioSpace& space) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const RiseFall victim_rf =
      space.polarity == wave::Polarity::kFalling ? RiseFall::kFall
                                                 : RiseFall::kRise;
  for (auto& pair : space.pairs) {
    if (pair.victim_pin.empty() && pair.aggressor_pins.empty()) {
      continue;  // hand-built pair: keep its stored windows
    }
    bool victim_ok = pair.victim_pin.empty();
    if (!victim_ok) {
      const PinId id = sta.find_pin(pair.victim_pin);
      if (id.valid()) {
        const auto& t = sta.timing_in(base, id, victim_rf);
        if (t.valid && t.slew > 0.0) {
          pair.victim_arrival = t.arrival;
          pair.victim_slew = t.slew;
          victim_ok = true;
        }
      }
    }
    double lo = pair.aggressor_window_lo;
    double hi = pair.aggressor_window_hi;
    if (!pair.aggressor_pins.empty()) {
      lo = kInf;
      hi = -kInf;
      for (const auto& vertex : pair.aggressor_pins) {
        const PinId id = sta.find_pin(vertex);
        if (!id.valid()) continue;
        for (int rf = 0; rf < 2; ++rf) {
          const auto& t = sta.timing_in(base, id, static_cast<RiseFall>(rf));
          if (!t.valid) continue;
          lo = std::min(lo, t.arrival - t.slew);
          hi = std::max(hi, t.arrival + t.slew);
        }
      }
    }
    if (!victim_ok || !(lo <= hi)) {
      // Dead under this corner: an empty aggressor window window-kills
      // every alignment while keeping candidate indices stable.
      pair.aggressor_window_lo = kInf;
      pair.aggressor_window_hi = -kInf;
    } else {
      pair.aggressor_window_lo = lo;
      pair.aggressor_window_hi = hi;
    }
  }
}

}  // namespace

ScenarioSpace rewindow_scenario_space(StaEngine& sta, const Corner& corner,
                                      ScenarioSpace space) {
  const auto edge_noise = sta.compile_edge_annotations();
  StaEngine::EvalContext ctx;
  ctx.edge_noise = edge_noise.data();
  ctx.corner = &corner;
  ctx.corner_key = corner.key();
  ctx.method = &sta.noise_method();
  TimingState base;
  sta.evaluate(base, ctx);
  apply_rewindow(sta, base, space);
  return space;
}

ScenarioSpace rewindow_scenario_space(const StaEngine& sta,
                                      const Corner& /*corner*/,
                                      ScenarioSpace space,
                                      const TimingState& baseline) {
  util::require(baseline.size() == sta.vertex_count(),
                "rewindow_scenario_space: baseline has ", baseline.size(),
                " vertices, engine has ", sta.vertex_count(),
                " (baseline from another engine?)");
  apply_rewindow(sta, baseline, space);
  return space;
}

// ---------------------------------------------------------------------------
// StaEngine::sweep(GeneratedSweepSpec) — the streaming funnel
// ---------------------------------------------------------------------------

GeneratedSweepResult StaEngine::sweep(const GeneratedSweepSpec& gspec) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  GeneratedSweepResult r;
  r.num_corners_ = gspec.corners.empty() ? 1 : gspec.corners.size();
  const auto n_corners = static_cast<uint64_t>(r.num_corners_);
  const size_t chunk = gspec.gen_chunk != 0 ? gspec.gen_chunk : 512;

  // Corner groups: with per_corner_windows each corner streams its own
  // generator pass over its own re-windowed space (one corner per
  // group); otherwise one pass feeds every corner at once.  Either way
  // each (corner, candidate) point enters the funnel exactly once, so
  // the funnel stays in point units — gen_scale converts a pass's
  // candidate-unit counters.
  const bool per_corner = gspec.per_corner_windows && !gspec.corners.empty();
  const size_t n_groups = per_corner ? gspec.corners.size() : 1;
  const uint64_t gen_scale = per_corner ? 1 : n_corners;

  // One persistent coupled-bump store for every generator pass of this
  // sweep (and beyond, when the caller provided one).
  CoupledBumpCache owned_bump_cache;
  CoupledBumpCache* bump_cache =
      gspec.bump_cache != nullptr ? gspec.bump_cache : &owned_bump_cache;
  // One Γeff memo for the whole call: the baselines and every chunk of
  // every corner group.  A compound event's victim waveform is bitwise
  // a singleton's from an earlier chunk, so it is fitted once.  The
  // memo's keys hold exact inputs plus the corner key, so sharing it
  // across chunks and corners changes no bit.
  GammaCache memo;

  // Every chunk's delta sweep needs one clean baseline per corner.
  // They are computed ONCE per corner group here — re-windowing reads
  // the same states instead of running its own evaluate(), and every
  // chunk's sweep receives them through SweepSpec::corner_baselines
  // instead of recomputing them per chunk.  Corner resolution mirrors
  // sweep(SweepSpec).  The engine's worker pool serves the baselines
  // and every chunk's sweep alike.
  std::vector<Corner> resolved_corners = gspec.corners;
  if (resolved_corners.empty()) {
    resolved_corners.push_back(corner_ ? *corner_ : Corner{});
  }

  SweepSpec proto;
  proto.corners = gspec.corners;
  proto.threads = gspec.threads;
  proto.method = gspec.method;
  proto.endpoint_only = true;  // the streaming mode's memory contract
  proto.prune = gspec.prune;

  // Aggregation state across chunks.  The survivor-weighted fraction /
  // gap sums reconstruct the means a single eager sweep would report.
  auto& ps = r.prune_stats_;
  double worst_seen = kInf;
  double dirty_vertex_sum = 0.0;
  double gap_sum = 0.0;
  double gap_min = kInf;
  uint64_t scenario_total = 0;
  std::vector<uint64_t> chunk_candidates;
  // Gen-stage kill totals of COMPLETED groups, already in point units.
  GenStats done;

  // Point-unit funnel snapshot: gen-stage counters of the running pass
  // (scaled) on top of finished groups, sweep-stage counters from the
  // aggregated PruneStats.  At every chunk boundary all drawn survivors
  // have been dispatched, so the funnel identity must hold — asserted
  // in debug builds (satellite: funnel drift fails loudly).
  const auto snapshot_funnel = [&](const GenStats& gs) {
    r.gen_stats_.generated = done.generated + gs.generated * gen_scale;
    r.gen_stats_.window_killed =
        done.window_killed + gs.window_killed * gen_scale;
    r.gen_stats_.correlation_killed =
        done.correlation_killed + gs.correlation_killed * gen_scale;
    r.gen_stats_.set_killed = done.set_killed + gs.set_killed * gen_scale;
    r.gen_stats_.prune_killed = ps.pruned;
    r.gen_stats_.reused = ps.reused;
    r.gen_stats_.evaluated = ps.evaluated;
    // Cache traffic is per-waveform, not per-point: never scaled.
    r.gen_stats_.bump_cache_hits = done.bump_cache_hits + gs.bump_cache_hits;
    r.gen_stats_.bump_cache_misses =
        done.bump_cache_misses + gs.bump_cache_misses;
    assert(r.gen_stats_.check());
  };

  for (size_t g = 0; g < n_groups; ++g) {
    const ScenarioSpace* space = &gspec.space;
    std::optional<ScenarioSpace> rewindowed;
    SweepSpec group_proto = proto;
    std::vector<TimingState> baselines;
    const auto base_table = compile_edge_annotations(nullptr);
    const core::EquivalentWaveformMethod* method =
        gspec.method != nullptr ? gspec.method : noise_method_.get();
    const std::vector<Corner>& group_corners =
        per_corner ? std::vector<Corner>{gspec.corners[g]} : resolved_corners;
    util::ThreadPool& pool = worker_pool(gspec.threads);
    baselines.resize(group_corners.size());
    for (size_t c = 0; c < group_corners.size(); ++c) {
      EvalContext ctx;
      ctx.edge_noise = base_table.data();
      ctx.corner = &group_corners[c];
      ctx.corner_key = group_corners[c].key();
      ctx.method = method;
      ctx.cache = &memo;
      evaluate(baselines[c], ctx, &pool);
    }
    group_proto.corner_baselines = &baselines;
    if (per_corner) {
      rewindowed = rewindow_scenario_space(static_cast<const StaEngine&>(*this),
                                           gspec.corners[g], gspec.space,
                                           baselines.front());
      space = &*rewindowed;
      group_proto.corners = {gspec.corners[g]};
    }
    ScenarioGenerator gen(*space, gspec.correlation, bump_cache);
    while (true) {
      SweepSpec spec = group_proto;
      chunk_candidates.clear();
      while (chunk_candidates.size() < chunk) {
        const auto c = gen.next();
        if (!c.has_value()) break;
        spec.scenarios.push_back(gen.materialize(*c));
        chunk_candidates.push_back(c->index);
      }
      if (chunk_candidates.empty()) break;
      const auto n_scenarios = chunk_candidates.size();
      // Later chunks prune against the worst slack already attained —
      // same exactness argument as within one sweep (strict-> admission).
      // The seed carries across corner groups too: an exact worst from
      // one corner bounds the others just as well.
      spec.prune_seed_slack = worst_seen;
      const SweepResult sr = sweep(spec, memo);

      ++r.gen_stats_.chunks;
      r.gen_stats_.peak_resident_scenarios = std::max<uint64_t>(
          r.gen_stats_.peak_resident_scenarios, n_scenarios);
      scenario_total += n_scenarios;
      const auto& cs = sr.prune_stats();
      ps.points += cs.points;
      ps.evaluated += cs.evaluated;
      ps.reused += cs.reused;
      ps.pruned += cs.pruned;
      dirty_vertex_sum +=
          cs.dirty_vertex_fraction * static_cast<double>(n_scenarios);
      if (cs.evaluated > 0 && gspec.prune == PruneMode::kSafe) {
        gap_sum += cs.mean_bound_gap * static_cast<double>(cs.evaluated);
        gap_min = std::min(gap_min, cs.min_bound_gap);
      }

      for (size_t c = 0; c < sr.num_corners(); ++c) {
        // In per-corner mode each group sweeps one corner — map the
        // chunk-local ordinal back to the global corner axis.
        const size_t corner = per_corner ? g : c;
        for (size_t s = 0; s < n_scenarios; ++s) {
          const size_t p = sr.point(c, s);
          if (sr.pruned(p)) continue;
          const double ws = sr.worst_slack(p);
          const uint64_t candidate = chunk_candidates[s];
          if (gspec.keep_point_records) {
            r.points_.push_back({candidate, static_cast<uint32_t>(corner),
                                 ws});
          }
          // Ties resolve to the smallest (corner, candidate) —
          // candidate indices ascend across chunks and corner groups
          // run in ascending corner order, so this reproduces the
          // argmin (first flat index) an eager corner-major sweep
          // would report.
          const bool better =
              !r.has_worst_ || ws < r.worst_.slack ||
              (ws == r.worst_.slack &&
               (corner < r.worst_.corner ||
                (corner == r.worst_.corner &&
                 candidate < r.worst_.candidate)));
          if (better) {
            r.worst_.candidate = candidate;
            r.worst_.corner = corner;
            r.worst_.scenario_name = sr.scenario_name(s);
            r.worst_.slack = ws;
            r.has_worst_ = true;
          }
          worst_seen = std::min(worst_seen, ws);
        }
      }
      snapshot_funnel(gen.stats());
    }
    // Fold the finished pass into the point-unit totals (covers passes
    // whose every candidate died before the first chunk filled, too).
    const auto& gs = gen.stats();
    done.generated += gs.generated * gen_scale;
    done.window_killed += gs.window_killed * gen_scale;
    done.correlation_killed += gs.correlation_killed * gen_scale;
    done.set_killed += gs.set_killed * gen_scale;
    done.bump_cache_hits += gs.bump_cache_hits;
    done.bump_cache_misses += gs.bump_cache_misses;
  }

  if (scenario_total > 0) {
    ps.dirty_vertex_fraction =
        dirty_vertex_sum / static_cast<double>(scenario_total);
  }
  if (ps.evaluated > 0 && gspec.prune == PruneMode::kSafe) {
    ps.mean_bound_gap = gap_sum / static_cast<double>(ps.evaluated);
    ps.min_bound_gap = gap_min;
  }

  // The final funnel in point units: the generator passes count
  // candidates (every candidate becomes one point per corner of its
  // pass), and the sweep-stage kills come from the aggregated
  // PruneStats.  By construction
  //   generated == window_killed + correlation_killed + set_killed
  //                + prune_killed + reused + evaluated.
  r.gen_stats_.generated = done.generated;
  r.gen_stats_.window_killed = done.window_killed;
  r.gen_stats_.correlation_killed = done.correlation_killed;
  r.gen_stats_.set_killed = done.set_killed;
  r.gen_stats_.prune_killed = ps.pruned;
  r.gen_stats_.reused = ps.reused;
  r.gen_stats_.evaluated = ps.evaluated;
  r.gen_stats_.bump_cache_hits = done.bump_cache_hits;
  r.gen_stats_.bump_cache_misses = done.bump_cache_misses;
  assert(r.gen_stats_.check());
  return r;
}

}  // namespace waveletic::sta
