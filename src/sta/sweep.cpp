#include "sta/sweep.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "noise/scenario.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "wave/ramp.hpp"

namespace waveletic::sta {

const char* to_string(PruneMode mode) noexcept {
  return mode == PruneMode::kSafe ? "safe" : "off";
}

std::string format_prune_stats(const PruneStats& stats) {
  std::ostringstream os;
  os << "prune_stats: points=" << stats.points
     << " evaluated=" << stats.evaluated << " reused=" << stats.reused
     << " pruned=" << stats.pruned << "\n"
     << "  dirty_vertex_fraction=" << stats.dirty_vertex_fraction << "\n"
     << "  mean_bound_gap=" << stats.mean_bound_gap
     << " min_bound_gap=" << stats.min_bound_gap;
  return os.str();
}

void NoiseScenario::annotate(const std::string& net, wave::Waveform waveform,
                             wave::Polarity polarity) {
  const uint64_t key = noise_waveform_key(waveform, polarity);
  for (auto& e : entries) {
    if (e.net == net) {
      e.annotation = NoiseAnnotation{std::move(waveform), polarity, key};
      return;
    }
  }
  entries.push_back(
      {net, NoiseAnnotation{std::move(waveform), polarity, key}});
}

const NoiseAnnotation* NoiseScenario::find(
    const std::string& net) const noexcept {
  for (const auto& e : entries) {
    if (e.net == net) return &e.annotation;
  }
  return nullptr;
}

NoiseScenario make_aggressor_scenario(const std::string& net,
                                      double victim_arrival,
                                      double victim_slew, double vdd,
                                      wave::Polarity polarity,
                                      double alignment, double strength,
                                      size_t samples) {
  util::require(victim_slew > 0.0,
                "make_aggressor_scenario: non-positive victim slew");
  util::require(samples >= 8, "make_aggressor_scenario: too few samples");
  const auto ramp =
      wave::Ramp::from_arrival_slew(victim_arrival, victim_slew, vdd);
  const auto clean = ramp.denormalized(polarity, samples);
  std::vector<double> t(clean.times().begin(), clean.times().end());
  std::vector<double> v(clean.values().begin(), clean.values().end());
  // Gaussian coupling bump centred `alignment` after the victim 50%
  // crossing, width tied to the victim transition.  A bump that pushes
  // against the transition direction delays the final crossing — the
  // worst-case aggressor of the paper's Figure 1 testbench.
  const double center = victim_arrival + alignment;
  const double sigma = 0.5 * victim_slew;
  const double sign = polarity == wave::Polarity::kFalling ? 1.0 : -1.0;
  for (size_t i = 0; i < t.size(); ++i) {
    v[i] += sign * strength *
            std::exp(-std::pow((t[i] - center) / sigma, 2.0));
  }
  NoiseScenario s;
  std::ostringstream name;
  name << net << "@align=" << alignment * 1e12
       << "ps,strength=" << strength << "V";
  s.name = name.str();
  s.annotate(net, wave::Waveform(std::move(t), std::move(v)), polarity);
  return s;
}

NoiseScenario scenario_from_case(const std::string& net,
                                 const noise::CaseWaveforms& case_waveforms) {
  NoiseScenario s;
  std::ostringstream name;
  name << net << "@offset=" << case_waveforms.aggressor_offset * 1e12
       << "ps";
  s.name = name.str();
  s.annotate(net, case_waveforms.noisy_in, case_waveforms.in_polarity);
  return s;
}

// ---------------------------------------------------------------------------
// SweepResult
// ---------------------------------------------------------------------------

size_t SweepResult::point(size_t corner, size_t scenario) const {
  util::require(corner < num_corners(), "SweepResult: corner ", corner,
                " out of range (", num_corners(), " corners)");
  util::require(scenario < num_scenarios(), "SweepResult: scenario ",
                scenario, " out of range (", num_scenarios(), " scenarios)");
  return corner * num_scenarios() + scenario;
}

void SweepResult::throw_unavailable(const char* accessor,
                                    const char* disabling_field,
                                    const char* explanation,
                                    const char* alternatives) const {
  // The one error shape of the "accessor unavailable" family: name the
  // accessor, the disabling SweepSpec field, what happened, and the
  // accessors that DO work — identical structure for endpoint-only and
  // pruned results.
  std::ostringstream os;
  os << "SweepResult::" << accessor << ": unavailable under SweepSpec::"
     << disabling_field << " — " << explanation << ".  Use " << alternatives
     << ", or re-run the sweep with " << disabling_field << " disabled";
  throw util::Error(os.str());
}

void SweepResult::require_full_state(const char* accessor) const {
  if (endpoint_only_) {
    throw_unavailable(accessor, "endpoint_only",
                      "this is an endpoint-only result; full TimingStates "
                      "were not kept",
                      "worst_slack()/worst_point()/critical_endpoint()/"
                      "endpoint_arrival()");
  }
}

void SweepResult::require_not_pruned(const char* accessor,
                                     size_t point) const {
  if (status(point) == PointStatus::kPruned) {
    throw_unavailable(accessor, "prune",
                      "this point was pruned: its slack bound proved it "
                      "cannot set the sweep's worst slack, so no timing was "
                      "computed for it",
                      "worst_slack_bound(point)/worst_point()/prune_stats()");
  }
}

const StaEngine& SweepResult::live_engine(const char* accessor) const {
  util::require(engine_ != nullptr, "SweepResult: empty result");
  util::require(!engine_liveness_.expired(), "SweepResult::", accessor,
                ": the engine this result points into has been destroyed — "
                "a SweepResult must not outlive its engine (service queries "
                "co-own their snapshot instead; see sta/service.hpp)");
  return *engine_;
}

const TimingState& SweepResult::state(size_t point) const {
  (void)live_engine("state");
  require_full_state("state");
  util::require(point < states_.size(), "SweepResult: point ", point,
                " out of range (", states_.size(), " points)");
  require_not_pruned("state", point);
  // Summary-only points exist only in endpoint-only results, which
  // require_full_state already rejected — every surviving point here
  // carries a full TimingState.
  return states_[point];
}

TimingView SweepResult::view(size_t point) const {
  const TimingState& s = state(point);  // validates
  return TimingView(engine_, engine_liveness_, &s,
                    &corners_[point / num_scenarios()],
                    &scenario_names_[point % num_scenarios()]);
}

TimingView SweepResult::view(size_t corner, size_t scenario) const {
  return view(point(corner, scenario));
}

double SweepResult::worst_slack(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  require_not_pruned("worst_slack", point);
  if (status(point) == PointStatus::kSummary) return worst_slacks_[point];
  return live_engine("worst_slack").worst_slack_in(states_[point]);
}

bool SweepResult::pruned(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  return status(point) == PointStatus::kPruned;
}

double SweepResult::worst_slack_bound(size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  util::require(prune_ != PruneMode::kOff,
                "SweepResult::worst_slack_bound: the sweep ran with "
                "SweepSpec::prune == PruneMode::kOff, so slack bounds were "
                "not computed.  Use worst_slack(point), or re-run the sweep "
                "with prune = PruneMode::kSafe");
  return bounds_[point];
}

const std::string& SweepResult::endpoint_name(size_t endpoint) const {
  util::require(endpoint < endpoint_names_.size(), "SweepResult: endpoint ",
                endpoint, " out of range (", endpoint_names_.size(),
                " endpoints)");
  return endpoint_names_[endpoint];
}

double SweepResult::endpoint_arrival(size_t point, size_t endpoint,
                                     RiseFall rf) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  util::require(endpoint < endpoint_names_.size(), "SweepResult: endpoint ",
                endpoint, " out of range (", endpoint_names_.size(),
                " endpoints)");
  require_not_pruned("endpoint_arrival", point);
  if (status(point) == PointStatus::kSummary) {
    // Cone endpoints carry the point's own arrivals; every other
    // endpoint kept its corner baseline arrival.
    const auto& cone = plan_endpoints_[scenario_plan_[point % num_scenarios()]];
    const auto e = static_cast<int32_t>(endpoint);
    const auto it = std::lower_bound(cone.begin(), cone.end(), e);
    if (it != cone.end() && *it == e) {
      return cone_arrivals_[arrival_offsets_[point] +
                            static_cast<size_t>(it - cone.begin()) * 2 +
                            static_cast<size_t>(rf)];
    }
    return base_arrivals_[((point / num_scenarios()) * endpoint_names_.size() +
                           endpoint) * 2 + static_cast<size_t>(rf)];
  }
  const StaEngine& eng = live_engine("endpoint_arrival");
  return eng.timing_in(states_[point], eng.pin(endpoint_names_[endpoint]), rf)
      .arrival;
}

SweepResult::CriticalEndpoint SweepResult::critical_endpoint(
    size_t point) const {
  util::require(point < size(), "SweepResult: point ", point,
                " out of range (", size(), " points)");
  require_not_pruned("critical_endpoint", point);
  if (status(point) == PointStatus::kSummary) return critical_[point];
  const auto we = live_engine("critical_endpoint").worst_endpoint_in(
      states_[point]);
  return CriticalEndpoint{we.endpoint, we.rf, we.slack};
}

size_t SweepResult::result_bytes_per_point() const noexcept {
  if (endpoint_only_) {
    size_t shared = cone_arrivals_.size() * sizeof(double) +
                    base_arrivals_.size() * sizeof(double) +
                    scenario_plan_.size() * sizeof(uint32_t);
    for (const auto& cone : plan_endpoints_) {
      shared += cone.size() * sizeof(int32_t);
    }
    return sizeof(double)              // worst slack
           + sizeof(CriticalEndpoint)  // critical endpoint
           + sizeof(size_t)            // arrival offset
           + shared / std::max<size_t>(size(), 1);
  }
  for (const auto& s : states_) {  // first materialized point (pruned
    if (s.size() != 0) return s.size() * sizeof(VertexTiming);  // ones
  }                                                             // are empty)
  return 0;
}

const PinTiming& SweepResult::timing(size_t point, PinId pin,
                                     RiseFall rf) const {
  return live_engine("timing").timing_in(state(point), pin, rf);
}

const PinTiming& SweepResult::timing(size_t point, const std::string& pin,
                                     RiseFall rf) const {
  return live_engine("timing").timing_in(state(point), pin, rf);
}

std::vector<PathStep> SweepResult::critical_path(size_t point) const {
  return live_engine("critical_path").worst_path_in(state(point));
}

SweepResult::WorstPoint SweepResult::worst_point() const {
  util::require(size() > 0, "SweepResult: empty result");
  // Pruned points are skipped: their true worst slack is strictly above
  // the worst of the surviving points (that is what made them
  // prunable), so the argmin — including its first-in-index tie-break —
  // is identical to an unpruned sweep's.
  WorstPoint best;
  bool found = false;
  for (size_t p = 0; p < size(); ++p) {
    if (status(p) == PointStatus::kPruned) continue;
    const double slack = worst_slack(p);
    if (!found || slack < best.slack) {
      best.point = p;
      best.slack = slack;
      found = true;
    }
  }
  util::require(found, "SweepResult: every point was pruned");
  best.corner = best.point / num_scenarios();
  best.scenario = best.point % num_scenarios();
  return best;
}

const Corner& SweepResult::corner(size_t i) const {
  util::require(i < corners_.size(), "SweepResult: corner ", i,
                " out of range");
  return corners_[i];
}

const std::string& SweepResult::scenario_name(size_t i) const {
  util::require(i < scenario_names_.size(), "SweepResult: scenario ", i,
                " out of range");
  return scenario_names_[i];
}

GammaCache::Stats SweepResult::cache_stats() const noexcept {
  return cache_ != nullptr ? cache_->stats() : GammaCache::Stats{};
}

// ---------------------------------------------------------------------------
// TimingView
// ---------------------------------------------------------------------------

const StaEngine& TimingView::live_engine() const {
  util::require(!liveness_.expired(),
                "TimingView: the engine this view points into has been "
                "destroyed — views must not outlive their engine (service "
                "queries co-own their snapshot instead; see sta/service.hpp)");
  return *engine_;
}

const PinTiming& TimingView::timing(PinId pin, RiseFall rf) const {
  return live_engine().timing_in(*state_, pin, rf);
}

const PinTiming& TimingView::timing(const std::string& pin,
                                    RiseFall rf) const {
  return live_engine().timing_in(*state_, pin, rf);
}

double TimingView::worst_slack() const {
  return live_engine().worst_slack_in(*state_);
}

std::vector<PathStep> TimingView::critical_path() const {
  return live_engine().worst_path_in(*state_);
}

// ---------------------------------------------------------------------------
// StaEngine::sweep — baseline + delta propagation over corners × scenarios
// ---------------------------------------------------------------------------

SweepResult StaEngine::sweep(const SweepSpec& spec) {
  SweepResult r;
  r.engine_ = this;
  r.engine_liveness_ = liveness();
  if (spec.corners.empty()) {
    r.corners_.push_back(corner_ ? *corner_ : Corner{});
  } else {
    r.corners_ = spec.corners;
  }

  static const NoiseScenario kCleanScenario{};
  std::vector<const NoiseScenario*> scenarios;
  if (spec.scenarios.empty()) {
    scenarios.push_back(&kCleanScenario);
    r.scenario_names_.push_back("clean");
  } else {
    scenarios.reserve(spec.scenarios.size());
    for (const auto& sc : spec.scenarios) {
      scenarios.push_back(&sc);
      r.scenario_names_.push_back(sc.name);
    }
  }

  const size_t n_corners = r.corners_.size();
  const size_t n_scenarios = scenarios.size();
  const size_t n_points = n_corners * n_scenarios;

  // Every scenario net must exist before anything is evaluated.
  std::vector<std::vector<int>> scenario_nets(n_scenarios);
  for (size_t s = 0; s < n_scenarios; ++s) {
    for (const auto& entry : scenarios[s]->entries) {
      const int ord = netlist_->net_ordinal(entry.net);
      util::require(ord >= 0, "scenario ", scenarios[s]->name,
                    " annotates unknown net ", entry.net);
      scenario_nets[s].push_back(ord);
    }
  }

  r.cache_ = std::make_unique<GammaCache>();
  const core::EquivalentWaveformMethod* method =
      spec.method != nullptr ? spec.method : noise_method_.get();
  // The engine-level annotations compiled once into a dense per-net-edge
  // pointer table: the corner baselines' table, and the table every
  // point overlays its scenario onto.  This is the only place
  // annotations are *searched*; propagation just indexes.
  const auto base_table = compile_edge_annotations(nullptr);

  // The engine's own pool.  Γeff fits draw their sampling buffers from
  // the running thread's arena, so after the slabs warm up the whole
  // sweep propagates without touching the heap; results are bitwise
  // independent of which worker evaluates which point.
  util::ThreadPool& pool = worker_pool(spec.threads);

  // Endpoint axis metadata (both modes).
  r.endpoint_names_.reserve(endpoint_ports_.size());
  for (const int32_t p : endpoint_ports_) {
    r.endpoint_names_.push_back(ports_[static_cast<size_t>(p)].name);
  }
  const size_t n_endpoints = r.endpoint_names_.size();

  const bool prune = spec.prune == PruneMode::kSafe;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.endpoint_only_ = spec.endpoint_only;
  r.prune_ = spec.prune;
  r.prune_stats_.points = n_points;

  // -------------------------------------------------------------------------
  // Baseline + delta evaluation (and optional slack-bound pruning).
  //
  // One nominal TimingState per corner under the engine-level
  // annotation table; every scenario point is then derived from its
  // corner baseline by re-propagating only the transitive fanout cone
  // of the scenario's annotated nets — bitwise identical to full
  // propagation.  Under prune == kSafe, points are additionally ordered
  // by a conservative slack lower bound and early-outed once the bound
  // proves they cannot beat the worst slack seen so far.
  // -------------------------------------------------------------------------

  std::vector<TimingState> owned_baselines;
  if (spec.corner_baselines != nullptr) {
    util::require(spec.corner_baselines->size() == n_corners,
                  "sweep: corner_baselines has ",
                  spec.corner_baselines->size(), " states for ", n_corners,
                  " corners");
    for (const auto& b : *spec.corner_baselines) {
      util::require(b.size() == vertex_count(),
                    "sweep: corner_baselines state has ", b.size(),
                    " vertices, engine has ", vertex_count(),
                    " (baseline from another engine?)");
    }
  } else {
    owned_baselines.resize(n_corners);
    for (size_t c = 0; c < n_corners; ++c) {
      EvalContext ctx;
      ctx.edge_noise = base_table.data();
      ctx.corner = &r.corners_[c];
      ctx.corner_key = r.corners_[c].key();
      ctx.method = method;
      ctx.cache = r.cache_.get();
      evaluate(owned_baselines[c], ctx, &pool);
    }
  }
  const std::vector<TimingState>& baselines =
      spec.corner_baselines != nullptr ? *spec.corner_baselines
                                       : owned_baselines;

  // Per-scenario dirty-cone plans, shared by every corner of a
  // scenario (the cone depends only on the annotated nets).  Scenarios
  // that annotate the same net set — the common shape from scenario
  // generators, which emit many height/offset variants per victim —
  // share one plan: the cone is a pure function of the annotated nets,
  // and plan construction is expensive enough to rival evaluation on
  // small-cone sweeps.  plan_of[s] maps a scenario to its unique plan.
  // Endpoint-only plans skip the backward closure: those points read
  // no required time the cone can move (see endpoint_ports()).
  std::vector<DeltaPlan> plans;
  std::vector<size_t> plan_of(n_scenarios);
  {
    std::map<std::vector<int>, size_t> plan_index;
    std::vector<int> key;
    double cone_frac = 0.0;
    for (size_t s = 0; s < n_scenarios; ++s) {
      key = scenario_nets[s];
      std::sort(key.begin(), key.end());
      key.erase(std::unique(key.begin(), key.end()), key.end());
      const auto [it, fresh] = plan_index.try_emplace(key, plans.size());
      if (fresh) {
        plans.push_back(scenario_plan(*scenarios[s], !spec.endpoint_only));
      }
      plan_of[s] = it->second;
      cone_frac += static_cast<double>(plans[plan_of[s]].forward.size()) /
                   static_cast<double>(std::max<size_t>(vertex_count(), 1));
    }
    r.prune_stats_.dirty_vertex_fraction =
        cone_frac / static_cast<double>(n_scenarios);
  }

  // Endpoint summaries (endpoint-only points, and the bounds of pruned
  // sweeps) read only a point's cone.  Outside the cone a point's
  // endpoints keep their corner baseline timing, so the worst of them
  // is the first entry outside the cone of the corner's baseline
  // endpoint entries in worst_endpoint_in() order.  A cone holds at
  // most k endpoints (2k entries), so the worst 2k + 1 entries always
  // include it.
  const auto ranks_before = [](const WorstEndpoint& a,
                               const WorstEndpoint& b) {
    if (a.constrained != b.constrained) return a.constrained;
    const double ma = a.constrained ? a.slack : -a.arrival;
    const double mb = b.constrained ? b.slack : -b.arrival;
    if (ma < mb) return true;
    if (mb < ma) return false;
    if (a.endpoint != b.endpoint) return a.endpoint < b.endpoint;
    return a.rf < b.rf;
  };
  const auto endpoint_vertex = [this](int32_t e) {
    return static_cast<size_t>(
        ports_[static_cast<size_t>(endpoint_ports_[static_cast<size_t>(e)])]
            .vertex);
  };
  const auto entry_of = [](int32_t e, int rf, const PinTiming& t) {
    return WorstEndpoint{e, static_cast<RiseFall>(rf),
                         std::isfinite(t.required), t.slack(), t.arrival};
  };
  std::vector<std::vector<WorstEndpoint>> worst_base(n_corners);
  if (spec.endpoint_only || prune) {
    size_t max_cone = 0;
    for (const auto& plan : plans) {
      max_cone = std::max(max_cone, plan.endpoints.size());
    }
    if (spec.endpoint_only) {
      r.base_arrivals_.resize(n_corners * n_endpoints * 2);
    }
    for (size_t c = 0; c < n_corners; ++c) {
      auto& entries = worst_base[c];
      entries.reserve(2 * n_endpoints);
      for (size_t e = 0; e < n_endpoints; ++e) {
        const auto& vt = baselines[c][endpoint_vertex(static_cast<int32_t>(e))];
        for (int rf = 0; rf < 2; ++rf) {
          if (spec.endpoint_only) {
            r.base_arrivals_[(c * n_endpoints + e) * 2 +
                             static_cast<size_t>(rf)] = vt.timing[rf].arrival;
          }
          if (vt.timing[rf].valid) {
            entries.push_back(
                entry_of(static_cast<int32_t>(e), rf, vt.timing[rf]));
          }
        }
      }
      const size_t keep = 2 * max_cone + 1;
      if (keep < entries.size()) {
        std::nth_element(entries.begin(),
                         entries.begin() + static_cast<std::ptrdiff_t>(keep),
                         entries.end(), ranks_before);
        entries.resize(keep);
      }
      std::sort(entries.begin(), entries.end(), ranks_before);
    }
  }
  // The first worst baseline entry of corner `c` outside `cone`
  // (endpoint -1 when every valid entry lies inside it).
  const auto worst_outside = [&](size_t c, const std::vector<int32_t>& cone) {
    for (const auto& entry : worst_base[c]) {
      if (!std::binary_search(cone.begin(), cone.end(), entry.endpoint)) {
        return entry;
      }
    }
    return WorstEndpoint{};
  };

  // Result storage.
  r.status_.assign(n_points, spec.endpoint_only
                                 ? SweepResult::PointStatus::kSummary
                                 : SweepResult::PointStatus::kFull);
  if (spec.endpoint_only) {
    // Summary storage is an endpoint-only concern: full-state results
    // answer every accessor from their TimingStates (pruning only
    // needs bounds_, allocated below).  A point keeps arrivals only
    // for its cone's endpoints; the rest read base_arrivals_.
    r.worst_slacks_.assign(n_points, kInf);
    r.critical_.assign(n_points, {});
    r.plan_endpoints_.reserve(plans.size());
    for (const auto& plan : plans) r.plan_endpoints_.push_back(plan.endpoints);
    r.scenario_plan_.assign(plan_of.begin(), plan_of.end());
    r.arrival_offsets_.resize(n_points);
    size_t offset = 0;
    for (size_t p = 0; p < n_points; ++p) {
      r.arrival_offsets_[p] = offset;
      offset += 2 * plans[plan_of[p % n_scenarios]].endpoints.size();
    }
    r.cone_arrivals_.assign(offset, -kInf);
  }
  if (!spec.endpoint_only) r.states_.assign(n_points, TimingState{});

  // Writes an endpoint-only point's summary from `state`, which differs
  // from its corner baseline only inside `cone`: the worst of the cone's
  // endpoints and of the worst baseline entry outside it — exactly what
  // worst_endpoint_in() and worst_slack_in() of the whole state give,
  // so both modes agree bitwise — plus the cone's arrivals.
  auto summarize = [&](size_t p, size_t c, const std::vector<int32_t>& cone,
                       const TimingState& state) {
    WorstEndpoint best = worst_outside(c, cone);
    double* arrivals = r.cone_arrivals_.data() + r.arrival_offsets_[p];
    for (const int32_t e : cone) {
      const auto& vt = state[endpoint_vertex(e)];
      for (int rf = 0; rf < 2; ++rf) {
        *arrivals++ = vt.timing[rf].arrival;
        if (!vt.timing[rf].valid) continue;
        const WorstEndpoint entry = entry_of(e, rf, vt.timing[rf]);
        if (best.endpoint < 0 || ranks_before(entry, best)) best = entry;
      }
    }
    r.worst_slacks_[p] = best.constrained ? best.slack : kInf;
    r.critical_[p] =
        SweepResult::CriticalEndpoint{best.endpoint, best.rf, best.slack};
  };

  // Evaluation order: ascending points, or — under pruning — points
  // sorted most-critical-first by their slack lower bound, with
  // cone-misses-every-endpoint points recorded exactly from the
  // baseline up front.
  std::vector<size_t> order;
  order.reserve(n_points);
  // A streaming caller (scengen's generated sweep) seeds the running
  // worst slack with the worst seen in earlier chunks; admission is
  // strictly `bound > worst_seen`, so a seed that is itself an attained
  // slack never prunes the global argmin or its ties.
  double worst_seen = prune ? spec.prune_seed_slack : kInf;
  if (prune) {
    r.bounds_.assign(n_points, -kInf);
    // Conservative per-(corner, scenario) push-out bound: how much
    // later any arrival inside the cone can get versus the corner
    // baseline, from the annotation magnitudes.  At every annotated net
    // edge the equivalent-waveform fit replaces the baseline (arrival,
    // slew) with values inside the noisy waveform's envelope, so the
    // arrival push-out is bounded by (last 50%-crossing − baseline
    // arrival) and the slew degradation by (10–90% envelope span −
    // baseline slew); the ×3 margin covers fit overshoot and
    // slew-degradation amplification through downstream NLDM stages —
    // an engineering margin (validated against prune-off sweeps in
    // tests, monitored by PruneStats::min_bound_gap), not a formal
    // proof: a library with delay-vs-slew table slopes compounding
    // past the margin could in principle defeat it.
    // Per net the worst edge bounds any single path (a path crosses one
    // edge of a net); annotated nets sum, so overlapping cones compose.
    // A bump that never comes near the victim transition contributes ~0
    // — exactly the paper's observation that aggressor alignment
    // decides whether a bump matters at all.
    const double vdd = library_->nom_voltage;
    auto push_out_bound = [&](const NoiseScenario& scenario,
                              const TimingState& baseline,
                              const Corner& corner) {
      double total = 0.0;
      for (const auto& entry : scenario.entries) {
        const auto& w = entry.annotation.waveform;
        if (w.size() == 0) continue;
        const double t_begin = w.times().front();
        const double t_end = w.times().back();
        const auto last50 = w.last_crossing(0.5 * vdd);
        const bool falling =
            entry.annotation.polarity == wave::Polarity::kFalling;
        const auto span_from =
            w.first_crossing((falling ? 0.9 : 0.1) * vdd);
        const auto span_to = w.last_crossing((falling ? 0.1 : 0.9) * vdd);
        const double span =
            span_from.has_value() && span_to.has_value()
                ? std::max(0.0, *span_to - *span_from)
                : t_end - t_begin;  // never crosses: whole record
        const size_t rf = falling ? static_cast<size_t>(RiseFall::kFall)
                                  : static_cast<size_t>(RiseFall::kRise);
        const int ord = netlist_->net_ordinal(entry.net);
        double worst_edge = 0.0;
        for (const uint32_t ei : edges_of_net_[static_cast<size_t>(ord)]) {
          const auto& e = net_edges_[ei];
          if (e.sink_pin == nullptr) continue;  // ports take no Γeff fit
          const auto& drv = baseline[static_cast<size_t>(e.from)].timing[rf];
          if (!drv.valid) continue;
          const double arr =
              drv.arrival +
              net_parasitics_[static_cast<size_t>(e.net)].second *
                  corner.wire_delay_scale;
          const double d_arrival =
              std::max(0.0, (last50.has_value() ? *last50 : t_end) - arr);
          const double d_slew = std::max(0.0, span - drv.slew);
          worst_edge = std::max(worst_edge, 3.0 * (d_arrival + d_slew));
        }
        total += worst_edge;
      }
      return total;
    };
    std::vector<double> push_out(n_points);
    for (size_t c = 0; c < n_corners; ++c) {
      for (size_t s = 0; s < n_scenarios; ++s) {
        push_out[c * n_scenarios + s] =
            push_out_bound(*scenarios[s], baselines[c], r.corners_[c]);
      }
    }
    for (size_t c = 0; c < n_corners; ++c) {
      for (size_t s = 0; s < n_scenarios; ++s) {
        const size_t p = c * n_scenarios + s;
        const std::vector<int32_t>& cone = plans[plan_of[s]].endpoints;
        if (cone.empty() && spec.endpoint_only) {
          // The cone misses every endpoint, so every endpoint summary
          // of this point IS the corner baseline's — recorded exactly,
          // no propagation (the hierarchical-reuse fast path).  Only in
          // endpoint-only mode: a full-state result must materialize
          // the point (in-cone internal vertices DO differ from the
          // baseline), so there it takes the normal route — its bound
          // equals its exact worst slack, so it still prunes whenever
          // it cannot matter.
          r.status_[p] = SweepResult::PointStatus::kSummary;
          summarize(p, c, cone, baselines[c]);
          r.bounds_[p] = r.worst_slacks_[p];  // exact, not just a bound
          worst_seen = std::min(worst_seen, r.worst_slacks_[p]);
          ++r.prune_stats_.reused;
          continue;
        }
        // Lower bound on the point's worst slack: endpoints outside the
        // cone keep their exact baseline slack; endpoints inside it can
        // degrade by at most the scenario's push-out bound.
        double in_min = kInf;
        for (const int32_t e : cone) {
          const auto& vt = baselines[c][endpoint_vertex(e)];
          for (int rf = 0; rf < 2; ++rf) {
            const auto& t = vt.timing[rf];
            if (t.valid && std::isfinite(t.required)) {
              in_min = std::min(in_min, t.slack());
            }
          }
        }
        const WorstEndpoint outside = worst_outside(c, cone);
        const double out_min = outside.constrained ? outside.slack : kInf;
        r.bounds_[p] = std::min(out_min, in_min - push_out[p]);
        order.push_back(p);
      }
    }
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return r.bounds_[a] < r.bounds_[b];
    });
  } else {
    for (size_t p = 0; p < n_points; ++p) order.push_back(p);
  }

  // Per-worker scratch, made on first use and kept for the whole call.
  // A point overlays its scenario onto the worker's copy of the
  // engine-level edge table and afterwards restores exactly the edges
  // it overlaid.  Endpoint-only points fold their forward cone in place
  // on the worker's copy of the corner baseline, summarize it, and
  // restore exactly the cone — no per-point baseline copy, no
  // required-time pass (endpoint required times are their
  // constraints).  Full-state points derive their state into the
  // result through evaluate_delta().
  struct Worker {
    bool ready = false;
    std::vector<const NoiseAnnotation*> table;
    std::vector<TimingState> states;  ///< per corner; empty until used
  };
  std::vector<Worker> workers(pool.size());
  auto run_point = [&](size_t worker, size_t p) {
    Worker& w = workers[worker];
    if (!w.ready) {
      w.table = base_table;
      w.states.resize(n_corners);
      w.ready = true;
    }
    const size_t c = p / n_scenarios;
    const size_t s = p % n_scenarios;
    const auto& entries = scenarios[s]->entries;
    for (size_t k = 0; k < entries.size(); ++k) {
      for (const uint32_t e :
           edges_of_net_[static_cast<size_t>(scenario_nets[s][k])]) {
        w.table[e] = &entries[k].annotation;
      }
    }
    EvalContext ctx;
    ctx.edge_noise = w.table.data();
    ctx.corner = &r.corners_[c];
    ctx.corner_key = r.corners_[c].key();
    ctx.method = method;
    ctx.cache = r.cache_.get();
    const DeltaPlan& plan = plans[plan_of[s]];
    if (spec.endpoint_only) {
      TimingState& state = w.states[c];
      if (state.size() == 0) state = baselines[c];
      fold_forward(state, plan, ctx);
      summarize(p, c, plan.endpoints, state);
      for (const int v : plan.forward) {
        state[static_cast<size_t>(v)] = baselines[c][static_cast<size_t>(v)];
      }
    } else {
      evaluate_delta(r.states_[p], baselines[c], plan, ctx);
    }
    for (const int ord : scenario_nets[s]) {
      for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
        w.table[e] = base_table[e];
      }
    }
  };

  // Wave size: everything at once, but small waves under pruning, so
  // the worst-seen slack tightens between waves and the tail can
  // early-out.
  const size_t chunk =
      prune ? std::max<size_t>(2 * pool.size(), 8) : order.size();

  std::vector<size_t> wave_points;
  double gap_sum = 0.0;
  double gap_min = kInf;

  size_t next = 0;
  while (next < order.size()) {
    // Admit the next wave.  Bounds are sorted ascending and worst_seen
    // only decreases, so the first unbeatable point prunes the whole
    // tail.
    wave_points.clear();
    while (next < order.size() && wave_points.size() < chunk) {
      const size_t p = order[next];
      if (prune && r.bounds_[p] > worst_seen) break;
      wave_points.push_back(p);
      ++next;
    }
    if (wave_points.empty()) break;
    pool.parallel_for_dynamic(wave_points.size(), [&](size_t worker,
                                                      size_t i) {
      run_point(worker, wave_points[i]);
    });
    for (const size_t p : wave_points) {
      const double ws = spec.endpoint_only ? r.worst_slacks_[p]
                                           : worst_slack_in(r.states_[p]);
      worst_seen = std::min(worst_seen, ws);
      if (prune) {
        const double gap = ws - r.bounds_[p];
        gap_sum += gap;
        gap_min = std::min(gap_min, gap);
      }
      ++r.prune_stats_.evaluated;
    }
  }
  // Everything not admitted is pruned: its bound proved it cannot beat
  // the final worst slack.
  for (; next < order.size(); ++next) {
    r.status_[order[next]] = SweepResult::PointStatus::kPruned;
    ++r.prune_stats_.pruned;
  }
  if (r.prune_stats_.evaluated > 0 && prune) {
    r.prune_stats_.mean_bound_gap =
        gap_sum / static_cast<double>(r.prune_stats_.evaluated);
    r.prune_stats_.min_bound_gap = gap_min;
  }
  return r;
}

}  // namespace waveletic::sta
