#include "sta/service.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <utility>
#include <variant>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace waveletic::sta {

// ---------------------------------------------------------------------------
// ServiceStats
// ---------------------------------------------------------------------------

std::string format_service_stats(const ServiceStats& stats) {
  std::ostringstream os;
  os << "service stats:\n";
  os << "  queries served       : " << stats.queries_served << "\n";
  os << "  snapshots published  : " << stats.snapshots_published << "\n";
  os << "  edits applied        : " << stats.edits_applied << "\n";
  os << "  structural rebuilds  : " << stats.structural_rebuilds << "\n";
  os << "  mean dirty-cone frac : " << stats.mean_dirty_cone_fraction << "\n";
  os << "  mean publish latency : " << stats.mean_publish_latency * 1e3
     << " ms\n";
  os << "  last publish latency : " << stats.last_publish_latency * 1e3
     << " ms\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// TimingStatePool
// ---------------------------------------------------------------------------

/// Spare TimingState storage of one service.  Every publish needs one
/// vertex-sized state per corner and every query one more; freeing and
/// reallocating them lets the allocator hand the blocks back to the
/// kernel and fault them in again on some later call, so edit and
/// query latency would depend on the heap's history.  Retired snapshots
/// and dropped query results give their states back here instead, and
/// the next publish or query overwrites one in place (every state is
/// overwritten whole, so reuse changes no result).  It keeps at most
/// one state per corner.  The pool is shared weakly with snapshots and
/// results, which may be dropped on any thread and after the service
/// is gone.
class TimingStatePool {
 public:
  explicit TimingStatePool(size_t capacity) : capacity_(capacity) {
    spare_.reserve(capacity);
  }

  /// A spare state, or an empty one when none is left.
  [[nodiscard]] TimingState take() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spare_.empty()) return {};
    TimingState state = std::move(spare_.back());
    spare_.pop_back();
    return state;
  }

  /// Keeps `state` for reuse, or frees it when the pool is full.
  void give(TimingState&& state) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (spare_.size() < capacity_) spare_.push_back(std::move(state));
  }

 private:
  std::mutex mutex_;
  std::vector<TimingState> spare_;
  const size_t capacity_;
};

// ---------------------------------------------------------------------------
// PreparedSnapshot
// ---------------------------------------------------------------------------

const TimingState& PreparedSnapshot::baseline(size_t corner) const {
  util::require(corner < baselines_.size(),
                "PreparedSnapshot::baseline: corner ordinal ", corner,
                " out of range (", baselines_.size(), " corners)");
  return baselines_[corner];
}

double PreparedSnapshot::worst_slack(size_t corner) const {
  util::require(corner < worst_slacks_.size(),
                "PreparedSnapshot::worst_slack: corner ordinal ", corner,
                " out of range (", worst_slacks_.size(), " corners)");
  return worst_slacks_[corner];
}

const StaEngine::WorstEndpoint& PreparedSnapshot::worst_endpoint(
    size_t corner) const {
  util::require(corner < worst_endpoints_.size(),
                "PreparedSnapshot::worst_endpoint: corner ordinal ", corner,
                " out of range (", worst_endpoints_.size(), " corners)");
  return worst_endpoints_[corner];
}

// ---------------------------------------------------------------------------
// ScenarioTiming
// ---------------------------------------------------------------------------

namespace {

void require_evaluated(const std::shared_ptr<const PreparedSnapshot>& snap) {
  util::require(snap != nullptr,
                "ScenarioTiming: empty result (default-constructed — only "
                "StaService::query() produces evaluated results)");
}

}  // namespace

ScenarioTiming::~ScenarioTiming() {
  if (const auto pool = pool_.lock()) pool->give(std::move(state_));
}

const PinTiming& ScenarioTiming::timing(const std::string& pin,
                                        RiseFall rf) const {
  require_evaluated(snapshot_);
  return snapshot_->engine().timing_in(state_, pin, rf);
}

double ScenarioTiming::worst_slack() const {
  require_evaluated(snapshot_);
  return snapshot_->engine().worst_slack_in(state_);
}

StaEngine::WorstEndpoint ScenarioTiming::worst_endpoint() const {
  require_evaluated(snapshot_);
  return snapshot_->engine().worst_endpoint_in(state_);
}

std::vector<PathStep> ScenarioTiming::critical_path() const {
  require_evaluated(snapshot_);
  return snapshot_->engine().worst_path_in(state_);
}

// ---------------------------------------------------------------------------
// StaService
// ---------------------------------------------------------------------------

StaService::StaService(netlist::Netlist netlist,
                       const liberty::Library& library, ServiceConfig config)
    : library_(&library), config_(std::move(config)) {
  util::require(!config_.corners.empty(),
                "StaService: ServiceConfig.corners must be non-empty");
  states_ = std::make_shared<TimingStatePool>(config_.corners.size());
  if (config_.threads != 1) {
    pool_ = std::make_unique<util::ThreadPool>(config_.threads);
  }

  auto nl = std::make_shared<netlist::Netlist>(std::move(netlist));
  auto eng = std::make_unique<StaEngine>(*nl, *library_);

  auto snap = new_snapshot();
  snap->version_ = 1;
  snap->netlist_ = std::move(nl);
  snap->engine_ = std::move(eng);
  snap->corners_ = config_.corners;
  evaluate_snapshot(*snap, nullptr, nullptr);
  head_ = std::move(snap);
}

StaService::~StaService() = default;

std::shared_ptr<PreparedSnapshot> StaService::new_snapshot() const {
  return std::shared_ptr<PreparedSnapshot>(
      new PreparedSnapshot(),
      [pool = std::weak_ptr<TimingStatePool>(states_)](PreparedSnapshot* snap) {
        if (const auto p = pool.lock()) {
          for (auto& state : snap->baselines_) p->give(std::move(state));
        }
        delete snap;
      });
}

std::shared_ptr<const PreparedSnapshot> StaService::snapshot() const {
  std::lock_guard<std::mutex> lock(head_mutex_);
  return head_;
}

namespace {

/// Applies one configuration edit to the next engine and records the
/// edit's dirty seeds; structural edits (already applied to the copied
/// netlist) only record seeds.  `nl` is the POST-edit netlist the
/// engine analyzes, so every name resolves.
struct ApplyVisitor {
  StaEngine& eng;
  const netlist::Netlist& nl;
  StaEngine::EditSeeds& seeds;
  const std::vector<std::string>& reroute_old_nets;
  size_t& reroute_index;

  [[nodiscard]] int32_t net_ord(const std::string& net) const {
    const int ord = nl.net_ordinal(net);
    util::require(ord >= 0, "StaService::apply: unknown net '", net, "'");
    return static_cast<int32_t>(ord);
  }

  void operator()(const SetOutputLoad& e) const {
    eng.set_output_load(e.port, e.cap);
    // A port's net carries the port's name; the load edit dirties the
    // arcs driving it.
    seeds.load_nets.push_back(net_ord(e.port));
  }
  void operator()(const SetNetParasitics& e) const {
    eng.set_net_parasitics(e.net, e.cap, e.delay);
    const int32_t ord = net_ord(e.net);
    seeds.load_nets.push_back(ord);   // cap changes the driver load
    seeds.delay_nets.push_back(ord);  // delay changes the sink arrivals
  }
  void operator()(const SetInputArrival& e) const {
    eng.set_input(e.port, e.arrival, e.slew);
    seeds.arrival_ports.push_back(eng.port(e.port).index);
  }
  void operator()(const SetRequired& e) const {
    eng.set_required(e.port, e.required);
    seeds.required_ports.push_back(eng.port(e.port).index);
  }
  void operator()(const AnnotateNoisyNet& e) const {
    eng.annotate_noisy_net(e.net, e.waveform, e.polarity);
    seeds.noise_nets.push_back(net_ord(e.net));
  }
  void operator()(const ClearNoisyNet& e) const {
    eng.clear_noisy_net(e.net);
    seeds.noise_nets.push_back(net_ord(e.net));
  }
  void operator()(const RetypeCell& e) const {
    // Arc tables and pin caps changed: every pin vertex of the
    // instance is forward-dirty, and every net it touches may see a
    // different load (input pin caps fold into net loads).
    const netlist::Instance* inst = nl.find_instance(e.instance);
    for (const auto& [pin_name, net] : inst->pins) {
      seeds.vertices.push_back(eng.pin(e.instance + "/" + pin_name).index);
      seeds.load_nets.push_back(net_ord(net));
    }
  }
  void operator()(const RerouteSink& e) const {
    // The sink now listens to another net: its vertex is dirty, and
    // both nets' loads changed (the pin cap moved across).
    seeds.vertices.push_back(eng.pin(e.instance + "/" + e.pin).index);
    seeds.load_nets.push_back(net_ord(reroute_old_nets[reroute_index++]));
    seeds.load_nets.push_back(net_ord(e.new_net));
  }
};

template <typename T>
void sort_unique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

PublishReport StaService::apply(const EditBatch& batch) {
  std::lock_guard<std::mutex> writer(writer_mutex_);
  const auto t0 = std::chrono::steady_clock::now();
  const std::shared_ptr<const PreparedSnapshot> head = snapshot();
  validate_edits(batch, head->netlist(), *library_);
  if (batch.empty()) {
    return PublishReport{head->version(), false, 0, 0, 0.0, 0.0};
  }
  const bool structural = batch.structural();

  // Copy-on-write: structural batches copy the netlist and rebuild the
  // graph (carrying the configuration across); configuration batches
  // fork the engine and share the graph outright.
  std::shared_ptr<const netlist::Netlist> nl = head->netlist_;
  std::unique_ptr<StaEngine> eng;
  std::vector<std::string> reroute_old_nets;  // pre-edit nets of reroutes
  if (structural) {
    auto edited = std::make_shared<netlist::Netlist>(*head->netlist_);
    for (const Edit& edit : batch.edits()) {
      if (const auto* retype = std::get_if<RetypeCell>(&edit)) {
        edited->retype_instance(retype->instance, retype->new_cell);
      } else if (const auto* reroute = std::get_if<RerouteSink>(&edit)) {
        reroute_old_nets.push_back(
            edited->find_instance(reroute->instance)->pins.at(reroute->pin));
        edited->reroute_pin(reroute->instance, reroute->pin,
                            reroute->new_net);
      }
    }
    eng = std::make_unique<StaEngine>(*edited, *library_);
    eng->copy_config_from(head->engine());
    nl = std::move(edited);
  } else {
    eng = head->engine().fork();
  }

  // Apply the configuration edits and collect every edit's dirty seeds.
  StaEngine::EditSeeds seeds;
  size_t reroute_index = 0;
  for (const Edit& edit : batch.edits()) {
    std::visit(ApplyVisitor{*eng, *nl, seeds, reroute_old_nets, reroute_index},
               edit);
  }
  sort_unique(seeds.load_nets);
  sort_unique(seeds.delay_nets);
  sort_unique(seeds.noise_nets);
  sort_unique(seeds.arrival_ports);
  sort_unique(seeds.required_ports);
  sort_unique(seeds.vertices);

  const StaEngine::DeltaPlan plan = eng->delta_plan(seeds);
  const size_t vertices = eng->vertex_count();

  auto snap = new_snapshot();
  snap->version_ = head->version() + 1;
  snap->netlist_ = std::move(nl);
  snap->engine_ = std::move(eng);
  snap->corners_ = config_.corners;
  evaluate_snapshot(*snap, head.get(), &plan);

  {
    std::lock_guard<std::mutex> lock(head_mutex_);
    head_ = snap;
  }

  PublishReport report;
  report.version = snap->version();
  report.structural = structural;
  report.edits = batch.size();
  report.dirty_vertices = plan.forward.size();
  report.dirty_cone_fraction =
      vertices > 0
          ? static_cast<double>(plan.forward.size()) /
                static_cast<double>(vertices)
          : 0.0;
  report.publish_latency =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++snapshots_published_;
    edits_applied_ += batch.size();
    if (structural) ++structural_rebuilds_;
    dirty_fraction_sum_ += report.dirty_cone_fraction;
    last_dirty_fraction_ = report.dirty_cone_fraction;
    publish_latency_sum_ += report.publish_latency;
    last_publish_latency_ = report.publish_latency;
  }
  return report;
}

void StaService::evaluate_snapshot(PreparedSnapshot& snap,
                                   const PreparedSnapshot* previous,
                                   const StaEngine::DeltaPlan* plan) {
  const StaEngine& eng = *snap.engine_;
  const size_t n_corners = snap.corners_.size();

  const auto table = eng.compile_edge_annotations(nullptr);
  std::vector<StaEngine::EvalContext> contexts(n_corners);
  for (size_t c = 0; c < n_corners; ++c) {
    contexts[c].edge_noise = table.data();
    contexts[c].corner = &snap.corners_[c];
    contexts[c].corner_key = snap.corners_[c].key();
    contexts[c].method = &eng.noise_method();
    contexts[c].cache = &snap.cache_;
  }
  snap.baselines_.resize(n_corners);
  for (auto& state : snap.baselines_) state = states_->take();

  bool delta = previous != nullptr && plan != nullptr;
  if (delta && snap.netlist_.get() != previous->netlist_.get()) {
    // Rebuild path: reusing the previous baselines as delta bases
    // requires the vertex axis to be unchanged.  Construction
    // guarantees it for retype/reroute (declaration-driven vertex
    // interning; edits never add or remove pins) — verified here, with
    // a full evaluation as the conservative fallback.
    delta = eng.vertex_count() == previous->engine().vertex_count();
    for (size_t v = 0; delta && v < eng.vertex_count(); ++v) {
      delta = eng.vertex_name(v) == previous->engine().vertex_name(v);
    }
  }

  if (delta) {
    std::vector<const TimingState*> bases(n_corners);
    for (size_t c = 0; c < n_corners; ++c) {
      bases[c] = &previous->baselines_[c];
    }
    const std::vector<const StaEngine::DeltaPlan*> plans(n_corners, plan);
    eng.evaluate_points_delta(snap.baselines_, contexts, bases, plans,
                              pool_.get());
  } else {
    for (size_t c = 0; c < n_corners; ++c) {
      eng.evaluate(snap.baselines_[c], contexts[c], pool_.get());
    }
  }

  snap.worst_slacks_.resize(n_corners);
  snap.worst_endpoints_.resize(n_corners);
  for (size_t c = 0; c < n_corners; ++c) {
    snap.worst_slacks_[c] = eng.worst_slack_in(snap.baselines_[c]);
    snap.worst_endpoints_[c] = eng.worst_endpoint_in(snap.baselines_[c]);
  }
}

double StaService::worst_slack(size_t corner) const {
  const auto snap = snapshot();
  count_query();
  return snap->worst_slack(corner);
}

StaEngine::WorstEndpoint StaService::worst_endpoint(size_t corner) const {
  const auto snap = snapshot();
  count_query();
  return snap->worst_endpoint(corner);
}

PinTiming StaService::timing(const std::string& pin, RiseFall rf,
                             size_t corner) const {
  const auto snap = snapshot();
  count_query();
  return snap->engine().timing_in(snap->baseline(corner), pin, rf);
}

std::vector<PathStep> StaService::critical_path(size_t corner) const {
  const auto snap = snapshot();
  count_query();
  return snap->engine().worst_path_in(snap->baseline(corner));
}

ScenarioTiming StaService::query(const NoiseScenario& scenario,
                                 size_t corner) const {
  const auto snap = snapshot();
  count_query();
  util::require(corner < snap->corners().size(),
                "StaService::query: corner ordinal ", corner,
                " out of range (", snap->corners().size(), " corners)");
  const StaEngine& eng = snap->engine();
  const auto table = eng.compile_edge_annotations(&scenario);
  const StaEngine::DeltaPlan plan = eng.delta_plan(scenario);

  StaEngine::EvalContext ctx;
  ctx.edge_noise = table.data();
  ctx.corner = &snap->corners()[corner];
  ctx.corner_key = ctx.corner->key();
  ctx.method = &eng.noise_method();
  ctx.cache = &snap->cache_;

  ScenarioTiming result;
  result.snapshot_ = snap;
  result.corner_ = corner;
  result.state_ = states_->take();
  result.pool_ = states_;
  eng.evaluate_delta(result.state_, snap->baseline(corner), plan, ctx);
  return result;
}

ServiceStats StaService::stats() const {
  ServiceStats s;
  s.queries_served = queries_served_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(stats_mutex_);
  s.snapshots_published = snapshots_published_;
  s.edits_applied = edits_applied_;
  s.structural_rebuilds = structural_rebuilds_;
  s.last_dirty_cone_fraction = last_dirty_fraction_;
  s.last_publish_latency = last_publish_latency_;
  if (snapshots_published_ > 0) {
    const auto n = static_cast<double>(snapshots_published_);
    s.mean_dirty_cone_fraction = dirty_fraction_sum_ / n;
    s.mean_publish_latency = publish_latency_sum_ / n;
  }
  return s;
}

}  // namespace waveletic::sta
