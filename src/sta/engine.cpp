#include "sta/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <sstream>

#include "core/sgdp.hpp"
#include "sta/gamma_cache.hpp"
#include "sta/sweep.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
#include "wave/ramp.hpp"

namespace waveletic::sta {
namespace {

/// Vertex marks of one plan construction, in a per-thread array: plans
/// are built concurrently (delta_plan() is const; service readers call
/// it from their own threads), and each thread reuses its array.  Every
/// marked vertex is listed per bit, and the destructor clears exactly
/// the listed entries, so the array is all-zero between plans and a
/// plan never fills or scans anything V-sized.
class PlanMarks {
 public:
  static constexpr unsigned char kForward = 1;
  static constexpr unsigned char kBackward = 2;

  explicit PlanMarks(size_t vertices) : marks_(thread_marks()) {
    if (marks_.size() < vertices) marks_.resize(vertices, 0);
  }
  PlanMarks(const PlanMarks&) = delete;
  PlanMarks& operator=(const PlanMarks&) = delete;
  ~PlanMarks() {
    for (const auto& list : listed_) {
      for (const int v : list) marks_[static_cast<size_t>(v)] = 0;
    }
  }

  /// Marks `v` with `bit`; true (and `v` appended to listed(bit)) when
  /// it did not carry the bit yet.
  bool mark(int v, unsigned char bit) {
    unsigned char& m = marks_[static_cast<size_t>(v)];
    if ((m & bit) != 0) return false;
    m |= bit;
    listed_[bit == kForward ? 0 : 1].push_back(v);
    return true;
  }
  /// Every vertex marked with `bit`, in marking order.
  [[nodiscard]] const std::vector<int>& listed(unsigned char bit) const {
    return listed_[bit == kForward ? 0 : 1];
  }

 private:
  static std::vector<unsigned char>& thread_marks() {
    thread_local std::vector<unsigned char> marks;
    return marks;
  }
  std::vector<unsigned char>& marks_;
  std::vector<int> listed_[2];
};

/// `list` sorted by (level, vertex), or by (descending level, vertex):
/// the serial forward and backward propagation orders.  Keys pack the
/// level above the vertex id into one integer, so one sort of plain
/// integers orders a cone.
std::vector<int> sorted_by_level(const std::vector<int>& list,
                                 const std::vector<int>& vertex_level,
                                 bool descending) {
  std::vector<uint64_t> keys;
  keys.reserve(list.size());
  for (const int v : list) {
    const auto level =
        static_cast<uint32_t>(vertex_level[static_cast<size_t>(v)]);
    keys.push_back(
        (static_cast<uint64_t>(descending ? ~level : level) << 32) |
        static_cast<uint32_t>(v));
  }
  std::sort(keys.begin(), keys.end());
  std::vector<int> out;
  out.reserve(keys.size());
  for (const uint64_t k : keys) {
    out.push_back(static_cast<int>(k & 0xffffffffu));
  }
  return out;
}

wave::Polarity to_polarity(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? wave::Polarity::kRising
                               : wave::Polarity::kFalling;
}

/// Engine tags start at 1 so a zero-initialized handle never matches.
uint32_t next_graph_tag() noexcept {
  static std::atomic<uint32_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

/// Levenshtein distance with a band cut-off: distances above `cap` all
/// report cap + 1.  Only runs on the error path.
size_t edit_distance(const std::string& a, const std::string& b,
                     size_t cap) {
  const size_t n = a.size();
  const size_t m = b.size();
  if (n > m + cap || m > n + cap) return cap + 1;
  std::vector<size_t> row(m + 1);
  for (size_t j = 0; j <= m; ++j) row[j] = j;
  for (size_t i = 1; i <= n; ++i) {
    size_t prev = row[0];
    row[0] = i;
    size_t best = row[0];
    for (size_t j = 1; j <= m; ++j) {
      const size_t subst = prev + (a[i - 1] == b[j - 1] ? 0 : 1);
      prev = row[j];
      row[j] = std::min({row[j] + 1, row[j - 1] + 1, subst});
      best = std::min(best, row[j]);
    }
    if (best > cap) return cap + 1;
  }
  return row[m];
}

/// Up to three names nearest to `name` by edit distance (ties broken by
/// the order of `candidates`, which callers pass sorted).
std::vector<std::string> nearest_names(
    const std::string& name, const std::vector<std::string>& candidates) {
  constexpr size_t kCap = 6;
  std::vector<std::pair<size_t, const std::string*>> scored;
  for (const auto& c : candidates) {
    const size_t d = edit_distance(name, c, kCap);
    if (d <= kCap) scored.push_back({d, &c});
  }
  std::stable_sort(scored.begin(), scored.end(),
                   [](const auto& x, const auto& y) { return x.first < y.first; });
  std::vector<std::string> out;
  for (size_t i = 0; i < scored.size() && i < 3; ++i) {
    out.push_back(*scored[i].second);
  }
  return out;
}

void append_suggestions(std::ostringstream& os,
                        const std::vector<std::string>& suggestions) {
  if (suggestions.empty()) return;
  os << " (nearest: ";
  for (size_t i = 0; i < suggestions.size(); ++i) {
    if (i) os << ", ";
    os << suggestions[i];
  }
  os << ')';
}

}  // namespace

const char* to_string(RiseFall rf) noexcept {
  return rf == RiseFall::kRise ? "rise" : "fall";
}

StaEngine::StaEngine(const netlist::Netlist& nl, const liberty::Library& lib)
    : netlist_(&nl), library_(&lib), graph_(make_graph(nl, lib)),
      graph_tag_(graph_->tag) {
  noise_method_ = std::make_unique<core::SgdpMethod>();
  const size_t n_nets = nl.nets().size();
  output_loads_.assign(ports_.size(), 0.0);
  net_parasitics_.assign(n_nets, {0.0, 0.0});
  net_loads_.resize(n_nets);
  for (size_t i = 0; i < n_nets; ++i) net_loads_[i] = net_load(i);
  // Sized once; pointers into net_annotations_ slots stay stable.
  net_annotations_.assign(n_nets, std::nullopt);
}

StaEngine::StaEngine(const StaEngine& other, ForkTag)
    : netlist_(other.netlist_),
      library_(other.library_),
      graph_(other.graph_),
      graph_tag_(other.graph_tag_),
      input_constraints_(other.input_constraints_),
      required_(other.required_),
      output_loads_(other.output_loads_),
      net_parasitics_(other.net_parasitics_),
      net_loads_(other.net_loads_),
      net_annotations_(other.net_annotations_),
      noisy_net_count_(other.noisy_net_count_),
      corner_(other.corner_),
      noise_method_(other.noise_method_->clone()),
      threads_(other.threads_) {}

std::unique_ptr<StaEngine> StaEngine::fork() const {
  return std::unique_ptr<StaEngine>(new StaEngine(*this, ForkTag{}));
}

void StaEngine::copy_config_from(const StaEngine& other) {
  // The edited netlist may only APPEND nets (Netlist::reroute_pin's
  // ordinal-stability contract), so `other`'s net order must be a
  // prefix of ours; appended nets start with default config below.
  const auto& nets = netlist_->nets();
  const auto& other_nets = other.netlist_->nets();
  util::require(other_nets.size() <= nets.size() &&
                    std::equal(other_nets.begin(), other_nets.end(),
                               nets.begin()),
                "copy_config_from: net orders differ — the edited netlist "
                "must keep the ordinal-stability contract (nets may only "
                "be appended)");
  util::require(ports_.size() == other.ports_.size(),
                "copy_config_from: port counts differ (", ports_.size(),
                " vs ", other.ports_.size(), ")");
  input_constraints_.clear();
  required_.clear();
  for (size_t p = 0; p < ports_.size(); ++p) {
    util::require(ports_[p].name == other.ports_[p].name,
                  "copy_config_from: port order differs at ordinal ", p, " (",
                  ports_[p].name, " vs ", other.ports_[p].name, ")");
    // Input/required constraints are keyed by port VERTEX, which may
    // differ across graphs; remap through the shared port ordinal.
    const auto ic = other.input_constraints_.find(other.ports_[p].vertex);
    if (ic != other.input_constraints_.end()) {
      input_constraints_[ports_[p].vertex] = ic->second;
    }
    const auto rq = other.required_.find(other.ports_[p].vertex);
    if (rq != other.required_.end()) {
      required_[ports_[p].vertex] = rq->second;
    }
  }
  output_loads_ = other.output_loads_;
  net_parasitics_ = other.net_parasitics_;
  net_annotations_ = other.net_annotations_;
  net_parasitics_.resize(nets.size(), {0.0, 0.0});
  net_annotations_.resize(nets.size());
  noisy_net_count_ = other.noisy_net_count_;
  corner_ = other.corner_;
  noise_method_ = other.noise_method_->clone();
  threads_ = other.threads_;
  // Pin caps come from this engine's graph (a retype or reroute moves
  // them), parasitics and port loads from `other`.
  for (size_t i = 0; i < nets.size(); ++i) net_loads_[i] = net_load(i);
  analyzed_ = false;
}

StaEngine::~StaEngine() = default;

util::Error StaEngine::unknown_vertex_error(const std::string& name) const {
  std::ostringstream os;
  os << "unknown pin/port: " << name;
  append_suggestions(os, nearest_names(name, sorted_vertex_names_));
  return util::Error(os.str());
}

int StaEngine::find_vertex(const std::string& name) const {
  const auto it = vertex_index_.find(name);
  if (it == vertex_index_.end()) throw unknown_vertex_error(name);
  return it->second;
}

PinId StaEngine::pin(const std::string& name) const {
  return PinId{find_vertex(name), graph_tag_};
}

PinId StaEngine::find_pin(const std::string& name) const noexcept {
  const auto it = vertex_index_.find(name);
  if (it == vertex_index_.end()) return PinId{};
  return PinId{it->second, graph_tag_};
}

NetId StaEngine::net(const std::string& name) const {
  const int ord = netlist_->net_ordinal(name);
  if (ord < 0) {
    std::ostringstream os;
    os << "unknown net: " << name;
    std::vector<std::string> nets = netlist_->nets();
    std::sort(nets.begin(), nets.end());
    append_suggestions(os, nearest_names(name, nets));
    throw util::Error(os.str());
  }
  return NetId{ord, graph_tag_};
}

PortId StaEngine::port(const std::string& name) const {
  // ports_ follows the netlist's port order.
  const int ord = netlist_->port_ordinal(name);
  if (ord >= 0) return PortId{ord, graph_tag_};
  std::ostringstream os;
  os << "unknown port: " << name << " (ports:";
  for (const auto& p : ports_) os << ' ' << p.name;
  os << ')';
  throw util::Error(os.str());
}

const std::string& StaEngine::name(PinId pin) const {
  return vertex_names_[static_cast<size_t>(check(pin))];
}

const std::string& StaEngine::name(NetId net) const {
  return netlist_->nets()[static_cast<size_t>(check(net))];
}

const std::string& StaEngine::name(PortId port) const {
  return ports_[static_cast<size_t>(check(port))].name;
}

int StaEngine::check(PinId pin) const {
  util::require(pin.graph == graph_tag_ && pin.index >= 0 &&
                    static_cast<size_t>(pin.index) < vertex_names_.size(),
                "invalid PinId (index ", pin.index, ", graph ", pin.graph,
                "): not minted by this engine — resolve it via pin()");
  return pin.index;
}

int StaEngine::check(NetId net) const {
  util::require(net.graph == graph_tag_ && net.index >= 0 &&
                    static_cast<size_t>(net.index) < net_annotations_.size(),
                "invalid NetId (index ", net.index, ", graph ", net.graph,
                "): not minted by this engine — resolve it via net()");
  return net.index;
}

int StaEngine::check(PortId port) const {
  util::require(port.graph == graph_tag_ && port.index >= 0 &&
                    static_cast<size_t>(port.index) < ports_.size(),
                "invalid PortId (index ", port.index, ", graph ", port.graph,
                "): not minted by this engine — resolve it via port()");
  return port.index;
}

std::shared_ptr<const StaEngine::Graph> StaEngine::make_graph(
    const netlist::Netlist& nl, const liberty::Library& lib) {
  nl.validate();
  auto graph = std::make_shared<Graph>();
  Graph& g = *graph;
  g.tag = next_graph_tag();
  // Vertex interning: declaration-driven order (ports first, then
  // instance pins in instance / pin-map order) — stable under retype
  // and reroute edits, which is what lets the service carry timing
  // baselines across a structural rebuild by direct index.
  auto vertex = [&g](const std::string& name) {
    const auto [it, inserted] = g.vertex_index.try_emplace(
        name, static_cast<int>(g.vertex_names.size()));
    if (inserted) g.vertex_names.push_back(name);
    return it->second;
  };
  // Vertices + port records for ports.  Ports are interned first, so
  // port p is vertex p and every constraint sits below ports.size().
  for (const auto& port : nl.ports()) {
    const int v = vertex(port.name);
    g.ports.push_back({port.name, v, port.direction});
  }
  const size_t n_nets = nl.nets().size();
  // Vertices + cell arc edges for instances.  Each input pin adds its
  // cap to its net's load in this (instance, pin-map) visit order — the
  // fold order net_load() has always used, so loads stay bitwise.
  g.net_pin_cap.assign(n_nets, 0.0);
  for (const auto& inst : nl.instances()) {
    const liberty::Cell* cell = lib.find_cell(inst.cell);
    util::require(cell != nullptr, "instance ", inst.name,
                  " references unknown cell ", inst.cell);
    for (const auto& [pin_name, net] : inst.pins) {
      const liberty::Pin* pin = cell->find_pin(pin_name);
      util::require(pin != nullptr, "instance ", inst.name,
                    ": cell ", inst.cell, " has no pin ", pin_name);
      vertex(inst.name + "/" + pin_name);
      if (pin->direction == liberty::PinDirection::kInput) {
        g.net_pin_cap[static_cast<size_t>(nl.net_ordinal(net))] +=
            pin->capacitance;
      }
    }
    // One edge per (input pin -> output pin) timing arc.
    for (const auto& pin : cell->pins) {
      if (pin.direction != liberty::PinDirection::kOutput) continue;
      const auto out_it = inst.pins.find(pin.name);
      if (out_it == inst.pins.end()) continue;
      for (const auto& arc : pin.arcs) {
        const auto in_it = inst.pins.find(arc.related_pin);
        if (in_it == inst.pins.end()) continue;
        CellArcEdge e;
        e.from = vertex(inst.name + "/" + arc.related_pin);
        e.to = vertex(inst.name + "/" + pin.name);
        e.arc = &arc;
        e.out_net = nl.net_ordinal(out_it->second);
        g.cell_edges.push_back(e);
      }
    }
  }
  g.edges_of_net.assign(n_nets, {});
  g.arcs_of_net.assign(n_nets, {});
  g.sink_load_edges_of_net.assign(n_nets, {});
  for (size_t i = 0; i < g.cell_edges.size(); ++i) {
    if (g.cell_edges[i].out_net >= 0) {
      g.arcs_of_net[static_cast<size_t>(g.cell_edges[i].out_net)].push_back(
          static_cast<uint32_t>(i));
    }
  }
  // Net edges: driver -> every sink.
  for (size_t ord = 0; ord < n_nets; ++ord) {
    const std::string& net = nl.nets()[ord];
    // Driver: an input port with this net name, or an instance output.
    const netlist::Port* port = nl.find_port(net);
    std::vector<int> drivers;
    if (port != nullptr && port->direction == netlist::PortDirection::kInput) {
      drivers.push_back(vertex(net));
    }
    struct Sink {
      int v;
      const liberty::Pin* pin;
      const liberty::Cell* cell;
      int32_t out_net;  // net driven by the sink gate's output pin
    };
    std::vector<Sink> sinks;
    for (const auto& ref : nl.pins_on_net(net)) {
      const liberty::Cell* cell = lib.find_cell(ref.instance->cell);
      const liberty::Pin* pin = cell->find_pin(ref.pin);
      const int v = vertex(ref.instance->name + "/" + ref.pin);
      if (pin->direction == liberty::PinDirection::kOutput) {
        drivers.push_back(v);
      } else {
        const auto& out_pin = cell->output_pin();
        const auto out_it = ref.instance->pins.find(out_pin.name);
        sinks.push_back({v, pin, cell,
                         out_it == ref.instance->pins.end()
                             ? -1
                             : nl.net_ordinal(out_it->second)});
      }
    }
    if (port != nullptr &&
        port->direction == netlist::PortDirection::kOutput) {
      sinks.push_back({vertex(net), nullptr, nullptr, -1});
    }
    util::require(drivers.size() <= 1, "net ", net, " has ", drivers.size(),
                  " drivers");
    if (drivers.empty()) continue;  // undriven net: stays unconstrained
    const auto net_ord = static_cast<int32_t>(ord);
    for (const auto& sink : sinks) {
      NetEdge e;
      e.from = drivers[0];
      e.to = sink.v;
      e.net = net_ord;
      e.sink_pin = sink.pin;
      e.sink_cell = sink.cell;
      e.sink_out_net = sink.out_net;
      const auto idx = static_cast<uint32_t>(g.net_edges.size());
      g.edges_of_net[static_cast<size_t>(net_ord)].push_back(idx);
      if (sink.out_net >= 0) {
        g.sink_load_edges_of_net[static_cast<size_t>(sink.out_net)].push_back(
            idx);
      }
      g.net_edges.push_back(e);
    }
  }
  // Adjacency in deterministic construction order: cell edges first,
  // then net edges, each by ascending edge index.  Every per-vertex
  // fold during propagation walks these lists in this fixed order,
  // which is what makes results independent of the thread count.
  const size_t n = g.vertex_names.size();
  g.in_edges.assign(n, {});
  g.out_edges.assign(n, {});
  for (size_t i = 0; i < g.cell_edges.size(); ++i) {
    g.out_edges[static_cast<size_t>(g.cell_edges[i].from)].push_back(
        {true, static_cast<uint32_t>(i)});
    g.in_edges[static_cast<size_t>(g.cell_edges[i].to)].push_back(
        {true, static_cast<uint32_t>(i)});
  }
  for (size_t i = 0; i < g.net_edges.size(); ++i) {
    g.out_edges[static_cast<size_t>(g.net_edges[i].from)].push_back(
        {false, static_cast<uint32_t>(i)});
    g.in_edges[static_cast<size_t>(g.net_edges[i].to)].push_back(
        {false, static_cast<uint32_t>(i)});
  }
  g.sorted_vertex_names = g.vertex_names;
  std::sort(g.sorted_vertex_names.begin(), g.sorted_vertex_names.end());
  levelize(g);
  g.endpoint_of_vertex.assign(n, -1);
  g.net_output_port.assign(n_nets, -1);
  g.port_net.assign(g.ports.size(), -1);
  for (size_t p = 0; p < g.ports.size(); ++p) {
    if (g.ports[p].direction != netlist::PortDirection::kOutput) continue;
    g.endpoint_of_vertex[static_cast<size_t>(g.ports[p].vertex)] =
        static_cast<int32_t>(g.endpoint_ports.size());
    g.endpoint_ports.push_back(static_cast<int32_t>(p));
    const int ord = nl.net_ordinal(g.ports[p].name);
    if (ord >= 0) {
      g.port_net[p] = ord;
      g.net_output_port[static_cast<size_t>(ord)] = static_cast<int32_t>(p);
    }
  }
  return graph;
}

void StaEngine::levelize(Graph& g) {
  // Kahn topological sort; level(v) = 1 + max over predecessors.  The
  // levels are stored on the graph and reused by every evaluation.
  const size_t n = g.vertex_names.size();
  std::vector<int> indegree(n, 0);
  for (size_t v = 0; v < n; ++v) {
    indegree[v] = static_cast<int>(g.in_edges[v].size());
  }
  std::vector<int> level(n, 0);
  std::vector<int> ready;
  for (size_t v = 0; v < n; ++v) {
    if (indegree[v] == 0) ready.push_back(static_cast<int>(v));
  }
  size_t visited = 0;
  int max_level = 0;
  while (!ready.empty()) {
    const int v = ready.back();
    ready.pop_back();
    ++visited;
    for (const auto& [is_cell, idx] : g.out_edges[static_cast<size_t>(v)]) {
      const int to = is_cell ? g.cell_edges[idx].to : g.net_edges[idx].to;
      level[static_cast<size_t>(to)] =
          std::max(level[static_cast<size_t>(to)], level[static_cast<size_t>(v)] + 1);
      max_level = std::max(max_level, level[static_cast<size_t>(to)]);
      if (--indegree[static_cast<size_t>(to)] == 0) ready.push_back(to);
    }
  }
  util::require(visited == n,
                "timing graph has a combinational cycle (", n - visited,
                " vertices unresolved)");
  g.levels.assign(static_cast<size_t>(max_level) + 1, {});
  for (size_t v = 0; v < n; ++v) {
    g.levels[static_cast<size_t>(level[v])].push_back(static_cast<int>(v));
  }
  g.vertex_level = std::move(level);
}

double StaEngine::net_load(size_t ord) const noexcept {
  double load = graph_->net_pin_cap[ord] + net_parasitics_[ord].first;
  const int32_t port = graph_->net_output_port[ord];
  if (port >= 0) load += output_loads_[static_cast<size_t>(port)];
  return load;
}

void StaEngine::set_input(PortId port, double arrival, double slew) {
  set_input(port, RiseFall::kRise, arrival, slew);
  set_input(port, RiseFall::kFall, arrival, slew);
}

void StaEngine::set_input(const std::string& port, double arrival,
                          double slew) {
  set_input(this->port(port), arrival, slew);
}

void StaEngine::set_input(PortId port, RiseFall rf, double arrival,
                          double slew) {
  const auto& p = ports_[static_cast<size_t>(check(port))];
  util::require(p.direction == netlist::PortDirection::kInput,
                "set_input: ", p.name, " is not an input port");
  util::require(std::isfinite(arrival), "set_input: non-finite arrival (",
                arrival, ") on port ", p.name);
  util::require(std::isfinite(slew) && slew > 0.0,
                "set_input: slew must be finite and > 0, got ", slew,
                " on port ", p.name);
  auto& c = input_constraints_[p.vertex][static_cast<size_t>(rf)];
  c.arrival = arrival;
  c.slew = slew;
  c.set = true;
  analyzed_ = false;
}

void StaEngine::set_input(const std::string& port, RiseFall rf,
                          double arrival, double slew) {
  set_input(this->port(port), rf, arrival, slew);
}

void StaEngine::set_output_load(PortId port, double cap) {
  const size_t i = static_cast<size_t>(check(port));
  util::require(ports_[i].direction == netlist::PortDirection::kOutput,
                "set_output_load: ", ports_[i].name,
                " is not an output port");
  util::require(std::isfinite(cap) && cap >= 0.0,
                "set_output_load: load cap must be finite and >= 0, got ", cap,
                " on port ", ports_[i].name);
  output_loads_[i] = cap;
  const int32_t ord = graph_->port_net[i];
  if (ord >= 0) {
    net_loads_[static_cast<size_t>(ord)] = net_load(static_cast<size_t>(ord));
  }
  analyzed_ = false;
}

void StaEngine::set_output_load(const std::string& port, double cap) {
  set_output_load(this->port(port), cap);
}

void StaEngine::set_required(PortId port, double time) {
  const auto& p = ports_[static_cast<size_t>(check(port))];
  util::require(p.direction == netlist::PortDirection::kOutput,
                "set_required: ", p.name, " is not an output port");
  util::require(std::isfinite(time), "set_required: non-finite required time (",
                time, ") on port ", p.name);
  required_[p.vertex] = time;
  analyzed_ = false;
}

void StaEngine::set_required(const std::string& port, double time) {
  set_required(this->port(port), time);
}

void StaEngine::set_net_parasitics(NetId net, double cap, double delay) {
  const auto i = static_cast<size_t>(check(net));
  util::require(std::isfinite(cap) && cap >= 0.0,
                "set_net_parasitics: parasitic cap must be finite and >= 0, "
                "got ", cap, " on net ", netlist_->nets()[i]);
  util::require(std::isfinite(delay) && delay >= 0.0,
                "set_net_parasitics: wire delay must be finite and >= 0, got ",
                delay, " on net ", netlist_->nets()[i]);
  net_parasitics_[i] = {cap, delay};
  net_loads_[i] = net_load(i);
  analyzed_ = false;
}

void StaEngine::set_net_parasitics(const std::string& net, double cap,
                                   double delay) {
  util::require(netlist_->has_net(net), "set_net_parasitics: unknown net ",
                net);
  set_net_parasitics(this->net(net), cap, delay);
}

void StaEngine::set_corner(Corner corner) {
  corner_ = std::move(corner);
  analyzed_ = false;
}

void StaEngine::clear_corner() {
  corner_.reset();
  analyzed_ = false;
}

void StaEngine::set_noise_method(
    std::unique_ptr<core::EquivalentWaveformMethod> m) {
  util::require(m != nullptr, "null noise method");
  noise_method_ = std::move(m);
  analyzed_ = false;
}

void StaEngine::annotate_noisy_net(NetId net, wave::Waveform waveform,
                                   wave::Polarity polarity) {
  const size_t i = static_cast<size_t>(check(net));
  const uint64_t key = noise_waveform_key(waveform, polarity);
  if (!net_annotations_[i].has_value()) ++noisy_net_count_;
  net_annotations_[i] = NoiseAnnotation{std::move(waveform), polarity, key};
  analyzed_ = false;
}

void StaEngine::annotate_noisy_net(const std::string& net,
                                   wave::Waveform waveform,
                                   wave::Polarity polarity) {
  util::require(netlist_->has_net(net), "annotate_noisy_net: unknown net ",
                net);
  annotate_noisy_net(this->net(net), std::move(waveform), polarity);
}

void StaEngine::clear_noisy_net(NetId net) {
  const size_t i = static_cast<size_t>(check(net));
  if (net_annotations_[i].has_value()) --noisy_net_count_;
  net_annotations_[i].reset();
  analyzed_ = false;
}

void StaEngine::clear_noisy_net(const std::string& net) {
  util::require(netlist_->has_net(net), "clear_noisy_net: unknown net ", net);
  clear_noisy_net(this->net(net));
}

void StaEngine::clear_noisy_nets() {
  std::fill(net_annotations_.begin(), net_annotations_.end(), std::nullopt);
  noisy_net_count_ = 0;
  analyzed_ = false;
}

const NoiseAnnotation* StaEngine::noisy_net(NetId net) const {
  const auto& slot = net_annotations_[static_cast<size_t>(check(net))];
  return slot.has_value() ? &*slot : nullptr;
}

const NoiseAnnotation* StaEngine::noisy_net(const std::string& net) const {
  return noisy_net(this->net(net));
}

std::vector<const NoiseAnnotation*> StaEngine::compile_edge_annotations(
    const NoiseScenario* overlay) const {
  std::vector<const NoiseAnnotation*> table(net_edges_.size(), nullptr);
  if (noisy_net_count_ > 0) {
    for (size_t i = 0; i < net_annotations_.size(); ++i) {
      if (!net_annotations_[i].has_value()) continue;
      for (const uint32_t e : edges_of_net_[i]) {
        table[e] = &*net_annotations_[i];
      }
    }
  }
  if (overlay != nullptr) {
    for (const auto& entry : overlay->entries) {
      const int ord = netlist_->net_ordinal(entry.net);
      util::require(ord >= 0, "scenario ", overlay->name,
                    " annotates unknown net ", entry.net);
      for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
        table[e] = &entry.annotation;
      }
    }
  }
  return table;
}

void StaEngine::set_threads(int threads) {
  threads_ = threads;
  pool_.reset();
}

void StaEngine::init_state(TimingState& state) const {
  state.reset(vertex_names_.size());
  for (const auto& [v, per_rf] : input_constraints_) {
    for (size_t rf = 0; rf < 2; ++rf) {
      if (!per_rf[rf].set) continue;
      auto& t = state[static_cast<size_t>(v)].timing[rf];
      t.arrival = per_rf[rf].arrival;
      t.slew = per_rf[rf].slew;
      t.valid = true;
    }
  }
  for (const auto& [v, time] : required_) {
    state[static_cast<size_t>(v)].timing[0].required = time;
    state[static_cast<size_t>(v)].timing[1].required = time;
  }
}

void StaEngine::relax(TimingState& state, int to, RiseFall to_rf,
                      double arrival, double slew, int from,
                      RiseFall from_rf) {
  auto& vt = state[static_cast<size_t>(to)];
  auto& t = vt.timing[static_cast<size_t>(to_rf)];
  if (!t.valid || arrival > t.arrival) {
    t.arrival = arrival;
    t.slew = slew;
    t.valid = true;
    vt.critical_pred[static_cast<size_t>(to_rf)] = from;
    vt.critical_pred_rf[static_cast<size_t>(to_rf)] = from_rf;
  }
}

void StaEngine::propagate_cell_edge(const CellArcEdge& e, TimingState& state,
                                    const EvalContext& ctx) const {
  // x * 1.0 is bitwise x, so the nominal corner (or no corner at all)
  // reproduces un-derated results exactly.
  const double delay_scale =
      ctx.corner != nullptr ? ctx.corner->cell_delay_scale : 1.0;
  const double slew_scale =
      ctx.corner != nullptr ? ctx.corner->cell_slew_scale : 1.0;
  const auto& from = state[static_cast<size_t>(e.from)];
  const double load = net_loads_[static_cast<size_t>(e.out_net)];
  for (int rf_i = 0; rf_i < 2; ++rf_i) {
    const auto& in = from.timing[rf_i];
    if (!in.valid) continue;
    const auto in_rf = static_cast<RiseFall>(rf_i);

    RiseFall out_rfs[2];
    int out_count = 0;
    switch (e.arc->sense) {
      case liberty::TimingSense::kPositiveUnate:
        out_rfs[out_count++] = in_rf;
        break;
      case liberty::TimingSense::kNegativeUnate:
        out_rfs[out_count++] = flip(in_rf);
        break;
      case liberty::TimingSense::kNonUnate:
        out_rfs[out_count++] = RiseFall::kRise;
        out_rfs[out_count++] = RiseFall::kFall;
        break;
    }
    for (int i = 0; i < out_count; ++i) {
      const auto out_rf = out_rfs[i];
      const auto lookup = (out_rf == RiseFall::kRise)
                              ? e.arc->rise(in.slew, load)
                              : e.arc->fall(in.slew, load);
      relax(state, e.to, out_rf, in.arrival + lookup.delay * delay_scale,
            lookup.out_slew * slew_scale, e.from, in_rf);
    }
  }
}

void StaEngine::noisy_fit(const NetEdge& e, size_t edge_index,
                          const NoiseAnnotation* noisy, int rf_i,
                          const EvalContext& ctx, double& arrival,
                          double& slew) const {
  // The full noisy-sink gate: annotation present, sink is a gate input
  // whose transition matches the annotated polarity, and the sink gate
  // has an arc from this pin.
  if (noisy == nullptr || e.sink_pin == nullptr) return;
  const auto rf = static_cast<RiseFall>(rf_i);
  if (to_polarity(rf) != noisy->polarity) return;
  const auto* arc = e.sink_cell->output_pin().find_arc(e.sink_pin->name);
  if (arc == nullptr) return;
  const double delay_scale =
      ctx.corner != nullptr ? ctx.corner->cell_delay_scale : 1.0;
  const double slew_scale =
      ctx.corner != nullptr ? ctx.corner->cell_slew_scale : 1.0;
  const double sink_load =
      e.sink_out_net >= 0 ? net_loads_[static_cast<size_t>(e.sink_out_net)]
                          : 0.0;
  // The fit is a pure function of (annotation, clean ramp, arc,
  // load, corner); memoize it per exact key when a cache is
  // supplied.  Arc identity and load bits are part of the key so
  // one cache stays exact across copy-on-write snapshots whose
  // loads or graphs differ.
  GammaCache::Key key;
  key.noise_key = noisy->key;
  key.method_id = reinterpret_cast<uintptr_t>(ctx.method);
  key.arc_id = reinterpret_cast<uintptr_t>(arc);
  key.edge = static_cast<uint32_t>(edge_index);
  key.rf = static_cast<uint32_t>(rf_i);
  key.arrival_bits = std::bit_cast<uint64_t>(arrival);
  key.slew_bits = std::bit_cast<uint64_t>(slew);
  key.load_bits = std::bit_cast<uint64_t>(sink_load);
  key.corner_key = ctx.corner_key;
  std::optional<GammaCache::Value> cached;
  if (ctx.cache != nullptr) cached = ctx.cache->lookup(key);
  if (cached.has_value()) {
    arrival = cached->arrival;
    slew = cached->slew;
  } else {
    // The equivalent-waveform flow of the paper: replace the ramp
    // at this gate input by Γeff fitted against the annotated
    // noisy waveform, using a noiseless response synthesized from
    // NLDM (derated the same way as the real propagation).
    const auto pol = noisy->polarity;
    const double vdd = library_->nom_voltage;
    const auto clean_ramp = wave::Ramp::from_arrival_slew(arrival, slew, vdd);

    const auto out_pol =
        arc->sense == liberty::TimingSense::kNegativeUnate ? flip(pol) : pol;
    const auto lk = (out_pol == wave::Polarity::kRising)
                        ? arc->rise(slew, sink_load)
                        : arc->fall(slew, sink_load);
    const auto out_ramp = wave::Ramp::from_arrival_slew(
        arrival + lk.delay * delay_scale, lk.out_slew * slew_scale, vdd);

    core::MethodInput mi;
    mi.noisy_in = &noisy->waveform;
    mi.in_polarity = pol;
    mi.out_polarity = out_pol;
    mi.vdd = vdd;
    // The noiseless pair is synthesized into the thread's arena (zero
    // heap traffic once its slabs are warm).
    constexpr size_t kCleanSamples = 192;
    auto& ws = util::thread_scratch();
    const auto ws_scope = ws.scope();
    const auto t_in = ws.alloc(kCleanSamples);
    const auto v_in = ws.alloc(kCleanSamples);
    clean_ramp.denormalized_into(pol, t_in, v_in);
    mi.noiseless_in_view = wave::WaveView(t_in, v_in);
    const auto t_out = ws.alloc(kCleanSamples);
    const auto v_out = ws.alloc(kCleanSamples);
    out_ramp.denormalized_into(out_pol, t_out, v_out);
    mi.noiseless_out_view = wave::WaveView(t_out, v_out);
    const auto fit = ctx.method->fit(mi);
    arrival = fit.ramp.t50();
    slew = fit.ramp.slew();
    if (ctx.cache != nullptr) {
      ctx.cache->insert(key, GammaCache::Value{arrival, slew});
    }
  }
}

void StaEngine::propagate_net_edge(size_t edge_index, TimingState& state,
                                   const EvalContext& ctx) const {
  const auto& e = net_edges_[edge_index];
  const auto& from = state[static_cast<size_t>(e.from)];
  // Annotation resolution is a single indexed load from the table
  // compiled by compile_edge_annotations() — no map lookups here.
  const NoiseAnnotation* noisy =
      ctx.edge_noise != nullptr ? ctx.edge_noise[edge_index] : nullptr;
  const double wire_scale =
      ctx.corner != nullptr ? ctx.corner->wire_delay_scale : 1.0;
  const double wire_delay = net_parasitics_[static_cast<size_t>(e.net)].second;

  for (int rf_i = 0; rf_i < 2; ++rf_i) {
    const auto& drv = from.timing[rf_i];
    if (!drv.valid) continue;
    const auto rf = static_cast<RiseFall>(rf_i);
    double arrival = drv.arrival + wire_delay * wire_scale;
    double slew = drv.slew;
    noisy_fit(e, edge_index, noisy, rf_i, ctx, arrival, slew);
    relax(state, e.to, rf, arrival, slew, e.from, rf);
  }
}

void StaEngine::forward_vertex(int v, TimingState& state,
                               const EvalContext& ctx) const {
  for (const auto& [is_cell, idx] : in_edges_[static_cast<size_t>(v)]) {
    if (is_cell) {
      propagate_cell_edge(cell_edges_[idx], state, ctx);
    } else {
      propagate_net_edge(idx, state, ctx);
    }
  }
}

void StaEngine::backward_vertex(int v, TimingState& state) const {
  // The edge delay actually used by the forward pass is recovered from
  // the endpoint arrivals of the transitions it connected.
  auto& vf = state[static_cast<size_t>(v)];
  for (const auto& [is_cell, idx] : out_edges_[static_cast<size_t>(v)]) {
    const int to = is_cell ? cell_edges_[idx].to : net_edges_[idx].to;
    const auto& vt = state[static_cast<size_t>(to)];
    for (int to_rf = 0; to_rf < 2; ++to_rf) {
      const auto& tt = vt.timing[to_rf];
      if (!tt.valid || !std::isfinite(tt.required)) continue;
      // Which source transition fed this sink transition?
      if (vt.critical_pred[to_rf] != v) continue;
      const int from_rf = static_cast<int>(vt.critical_pred_rf[to_rf]);
      auto& ft = vf.timing[from_rf];
      if (!ft.valid) continue;
      const double edge_delay = tt.arrival - ft.arrival;
      ft.required = std::min(ft.required, tt.required - edge_delay);
    }
  }
}

util::ThreadPool& StaEngine::worker_pool(int threads) {
  const size_t want = threads <= 0 ? util::ThreadPool::hardware_threads()
                                   : static_cast<size_t>(threads);
  if (pool_ == nullptr || pool_->size() != want) {
    pool_ = std::make_unique<util::ThreadPool>(static_cast<int>(want));
  }
  return *pool_;
}

void StaEngine::evaluate(TimingState& state, const EvalContext& ctx,
                         util::ThreadPool* pool) const {
  util::require(ctx.method != nullptr, "evaluate: null noise method");
  const bool threaded = pool != nullptr && pool->size() > 1;
  const auto for_level = [&](const std::vector<int>& level,
                             const auto& visit) {
    if (!threaded || level.size() <= kLevelChunk) {
      for (const int v : level) visit(v);
      return;
    }
    const size_t chunks = (level.size() + kLevelChunk - 1) / kLevelChunk;
    pool->parallel_for_dynamic(chunks, [&](size_t, size_t c) {
      const size_t end = std::min(level.size(), (c + 1) * kLevelChunk);
      for (size_t i = c * kLevelChunk; i < end; ++i) visit(level[i]);
    });
  };
  init_state(state);
  for (const auto& level : levels_) {
    for_level(level, [&](int v) { forward_vertex(v, state, ctx); });
  }
  for (auto it = levels_.rbegin(); it != levels_.rend(); ++it) {
    for_level(*it, [&](int v) { backward_vertex(v, state); });
  }
}

StaEngine::DeltaPlan StaEngine::finish_plan(std::span<const int> seeds,
                                            std::span<const int> back_seeds,
                                            bool with_backward) const {
  const size_t n = vertex_names_.size();
  DeltaPlan plan;
  plan.num_vertices = n;
  PlanMarks marks(n);

  // Forward closure over out-edges: the transitive fanout cone.  The
  // listed cone doubles as the work stack (a vertex is listed once).
  for (const int v : seeds) marks.mark(v, PlanMarks::kForward);
  const std::vector<int>& cone = marks.listed(PlanMarks::kForward);
  for (size_t i = 0; i < cone.size(); ++i) {
    for (const auto& [is_cell, idx] :
         out_edges_[static_cast<size_t>(cone[i])]) {
      marks.mark(is_cell ? cell_edges_[idx].to : net_edges_[idx].to,
                 PlanMarks::kForward);
    }
  }
  // Backward closure: required times depend on downstream arrivals, so
  // every vertex with a path INTO the cone (or into an extra backward
  // seed, e.g. a required-edited endpoint) must re-fold its required.
  if (with_backward) {
    for (const int v : cone) marks.mark(v, PlanMarks::kBackward);
    for (const int v : back_seeds) marks.mark(v, PlanMarks::kBackward);
    const std::vector<int>& fanin = marks.listed(PlanMarks::kBackward);
    for (size_t i = 0; i < fanin.size(); ++i) {
      for (const auto& [is_cell, idx] :
           in_edges_[static_cast<size_t>(fanin[i])]) {
        marks.mark(is_cell ? cell_edges_[idx].from : net_edges_[idx].from,
                   PlanMarks::kBackward);
      }
    }
    plan.backward = sorted_by_level(fanin, vertex_level_, /*descending=*/true);
  }
  plan.forward = sorted_by_level(cone, vertex_level_, /*descending=*/false);
  for (const int v : cone) {
    const int32_t e = graph_->endpoint_of_vertex[static_cast<size_t>(v)];
    if (e >= 0) plan.endpoints.push_back(e);
  }
  std::sort(plan.endpoints.begin(), plan.endpoints.end());
  return plan;
}

StaEngine::DeltaPlan StaEngine::delta_plan(
    const NoiseScenario& scenario) const {
  return scenario_plan(scenario, /*with_backward=*/true);
}

StaEngine::DeltaPlan StaEngine::scenario_plan(const NoiseScenario& scenario,
                                              bool with_backward) const {
  // Seeds: the sink vertex of every net edge of every annotated net —
  // the only places where the compiled edge-annotation table of this
  // scenario can differ from the engine-level base table.
  std::vector<int> seeds;
  for (const auto& entry : scenario.entries) {
    const int ord = netlist_->net_ordinal(entry.net);
    util::require(ord >= 0, "delta_plan: scenario ", scenario.name,
                  " annotates unknown net ", entry.net);
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      seeds.push_back(net_edges_[e].to);
    }
  }
  return finish_plan(seeds, {}, with_backward);
}

StaEngine::DeltaPlan StaEngine::delta_plan(const EditSeeds& seeds) const {
  const size_t n = vertex_names_.size();
  const size_t n_nets = netlist_->nets().size();
  std::vector<int> dirty;
  std::vector<int> back;
  const auto check_net = [&](int32_t ord, const char* what) {
    util::require(ord >= 0 && static_cast<size_t>(ord) < n_nets,
                  "delta_plan: ", what, " net ordinal ", ord,
                  " out of range (", n_nets, " nets)");
  };
  // A load change re-times every cell arc driving the net AND every
  // noisy-edge Γeff synthesis that reads the net's load at its sink.
  for (const int32_t ord : seeds.load_nets) {
    check_net(ord, "load-edit");
    for (const uint32_t e : graph_->arcs_of_net[static_cast<size_t>(ord)]) {
      dirty.push_back(cell_edges_[e].to);
    }
    for (const uint32_t e :
         graph_->sink_load_edges_of_net[static_cast<size_t>(ord)]) {
      dirty.push_back(net_edges_[e].to);
    }
  }
  // Wire-delay and annotation changes surface at the net's sinks.
  for (const int32_t ord : seeds.delay_nets) {
    check_net(ord, "delay-edit");
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      dirty.push_back(net_edges_[e].to);
    }
  }
  for (const int32_t ord : seeds.noise_nets) {
    check_net(ord, "noise-edit");
    for (const uint32_t e : edges_of_net_[static_cast<size_t>(ord)]) {
      dirty.push_back(net_edges_[e].to);
    }
  }
  for (const int32_t p : seeds.arrival_ports) {
    util::require(p >= 0 && static_cast<size_t>(p) < ports_.size(),
                  "delta_plan: arrival-edit port ordinal ", p,
                  " out of range (", ports_.size(), " ports)");
    const auto& rec = ports_[static_cast<size_t>(p)];
    util::require(rec.direction == netlist::PortDirection::kInput,
                  "delta_plan: arrival-edit port ", rec.name,
                  " is not an input port");
    dirty.push_back(rec.vertex);
  }
  // Required-time edits change no arrival: the port vertex joins only
  // the backward closure (and the endpoint list, below).
  for (const int32_t p : seeds.required_ports) {
    util::require(p >= 0 && static_cast<size_t>(p) < ports_.size(),
                  "delta_plan: required-edit port ordinal ", p,
                  " out of range (", ports_.size(), " ports)");
    const auto& rec = ports_[static_cast<size_t>(p)];
    util::require(rec.direction == netlist::PortDirection::kOutput,
                  "delta_plan: required-edit port ", rec.name,
                  " is not an output port");
    back.push_back(rec.vertex);
  }
  for (const int v : seeds.vertices) {
    util::require(v >= 0 && static_cast<size_t>(v) < n,
                  "delta_plan: seed vertex ", v, " out of range (", n,
                  " vertices)");
    dirty.push_back(v);
  }
  DeltaPlan plan = finish_plan(dirty, back, /*with_backward=*/true);
  // finish_plan lists endpoints whose ARRIVAL can move; required-time
  // edits move slack without touching arrivals, so add their ports.
  if (!back.empty()) {
    for (const int v : back) {
      plan.endpoints.push_back(
          graph_->endpoint_of_vertex[static_cast<size_t>(v)]);
    }
    std::sort(plan.endpoints.begin(), plan.endpoints.end());
    plan.endpoints.erase(
        std::unique(plan.endpoints.begin(), plan.endpoints.end()),
        plan.endpoints.end());
  }
  return plan;
}

void StaEngine::reset_vertex(TimingState& state, int v) const {
  auto& vt = state[static_cast<size_t>(v)];
  vt = VertexTiming{};
  if (static_cast<size_t>(v) >= ports_.size()) return;  // unconstrained
  const auto ic = input_constraints_.find(v);
  if (ic != input_constraints_.end()) {
    for (size_t rf = 0; rf < 2; ++rf) {
      if (!ic->second[rf].set) continue;
      auto& t = vt.timing[rf];
      t.arrival = ic->second[rf].arrival;
      t.slew = ic->second[rf].slew;
      t.valid = true;
    }
  }
  const auto rq = required_.find(v);
  if (rq != required_.end()) {
    vt.timing[0].required = rq->second;
    vt.timing[1].required = rq->second;
  }
}

void StaEngine::reset_required(TimingState& state, int v) const {
  auto& vt = state[static_cast<size_t>(v)];
  vt.timing[0].required = std::numeric_limits<double>::infinity();
  vt.timing[1].required = std::numeric_limits<double>::infinity();
  if (static_cast<size_t>(v) >= ports_.size()) return;  // unconstrained
  const auto rq = required_.find(v);
  if (rq != required_.end()) {
    vt.timing[0].required = rq->second;
    vt.timing[1].required = rq->second;
  }
}

void StaEngine::evaluate_delta(TimingState& state,
                               const TimingState& baseline,
                               const DeltaPlan& plan,
                               const EvalContext& ctx) const {
  util::require(ctx.method != nullptr, "evaluate_delta: null noise method");
  util::require(baseline.size() == vertex_names_.size(),
                "evaluate_delta: baseline size ", baseline.size(),
                " does not match this engine (", vertex_names_.size(),
                " vertices)");
  util::require(plan.num_vertices == vertex_names_.size(),
                "evaluate_delta: plan was computed for ", plan.num_vertices,
                " vertices, engine has ", vertex_names_.size());
  state = baseline;
  fold_forward(state, plan, ctx);
  for (const int v : plan.backward) reset_required(state, v);
  for (const int v : plan.backward) backward_vertex(v, state);
}

void StaEngine::fold_forward(TimingState& state, const DeltaPlan& plan,
                             const EvalContext& ctx) const {
  // Every dirty vertex is reset to its initial constraints BEFORE any
  // is folded: relax() is a max, so folding on top of the stale
  // baseline value would be wrong whenever the scenario speeds an
  // arrival up (and would corrupt critical_pred links either way).
  for (const int v : plan.forward) reset_vertex(state, v);
  for (const int v : plan.forward) forward_vertex(v, state, ctx);
}

void StaEngine::evaluate_points_delta(
    std::span<TimingState> states, std::span<const EvalContext> contexts,
    std::span<const TimingState* const> baselines,
    std::span<const DeltaPlan* const> plans, util::ThreadPool* pool) const {
  util::require(states.size() == contexts.size() &&
                    states.size() == baselines.size() &&
                    states.size() == plans.size(),
                "evaluate_points_delta: ", states.size(), " states vs ",
                contexts.size(), " contexts vs ", baselines.size(),
                " baselines vs ", plans.size(), " plans");
  const size_t n_points = states.size();
  for (size_t p = 0; p < n_points; ++p) {
    util::require(baselines[p] != nullptr && plans[p] != nullptr,
                  "evaluate_points_delta: null baseline/plan at point ", p);
  }
  if (n_points == 0) return;
  auto body = [&](size_t, size_t p) {
    evaluate_delta(states[p], *baselines[p], *plans[p], contexts[p]);
  };
  if (pool != nullptr) {
    pool->parallel_for_dynamic(n_points, body);
  } else {
    for (size_t p = 0; p < n_points; ++p) body(0, p);
  }
}

void StaEngine::run() {
  const auto edge_noise = compile_edge_annotations();
  EvalContext ctx;
  ctx.edge_noise = edge_noise.data();
  ctx.corner = corner_ ? &*corner_ : nullptr;
  ctx.corner_key = corner_ ? corner_->key() : 0;
  ctx.method = noise_method_.get();
  ctx.cache = nullptr;
  util::ThreadPool& pool = worker_pool(threads_);
  evaluate(state_, ctx, &pool);
  analyzed_ = true;
}

const PinTiming& StaEngine::timing_in(const TimingState& state, PinId pin,
                                      RiseFall rf) const {
  util::require(state.size() == vertex_names_.size(),
                "timing_in: state size does not match this engine "
                "(init_state/evaluate it first)");
  return state[static_cast<size_t>(check(pin))]
      .timing[static_cast<size_t>(rf)];
}

const PinTiming& StaEngine::timing_in(const TimingState& state,
                                      const std::string& pin,
                                      RiseFall rf) const {
  return timing_in(state, this->pin(pin), rf);
}

double StaEngine::worst_slack_in(const TimingState& state) const {
  util::require(state.size() == vertex_names_.size(),
                "worst_slack_in: state size does not match this engine "
                "(init_state/evaluate it first)");
  double worst = std::numeric_limits<double>::infinity();
  for (const auto& port : ports_) {
    if (port.direction != netlist::PortDirection::kOutput) continue;
    const auto& v = state[static_cast<size_t>(port.vertex)];
    for (int rf = 0; rf < 2; ++rf) {
      if (v.timing[rf].valid && std::isfinite(v.timing[rf].required)) {
        worst = std::min(worst, v.timing[rf].slack());
      }
    }
  }
  return worst;
}

const PinTiming& StaEngine::timing(PinId pin, RiseFall rf) const {
  util::require(analyzed_, "run() the analysis first");
  return timing_in(state_, pin, rf);
}

const PinTiming& StaEngine::timing(const std::string& pin,
                                   RiseFall rf) const {
  util::require(analyzed_, "run() the analysis first");
  return timing_in(state_, pin, rf);
}

double StaEngine::worst_slack() const {
  util::require(analyzed_, "run() the analysis first");
  return worst_slack_in(state_);
}

StaEngine::WorstEndpoint StaEngine::worst_endpoint_in(
    const TimingState& state) const {
  util::require(state.size() == vertex_names_.size(),
                "worst_endpoint_in: state size does not match this engine "
                "(init_state/evaluate it first)");
  // Endpoint: worst slack when constrained, else latest arrival.
  WorstEndpoint best;
  double best_metric = std::numeric_limits<double>::infinity();
  bool use_slack = false;
  for (size_t e = 0; e < endpoint_ports_.size(); ++e) {
    const auto& port = ports_[static_cast<size_t>(endpoint_ports_[e])];
    const auto& v = state[static_cast<size_t>(port.vertex)];
    for (int rf = 0; rf < 2; ++rf) {
      const auto& t = v.timing[rf];
      if (!t.valid) continue;
      const bool constrained = std::isfinite(t.required);
      const double metric = constrained ? t.slack() : -t.arrival;
      if (constrained && !use_slack) {
        use_slack = true;
        best_metric = std::numeric_limits<double>::infinity();
      }
      if (constrained == use_slack && metric < best_metric) {
        best_metric = metric;
        best.endpoint = static_cast<int32_t>(e);
        best.rf = static_cast<RiseFall>(rf);
        best.constrained = constrained;
        best.slack = t.slack();
        best.arrival = t.arrival;
      }
    }
  }
  return best;
}

std::vector<PathStep> StaEngine::worst_path_in(
    const TimingState& state) const {
  const WorstEndpoint we = worst_endpoint_in(state);
  std::vector<PathStep> path;
  int v = we.endpoint >= 0
              ? ports_[static_cast<size_t>(endpoint_ports_[we.endpoint])]
                    .vertex
              : -1;
  int rf = static_cast<int>(we.rf);
  while (v >= 0) {
    const auto& vert = state[static_cast<size_t>(v)];
    path.push_back({vertex_names_[static_cast<size_t>(v)],
                    static_cast<RiseFall>(rf), vert.timing[rf].arrival});
    const int pred = vert.critical_pred[rf];
    rf = static_cast<int>(vert.critical_pred_rf[rf]);
    v = pred;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

std::vector<PathStep> StaEngine::worst_path() const {
  util::require(analyzed_, "run() the analysis first");
  return worst_path_in(state_);
}

std::string StaEngine::report() const {
  util::require(analyzed_, "run() the analysis first");
  std::ostringstream os;
  os << "STA report for " << netlist_->name << " ("
     << netlist_->instances().size() << " instances, "
     << vertex_names_.size() << " pins)\n";
  for (const auto& port : ports_) {
    if (port.direction != netlist::PortDirection::kOutput) continue;
    const auto& v = state_[static_cast<size_t>(port.vertex)];
    for (int rf = 0; rf < 2; ++rf) {
      const auto& t = v.timing[rf];
      if (!t.valid) continue;
      os << "  " << port.name << " (" << to_string(static_cast<RiseFall>(rf))
         << "): arrival " << util::format_ps(t.arrival) << " ps, slew "
         << util::format_ps(t.slew) << " ps";
      if (std::isfinite(t.required)) {
        os << ", slack " << util::format_ps(t.slack()) << " ps";
      }
      os << '\n';
    }
  }
  os << "critical path:";
  for (const auto& step : worst_path()) {
    os << ' ' << step.pin << '(' << to_string(step.rf) << ')';
  }
  os << '\n';
  return os.str();
}

}  // namespace waveletic::sta
