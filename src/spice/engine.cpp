#include "spice/engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>

#include "la/lu.hpp"
#include "util/error.hpp"
#include "util/log.hpp"

namespace waveletic::spice {
namespace {

/// Upper bound on a transient's step count: far above any run here
/// (a few thousand steps), low enough that a mistyped dt fails by name
/// before the sample buffers are reserved.
constexpr double kMaxSteps = 1e7;

/// Unknown-vector layout manager: assigns branch indices and remembers
/// the split between node and branch unknowns.
struct SystemLayout {
  size_t n_nodes = 0;     // including ground
  size_t n_node_vars = 0; // n_nodes - 1
  size_t n_branches = 0;
  size_t unknowns = 0;
  /// No device reports Device::nonlinear(): the Newton matrix then
  /// depends on the step, not on the iterate.
  bool linear = true;

  explicit SystemLayout(Circuit& circuit) {
    n_nodes = circuit.node_count();
    n_node_vars = n_nodes - 1;
    int next = static_cast<int>(n_node_vars);
    for (const auto& dev : circuit.devices()) {
      const int count = dev->branch_count();
      if (count > 0) {
        dev->assign_branches(next);
        next += count;
      }
      linear = linear && !dev->nonlinear();
    }
    n_branches = static_cast<size_t>(next) - n_node_vars;
    unknowns = n_node_vars + n_branches;
  }
};

/// Bitwise equality of two equally long arrays (-0.0 != 0.0, equal NaN
/// payloads match): the memo's key compare.
bool same_bits(std::span<const double> a, std::span<const double> b) noexcept {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// One analysis' Newton system, sized from the layout once (so stamping
/// checks no dimensions) and reused by every iteration of every step.
/// Every factorization and solve runs along the analysis' one LU
/// pattern: the matrix structure and pivot order change only when a
/// device starts stamping a new entry (the first transient step adds
/// the capacitors DC leaves out) or the pivot order moves.
///
/// A nonlinear circuit's matrix is factored and solved in place.  A
/// linear circuit keeps a one-slot memo of its last factorization: the
/// unfactored matrix beside its LU, and the right-hand side `x_new`
/// solves.  A fresh assembly bitwise equal to that matrix skips the
/// factorization, and an equal right-hand side skips the solve too.
/// The same input bits give the same output bits, so the memo never
/// changes a result; the linear flag only decides whether the copy and
/// compare are worth paying.
struct NewtonSystem {
  la::Matrix a;
  la::Vector z;
  la::Vector x_new;
  std::vector<size_t> perm;
  la::LuPattern pattern;
  const bool memo;  // linear circuit: keep the one-slot memo below
  la::Matrix a_memo;  // the unfactored matrix `lu` factors
  la::Matrix lu;
  la::Vector z_memo;  // the right-hand side `x_new` solves
  /// `lu` factors `a_memo` and `x_new` solves (a_memo, z_memo).
  bool memo_valid = false;

  explicit NewtonSystem(const SystemLayout& lay)
      : a(lay.unknowns, lay.unknowns),
        z(lay.unknowns, 0.0),
        x_new(lay.unknowns, 0.0),
        perm(lay.unknowns),
        pattern(lay.unknowns),
        memo(lay.linear) {
    util::require(lay.unknowns > 0,
                  "analysis: circuit has no unknowns (no non-ground node)");
    if (memo) {
      a_memo = a;
      lu = a;
      z_memo = z;
    }
  }

  /// Solves the assembled A·x = z into x_new.
  void solve() {
    if (!memo) {
      la::lu_factor_in_place(a, perm, pattern);
      la::lu_solve_factored(a, perm, pattern, z, x_new);
      return;
    }
    if (memo_valid &&
        same_bits(la::MatrixRef(a).flat(), la::MatrixRef(a_memo).flat())) {
      if (same_bits(z, z_memo)) return;  // x_new already solves it
    } else {
      memo_valid = false;  // and stays so if the matrix is singular
      lu = a;
      la::lu_factor_in_place(lu, perm, pattern);
      std::swap(a, a_memo);
    }
    la::lu_solve_factored(lu, perm, pattern, z, x_new);
    std::swap(z, z_memo);
    memo_valid = true;
  }
};

/// Assembles A·x = z for the given iterate and context into `sys`.
void assemble(Circuit& circuit, const StampContext& ctx, size_t n_nodes,
              NewtonSystem& sys) {
  sys.a.set_zero();
  std::fill(sys.z.begin(), sys.z.end(), 0.0);
  Stamper st(sys.a, sys.z);
  // gmin to ground on every node keeps floating subnets solvable.
  for (NodeId n = 1; n < static_cast<NodeId>(n_nodes); ++n) {
    st.conductance(n, kGround, ctx.gmin);
  }
  for (const auto& dev : circuit.devices()) {
    dev->stamp(st, ctx);
  }
}

struct NewtonOutcome {
  bool converged = false;
  int iterations = 0;
  /// Unknown whose update was NaN or infinite (the iteration stopped
  /// there).
  std::optional<size_t> non_finite;
};

/// Newton-Raphson on the linearized companion system.  `x` holds the
/// initial guess and receives the solution.  A non-finite update ends
/// the iteration unconverged and names its unknown in the outcome.
NewtonOutcome newton_solve(Circuit& circuit, StampContext ctx,
                           const NewtonOptions& opt, const SystemLayout& lay,
                           NewtonSystem& sys, la::Vector& x) {
  NewtonOutcome out;
  for (int it = 0; it < opt.max_iterations; ++it) {
    out.iterations = it + 1;
    ctx.x = x;
    assemble(circuit, ctx, lay.n_nodes, sys);
    sys.solve();

    // Damped update with per-node clamp.
    double max_dv = 0.0;
    double max_di = 0.0;
    for (size_t i = 0; i < lay.unknowns; ++i) {
      double delta = sys.x_new[i] - x[i];
      if (!std::isfinite(delta)) {
        out.non_finite = i;
        return out;
      }
      if (i < lay.n_node_vars) {
        delta = std::clamp(delta, -opt.max_update, opt.max_update);
        max_dv = std::max(max_dv, std::fabs(delta));
      } else {
        max_di = std::max(max_di, std::fabs(delta));
      }
      x[i] += delta;
    }
    if (max_dv < opt.vtol && max_di < opt.itol) {
      out.converged = true;
      break;
    }
  }
  return out;
}

/// Names unknown `i`: its node, or the device owning the branch current.
std::string unknown_name(const Circuit& circuit, const SystemLayout& lay,
                         size_t i) {
  if (i < lay.n_node_vars) {
    return "node '" + circuit.node_name(static_cast<NodeId>(i + 1)) + "'";
  }
  size_t first = lay.n_node_vars;
  for (const auto& dev : circuit.devices()) {
    const auto count = static_cast<size_t>(dev->branch_count());
    if (i < first + count) return "branch current of '" + dev->name() + "'";
    first += count;
  }
  return "unknown " + std::to_string(i);
}

/// Throws when `outcome` stopped on a non-finite update.
void require_finite_update(const NewtonOutcome& outcome,
                           const Circuit& circuit, const SystemLayout& lay,
                           const char* analysis, double t) {
  if (!outcome.non_finite) return;
  throw util::Error::fmt(
      analysis, ": non-finite Newton update of ",
      unknown_name(circuit, lay, *outcome.non_finite),
      " at t = ", t, " (iteration ", outcome.iterations,
      "); check the sources and device values");
}

/// DC operating point on `sys` (see dc_operating_point()).
la::Vector dc_solve(Circuit& circuit, const NewtonOptions& opt,
                    const SystemLayout& lay, NewtonSystem& sys) {
  StampContext ctx;
  ctx.dc = true;
  ctx.time = 0.0;
  ctx.dt = 0.0;
  ctx.gmin = opt.gmin;

  // Plain Newton from the zero vector first; a non-finite update counts
  // as divergence.
  {
    la::Vector trial(lay.unknowns, 0.0);
    ctx.source_scale = 1.0;
    const auto outcome = newton_solve(circuit, ctx, opt, lay, sys, trial);
    if (outcome.converged) return trial;
    util::log_debug("dcop: plain newton failed, falling back to stepping");
  }

  // Source stepping homotopy: ramp all independent sources.
  la::Vector trial(lay.unknowns, 0.0);
  for (int step = 1; step <= 10; ++step) {
    ctx.source_scale = 0.1 * step;
    const auto outcome = newton_solve(circuit, ctx, opt, lay, sys, trial);
    require_finite_update(outcome, circuit, lay, "DC operating point", 0.0);
    util::require(outcome.converged,
                  "DC operating point: source stepping diverged at scale ",
                  ctx.source_scale);
  }
  return trial;
}

}  // namespace

TransientResult::TransientResult(std::vector<std::string> names,
                                 std::vector<double> time,
                                 std::vector<std::vector<double>> samples) {
  util::require(names.size() == samples.size(),
                "TransientResult: probe count mismatch");
  for (size_t i = 0; i < names.size(); ++i) {
    waves_.emplace(names[i], wave::Waveform(time, std::move(samples[i])));
  }
  time_ = std::move(time);
}

const wave::Waveform& TransientResult::waveform(
    const std::string& node) const {
  const auto it = waves_.find(node);
  util::require(it != waves_.end(), "no probe recorded for node '", node,
                "'");
  return it->second;
}

bool TransientResult::has(const std::string& node) const noexcept {
  return waves_.count(node) > 0;
}

std::vector<std::string> TransientResult::probe_names() const {
  std::vector<std::string> out;
  out.reserve(waves_.size());
  for (const auto& [name, wave] : waves_) out.push_back(name);
  std::sort(out.begin(), out.end());
  return out;
}

la::Vector dc_operating_point(Circuit& circuit, const NewtonOptions& opt) {
  const SystemLayout lay(circuit);
  NewtonSystem sys(lay);
  return dc_solve(circuit, opt, lay, sys);
}

TransientResult transient(Circuit& circuit, const TransientSpec& spec) {
  util::require(std::isfinite(spec.dt) && spec.dt > 0.0,
                "transient: dt must be positive and finite, got ", spec.dt);
  util::require(std::isfinite(spec.t_stop) && spec.t_stop > spec.dt,
                "transient: t_stop must be finite and exceed dt, got t_stop = ",
                spec.t_stop, ", dt = ", spec.dt);
  const double step_count = std::ceil(spec.t_stop / spec.dt);
  util::require(step_count <= kMaxSteps, "transient: t_stop / dt needs ",
                step_count, " steps, more than the limit of ", kMaxSteps);
  const auto steps = static_cast<size_t>(step_count);

  const SystemLayout lay(circuit);
  NewtonSystem sys(lay);

  // Fresh device state, then DC operating point as the initial condition.
  for (const auto& dev : circuit.devices()) dev->reset_state();
  la::Vector x = dc_solve(circuit, spec.newton, lay, sys);
  for (const auto& dev : circuit.devices()) {
    dev->commit(x, 0.0, spec.method);
  }

  // Probe set: indices of the recorded nodes.
  std::vector<std::string> names;
  std::vector<NodeId> ids;
  if (spec.probes.empty()) {
    for (NodeId n = 1; n < static_cast<NodeId>(lay.n_nodes); ++n) {
      names.push_back(circuit.node_name(n));
      ids.push_back(n);
    }
  } else {
    for (const auto& p : spec.probes) {
      ids.push_back(circuit.find_node(p));
      names.push_back(p);
    }
  }

  std::vector<double> time;
  time.reserve(steps + 1);
  std::vector<std::vector<double>> samples(ids.size());
  for (auto& s : samples) s.reserve(steps + 1);

  const auto record = [&](double t) {
    time.push_back(t);
    for (size_t i = 0; i < ids.size(); ++i) {
      const NodeId n = ids[i];
      samples[i].push_back(n == kGround ? 0.0
                                        : x[static_cast<size_t>(n - 1)]);
    }
  };
  record(0.0);

  StampContext ctx;
  ctx.dc = false;
  ctx.method = spec.method;
  ctx.gmin = spec.newton.gmin;
  ctx.source_scale = 1.0;

  la::Vector x_prev = x;
  for (size_t k = 1; k <= steps; ++k) {
    const double t = std::min(spec.t_stop, static_cast<double>(k) * spec.dt);
    ctx.time = t;
    ctx.dt = t - time.back();
    if (ctx.dt <= 0.0) break;
    ctx.x_prev = x_prev;

    const auto outcome = newton_solve(circuit, ctx, spec.newton, lay, sys, x);
    require_finite_update(outcome, circuit, lay, "transient", t);
    util::require(outcome.converged, "transient: Newton diverged at t = ", t,
                  " (", outcome.iterations, " iterations)");

    for (const auto& dev : circuit.devices()) {
      dev->commit(x, ctx.dt, spec.method);
    }
    x_prev = x;
    record(t);
  }
  util::log_debug("transient: ", sys.pattern.warm_factors(),
                  " LU factorizations along the pattern, ",
                  sys.pattern.rebuilds(), " rebuilt it (n = ", lay.unknowns,
                  ")");

  return TransientResult(std::move(names), std::move(time),
                         std::move(samples));
}

}  // namespace waveletic::spice
