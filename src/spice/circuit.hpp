#pragma once

/// \file circuit.hpp
/// Circuit data model and the MNA stamping interface.
///
/// The circuit is a flat bag of named nodes and devices.  Analysis code
/// (engine.hpp) builds a Modified Nodal Analysis system
///   A·x = z,  x = [node voltages (ground elided) | branch currents]
/// by asking every device to stamp its linearized companion model for
/// the current Newton iterate.  This is the standard SPICE formulation;
/// devices never see the matrix layout, only the Stamper.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "la/matrix.hpp"

namespace waveletic::spice {

/// Node handle; 0 is always ground ("0" / "gnd").
using NodeId = int;
inline constexpr NodeId kGround = 0;

enum class Integration { kBackwardEuler, kTrapezoidal };

[[nodiscard]] const char* to_string(Integration m) noexcept;

/// Everything a device needs to stamp itself for one Newton iteration.
struct StampContext {
  /// Current Newton iterate (full unknown vector, see engine layout).
  std::span<const double> x;
  /// Converged solution of the previous timepoint (empty during DC).
  std::span<const double> x_prev;
  double time = 0.0;  ///< t_{n+1} being solved for
  double dt = 0.0;    ///< step size; 0 during DC analysis
  Integration method = Integration::kTrapezoidal;
  bool dc = false;          ///< DC operating point: capacitors stamp open
  double source_scale = 1.0;  ///< source-stepping homotopy factor (DC)
  double gmin = 1e-12;      ///< convergence aid conductance
};

class Stamper;

/// Base class for circuit elements.  Devices own their per-timepoint
/// state (e.g. capacitor charge current) and update it in commit().
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Number of extra unknowns (branch currents) this device needs.
  [[nodiscard]] virtual int branch_count() const noexcept { return 0; }

  /// Called once before analysis with the index of this device's first
  /// branch unknown inside x.
  virtual void assign_branches(int first_index) noexcept {
    branch_index_ = first_index;
  }

  /// Adds the device's linearized contribution for the iterate ctx.x.
  virtual void stamp(Stamper& st, const StampContext& ctx) const = 0;

  /// Accepts the converged solution of a timepoint: update companion
  /// state (capacitor voltage/current history).  `x` is the converged
  /// unknown vector, `dt` the step that produced it (0 after DC).
  virtual void commit(std::span<const double> x, double dt,
                      Integration method) {
    (void)x;
    (void)dt;
    (void)method;
  }

  /// Resets history state before a new analysis.
  virtual void reset_state() {}

  /// True when the stamp depends on the iterate ctx.x.  A circuit with
  /// no such device reuses its last LU factorization whenever the
  /// assembled matrix repeats bit for bit (engine.hpp); the flag only
  /// decides whether that copy and compare are worth making, so a wrong
  /// `false` costs time, never a result.
  [[nodiscard]] virtual bool nonlinear() const noexcept { return false; }

 protected:
  [[nodiscard]] int branch_index() const noexcept { return branch_index_; }

 private:
  std::string name_;
  int branch_index_ = -1;
};

/// Named-node registry plus device container.
class Circuit {
 public:
  Circuit();

  /// Returns the node id for `name`, creating it on first use.
  /// "0" and "gnd" (any case) alias ground.
  NodeId node(std::string_view name);

  /// Lookup without creation; throws util::Error when missing.
  [[nodiscard]] NodeId find_node(std::string_view name) const;

  [[nodiscard]] bool has_node(std::string_view name) const noexcept;

  [[nodiscard]] const std::string& node_name(NodeId id) const;

  /// Total node count including ground.
  [[nodiscard]] size_t node_count() const noexcept { return names_.size(); }

  /// Adds a device constructed in place and returns a reference to it.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T& ref = *dev;
    devices_.push_back(std::move(dev));
    return ref;
  }

  [[nodiscard]] std::span<const std::unique_ptr<Device>> devices()
      const noexcept {
    return devices_;
  }
  [[nodiscard]] std::span<const std::unique_ptr<Device>> devices() noexcept {
    return devices_;
  }

  /// Device lookup by name; nullptr when absent.
  [[nodiscard]] Device* find_device(std::string_view name) noexcept;

  /// Human-readable netlist summary (node + device counts, one line per
  /// device), used by the Figure 1 bench to print the testbench.
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<std::string> names_;
  std::unordered_map<std::string, NodeId> index_;
  std::vector<std::unique_ptr<Device>> devices_;
};

/// MNA assembly helper.  Rows/columns are addressed by NodeId (ground
/// contributions are discarded) or by absolute unknown index for branch
/// variables.  Every method is defined here so that device stamps inline
/// it: assembly runs once per Newton iteration of every time step.
class Stamper {
 public:
  /// Stamps into the n×n system `a` and its rhs `z` (n entries), n =
  /// (node count − 1) + branch count.  The engine sizes both from the
  /// circuit once per analysis; nothing is checked here.
  Stamper(la::MatrixRef a, std::span<double> z) noexcept
      : a_(a.data), n_(a.cols), z_(z.data()) {}

  /// Conductance g between nodes a and b.
  void conductance(NodeId a, NodeId b, double g) noexcept {
    const int ia = idx(a);
    const int ib = idx(b);
    add(ia, ia, g);
    add(ib, ib, g);
    add(ia, ib, -g);
    add(ib, ia, -g);
  }

  /// Constant current i0 flowing from node a to node b.
  void current(NodeId a, NodeId b, double i0) noexcept {
    // KCL rows are "sum of currents leaving = 0"; a constant current i0
    // flowing a -> b moves to the RHS with opposite sign at a.
    add_rhs(idx(a), -i0);
    add_rhs(idx(b), i0);
  }

  /// Transconductance: current i = g·(v_c+ − v_c−) flowing out of node
  /// `out_pos` into `out_neg` (VCCS linearization term).
  void vccs(NodeId out_pos, NodeId out_neg, NodeId ctrl_pos, NodeId ctrl_neg,
            double g) noexcept {
    const int op = idx(out_pos);
    const int on = idx(out_neg);
    const int cp = idx(ctrl_pos);
    const int cn = idx(ctrl_neg);
    add(op, cp, g);
    add(op, cn, -g);
    add(on, cp, -g);
    add(on, cn, g);
  }

  /// Branch-variable stamps for voltage-defined elements.  `branch` is
  /// the absolute unknown index from Device::assign_branches.
  void branch_voltage(int branch, NodeId pos, NodeId neg,
                      double voltage) noexcept {
    const int ip = idx(pos);
    const int in = idx(neg);
    // Branch current flows pos -> neg through the source.
    add(ip, branch, 1.0);
    add(in, branch, -1.0);
    add(branch, ip, 1.0);
    add(branch, in, -1.0);
    add_rhs(branch, voltage);
  }

 private:
  /// Maps NodeId to matrix row/col; -1 for ground.
  [[nodiscard]] static int idx(NodeId n) noexcept { return n - 1; }

  void add(int r, int c, double v) noexcept {
    if (r < 0 || c < 0) return;
    a_[static_cast<size_t>(r) * n_ + static_cast<size_t>(c)] += v;
  }
  void add_rhs(int r, double v) noexcept {
    if (r < 0) return;
    z_[static_cast<size_t>(r)] += v;
  }

  double* a_;
  size_t n_;
  double* z_;
};

}  // namespace waveletic::spice
