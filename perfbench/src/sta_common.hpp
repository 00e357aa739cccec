#pragma once

/// \file sta_common.hpp
/// Helpers shared by the STA workloads: constraints, victim selection
/// and bitwise comparison of timing states.

#include <string>
#include <vector>

#include "liberty/library.hpp"
#include "netlist/netlist.hpp"
#include "sta/edits.hpp"
#include "sta/engine.hpp"

namespace perfbench {

/// Input arrival/slew staggered by port ordinal, output loads of
/// 4–6 fF and one required time on every output — the constraint set
/// the repo's own sparse-sweep and service benches use.
void constrain(waveletic::sta::StaEngine& sta,
               const waveletic::netlist::Netlist& netlist, double required);

/// The same constraints as an EditBatch (a service starts
/// unconstrained).
[[nodiscard]] waveletic::sta::EditBatch constraint_batch(
    const waveletic::netlist::Netlist& netlist, double required);

/// A candidate crosstalk victim: the net at an instance's A pin with the
/// clean falling (arrival, slew) there.
struct Victim {
  std::string net;
  double arrival = 0.0;
  double slew = 0.0;
};

/// Victims on the A pins of the last `fraction` of the instances (the
/// generator appends layer by layer, so late instances have small
/// fanout cones — the realistic sparse crosstalk-victim shape).
[[nodiscard]] std::vector<Victim> late_victims(
    const waveletic::sta::StaEngine& sta, const waveletic::sta::TimingState& s,
    const waveletic::netlist::Netlist& netlist, double fraction);

/// Clean evaluation context of `sta` under `corner` (serial, no cache).
[[nodiscard]] waveletic::sta::StaEngine::EvalContext clean_context(
    const waveletic::sta::StaEngine& sta,
    const std::vector<const waveletic::sta::NoiseAnnotation*>& table,
    const waveletic::sta::Corner& corner);

/// True when every (vertex, transition) of the two states has identical
/// validity and arrival/slew/required bits.
[[nodiscard]] bool bitwise_equal(const waveletic::sta::TimingState& a,
                                 const waveletic::sta::TimingState& b);

}  // namespace perfbench
