#include "sta_common.hpp"

#include "harness.hpp"

namespace perfbench {

namespace nl = waveletic::netlist;
namespace st = waveletic::sta;

void constrain(st::StaEngine& sta, const nl::Netlist& netlist,
               double required) {
  int i = 0;
  int o = 0;
  for (const auto& port : netlist.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      sta.set_input(port.name, 0.008e-9 * i, (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      sta.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      sta.set_required(port.name, required);
      ++o;
    }
  }
}

st::EditBatch constraint_batch(const nl::Netlist& netlist, double required) {
  st::EditBatch batch;
  int i = 0;
  int o = 0;
  for (const auto& port : netlist.ports()) {
    if (port.direction == nl::PortDirection::kInput) {
      batch.set_input_arrival(port.name, 0.008e-9 * i,
                              (75 + 9 * (i % 13)) * 1e-12);
      ++i;
    } else {
      batch.set_output_load(port.name, (4 + (o % 3)) * 1e-15);
      batch.set_required(port.name, required);
      ++o;
    }
  }
  return batch;
}

std::vector<Victim> late_victims(const st::StaEngine& sta,
                                 const st::TimingState& s,
                                 const nl::Netlist& netlist, double fraction) {
  std::vector<Victim> out;
  const auto& instances = netlist.instances();
  const auto first = static_cast<size_t>(
      static_cast<double>(instances.size()) * (1.0 - fraction));
  for (size_t i = first; i < instances.size(); ++i) {
    const auto& inst = instances[i];
    const auto pin = inst.pins.find("A");
    if (pin == inst.pins.end()) continue;
    const auto& t = sta.timing_in(s, inst.name + "/A", st::RiseFall::kFall);
    if (!t.valid || t.slew <= 0.0) continue;
    out.push_back({pin->second, t.arrival, t.slew});
  }
  return out;
}

st::StaEngine::EvalContext clean_context(
    const st::StaEngine& sta,
    const std::vector<const st::NoiseAnnotation*>& table,
    const st::Corner& corner) {
  st::StaEngine::EvalContext ctx;
  ctx.edge_noise = table.data();
  ctx.corner = &corner;
  ctx.corner_key = corner.key();
  ctx.method = &sta.noise_method();
  return ctx;
}

bool bitwise_equal(const st::TimingState& a, const st::TimingState& b) {
  if (a.size() != b.size()) return false;
  for (size_t v = 0; v < a.size(); ++v) {
    for (int rf = 0; rf < 2; ++rf) {
      const auto& x = a[v].timing[rf];
      const auto& y = b[v].timing[rf];
      if (x.valid != y.valid || !same_bits(x.arrival, y.arrival) ||
          !same_bits(x.slew, y.slew) || !same_bits(x.required, y.required)) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace perfbench
