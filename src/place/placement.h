// Standard-cell placement on a uniform grid.
//
// The paper estimates net lengths a priori from Rent's rule ("as dictated
// by the physical and architectural characteristics of a random logic
// network"); this module provides the ground truth to validate that
// estimate against: a simulated-annealing placer minimizing total
// half-perimeter wirelength (HPWL), plus a WireLoads implementation that
// derives every net's electrical load from its placed HPWL, so the whole
// optimization flow can run on *placed* instead of *statistical* wires.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "interconnect/wire_model.h"
#include "netlist/netlist.h"
#include "tech/technology.h"
#include "util/rng.h"

namespace minergy::place {

struct Cell {
  int x = 0;
  int y = 0;
};

class Placement {
 public:
  // An empty placement of all nodes (sources and gates) on a square grid
  // with ~20% whitespace.
  explicit Placement(const netlist::Netlist& nl);

  const netlist::Netlist& netlist() const { return nl_; }
  int grid_width() const { return width_; }
  int grid_height() const { return height_; }

  Cell location(netlist::GateId id) const { return cells_[id]; }
  void set_location(netlist::GateId id, Cell c);
  void swap(netlist::GateId a, netlist::GateId b);

  // Half-perimeter wirelength of the net driven by `driver`, in grid units
  // (0 for nets with no sinks).
  double net_hpwl(netlist::GateId driver) const;
  // Sum of net_hpwl over all driven nets.
  double total_hpwl() const;

  // True iff all nodes sit on distinct in-range grid cells.
  bool legal() const;

 private:
  const netlist::Netlist& nl_;
  int width_, height_;
  std::vector<Cell> cells_;  // per gate id
};

struct PlacerOptions {
  std::uint64_t seed = 1;
  int moves_per_node = 600;          // annealing budget
  double initial_temp_factor = 0.5;  // T0 = factor * mean net HPWL
  double final_temp_ratio = 1e-4;    // geometric schedule endpoint T_end/T0
};

class AnnealingPlacer {
 public:
  explicit AnnealingPlacer(PlacerOptions options = {});

  // Random initial placement refined by swap-based simulated annealing.
  Placement place(const netlist::Netlist& nl) const;

 private:
  PlacerOptions opts_;
};

// Per-net loads computed from a placement: trunk length = HPWL * pitch.
// The loads are read from the placement once, when the model is built
// (interconnect::WireLoads' read-once contract): move no cell of
// `placement` after that. The model keeps a reference to it, but the delay
// and energy kernels of every evaluator over the model see only the loads
// of the moment it was built.
class PlacedWireModel final : public interconnect::WireLoads {
 public:
  PlacedWireModel(const tech::Technology& tech, const Placement& placement);

  double net_length(netlist::GateId driver) const override;
  double routed_length(netlist::GateId driver) const override;
  double net_cap(netlist::GateId driver) const override;
  double net_res(netlist::GateId driver) const override;
  double flight_time(netlist::GateId driver) const override;

 private:
  const Placement& placement_;
  double pitch_;
  double cap_per_len_, res_per_len_, inv_velocity_;
  double min_length_;  // a placed net never has less than one pitch of wire
};

}  // namespace minergy::place
