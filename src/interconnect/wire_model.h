// Stochastic wire-length estimation from Rent's rule.
//
// The paper (Section 2) derives per-net interconnect loads from "a complete
// stochastic wire-length distribution model, derived from first principles
// through recursive application of Rent's rule and the principle of
// conservation of I/O's" (Davis, De, Meindl 1996). We implement the
// closed-form a-priori distribution for an N-gate square placement:
//
//   i(l) ∝ (l^3/3 − 2√N·l^2 + 2N·l) · l^(2p−4)      1 ≤ l < √N
//   i(l) ∝ (1/6)·(2√N − l)^3 · l^(2p−4)             √N ≤ l ≤ 2√N
//
// (l in gate pitches, p = Rent exponent), numerically normalized into a pmf.
// Each net's length is a deterministic quantile of this distribution keyed
// on the driver's id, so experiments are reproducible without a placement.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "netlist/netlist.h"
#include "tech/technology.h"

namespace minergy::interconnect {

// Abstract per-net electrical loads. Implementations: the stochastic
// Rent's-rule WireModel below (the paper's a-priori estimate) and
// place::PlacedWireModel (half-perimeter lengths from an actual placement,
// used to validate the a-priori model).
//
// Read-once contract: every implementation reads its loads into the flat
// per-net tables below when it is built, and the delay and energy kernels
// (timing::DelayCalculator, power::EnergyModel, so every evaluator) read
// only those tables. Loads are therefore fixed from construction on.
// Changing what a model derives its loads from afterwards (e.g. moving the
// cells of the place::Placement a PlacedWireModel holds) is not supported:
// the tables, and every evaluator over the model, keep the old loads.
class WireLoads {
 public:
  virtual ~WireLoads() = default;

  // Trunk length of the net driven by `driver` (m).
  virtual double net_length(netlist::GateId driver) const = 0;
  // Total routed length including fanout branches (m).
  virtual double routed_length(netlist::GateId driver) const = 0;
  // Total distributed wire capacitance of the net (F).
  virtual double net_cap(netlist::GateId driver) const = 0;
  // Trunk wire resistance (Ohm).
  virtual double net_res(netlist::GateId driver) const = 0;
  // Time of flight down the trunk (s).
  virtual double flight_time(netlist::GateId driver) const = 0;

  // net_cap, net_res and flight_time of every net, indexed by driver id,
  // as read at construction (bit-identical to the virtual accessors).
  std::span<const double> net_caps() const { return net_cap_; }
  std::span<const double> net_resistances() const { return net_res_; }
  std::span<const double> flight_times() const { return flight_; }

 protected:
  // Fills the tables from the virtual accessors for drivers [0, num_nets).
  // Each final implementation calls it last in its constructor.
  void read_loads(std::size_t num_nets);

 private:
  std::vector<double> net_cap_, net_res_, flight_;
};

class WireLengthDistribution {
 public:
  // num_gates >= 1; rent_p in (0, 1).
  WireLengthDistribution(std::size_t num_gates, double rent_p);

  // Longest modeled length, in gate pitches (= floor(2*sqrt(N)), >= 1).
  int max_length() const { return static_cast<int>(pmf_.size()); }
  // P(length == l), l in [1, max_length()].
  double pmf(int l) const;
  // Mean length in gate pitches.
  double mean() const { return mean_; }
  // Inverse CDF: smallest l with CDF(l) >= q.
  int quantile(double q) const;

 private:
  std::vector<double> pmf_;  // pmf_[l-1] = P(length = l)
  std::vector<double> cdf_;
  double mean_ = 0.0;
};

// Per-net electrical loads for a specific netlist in a specific technology.
// Nets are identified by their driver gate id.
class WireModel final : public WireLoads {
 public:
  WireModel(const tech::Technology& tech, const netlist::Netlist& nl);

  // Trunk length of the net driven by `driver` (m).
  double net_length(netlist::GateId driver) const override;
  // Total routed length including fanout branches (m): the trunk plus a
  // sublinear Steiner growth of 40% of the trunk per extra branch.
  double routed_length(netlist::GateId driver) const override;
  // Total distributed wire capacitance of the net (F).
  double net_cap(netlist::GateId driver) const override;
  // Trunk wire resistance (Ohm).
  double net_res(netlist::GateId driver) const override;
  // Time of flight down the trunk (s).
  double flight_time(netlist::GateId driver) const override;

  const WireLengthDistribution& distribution() const { return dist_; }

 private:
  const netlist::Netlist& nl_;
  WireLengthDistribution dist_;
  double pitch_;          // m
  double cap_per_len_;    // F/m
  double res_per_len_;    // Ohm/m
  double inv_velocity_;   // s/m
  std::vector<double> trunk_length_;  // per gate id, m
};

}  // namespace minergy::interconnect
