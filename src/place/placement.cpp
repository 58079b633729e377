#include "place/placement.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace minergy::place {

Placement::Placement(const netlist::Netlist& nl) : nl_(nl) {
  MINERGY_CHECK(nl.finalized());
  const double cells = static_cast<double>(nl.size()) * 1.2;  // 20% whitespace
  width_ = std::max(2, static_cast<int>(std::ceil(std::sqrt(cells))));
  height_ = width_;
  MINERGY_CHECK(static_cast<std::size_t>(width_) *
                    static_cast<std::size_t>(height_) >=
                nl.size());
  // Row-major default placement.
  cells_.resize(nl.size());
  for (std::size_t i = 0; i < nl.size(); ++i) {
    cells_[i] = {static_cast<int>(i) % width_, static_cast<int>(i) / width_};
  }
}

void Placement::set_location(netlist::GateId id, Cell c) {
  MINERGY_CHECK(id < cells_.size());
  MINERGY_CHECK(c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_);
  cells_[id] = c;
}

void Placement::swap(netlist::GateId a, netlist::GateId b) {
  MINERGY_CHECK(a < cells_.size() && b < cells_.size());
  std::swap(cells_[a], cells_[b]);
}

double Placement::net_hpwl(netlist::GateId driver) const {
  const netlist::Gate& g = nl_.gate(driver);
  if (g.fanouts.empty()) return 0.0;
  int min_x = cells_[driver].x, max_x = min_x;
  int min_y = cells_[driver].y, max_y = min_y;
  for (netlist::GateId sink : g.fanouts) {
    min_x = std::min(min_x, cells_[sink].x);
    max_x = std::max(max_x, cells_[sink].x);
    min_y = std::min(min_y, cells_[sink].y);
    max_y = std::max(max_y, cells_[sink].y);
  }
  return static_cast<double>(max_x - min_x) +
         static_cast<double>(max_y - min_y);
}

double Placement::total_hpwl() const {
  double total = 0.0;
  for (const netlist::Gate& g : nl_.gates()) total += net_hpwl(g.id);
  return total;
}

bool Placement::legal() const {
  std::vector<char> occupied(
      static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_),
      0);
  for (const Cell& c : cells_) {
    if (c.x < 0 || c.x >= width_ || c.y < 0 || c.y >= height_) return false;
    char& slot =
        occupied[static_cast<std::size_t>(c.y) *
                     static_cast<std::size_t>(width_) +
                 static_cast<std::size_t>(c.x)];
    if (slot) return false;
    slot = 1;
  }
  return true;
}

AnnealingPlacer::AnnealingPlacer(PlacerOptions options) : opts_(options) {
  MINERGY_CHECK(opts_.moves_per_node >= 1);
  MINERGY_CHECK(opts_.final_temp_ratio > 0.0 && opts_.final_temp_ratio < 1.0);
}

Placement AnnealingPlacer::place(const netlist::Netlist& nl) const {
  util::Rng rng(opts_.seed);
  Placement p(nl);

  // Random initial placement: Fisher–Yates over the row-major locations.
  for (std::size_t i = 0; i + 1 < nl.size(); ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(nl.size() - i));
    p.swap(static_cast<netlist::GateId>(i), static_cast<netlist::GateId>(j));
  }

  // Nets touched by moving a node: the node's own net plus its fanins'.
  auto incident_cost = [&](netlist::GateId id) {
    double cost = p.net_hpwl(id);
    for (netlist::GateId f : nl.gate(id).fanins) cost += p.net_hpwl(f);
    return cost;
  };
  auto pair_cost = [&](netlist::GateId a, netlist::GateId b) {
    // Avoid double counting shared nets by summing over the union lazily;
    // double counting is harmless for a *delta* as long as before/after use
    // the same set.
    return incident_cost(a) + incident_cost(b);
  };

  const std::size_t n = nl.size();
  const long total_moves =
      static_cast<long>(opts_.moves_per_node) * static_cast<long>(n);
  double temperature =
      opts_.initial_temp_factor *
      std::max(1.0, p.total_hpwl() / std::max<double>(1.0, static_cast<double>(n)));
  // Geometric schedule spanning the whole budget: T_end = ratio * T0.
  const double cooling =
      std::exp(std::log(opts_.final_temp_ratio) /
               static_cast<double>(total_moves));

  for (long move = 0; move < total_moves; ++move) {
    const auto a = static_cast<netlist::GateId>(rng.uniform_index(n));
    auto b = static_cast<netlist::GateId>(rng.uniform_index(n));
    if (a == b) continue;
    const double before = pair_cost(a, b);
    p.swap(a, b);
    const double delta = pair_cost(a, b) - before;
    if (delta > 0.0 &&
        !rng.bernoulli(std::exp(-delta / std::max(temperature, 1e-12)))) {
      p.swap(a, b);  // reject
    }
    temperature *= cooling;
  }
  return p;
}

PlacedWireModel::PlacedWireModel(const tech::Technology& tech,
                                 const Placement& placement)
    : placement_(placement),
      pitch_(tech.gate_pitch),
      cap_per_len_(tech.wire_cap_per_len),
      res_per_len_(tech.wire_res_per_len),
      inv_velocity_(1.0 / tech.flight_velocity),
      min_length_(tech.gate_pitch) {
  read_loads(placement.netlist().size());
}

double PlacedWireModel::net_length(netlist::GateId driver) const {
  return std::max(min_length_, placement_.net_hpwl(driver) * pitch_);
}

double PlacedWireModel::routed_length(netlist::GateId driver) const {
  // HPWL already spans all sinks; a Steiner tree routes within ~1.1x of it
  // for the fanouts seen in random logic.
  return 1.1 * net_length(driver);
}

double PlacedWireModel::net_cap(netlist::GateId driver) const {
  return routed_length(driver) * cap_per_len_;
}

double PlacedWireModel::net_res(netlist::GateId driver) const {
  return net_length(driver) * res_per_len_;
}

double PlacedWireModel::flight_time(netlist::GateId driver) const {
  return net_length(driver) * inv_velocity_;
}

}  // namespace minergy::place
