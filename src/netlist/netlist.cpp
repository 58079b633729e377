#include "netlist/netlist.h"

#include <algorithm>
#include <stdexcept>

#include "util/check.h"

namespace minergy::netlist {

Netlist::Netlist(std::string name) : name_(std::move(name)) {}

GateId Netlist::new_gate(GateType type, const std::string& name) {
  MINERGY_CHECK_MSG(!finalized_, "netlist already finalized");
  if (by_name_.count(name)) {
    throw NetlistError("duplicate gate name: " + name);
  }
  Gate g;
  g.id = static_cast<GateId>(gates_.size());
  g.name = name;
  g.type = type;
  by_name_.emplace(name, g.id);
  gates_.push_back(std::move(g));
  return gates_.back().id;
}

GateId Netlist::add_input(const std::string& name) {
  const GateId id = new_gate(GateType::kInput, name);
  inputs_.push_back(id);
  return id;
}

GateId Netlist::add_gate(GateType type, const std::string& name,
                         std::vector<GateId> fanins) {
  if (!is_combinational(type)) {
    throw NetlistError("add_gate requires a logic gate type");
  }
  const GateId id = new_gate(type, name);
  gates_[id].fanins = std::move(fanins);
  return id;
}

GateId Netlist::add_dff(const std::string& name, GateId d) {
  const GateId id = new_gate(GateType::kDff, name);
  if (d != kInvalidGate) gates_[id].fanins = {d};
  dffs_.push_back(id);
  return id;
}

void Netlist::set_fanins(GateId id, std::vector<GateId> fanins) {
  MINERGY_CHECK_MSG(!finalized_, "netlist already finalized");
  MINERGY_CHECK(id < gates_.size());
  gates_[id].fanins = std::move(fanins);
}

void Netlist::mark_output(GateId id) {
  MINERGY_CHECK(id < gates_.size());
  gates_[id].is_primary_output = true;
  if (!finalized_) return;
  // Keep the role lists (ascending id, as finalize() builds them) and the
  // role bytes in step.
  const auto insert_sorted = [id](std::vector<GateId>& ids) {
    const auto it = std::lower_bound(ids.begin(), ids.end(), id);
    if (it == ids.end() || *it != id) ids.insert(it, id);
  };
  insert_sorted(outputs_);
  insert_sorted(sink_drivers_);
  is_po_[id] = 1;
  is_sink_[id] = 1;
}

void Netlist::finalize() {
  MINERGY_CHECK_MSG(!finalized_, "finalize() called twice");

  // Arity and reference checks.
  for (const Gate& g : gates_) {
    for (GateId f : g.fanins) {
      if (f >= gates_.size()) {
        throw NetlistError("gate " + g.name +
                                    " references undefined fanin id");
      }
    }
    const int n = g.fanin_count();
    const int lo = min_fanin(g.type);
    const int hi = max_fanin(g.type);
    if (n < lo || (hi > 0 && n > hi)) {
      throw NetlistError("gate " + g.name + " (" +
                                  std::string(to_string(g.type)) + ") has " +
                                  std::to_string(n) + " fanins");
    }
  }

  // Fanouts.
  for (Gate& g : gates_) g.fanouts.clear();
  for (const Gate& g : gates_) {
    for (GateId f : g.fanins) gates_[f].fanouts.push_back(g.id);
  }

  // Sources of the combinational core.
  sources_.clear();
  for (const Gate& g : gates_) {
    if (g.type == GateType::kInput || g.type == GateType::kDff) {
      sources_.push_back(g.id);
    }
  }

  // Kahn topological sort over logic gates; edges from DFF outputs count as
  // source edges (a DFF's own fanin does not constrain its Q availability).
  std::vector<int> pending(gates_.size(), 0);
  for (const Gate& g : gates_) {
    if (!is_combinational(g.type)) continue;
    int deps = 0;
    for (GateId f : g.fanins) {
      if (is_combinational(gates_[f].type)) ++deps;
    }
    pending[g.id] = deps;
  }
  topo_.clear();
  std::vector<GateId> ready;
  for (const Gate& g : gates_) {
    if (is_combinational(g.type) && pending[g.id] == 0) ready.push_back(g.id);
  }
  // Deterministic order: process in ascending id.
  std::sort(ready.begin(), ready.end());
  for (std::size_t head = 0; head < ready.size(); ++head) {
    const GateId id = ready[head];
    topo_.push_back(id);
    for (GateId out : gates_[id].fanouts) {
      if (!is_combinational(gates_[out].type)) continue;
      if (--pending[out] == 0) ready.push_back(out);
    }
  }
  std::size_t num_logic = 0;
  for (const Gate& g : gates_) num_logic += is_combinational(g.type) ? 1u : 0u;
  if (topo_.size() != num_logic) {
    throw NetlistError("netlist " + name_ +
                                " has a combinational cycle");
  }

  // Levels.
  depth_ = 0;
  for (Gate& g : gates_) g.level = -1;
  for (GateId id : sources_) gates_[id].level = 0;
  for (GateId id : topo_) {
    int lvl = 0;
    for (GateId f : gates_[id].fanins) {
      lvl = std::max(lvl, gates_[f].level + 1);
    }
    gates_[id].level = lvl;
    depth_ = std::max(depth_, lvl);
  }

  // Role lists.
  outputs_.clear();
  for (const Gate& g : gates_) {
    if (g.is_primary_output) outputs_.push_back(g.id);
  }
  sink_drivers_.clear();
  for (const Gate& g : gates_) {
    const bool feeds_dff = std::any_of(
        g.fanouts.begin(), g.fanouts.end(),
        [this](GateId o) { return gates_[o].type == GateType::kDff; });
    if (g.is_primary_output || feeds_dff) sink_drivers_.push_back(g.id);
  }

  // Flat adjacency and role bytes for the kernels.
  const std::size_t n = gates_.size();
  fanin_off_.assign(n + 1, 0);
  fanout_off_.assign(n + 1, 0);
  fanin_ids_.clear();
  fanout_ids_.clear();
  is_logic_.assign(n, 0);
  is_po_.assign(n, 0);
  is_sink_.assign(n, 0);
  std::size_t edges = 0;
  for (const Gate& g : gates_) edges += g.fanins.size();
  fanin_ids_.reserve(edges);
  fanout_ids_.reserve(edges);
  for (const Gate& g : gates_) {
    fanin_ids_.insert(fanin_ids_.end(), g.fanins.begin(), g.fanins.end());
    fanout_ids_.insert(fanout_ids_.end(), g.fanouts.begin(), g.fanouts.end());
    fanin_off_[g.id + 1] = static_cast<std::uint32_t>(fanin_ids_.size());
    fanout_off_[g.id + 1] = static_cast<std::uint32_t>(fanout_ids_.size());
    is_logic_[g.id] = is_combinational(g.type) ? 1 : 0;
    is_po_[g.id] = g.is_primary_output ? 1 : 0;
  }
  for (GateId id : sink_drivers_) is_sink_[id] = 1;

  finalized_ = true;
}

GateId Netlist::find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidGate : it->second;
}

}  // namespace minergy::netlist
