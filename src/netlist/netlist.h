// Gate-level netlist graph.
//
// Every gate drives exactly one net, identified with the gate's id.
// Sequential elements (DFFs) are modeled as cut points: the Q output is a
// combinational source and the D input a combinational sink, so all timing,
// activity and optimization run on the combinational core between
// {PIs, DFF.Q} and {POs, DFF.D} — exactly the paper's "random logic
// network of N static CMOS gates".
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "netlist/gate.h"

namespace minergy::netlist {

// Thrown on structural problems: duplicate definitions, dangling fanins,
// bad arity, combinational cycles. Derives from std::invalid_argument so
// pre-existing catch sites keep working.
class NetlistError : public std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

using GateId = std::uint32_t;
inline constexpr GateId kInvalidGate = static_cast<GateId>(-1);

struct Gate {
  GateId id = kInvalidGate;
  std::string name;
  GateType type = GateType::kInput;
  std::vector<GateId> fanins;
  std::vector<GateId> fanouts;      // gates whose fanin lists contain us
  bool is_primary_output = false;   // net is also a primary output
  int level = -1;                   // combinational level (sources = 0)

  int fanin_count() const { return static_cast<int>(fanins.size()); }

  // Number of driven branches: fanout gates plus one for a primary-output
  // pin. This is the f_oi of the paper (defined >= 1; sinks with no
  // observer still present one unit of load for budgeting purposes).
  int branch_count() const {
    const int n = static_cast<int>(fanouts.size()) + (is_primary_output ? 1 : 0);
    return n > 0 ? n : 1;
  }
};

class Netlist {
 public:
  explicit Netlist(std::string name = "netlist");

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- Construction --------------------------------------------------------
  GateId add_input(const std::string& name);
  GateId add_gate(GateType type, const std::string& name,
                  std::vector<GateId> fanins = {});
  GateId add_dff(const std::string& name, GateId d = kInvalidGate);
  void set_fanins(GateId id, std::vector<GateId> fanins);
  void mark_output(GateId id);

  // Validates arities, resolves fanouts, topologically orders the
  // combinational core and computes levels. Throws NetlistError on
  // dangling references, bad arity, or a combinational cycle. Must be called
  // before any analysis accessor below.
  void finalize();
  bool finalized() const { return finalized_; }

  // --- Accessors -----------------------------------------------------------
  std::size_t size() const { return gates_.size(); }
  const Gate& gate(GateId id) const { return gates_.at(id); }
  const std::vector<Gate>& gates() const { return gates_; }

  // Gate ids by role (available after finalize()).
  const std::vector<GateId>& primary_inputs() const { return inputs_; }
  const std::vector<GateId>& primary_outputs() const { return outputs_; }
  const std::vector<GateId>& dffs() const { return dffs_; }
  // Logic gates the optimizer sizes, in topological order (fanins first).
  const std::vector<GateId>& combinational() const { return topo_; }
  std::size_t num_combinational() const { return topo_.size(); }

  // Sources of the combinational core: PIs and DFF outputs.
  const std::vector<GateId>& sources() const { return sources_; }
  // Sinks: gates feeding POs or DFF D-pins (ids of the driving gates).
  const std::vector<GateId>& sink_drivers() const { return sink_drivers_; }

  // Combinational level (0 at sources) and logic depth (max level).
  int level(GateId id) const { return gates_.at(id).level; }
  int depth() const { return depth_; }

  // Name lookup; returns kInvalidGate if absent.
  GateId find(const std::string& name) const;

  bool is_source(GateId id) const {
    const GateType t = gates_.at(id).type;
    return t == GateType::kInput || t == GateType::kDff;
  }

  // --- Flat adjacency (available after finalize()) -------------------------
  // The per-gate kernels (STA, sizing, energy, budgeting) read these instead
  // of Gate: fanins_of / fanouts_of hold the ids of gate(id).fanins /
  // .fanouts in the same order, as spans into two CSR arrays; is_logic is
  // is_combinational(gate(id).type), is_po gate(id).is_primary_output and
  // is_sink membership in sink_drivers().
  // Unchecked: callers pass ids below size().
  std::span<const GateId> fanins_of(GateId id) const {
    return {fanin_ids_.data() + fanin_off_[id],
            fanin_off_[id + 1] - fanin_off_[id]};
  }
  std::span<const GateId> fanouts_of(GateId id) const {
    return {fanout_ids_.data() + fanout_off_[id],
            fanout_off_[id + 1] - fanout_off_[id]};
  }
  bool is_logic(GateId id) const { return is_logic_[id] != 0; }
  bool is_po(GateId id) const { return is_po_[id] != 0; }
  bool is_sink(GateId id) const { return is_sink_[id] != 0; }

 private:
  GateId new_gate(GateType type, const std::string& name);

  std::string name_;
  std::vector<Gate> gates_;
  std::unordered_map<std::string, GateId> by_name_;
  std::vector<GateId> inputs_, outputs_, dffs_;
  std::vector<GateId> topo_;
  std::vector<GateId> sources_, sink_drivers_;
  // CSR adjacency: the fanins of id are fanin_ids_[fanin_off_[id] ..
  // fanin_off_[id + 1]), likewise for fanouts.
  std::vector<std::uint32_t> fanin_off_, fanout_off_;
  std::vector<GateId> fanin_ids_, fanout_ids_;
  std::vector<std::uint8_t> is_logic_, is_po_, is_sink_;
  int depth_ = 0;
  bool finalized_ = false;
};

}  // namespace minergy::netlist
