#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <span>
#include <vector>

#include "bench_suite/iscas.h"
#include "netlist/gate.h"
#include "netlist/netlist.h"
#include "netlist/stats.h"

namespace minergy::netlist {
namespace {

// ----------------------------------------------------------------- gate.h

TEST(GateType, StringRoundTrip) {
  for (GateType t : {GateType::kInput, GateType::kBuf, GateType::kNot,
                     GateType::kAnd, GateType::kNand, GateType::kOr,
                     GateType::kNor, GateType::kXor, GateType::kXnor,
                     GateType::kDff}) {
    const auto parsed = gate_type_from_string(to_string(t));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, t);
  }
}

TEST(GateType, AcceptsCommonSpellings) {
  EXPECT_EQ(gate_type_from_string("buff"), GateType::kBuf);
  EXPECT_EQ(gate_type_from_string("INV"), GateType::kNot);
  EXPECT_EQ(gate_type_from_string(" nand "), GateType::kNand);
  EXPECT_EQ(gate_type_from_string("FF"), GateType::kDff);
  EXPECT_FALSE(gate_type_from_string("MAJORITY").has_value());
}

TEST(GateType, Classification) {
  EXPECT_TRUE(is_combinational(GateType::kNand));
  EXPECT_FALSE(is_combinational(GateType::kInput));
  EXPECT_FALSE(is_combinational(GateType::kDff));
  EXPECT_TRUE(is_inverting(GateType::kNor));
  EXPECT_FALSE(is_inverting(GateType::kAnd));
}

TEST(GateType, FaninBounds) {
  EXPECT_EQ(min_fanin(GateType::kInput), 0);
  EXPECT_EQ(min_fanin(GateType::kNot), 1);
  EXPECT_EQ(max_fanin(GateType::kNot), 1);
  EXPECT_EQ(min_fanin(GateType::kNand), 2);
  EXPECT_EQ(max_fanin(GateType::kNand), 0);  // unbounded
}

TEST(GateEval, TruthTables) {
  const std::array<bool, 2> tt{true, true};
  const std::array<bool, 2> tf{true, false};
  const std::array<bool, 2> ff{false, false};
  EXPECT_TRUE(evaluate(GateType::kAnd, tt));
  EXPECT_FALSE(evaluate(GateType::kAnd, tf));
  EXPECT_FALSE(evaluate(GateType::kNand, tt));
  EXPECT_TRUE(evaluate(GateType::kNand, ff));
  EXPECT_TRUE(evaluate(GateType::kOr, tf));
  EXPECT_FALSE(evaluate(GateType::kOr, ff));
  EXPECT_TRUE(evaluate(GateType::kNor, ff));
  EXPECT_TRUE(evaluate(GateType::kXor, tf));
  EXPECT_FALSE(evaluate(GateType::kXor, tt));
  EXPECT_TRUE(evaluate(GateType::kXnor, tt));
  const std::array<bool, 1> t1{true};
  EXPECT_FALSE(evaluate(GateType::kNot, t1));
  EXPECT_TRUE(evaluate(GateType::kBuf, t1));
}

TEST(GateEval, MultiInputParity) {
  const std::array<bool, 3> v{true, true, true};
  EXPECT_TRUE(evaluate(GateType::kXor, v));  // odd parity
  EXPECT_FALSE(evaluate(GateType::kXnor, v));
}

// -------------------------------------------------------------- netlist.h

Netlist make_diamond() {
  //   a -- g1 --+
  //             +-- g3 --- (PO)
  //   b -- g2 --+
  Netlist nl("diamond");
  const GateId a = nl.add_input("a");
  const GateId b = nl.add_input("b");
  const GateId g1 = nl.add_gate(GateType::kNot, "g1", {a});
  const GateId g2 = nl.add_gate(GateType::kNot, "g2", {b});
  const GateId g3 = nl.add_gate(GateType::kNand, "g3", {g1, g2});
  nl.mark_output(g3);
  nl.finalize();
  return nl;
}

TEST(Netlist, BasicConstruction) {
  Netlist nl = make_diamond();
  EXPECT_EQ(nl.size(), 5u);
  EXPECT_EQ(nl.num_combinational(), 3u);
  EXPECT_EQ(nl.primary_inputs().size(), 2u);
  EXPECT_EQ(nl.primary_outputs().size(), 1u);
  EXPECT_EQ(nl.depth(), 2);
}

TEST(Netlist, TopologicalOrderRespectsFanins) {
  Netlist nl = make_diamond();
  std::vector<int> pos(nl.size(), -1);
  int i = 0;
  for (GateId id : nl.combinational()) pos[id] = i++;
  for (GateId id : nl.combinational()) {
    for (GateId f : nl.gate(id).fanins) {
      if (is_combinational(nl.gate(f).type)) {
        EXPECT_LT(pos[f], pos[id]);
      }
    }
  }
}

TEST(Netlist, FanoutsComputed) {
  Netlist nl = make_diamond();
  const GateId a = nl.find("a");
  const GateId g1 = nl.find("g1");
  ASSERT_NE(a, kInvalidGate);
  EXPECT_EQ(nl.gate(a).fanouts.size(), 1u);
  EXPECT_EQ(nl.gate(a).fanouts[0], g1);
}

TEST(Netlist, BranchCountIncludesPrimaryOutput) {
  Netlist nl = make_diamond();
  const GateId g3 = nl.find("g3");
  EXPECT_EQ(nl.gate(g3).branch_count(), 1);  // PO pin only
  const GateId g1 = nl.find("g1");
  EXPECT_EQ(nl.gate(g1).branch_count(), 1);  // one fanout gate
}

TEST(Netlist, BranchCountNeverZero) {
  Netlist nl("dangling");
  const GateId a = nl.add_input("a");
  nl.add_gate(GateType::kNot, "g", {a});  // no fanout, not a PO
  nl.finalize();
  EXPECT_EQ(nl.gate(nl.find("g")).branch_count(), 1);
}

TEST(Netlist, DuplicateNameThrows) {
  Netlist nl;
  nl.add_input("x");
  EXPECT_THROW(nl.add_input("x"), std::invalid_argument);
}

TEST(Netlist, BadArityThrows) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  nl.add_gate(GateType::kNand, "g", {a});  // NAND needs >= 2 inputs
  EXPECT_THROW(nl.finalize(), std::invalid_argument);
}

TEST(Netlist, CombinationalCycleThrows) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId g1 = nl.add_gate(GateType::kNand, "g1");
  const GateId g2 = nl.add_gate(GateType::kNand, "g2", {a, g1});
  nl.set_fanins(g1, {a, g2});
  EXPECT_THROW(nl.finalize(), std::invalid_argument);
}

TEST(Netlist, DffBreaksCycle) {
  // a loop through a DFF is sequential, not combinational: must finalize.
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId q = nl.add_dff("q");
  const GateId g = nl.add_gate(GateType::kNand, "g", {a, q});
  nl.set_fanins(q, {g});
  nl.mark_output(g);
  EXPECT_NO_THROW(nl.finalize());
  EXPECT_EQ(nl.level(q), 0);
  EXPECT_EQ(nl.level(g), 1);
}

TEST(Netlist, SinkDriversIncludeDffFeeders) {
  Netlist nl;
  const GateId a = nl.add_input("a");
  const GateId q = nl.add_dff("q");
  const GateId g = nl.add_gate(GateType::kNot, "g", {a});
  nl.set_fanins(q, {g});
  nl.finalize();
  ASSERT_EQ(nl.sink_drivers().size(), 1u);
  EXPECT_EQ(nl.sink_drivers()[0], g);
}

TEST(Netlist, FindReturnsInvalidForUnknown) {
  Netlist nl = make_diamond();
  EXPECT_EQ(nl.find("nonexistent"), kInvalidGate);
}

TEST(Netlist, FinalizeTwiceThrows) {
  Netlist nl = make_diamond();
  EXPECT_THROW(nl.finalize(), std::logic_error);
}

TEST(Netlist, MutationAfterFinalizeThrows) {
  Netlist nl = make_diamond();
  EXPECT_THROW(nl.add_input("z"), std::logic_error);
}

TEST(Netlist, SourcesAreInputsAndDffs) {
  Netlist nl;
  nl.add_input("a");
  const GateId q = nl.add_dff("q");
  const GateId g = nl.add_gate(GateType::kNot, "g", {nl.find("a")});
  nl.set_fanins(q, {g});
  nl.finalize();
  EXPECT_EQ(nl.sources().size(), 2u);
  EXPECT_TRUE(nl.is_source(nl.find("a")));
  EXPECT_TRUE(nl.is_source(q));
  EXPECT_FALSE(nl.is_source(g));
}

// The flat adjacency holds exactly the Gate fields, in their order, and
// the sink bytes exactly the sink_drivers() list.
void expect_flat_adjacency_matches(const Netlist& nl) {
  const std::vector<GateId>& sinks = nl.sink_drivers();
  for (const Gate& g : nl.gates()) {
    const std::span<const GateId> fanins = nl.fanins_of(g.id);
    const std::span<const GateId> fanouts = nl.fanouts_of(g.id);
    EXPECT_EQ(std::vector<GateId>(fanins.begin(), fanins.end()), g.fanins)
        << nl.name() << " " << g.name;
    EXPECT_EQ(std::vector<GateId>(fanouts.begin(), fanouts.end()), g.fanouts)
        << nl.name() << " " << g.name;
    EXPECT_EQ(nl.is_logic(g.id), is_combinational(g.type))
        << nl.name() << " " << g.name;
    EXPECT_EQ(nl.is_po(g.id), g.is_primary_output)
        << nl.name() << " " << g.name;
    EXPECT_EQ(nl.is_sink(g.id),
              std::find(sinks.begin(), sinks.end(), g.id) != sinks.end())
        << nl.name() << " " << g.name;
  }
}

TEST(NetlistAdjacency, FlatArraysMatchGateFieldsOnEveryBundledCircuit) {
  expect_flat_adjacency_matches(bench_suite::make_c17());
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    expect_flat_adjacency_matches(bench_suite::make_circuit(spec));
  }
}

TEST(NetlistAdjacency, MarkOutputAfterFinalizeKeepsSinkRolesInStep) {
  Netlist nl = bench_suite::make_circuit("s27");
  const std::vector<GateId>& logic = nl.combinational();
  const auto inner = std::find_if(logic.begin(), logic.end(),
                                  [&nl](GateId id) { return !nl.is_sink(id); });
  ASSERT_NE(inner, logic.end());
  const GateId id = *inner;
  nl.mark_output(id);
  EXPECT_TRUE(nl.is_sink(id));
  EXPECT_TRUE(nl.is_po(id));
  expect_flat_adjacency_matches(nl);
  EXPECT_TRUE(std::is_sorted(nl.sink_drivers().begin(),
                             nl.sink_drivers().end()));
  EXPECT_TRUE(std::is_sorted(nl.primary_outputs().begin(),
                             nl.primary_outputs().end()));
  EXPECT_NE(std::find(nl.primary_outputs().begin(),
                      nl.primary_outputs().end(), id),
            nl.primary_outputs().end());
}

TEST(NetlistAdjacency, CopyOwnsItsFlatArrays) {
  std::unique_ptr<Netlist> original =
      std::make_unique<Netlist>(bench_suite::make_circuit("s344*"));
  const Netlist copy = *original;
  const std::vector<Gate> gates = original->gates();
  original.reset();  // the copy must not point into the original's storage
  ASSERT_EQ(copy.gates().size(), gates.size());
  expect_flat_adjacency_matches(copy);
  for (const Gate& g : gates) {
    const std::span<const GateId> fanouts = copy.fanouts_of(g.id);
    EXPECT_EQ(std::vector<GateId>(fanouts.begin(), fanouts.end()), g.fanouts);
  }
}

// ---------------------------------------------------------------- stats.h

TEST(NetlistStats, DiamondNumbers) {
  Netlist nl = make_diamond();
  const NetlistStats s = compute_stats(nl);
  EXPECT_EQ(s.num_gates, 3u);
  EXPECT_EQ(s.num_inputs, 2u);
  EXPECT_EQ(s.num_outputs, 1u);
  EXPECT_EQ(s.depth, 2);
  EXPECT_NEAR(s.avg_fanin, (1 + 1 + 2) / 3.0, 1e-12);
  EXPECT_EQ(s.type_counts[static_cast<std::size_t>(GateType::kNot)], 2u);
  EXPECT_FALSE(s.to_string().empty());
}

}  // namespace
}  // namespace minergy::netlist
