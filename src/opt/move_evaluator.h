// Incremental evaluation of annealing moves (opt::AnnealingOptimizer).
//
// An anneal changes one thing at a time in its accepted state: one gate's
// width, the supply, or every threshold by one step. MoveEvaluator holds
// that state together with each logic gate's delay and arrival at the
// delay corner and its energy at the leaky corner (plus the short-circuit
// term when EvalSettings::include_short_circuit is on), and evaluates a
// proposed move from them:
//
//   * A width move re-times only the gates the move reaches. The moved
//     gate and its logic fanins (whose load holds the moved width) seed the
//     walk; a gate further down is re-timed when a fanin's delay or arrival
//     changed bitwise, in topological order from the earliest seed. The
//     seeds' energies are re-evaluated (and the short-circuit term of every
//     gate whose own width or fanin delay changed), then the cached
//     energies of all gates are summed in topological order.
//   * A supply or threshold move runs one forward pass over every gate into
//     a second set of buffers.
//
// accept() keeps the proposal. reject() restores the accepted state: a
// width move from its undo log, a supply or threshold move by dropping the
// second buffers.
//
// Every evaluation equals CircuitEvaluator::critical_delay and energy bit
// for bit. Gates are timed by timing::forward_step, run_sta's fanin scan
// and gate delay; the energy terms are CircuitEvaluator's own per-gate
// terms, summed in the same order. tests/test_move_evaluator.cpp checks
// this with == after every move.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "opt/circuit_state.h"
#include "opt/evaluator.h"
#include "power/energy_model.h"
#include "tech/device_model.h"

namespace minergy::opt {

struct MoveEvaluation {
  // False exactly when CircuitEvaluator::critical_delay or energy would
  // throw util::NumericError for the state (a non-finite or negative gate
  // delay or arrival, or a non-finite energy); the other fields then mean
  // nothing.
  bool finite = false;
  double critical_delay = 0.0;  // at the delay corner
  power::EnergyBreakdown energy;
};

class MoveEvaluator {
 public:
  explicit MoveEvaluator(const CircuitEvaluator& eval);

  // Makes `state` the accepted state, evaluated by one full pass. An open
  // proposal is dropped.
  const MoveEvaluation& reset(CircuitState state);

  // Proposals. Each changes the held state and returns its evaluation; the
  // next call must be accept() or reject(). `vts` holds every gate's new
  // nominal threshold, indexed by gate id.
  const MoveEvaluation& propose_width(netlist::GateId id, double width);
  const MoveEvaluation& propose_vdd(double vdd);
  const MoveEvaluation& propose_vts(std::span<const double> vts);

  // Both are no-ops when no proposal is open.
  void accept();
  void reject();

  // The open proposal's state and evaluation, else the accepted ones.
  const CircuitState& state() const { return state_; }
  const MoveEvaluation& evaluation() const { return now_; }

 private:
  // Per-gate results for the whole circuit.
  struct Buffers {
    std::vector<double> delay, arrival;  // by gate id; 0 at sources
    // By topological position; the short-circuit term rides in its field.
    std::vector<power::EnergyBreakdown> energy;
    // Logic gates whose delay or arrival fails the evaluator's finite check.
    std::size_t bad = 0;
  };
  // A gate's entry in the width move's undo log.
  struct Undo {
    netlist::GateId id;
    double delay, arrival;
    power::EnergyBreakdown energy;
  };
  enum class Open { kNone, kInPlace, kSecondBuffers };

  // Starts a proposal of `kind`; saves what reject() restores.
  void open_proposal(Open kind);
  // Every gate of state_ into `b`.
  void full_pass(Buffers& b);
  // Critical delay, energy sum and finite check of `b`.
  MoveEvaluation summarize(const Buffers& b) const;

  const CircuitEvaluator& eval_;
  const netlist::Netlist& nl_;
  std::vector<std::uint32_t> pos_;   // topological position by gate id
  std::vector<std::uint8_t> flags_;  // width-move walk; zero between walks
  tech::OperatingPointMemo delay_op_, leaky_op_;

  CircuitState state_;
  Buffers cur_, alt_;
  MoveEvaluation now_, accepted_;

  Open open_ = Open::kNone;
  netlist::GateId moved_ = netlist::kInvalidGate;  // width move's gate
  double old_width_ = 0.0, old_vdd_ = 0.0;
  bool vts_saved_ = false;
  std::vector<double> old_vts_;
  std::vector<Undo> undo_;
  std::size_t old_bad_ = 0;
};

}  // namespace minergy::opt
