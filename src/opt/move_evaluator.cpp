#include "opt/move_evaluator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "timing/sta.h"
#include "util/check.h"

namespace minergy::opt {
namespace {

using netlist::GateId;

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// CircuitEvaluator's finite check on one gate (check_finite_report).
bool fails_check(double delay, double arrival) {
  return !(std::isfinite(delay) && delay >= 0.0 && std::isfinite(arrival) &&
           arrival >= 0.0);
}

// Why the width-move walk re-times a gate.
constexpr std::uint8_t kOwnWidth = 1;      // the moved gate
constexpr std::uint8_t kFanoutWidth = 2;   // a logic fanin of the moved gate
constexpr std::uint8_t kFaninDelay = 4;    // a fanin's delay changed
constexpr std::uint8_t kFaninArrival = 8;  // a fanin's arrival changed

obs::Counter& energy_evals() {
  static obs::Counter& c = obs::counter("power.energy.gate_evals");
  return c;
}
obs::Counter& incremental_evals() {
  static obs::Counter& c = obs::counter("opt.anneal.incremental_evals");
  return c;
}

}  // namespace

MoveEvaluator::MoveEvaluator(const CircuitEvaluator& eval)
    : eval_(eval),
      nl_(eval.netlist()),
      pos_(nl_.size(), 0),
      flags_(nl_.size(), 0),
      delay_op_(eval.device()),
      leaky_op_(eval.device()) {
  const std::vector<GateId>& topo = nl_.combinational();
  for (std::size_t p = 0; p < topo.size(); ++p) {
    pos_[topo[p]] = static_cast<std::uint32_t>(p);
  }
  for (Buffers* b : {&cur_, &alt_}) {
    b->delay.assign(nl_.size(), 0.0);
    b->arrival.assign(nl_.size(), 0.0);
    b->energy.resize(topo.size());
  }
}

const MoveEvaluation& MoveEvaluator::reset(CircuitState state) {
  MINERGY_CHECK(state.widths.size() == nl_.size());
  MINERGY_CHECK(state.vts.size() == nl_.size());
  state_ = std::move(state);
  open_ = Open::kNone;
  full_pass(cur_);
  now_ = accepted_ = summarize(cur_);
  return now_;
}

void MoveEvaluator::open_proposal(Open kind) {
  MINERGY_CHECK_MSG(open_ == Open::kNone, "a proposed move is still open");
  open_ = kind;
  moved_ = netlist::kInvalidGate;
  old_vdd_ = state_.vdd;
  vts_saved_ = false;
  undo_.clear();
  old_bad_ = cur_.bad;
}

const MoveEvaluation& MoveEvaluator::propose_width(GateId id, double width) {
  MINERGY_CHECK(id < nl_.size() && nl_.is_logic(id));
  open_proposal(Open::kInPlace);
  moved_ = id;
  old_width_ = state_.widths[id];
  incremental_evals().add();
  if (same_bits(width, old_width_)) return now_;
  state_.widths[id] = width;

  // Seeds: the moved gate and its logic fanins, whose receiver load holds
  // the moved width. A fanin may feed the gate on more than one pin.
  std::size_t first = pos_[id];
  std::size_t pending = 1;
  flags_[id] = kOwnWidth;
  for (GateId f : nl_.fanins_of(id)) {
    if (!nl_.is_logic(f)) continue;
    if (flags_[f] == 0) ++pending;
    flags_[f] |= kFanoutWidth;
    first = std::min<std::size_t>(first, pos_[f]);
  }

  const std::vector<GateId>& topo = nl_.combinational();
  const timing::DelayCalculator& calc = eval_.delay_calculator();
  const bool short_circuit = eval_.includes_short_circuit();
  std::int64_t retimed = 0, energies = 0;
  for (std::size_t p = first; pending > 0; ++p) {
    const GateId g = topo[p];
    const std::uint8_t why = flags_[g];
    if (why == 0) continue;
    flags_[g] = 0;
    --pending;

    power::EnergyBreakdown& e = cur_.energy[p];
    undo_.push_back({g, cur_.delay[g], cur_.arrival[g], e});
    const timing::ForwardStep s = timing::forward_step(
        calc, g, state_.widths,
        delay_op_.at(state_.vdd, eval_.delay_vts(state_.vts[g])),
        cur_.delay.data(), cur_.arrival.data());
    ++retimed;
    const auto changed = static_cast<std::uint8_t>(
        (same_bits(s.delay, cur_.delay[g]) ? 0 : kFaninDelay) |
        (same_bits(s.arrival, cur_.arrival[g]) ? 0 : kFaninArrival));
    cur_.bad += fails_check(s.delay, s.arrival);
    cur_.bad -= fails_check(cur_.delay[g], cur_.arrival[g]);
    cur_.delay[g] = s.delay;
    cur_.arrival[g] = s.arrival;

    if (why & (kOwnWidth | kFanoutWidth)) {
      const double short_circuit_term = e.short_circuit_energy;
      e = eval_.gate_energy(g, state_, leaky_op_);
      e.short_circuit_energy = short_circuit_term;
      ++energies;
    }
    if (short_circuit && (why & (kOwnWidth | kFaninDelay))) {
      e.short_circuit_energy =
          eval_.short_circuit_energy(g, state_, cur_.delay.data());
    }

    if (changed == 0) continue;
    for (GateId o : nl_.fanouts_of(g)) {
      if (!nl_.is_logic(o)) continue;
      if (flags_[o] == 0) ++pending;
      flags_[o] |= changed;
    }
  }
  timing::count_delay_work(retimed, retimed);
  energy_evals().add(energies);
  now_ = summarize(cur_);
  return now_;
}

const MoveEvaluation& MoveEvaluator::propose_vdd(double vdd) {
  if (same_bits(vdd, state_.vdd)) {
    open_proposal(Open::kInPlace);
    incremental_evals().add();
    return now_;
  }
  open_proposal(Open::kSecondBuffers);
  state_.vdd = vdd;
  full_pass(alt_);
  now_ = summarize(alt_);
  return now_;
}

const MoveEvaluation& MoveEvaluator::propose_vts(std::span<const double> vts) {
  MINERGY_CHECK(vts.size() == nl_.size());
  if (std::memcmp(vts.data(), state_.vts.data(), vts.size_bytes()) == 0) {
    open_proposal(Open::kInPlace);
    incremental_evals().add();
    return now_;
  }
  open_proposal(Open::kSecondBuffers);
  old_vts_.swap(state_.vts);
  state_.vts.assign(vts.begin(), vts.end());
  vts_saved_ = true;
  full_pass(alt_);
  now_ = summarize(alt_);
  return now_;
}

void MoveEvaluator::accept() {
  if (open_ == Open::kSecondBuffers) std::swap(cur_, alt_);
  open_ = Open::kNone;
  accepted_ = now_;
}

void MoveEvaluator::reject() {
  if (open_ == Open::kNone) return;
  if (open_ == Open::kInPlace) {
    for (auto it = undo_.rbegin(); it != undo_.rend(); ++it) {
      cur_.delay[it->id] = it->delay;
      cur_.arrival[it->id] = it->arrival;
      cur_.energy[pos_[it->id]] = it->energy;
    }
    cur_.bad = old_bad_;
  }
  if (moved_ != netlist::kInvalidGate) state_.widths[moved_] = old_width_;
  state_.vdd = old_vdd_;
  if (vts_saved_) state_.vts.swap(old_vts_);
  open_ = Open::kNone;
  now_ = accepted_;
}

void MoveEvaluator::full_pass(Buffers& b) {
  static obs::Counter& c_full = obs::counter("opt.anneal.full_evals");
  c_full.add();
  const std::vector<GateId>& topo = nl_.combinational();
  const timing::DelayCalculator& calc = eval_.delay_calculator();
  const bool short_circuit = eval_.includes_short_circuit();
  b.bad = 0;
  for (std::size_t p = 0; p < topo.size(); ++p) {
    const GateId g = topo[p];
    const timing::ForwardStep s = timing::forward_step(
        calc, g, state_.widths,
        delay_op_.at(state_.vdd, eval_.delay_vts(state_.vts[g])),
        b.delay.data(), b.arrival.data());
    b.delay[g] = s.delay;
    b.arrival[g] = s.arrival;
    b.bad += fails_check(s.delay, s.arrival);
    b.energy[p] = eval_.gate_energy(g, state_, leaky_op_);
    if (short_circuit) {
      b.energy[p].short_circuit_energy =
          eval_.short_circuit_energy(g, state_, b.delay.data());
    }
  }
  const auto n = static_cast<std::int64_t>(topo.size());
  timing::count_delay_work(n, n);
  energy_evals().add(n);
}

MoveEvaluation MoveEvaluator::summarize(const Buffers& b) const {
  MoveEvaluation m;
  const GateId end = timing::latest_sink(nl_, b.arrival.data());
  m.critical_delay = end == netlist::kInvalidGate ? 0.0 : b.arrival[end];
  // CircuitEvaluator::energy adds each gate's static and dynamic terms in
  // topological order, then the short-circuit terms in the same order onto
  // a zero, so one pass over the cached terms gives the same bits.
  for (const power::EnergyBreakdown& e : b.energy) m.energy += e;
  m.finite = b.bad == 0 && std::isfinite(m.critical_delay) &&
             m.critical_delay >= 0.0 && std::isfinite(m.energy.total());
  return m;
}

}  // namespace minergy::opt
