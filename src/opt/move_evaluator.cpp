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
      calc_(eval.delay_calculator()),
      energy_(eval.energy_model()),
      pos_(nl_.size(), 0),
      flags_(nl_.size(), 0),
      delay_op_(eval.device()),
      leaky_op_(eval.device()) {
  const std::vector<GateId>& topo = nl_.combinational();
  density_.resize(topo.size());
  for (std::size_t p = 0; p < topo.size(); ++p) {
    const GateId g = topo[p];
    pos_[g] = static_cast<std::uint32_t>(p);
    density_[p] = eval.activity().density[g];
  }
  ops_.resize(topo.size());
  for (Buffers* b : {&cur_, &alt_}) {
    b->delay.assign(nl_.size(), 0.0);
    b->arrival.assign(nl_.size(), 0.0);
    b->terms.resize(topo.size());
    b->energy.resize(topo.size());
  }
}

const MoveEvaluation& MoveEvaluator::reset(CircuitState state) {
  MINERGY_CHECK(state.widths.size() == nl_.size());
  MINERGY_CHECK(state.vts.size() == nl_.size());
  state_ = std::move(state);
  open_ = Open::kNone;
  // The cache refresh: one fanout-load sum per gate.
  for (std::size_t p = 0; p < ops_.size(); ++p) refresh_operands(p);
  timing::count_delay_work(0, static_cast<std::int64_t>(ops_.size()));
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
  seed_undo_.clear();
  old_bad_ = cur_.bad;
}

void MoveEvaluator::refresh_operands(std::size_t p) {
  const GateId g = nl_.combinational()[p];
  Operands& o = ops_[p];
  o.load = calc_.gate_load(g, state_.widths);
  o.width = state_.widths[g];
  o.cap = energy_.switched_cap(g, state_.widths);
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
  const bool short_circuit = eval_.includes_short_circuit();
  const double vdd = state_.vdd;
  const double fc = energy_.clock_frequency();
  std::int64_t retimed = 0, seeds = 0;
  for (std::size_t p = first; pending > 0; ++p) {
    const GateId g = topo[p];
    const std::uint8_t why = flags_[g];
    if (why == 0) continue;
    flags_[g] = 0;
    --pending;

    timing::LoadTerms& t = cur_.terms[p];
    power::EnergyBreakdown& e = cur_.energy[p];
    undo_.push_back({g, cur_.delay[g], cur_.arrival[g], e});
    if (why & (kOwnWidth | kFanoutWidth)) {
      // A seed: its operands, load terms and energy read the moved width.
      seed_undo_.push_back({static_cast<std::uint32_t>(p), ops_[p], t});
      refresh_operands(p);
      const Operands& o = ops_[p];
      const double vts = state_.vts[g];
      t = timing::eq_a3(
          calc_.gate_drive(g, delay_op_.at(vdd, eval_.delay_vts(vts))),
          o.load, o.width);
      const double short_circuit_term = e.short_circuit_energy;
      e = power::EnergyModel::gate_terms(
          o.width, o.cap, density_[p], vdd,
          leaky_op_.at(vdd, eval_.leakage_vts(vts)).ioff, fc);
      e.short_circuit_energy = short_circuit_term;
      ++seeds;
    }
    const timing::FaninScan f = timing::scan_fanins(
        nl_, g, cur_.delay.data(), cur_.arrival.data());
    const double delay = t.delay(f.max_fanin_delay);
    const double arrival = f.arrival + delay;
    ++retimed;
    const auto changed = static_cast<std::uint8_t>(
        (same_bits(delay, cur_.delay[g]) ? 0 : kFaninDelay) |
        (same_bits(arrival, cur_.arrival[g]) ? 0 : kFaninArrival));
    cur_.bad += fails_check(delay, arrival);
    cur_.bad -= fails_check(cur_.delay[g], cur_.arrival[g]);
    cur_.delay[g] = delay;
    cur_.arrival[g] = arrival;

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
  // Only the seeds summed a fanout load.
  timing::count_delay_work(retimed, seeds);
  energy_evals().add(seeds);
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
    for (auto it = seed_undo_.rbegin(); it != seed_undo_.rend(); ++it) {
      ops_[it->pos] = it->ops;
      cur_.terms[it->pos] = it->terms;
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
  const tech::DeviceModel& dev = eval_.device();
  const bool short_circuit = eval_.includes_short_circuit();
  const double vdd = state_.vdd;
  const double fc = energy_.clock_frequency();
  const double* vts = state_.vts.data();
  double* delay = b.delay.data();
  double* arrival = b.arrival.data();
  // The device terms of the threshold of the gate before: the operating
  // point at the delay corner and the leakage per width unit at the leaky
  // one.
  tech::OperatingPoint op;
  double ioff = 0.0;
  std::size_t bad = 0;
  for (std::size_t p = 0; p < topo.size(); ++p) {
    const GateId g = topo[p];
    if (p == 0 || !same_bits(vts[g], vts[topo[p - 1]])) {
      op = dev.operating_point(vdd, eval_.delay_vts(vts[g]));
      ioff = dev.ioff_per_wunit(eval_.leakage_vts(vts[g]));
    }
    const Operands& o = ops_[p];
    const timing::LoadTerms t =
        timing::eq_a3(calc_.gate_drive(g, op), o.load, o.width);
    const timing::FaninScan f = timing::scan_fanins(nl_, g, delay, arrival);
    const double d = t.delay(f.max_fanin_delay);
    b.terms[p] = t;
    delay[g] = d;
    arrival[g] = f.arrival + d;
    bad += fails_check(d, arrival[g]);
    b.energy[p] = power::EnergyModel::gate_terms(o.width, o.cap, density_[p],
                                                 vdd, ioff, fc);
    if (short_circuit) {
      b.energy[p].short_circuit_energy =
          eval_.short_circuit_energy(g, state_, delay);
    }
  }
  b.bad = bad;
  // No fanout load is summed here.
  const auto n = static_cast<std::int64_t>(topo.size());
  timing::count_delay_work(n, 0);
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
