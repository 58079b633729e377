#include "opt/certifier.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/guard.h"
#include "util/json.h"

namespace minergy::opt {
namespace {

// Relative disagreement between two quantities that should be the same
// number computed twice; symmetric and safe at zero. A non-finite operand
// is an infinite mismatch — NaN must not slip through a `> tol` compare.
double rel_mismatch(double a, double b) {
  if (!std::isfinite(a) || !std::isfinite(b)) {
    return std::numeric_limits<double>::infinity();
  }
  const double scale = std::max({std::fabs(a), std::fabs(b), 1e-30});
  return std::fabs(a - b) / scale;
}

std::string format_v(double v) {
  std::ostringstream os;
  os.precision(12);
  os << v;
  return os.str();
}

}  // namespace

std::string Certificate::summary() const {
  if (certified) return "certified";
  return "UNCERTIFIED [" + violated_invariant + "]: " + detail;
}

std::string Certificate::to_json(int indent) const {
  util::JsonWriter w(indent);
  w.begin_object();
  w.kv("schema", "minergy.certificate.v1");
  w.kv("certified", certified);
  w.kv("violated_invariant", violated_invariant);
  w.kv("culprit_gate", culprit_gate);
  w.kv("detail", detail);
  w.kv("recomputed_critical_delay", recomputed_critical_delay);
  w.kv("recomputed_energy_total", recomputed_energy_total);
  w.kv("recomputed_static_energy", recomputed_static_energy);
  w.kv("recomputed_dynamic_energy", recomputed_dynamic_energy);
  w.kv("timing_limit", timing_limit);
  w.end_object();
  return w.str();
}

Certifier::Certifier(const CircuitEvaluator& eval, CertifyOptions options)
    : eval_(eval), opts_(options) {}

Certificate Certifier::certify(const OptimizationResult& result) const {
  const obs::Span span("cert.run");
  static obs::Counter& c_runs = obs::counter("cert.runs");
  static obs::Counter& c_pass = obs::counter("cert.pass");
  static obs::Counter& c_fail = obs::counter("cert.fail");
  c_runs.add();

  const netlist::Netlist& nl = eval_.netlist();
  const tech::Technology& tech = eval_.technology();
  Certificate cert;
  cert.timing_limit = opts_.skew_b * eval_.cycle_time();

  auto fail = [&](std::string invariant, std::string detail,
                  std::string gate = std::string()) {
    cert.certified = false;
    cert.violated_invariant = std::move(invariant);
    cert.detail = std::move(detail);
    cert.culprit_gate = std::move(gate);
    c_fail.add();
    obs::counter("cert.fail." + cert.violated_invariant).add();
    obs::Tracer::instance().instant("cert.failed",
                                    cert.violated_invariant.c_str());
    return cert;
  };

  // --- 1. The result must claim feasibility at all ------------------------
  if (!result.feasible) {
    return fail("result-feasible",
                "result is flagged infeasible; only feasible results can be "
                "certified");
  }

  // --- 2. State shape ------------------------------------------------------
  const CircuitState& state = result.state;
  if (state.vts.size() != nl.size() || state.widths.size() != nl.size()) {
    std::ostringstream os;
    os << "state arrays do not cover the netlist (vts " << state.vts.size()
       << ", widths " << state.widths.size() << ", gates " << nl.size() << ")";
    return fail("state-shape", os.str());
  }
  if (rel_mismatch(state.vdd, result.vdd) > opts_.report_rel_tolerance) {
    return fail("operating-point-mismatch",
                "reported Vdd " + format_v(result.vdd) +
                    " V does not match state Vdd " + format_v(state.vdd) +
                    " V");
  }

  // --- 3. Physicality: variables inside the technology ranges --------------
  const double slack = opts_.range_slack;
  if (!std::isfinite(state.vdd) || state.vdd < tech.vdd_min - slack ||
      state.vdd > tech.vdd_max + slack) {
    return fail("vdd-range", "Vdd " + format_v(state.vdd) + " V outside [" +
                                 format_v(tech.vdd_min) + ", " +
                                 format_v(tech.vdd_max) + "] V");
  }
  for (netlist::GateId id : nl.combinational()) {
    const double vts = state.vts[id];
    if (!std::isfinite(vts) || vts < tech.vts_min - slack ||
        vts > tech.vts_max + slack) {
      return fail("vts-range",
                  "Vts " + format_v(vts) + " V of gate '" + nl.gate(id).name +
                      "' outside [" + format_v(tech.vts_min) + ", " +
                      format_v(tech.vts_max) + "] V",
                  nl.gate(id).name);
    }
    const double w = state.widths[id];
    if (!std::isfinite(w) || w < tech.w_min - slack ||
        w > tech.w_max + slack) {
      return fail("width-range",
                  "width " + format_v(w) + " of gate '" + nl.gate(id).name +
                      "' outside [" + format_v(tech.w_min) + ", " +
                      format_v(tech.w_max) + "]",
                  nl.gate(id).name);
    }
  }

  // --- 4./5. Fresh STA: finite arrivals, then the timing constraint --------
  double recomputed_crit = 0.0;
  try {
    const timing::TimingReport sta = eval_.sta(state, cert.timing_limit);
    recomputed_crit = sta.critical_delay;
  } catch (const util::NumericError& e) {
    // The evaluator boundary names the offending gate in its context.
    return fail("finite-arrivals", e.what());
  }
  cert.recomputed_critical_delay = recomputed_crit;
  if (recomputed_crit > cert.timing_limit * (1.0 + opts_.timing_epsilon)) {
    std::ostringstream os;
    os << "re-derived critical delay " << recomputed_crit * 1e9
       << " ns exceeds the claimed limit " << cert.timing_limit * 1e9
       << " ns";
    return fail("timing-constraint", os.str());
  }
  if (rel_mismatch(recomputed_crit, result.critical_delay) >
      opts_.report_rel_tolerance) {
    std::ostringstream os;
    os << "reported critical delay " << result.critical_delay * 1e9
       << " ns disagrees with the fresh STA's " << recomputed_crit * 1e9
       << " ns";
    return fail("timing-report-mismatch", os.str());
  }

  // --- 6. Energy re-accounting (Appendix A.1) -------------------------------
  power::EnergyBreakdown recomputed;
  try {
    recomputed = eval_.energy(state);
  } catch (const util::NumericError& e) {
    return fail("energy-accounting", e.what());
  }
  cert.recomputed_energy_total = recomputed.total();
  cert.recomputed_static_energy = recomputed.static_energy;
  cert.recomputed_dynamic_energy = recomputed.dynamic_energy;

  // Independent gate-by-gate re-summation with the evaluator's corner
  // convention (dynamic at nominal Vts, leakage at the lowered corner):
  // cross-checks the evaluator's own accumulation, not just the optimizer's
  // bookkeeping.
  {
    const power::EnergyModel& em = eval_.energy_model();
    double re_static = 0.0, re_dynamic = 0.0;
    for (netlist::GateId id : nl.combinational()) {
      const power::EnergyBreakdown nominal =
          em.gate_energy(id, state.widths, state.vdd, state.vts[id]);
      re_dynamic += nominal.dynamic_energy;
      re_static += eval_.vts_tolerance() == 0.0
                       ? nominal.static_energy
                       : em.gate_energy(id, state.widths, state.vdd,
                                        eval_.leakage_vts(state.vts[id]))
                             .static_energy;
    }
    if (rel_mismatch(re_static, recomputed.static_energy) >
            opts_.report_rel_tolerance ||
        rel_mismatch(re_dynamic, recomputed.dynamic_energy) >
            opts_.report_rel_tolerance) {
      std::ostringstream os;
      os << "per-gate re-summation (static " << re_static << " J, dynamic "
         << re_dynamic << " J) disagrees with the evaluator's accumulation "
         << "(static " << recomputed.static_energy << " J, dynamic "
         << recomputed.dynamic_energy << " J)";
      return fail("energy-accounting", os.str());
    }
  }
  if (rel_mismatch(recomputed.total(), result.energy.total()) >
          opts_.report_rel_tolerance ||
      rel_mismatch(recomputed.static_energy, result.energy.static_energy) >
          opts_.report_rel_tolerance ||
      rel_mismatch(recomputed.dynamic_energy, result.energy.dynamic_energy) >
          opts_.report_rel_tolerance) {
    std::ostringstream os;
    os << "reported energy (static " << result.energy.static_energy
       << " J, dynamic " << result.energy.dynamic_energy << " J, total "
       << result.energy.total() << " J) disagrees with the re-derived "
       << "(static " << recomputed.static_energy << " J, dynamic "
       << recomputed.dynamic_energy << " J, total " << recomputed.total()
       << " J)";
    return fail("energy-report-mismatch", os.str());
  }

  // --- 7. Monotone accepted-energy trajectory -------------------------------
  if (opts_.check_trajectory) {
    const std::vector<double> accepted = result.report.accepted_energies();
    for (std::size_t i = 0; i < accepted.size(); ++i) {
      if (!std::isfinite(accepted[i])) {
        std::ostringstream os;
        os << "accepted-energy trajectory has a non-finite value at index "
           << i;
        return fail("trajectory-monotone", os.str());
      }
      if (i > 0 && accepted[i] > accepted[i - 1] * (1.0 + 1e-12)) {
        std::ostringstream os;
        os << "accepted-energy trajectory increases at index " << i << " ("
           << accepted[i] << " J > " << accepted[i - 1] << " J)";
        return fail("trajectory-monotone", os.str());
      }
    }
  }

  cert.certified = true;
  c_pass.add();
  return cert;
}

}  // namespace minergy::opt
