#include "solve.h"

#include <cmath>
#include <functional>
#include <limits>

#include "interconnect/wire_model.h"
#include "obs/metrics.h"
#include "opt/annealing_optimizer.h"
#include "opt/baseline_optimizer.h"
#include "opt/certifier.h"
#include "opt/joint_optimizer.h"
#include "opt/robust_optimizer.h"
#include "opt/sizer.h"
#include "timing/sta.h"
#include "util/thread_pool.h"

namespace e2e {

using namespace minergy;

const bench_suite::ExperimentConfig& experiment_config() {
  static const bench_suite::ExperimentConfig cfg;
  return cfg;
}

namespace {

// Keeps replayed results observable so the calls are not optimized away.
volatile double g_sink = 0.0;

// Median wall time of 20 calls, in microseconds.
double median_call_us(const std::function<void()>& fn) {
  std::vector<double> us;
  for (int i = 0; i < 20; ++i) {
    const double t0 = now_s();
    fn();
    us.push_back((now_s() - t0) * 1e6);
  }
  return median(us);
}

struct ReplayPoint {
  const Outcome* item = nullptr;
  std::vector<double> vts_delay;  // per-gate delay-corner thresholds
  timing::BudgetResult budgets;
  timing::TimingReport report;
  double limit = 0.0;
};

ReplayPoint replay_point(const Outcome& o) {
  ReplayPoint p;
  p.item = &o;
  const opt::CircuitEvaluator& ev = *o.eval;
  const opt::CircuitState& s = o.final.state;
  const double skew_b = experiment_config().opts.skew_b;
  p.limit = skew_b * ev.cycle_time();
  for (double v : s.vts) p.vts_delay.push_back(ev.delay_vts(v));
  p.budgets = ev.budgeter().assign(ev.cycle_time(), {.clock_skew_b = skew_b});
  p.report = timing::run_sta(ev.delay_calculator(), s.widths, s.vdd,
                             std::span<const double>(p.vts_delay), p.limit);
  return p;
}

// The kernels whose cost depends on the evaluation thread count.
void replay_threaded(const ReplayPoint& p, std::map<std::string, double>& us,
                     const std::string& suffix) {
  const opt::CircuitEvaluator& ev = *p.item->eval;
  const opt::CircuitState& s = p.item->final.state;
  const int steps = experiment_config().opts.sizing_steps;
  const opt::GateSizer sizer(ev.delay_calculator());
  us["timing.sta_us" + suffix] = median_call_us([&] {
    g_sink = timing::run_sta(ev.delay_calculator(), s.widths, s.vdd,
                             std::span<const double>(p.vts_delay), p.limit)
                 .critical_delay;
  });
  // The evaluator's energy sum (per-gate terms fanned over the pool), with
  // the cache bypassed so every call computes.
  us["opt.eval_energy_us" + suffix] = median_call_us([&] {
    const opt::EvalCacheBypass bypass;
    g_sink = ev.energy(s).total();
  });
  us["opt.sizer_size_us" + suffix] = median_call_us([&] {
    g_sink = sizer.size(p.budgets.t_max, s.vdd, p.vts_delay, steps).widths[0];
  });
}

std::map<std::string, double> replay(const ReplayPoint& p) {
  const opt::CircuitEvaluator& ev = *p.item->eval;
  const netlist::Netlist& nl = ev.netlist();
  const opt::CircuitState& s = p.item->final.state;
  const int steps = experiment_config().opts.sizing_steps;
  const opt::GateSizer sizer(ev.delay_calculator());
  std::map<std::string, double> us;
  us["activity.estimate_us"] = median_call_us([&] {
    g_sink = activity::estimate_activity(nl, p.item->profile).density[0];
  });
  us["interconnect.wire_model_us"] = median_call_us([&] {
    const interconnect::WireModel wires(ev.technology(), nl);
    g_sink = wires.net_cap(nl.sources()[0]);
  });
  us["timing.budget_assign_us"] = median_call_us([&] {
    g_sink = ev.budgeter()
                 .assign(ev.cycle_time(),
                         {.clock_skew_b = experiment_config().opts.skew_b})
                 .longest_budget_path;
  });
  us["power.energy_us"] = median_call_us([&] {
    g_sink = ev.energy_model().total_energy(s.widths, s.vdd, s.vts).total();
  });
  // Each call gets a fresh cycle limit, so every lookup misses the
  // evaluator's cache, as almost every anneal move does: the cost measured
  // is digest + STA + finite checks + insert.
  double limit = p.limit;
  us["opt.eval_sta_us"] = median_call_us([&] {
    limit = std::nextafter(limit, std::numeric_limits<double>::infinity());
    g_sink = ev.sta(s, limit).critical_delay;
  });
  us["opt.sizer_recover_us"] = median_call_us([&] {
    g_sink = sizer.recover(s.widths, s.vdd, p.vts_delay, p.limit, p.report,
                           steps)
                 .widths[0];
  });
  replay_threaded(p, us, "");
  return us;
}

}  // namespace

Outcome solve_item(const Item& item, Spans& spans) {
  const bench_suite::ExperimentConfig& cfg = experiment_config();
  Outcome out;
  out.profile.input_density = item.activity;
  const bool counting = obs::enabled();
  std::map<std::string, std::int64_t> before;
  if (counting) before = obs::Registry::instance().counter_snapshot();

  // One optimizer run plus its independent certification.
  const auto solve = [&](const char* span, double skew_b,
                         const std::function<opt::OptimizationResult()>& run) {
    ++out.solves;
    try {
      opt::OptimizationResult res;
      out.optimize_s += spans.time(span, item.label, [&] { res = run(); });
      opt::CertifyOptions copts;
      copts.skew_b = skew_b;
      opt::Certificate cert;
      spans.time("opt.certify", item.label, [&] {
        cert = opt::Certifier(*out.eval, copts).certify(res);
      });
      out.fingerprint += std::string(span) + " " + item.label +
                         " E=" + hexf(res.energy.total()) +
                         " vdd=" + hexf(res.vdd) +
                         " vts=" + hexf(res.vts_primary) + "; ";
      if (!res.feasible || !cert.certified) {
        ++out.failed;
        out.errors.push_back(item.label + " " + span + ": " +
                             (res.feasible ? cert.summary() : "infeasible"));
      } else {
        out.energies_fj.push_back(res.energy.total() * 1e15);
      }
      out.final = std::move(res);
    } catch (const std::exception& e) {
      ++out.failed;
      out.errors.push_back(item.label + " " + span + ": " + e.what());
    }
  };

  out.seconds = spans.time("item", item.label, [&] {
    try {
      double tc = item.cycle_time;
      if (tc <= 0.0) {
        spans.time("opt.min_cycle", item.label, [&] {
          bool scaled = false;
          tc = bench_suite::choose_cycle_time(*item.nl, cfg, &scaled);
        });
      }
      spans.time("opt.evaluator_init", item.label, [&] {
        out.eval = std::make_unique<opt::CircuitEvaluator>(
            *item.nl, cfg.tech, out.profile,
            opt::EvalSettings{.clock_frequency = 1.0 / tc});
      });
    } catch (const std::exception& e) {
      ++out.solves;
      ++out.failed;
      out.errors.push_back(item.label + " setup: " + e.what());
      return;
    }
    const opt::CircuitEvaluator& ev = *out.eval;
    switch (item.flow) {
      case Flow::kTableRow:
        solve("opt.baseline", cfg.opts.skew_b, [&] {
          return opt::BaselineOptimizer(ev, cfg.opts).run();
        });
        solve("opt.joint", cfg.opts.skew_b,
              [&] { return opt::JointOptimizer(ev, cfg.opts).run(); });
        break;
      case Flow::kJoint:
        solve("opt.joint", cfg.opts.skew_b,
              [&] { return opt::JointOptimizer(ev, cfg.opts).run(); });
        break;
      case Flow::kAnneal: {
        opt::AnnealingOptions aopts;
        aopts.max_moves = item.anneal_moves;
        aopts.seed = item.anneal_seed;
        solve("opt.anneal", aopts.skew_b,
              [&] { return opt::AnnealingOptimizer(ev, aopts).run(); });
        break;
      }
      case Flow::kRobust: {
        const opt::RobustOptions ropts;
        solve("opt.robust", ropts.joint.skew_b,
              [&] { return opt::RobustOptimizer(ev, ropts).run(); });
        break;
      }
    }
  });

  if (counting) {
    const auto after = obs::Registry::instance().counter_snapshot();
    for (const auto& [name, value] : after) {
      const auto b = before.find(name);
      const std::int64_t d = value - (b == before.end() ? 0 : b->second);
      if (d != 0) out.counters[name] = d;
    }
  }
  return out;
}

void add_layer_metrics(Result& r, const std::vector<Outcome>& traced,
                       const Spans& spans) {
  r.metric("netlist.build_s", median(spans.durations("netlist.build")), "s");
  r.metric("opt.evaluator_init_s",
           median(spans.durations("opt.evaluator_init")), "s");
  r.metric("opt.min_cycle_s", median(spans.durations("opt.min_cycle")), "s");
  std::vector<double> run_s;
  for (const Outcome& o : traced) run_s.push_back(o.optimize_s);
  r.metric("opt.run_s", median(run_s), "s");
  r.metric("opt.certify_s", median(spans.durations("opt.certify")), "s");

  // Layer replay at every traced item's final state; the .t1 variants
  // repeat the thread-sensitive kernels on a one-lane pool, the plain
  // single-threaded baseline for the same problem.
  std::vector<ReplayPoint> points;
  for (const Outcome& o : traced) {
    if (o.eval && !o.final.state.empty()) points.push_back(replay_point(o));
  }
  std::vector<std::map<std::string, double>> us;
  for (const ReplayPoint& p : points) us.push_back(replay(p));
  util::set_global_threads(1);
  for (std::size_t i = 0; i < points.size(); ++i) {
    replay_threaded(points[i], us[i], ".t1");
  }
  util::set_global_threads(0);  // back to the shipped default
  std::map<const Outcome*, const std::map<std::string, double>*> us_of;
  for (std::size_t i = 0; i < points.size(); ++i) {
    us_of[points[i].item] = &us[i];
  }
  static const char* kReplayed[] = {
      "activity.estimate_us", "interconnect.wire_model_us",
      "timing.budget_assign_us", "timing.sta_us", "power.energy_us",
      "opt.eval_sta_us", "opt.eval_energy_us", "opt.sizer_size_us",
      "opt.sizer_recover_us", "timing.sta_us.t1", "opt.eval_energy_us.t1",
      "opt.sizer_size_us.t1"};
  for (const char* name : kReplayed) {
    double sum = 0.0;
    for (const auto& m : us) sum += m.at(name);
    r.metric(name, us.empty() ? 0.0 : sum / static_cast<double>(us.size()),
             "us");
  }

  // Registry counts per solve, and computed shares of the traced item time:
  // calls counted in the solve x the replayed cost of one call.
  std::map<std::string, double> total;
  double solves = 0.0, seconds = 0.0, sta_s = 0.0, sizer_s = 0.0,
         energy_s = 0.0, sta_gate_evals = 0.0;
  std::vector<double> energies;
  for (const Outcome& o : traced) {
    solves += o.solves;
    seconds += o.seconds;
    energies.insert(energies.end(), o.energies_fj.begin(), o.energies_fj.end());
    const auto count = [&](const char* name) {
      const auto it = o.counters.find(name);
      return it == o.counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    for (const auto& [name, v] : o.counters) {
      total[name] += static_cast<double>(v);
    }
    const double gates =
        o.eval ? static_cast<double>(o.eval->netlist().num_combinational())
               : 0.0;
    sta_gate_evals += count("timing.sta.runs") * gates;
    const auto replayed = us_of.find(&o);
    if (replayed == us_of.end()) continue;
    const std::map<std::string, double>& m = *replayed->second;
    sta_s += count("timing.sta.runs") * m.at("timing.sta_us") * 1e-6;
    sizer_s += (count("opt.sizer.size_calls") * m.at("opt.sizer_size_us") +
                count("opt.sizer.recover_calls") *
                    m.at("opt.sizer_recover_us")) *
               1e-6;
    if (gates > 0.0) {
      energy_s += count("power.energy.gate_evals") / gates *
                  m.at("opt.eval_energy_us") * 1e-6;
    }
  }
  const auto per_solve = [&](const char* name) {
    return solves > 0.0 ? total[name] / solves : 0.0;
  };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  for (const char* name : {"timing.sta.runs", "timing.delay.gate_evals",
                           "opt.sizer.width_searches",
                           "power.energy.gate_evals", "util.pool.jobs"}) {
    r.metric(name, per_solve(name), "count");
  }
  r.metric("opt.sizer.evals_per_search",
           ratio(total["timing.delay.gate_evals"] - sta_gate_evals,
                 total["opt.sizer.width_searches"]),
           "count");
  const double lookups =
      total["opt.eval.cache.hits"] + total["opt.eval.cache.misses"];
  r.metric("opt.eval.cache.hit_ratio",
           ratio(total["opt.eval.cache.hits"], lookups), "frac");
  r.metric("opt.eval.cache.lookups", ratio(lookups, solves), "count");
  r.metric("util.pool.tasks_per_job",
           ratio(total["util.pool.tasks"], total["util.pool.jobs"]), "count");
  r.metric("opt.anneal.accept_ratio",
           ratio(total["opt.anneal.accepts"], total["opt.anneal.moves"]),
           "frac");
  r.metric("timing.sta.share", ratio(sta_s, seconds), "frac");
  r.metric("opt.sizer.share", ratio(sizer_s, seconds), "frac");
  r.metric("power.energy.share", ratio(energy_s, seconds), "frac");
  r.metric("opt.energy_fj.geomean", geomean(energies), "fJ");
}

void add_no_serve_metrics(Result& r) {
  for (const char* name :
       {"serve.exec.share", "serve.optimize.share",
        "serve.worker_overhead.share", "serve.wait.share",
        "serve.slo_miss_frac"}) {
    r.metric(name, 0.0, "frac");
  }
  r.metric("serve.attempts_per_job", 0.0, "count");
  r.metric("io.write.calls_per_job", 0.0, "count");
}

}  // namespace e2e
