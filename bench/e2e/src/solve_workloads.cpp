// paper_suite, large_joint and anneal_moves: set up the workload's circuits
// several times (setup_s), then run whole passes over a fixed item list, at
// least two, while the next pass is expected to end within the run time.
// Every pass must give bit-identical answers to the first. In a traced run
// every second pass collects the program's counters and the benchmark's
// spans, so that check also proves collection does not change answers.
#include <algorithm>
#include <cstdio>
#include <functional>

#include "bench_suite/iscas.h"
#include "netlist/generator.h"
#include "obs/metrics.h"
#include "solve.h"
#include "util/rng.h"
#include "workloads.h"

namespace e2e {

using namespace minergy;

namespace {

constexpr int kSetupReps = 11;
constexpr int kMinPasses = 2;

// An item whose netlist is the plan's circuit number `circuit`.
struct ItemSpec {
  std::size_t circuit = 0;
  Item item;
};

struct Plan {
  std::vector<std::string> names;
  std::vector<std::function<netlist::Netlist()>> builders;
  std::vector<ItemSpec> items;
  // anneal_moves: each circuit's cycle time is chosen once per pass, not
  // per item (the items are runs of one annealing problem).
  bool cycle_per_pass = false;
  // Consecutive items timed together as one item_ms sample, so the
  // samples come from one population instead of one per circuit.
  std::size_t group = 1;
  // The item-time percentile reported as item_ms.tail (fixed per workload,
  // so it means the same thing on every commit).
  double tail_q = 0.75;
};

// The paper's circuits, exactly as table1/table2 build them. Seeds do not
// regenerate the surrogates: on regenerated s208* and s386* the baseline
// flow can end infeasible (see README.md), and a run must not fail.
std::vector<bench_suite::CircuitSpec> paper_specs(
    const std::vector<std::string>& only) {
  std::vector<bench_suite::CircuitSpec> out;
  for (const bench_suite::CircuitSpec& spec : bench_suite::paper_circuits()) {
    if (only.empty() ||
        std::find(only.begin(), only.end(), spec.name) != only.end()) {
      out.push_back(spec);
    }
  }
  return out;
}

void add_circuit(Plan& p, const bench_suite::CircuitSpec& spec) {
  p.names.push_back(spec.name);
  p.builders.push_back([spec] { return bench_suite::make_circuit(spec); });
}

// Seed 1 runs the paper's input activities {0.1, 0.5}; other seeds draw a
// low and a high activity per circuit around them.
Plan paper_suite(const Options& o) {
  Plan p;
  const auto specs = paper_specs(
      o.smoke ? std::vector<std::string>{"s27", "s208*", "s298*"}
              : std::vector<std::string>{});
  util::Rng rng(util::hash_mix(o.seed));
  for (std::size_t c = 0; c < specs.size(); ++c) {
    add_circuit(p, specs[c]);
    std::vector<double> activities = experiment_config().input_activities;
    if (o.seed != 1) {
      activities = {rng.uniform(0.05, 0.15), rng.uniform(0.4, 0.6)};
    }
    for (double a : activities) {
      char label[64];
      std::snprintf(label, sizeof label, "%s@%.3f", specs[c].name.c_str(), a);
      p.items.push_back(
          {c, {.label = label, .flow = Flow::kTableRow, .activity = a}});
    }
  }
  return p;
}

Plan large_joint(const Options& o) {
  Plan p;
  p.tail_q = 1.0;  // a handful of items: the tail is the slowest one
  const std::vector<int> sizes =
      o.smoke ? std::vector<int>{200, 400}
              : std::vector<int>{1600, 1600, 1600, 3200};
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    const int g = sizes[k];
    netlist::GeneratorSpec spec;
    spec.name = "gen" + std::to_string(g) + "." + std::to_string(k);
    spec.num_gates = g;
    spec.depth = g / 64;
    spec.num_dffs = g / 12;
    spec.num_inputs = g / 50;
    spec.num_outputs = g / 50;
    spec.seed = util::hash_mix(util::hash_mix(o.seed) + k);
    p.names.push_back(spec.name);
    p.builders.push_back(
        [spec] { return netlist::generate_random_logic(spec); });
    p.items.push_back(
        {k, {.label = spec.name, .flow = Flow::kJoint, .activity = 0.3}});
  }
  return p;
}

// Item k anneals both circuits with the k-th seed-derived anneal seed.
Plan anneal_moves(const Options& o) {
  Plan p;
  p.cycle_per_pass = true;
  const auto specs = paper_specs({"s298*", "s832*"});
  for (const auto& spec : specs) add_circuit(p, spec);
  p.group = specs.size();
  const int runs = o.smoke ? 1 : 8;
  for (int k = 0; k < runs; ++k) {
    const std::uint64_t anneal_seed = util::hash_mix(
        util::hash_mix(o.seed) ^ static_cast<std::uint64_t>(0xa11 + k));
    for (std::size_t c = 0; c < specs.size(); ++c) {
      p.items.push_back({c,
                         {.label = specs[c].name + "#" + std::to_string(k),
                          .flow = Flow::kAnneal,
                          .activity = 0.3,
                          .anneal_seed = anneal_seed,
                          .anneal_moves = o.smoke ? 500 : 2500}});
    }
  }
  return p;
}

// One set-up: every circuit built, one evaluator constructed per item.
double set_up(const Plan& p, Spans& spans,
              std::vector<netlist::Netlist>* keep) {
  const bench_suite::ExperimentConfig& cfg = experiment_config();
  const double t0 = now_s();
  std::vector<netlist::Netlist> nls;
  for (std::size_t c = 0; c < p.builders.size(); ++c) {
    spans.time("netlist.build", p.names[c],
               [&] { nls.push_back(p.builders[c]()); });
  }
  for (const ItemSpec& it : p.items) {
    activity::ActivityProfile profile;
    profile.input_density = it.item.activity;
    spans.time("opt.evaluator_init", it.item.label, [&] {
      const opt::CircuitEvaluator eval(
          nls[it.circuit], cfg.tech, profile,
          opt::EvalSettings{.clock_frequency = cfg.clock_frequency});
    });
  }
  const double dt = now_s() - t0;
  if (keep != nullptr) *keep = std::move(nls);
  return dt;
}

}  // namespace

void run_solve_workload(const Options& o, Result& r) {
  const Plan plan = o.workload == "paper_suite"   ? paper_suite(o)
                    : o.workload == "large_joint" ? large_joint(o)
                                                  : anneal_moves(o);
  const bench_suite::ExperimentConfig& cfg = experiment_config();
  Spans spans;
  spans.set_recording(o.trace);

  std::vector<netlist::Netlist> nls;
  std::vector<double> setup_s;
  const int reps = o.smoke ? 3 : kSetupReps;
  for (int i = 0; i < reps; ++i) {
    setup_s.push_back(set_up(plan, spans, i + 1 == reps ? &nls : nullptr));
  }

  std::vector<Item> items;
  for (const ItemSpec& s : plan.items) {
    items.push_back(s.item);
    items.back().nl = &nls[s.circuit];
  }

  std::vector<double> pass_untraced, pass_traced, item_ms;
  std::vector<Outcome> traced_items;
  std::string reference;
  // Passes run while the next one is expected to end within the run time.
  const double t0 = now_s();
  double last_pass_s = 0.0;
  for (int pass = 0;
       pass < kMinPasses || now_s() - t0 + last_pass_s <= o.seconds; ++pass) {
    const bool traced = o.trace && pass % 2 == 1;
    obs::set_enabled(traced);
    spans.set_recording(traced);
    const double start = now_s();
    if (plan.cycle_per_pass) {
      std::vector<double> tc(nls.size());
      for (std::size_t c = 0; c < nls.size(); ++c) {
        spans.time("opt.min_cycle", plan.names[c], [&] {
          bool scaled = false;
          tc[c] = bench_suite::choose_cycle_time(nls[c], cfg, &scaled);
        });
      }
      for (std::size_t i = 0; i < items.size(); ++i) {
        items[i].cycle_time = tc[plan.items[i].circuit];
      }
    }
    std::vector<Outcome> outs;
    for (const Item& it : items) outs.push_back(solve_item(it, spans));
    const double pass_s = now_s() - start;
    last_pass_s = pass_s;
    obs::set_enabled(false);

    std::string answers;
    double group_s = 0.0;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      const Outcome& out = outs[i];
      r.attempts(out.solves, out.failed);
      for (const std::string& e : out.errors) r.fail(e);
      answers += out.fingerprint + "\n";
      if (pass == 0) r.fingerprint(out.fingerprint);
      group_s += out.seconds;
      if ((i + 1) % plan.group == 0) {
        if (!traced) item_ms.push_back(group_s * 1e3);
        group_s = 0.0;
      }
    }
    if (pass == 0) {
      reference = answers;
    } else if (answers != reference) {
      r.fail("pass " + std::to_string(pass) + (traced ? " (traced)" : "") +
             " gave answers that differ from pass 0");
    }
    (traced ? pass_traced : pass_untraced).push_back(pass_s);
    if (traced) traced_items = std::move(outs);
    std::fprintf(stderr, "e2e: %s pass %d%s %.3f s\n", o.workload.c_str(),
                 pass, traced ? " (traced)" : "", pass_s);
  }
  spans.set_recording(o.trace);

  r.metric("setup_s", median(setup_s), "s");
  r.metric("pass_s", median(pass_untraced), "s");
  r.metric("item_ms.p50", median(item_ms), "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.note("item_ms.tail", tail_text(item_ms, plan.tail_q, "items"));
  r.note("passes", std::to_string(pass_untraced.size()) + " untraced, " +
                       std::to_string(pass_traced.size()) + " traced, " +
                       std::to_string(items.size() / plan.group) +
                       " items each");
  if (!o.trace) return;

  add_layer_metrics(r, traced_items, spans);
  add_no_serve_metrics(r);
  r.metric("trace.overhead_frac",
           median(pass_traced) / median(pass_untraced) - 1.0, "frac");
  if (!o.trace_out.empty() && !spans.write_chrome_trace(o.trace_out)) {
    r.fail("cannot write " + o.trace_out);
  }
}

}  // namespace e2e
