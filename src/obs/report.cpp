#include "obs/report.h"

#include <utility>

#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::obs {

void RunReport::add_point(TrajectoryPoint p) {
  p.iteration = static_cast<int>(trajectory.size());
  trajectory.push_back(std::move(p));
}

std::vector<double> RunReport::accepted_energies() const {
  std::vector<double> out;
  for (const TrajectoryPoint& p : trajectory) {
    if (p.accepted) out.push_back(p.energy);
  }
  return out;
}

std::string RunReport::to_json(int indent) const {
  util::JsonWriter w(indent);
  write_json(w);
  return w.str();
}

void RunReport::write_json(util::JsonWriter& w) const {
  w.begin_object();
  w.kv("schema", "minergy.run_report.v1");
  w.kv("optimizer", optimizer).kv("circuit", circuit);
  w.kv("feasible", feasible);
  w.kv("vdd", vdd).kv("vts_primary", vts_primary);
  w.kv("energy_total", energy_total);
  w.kv("static_energy", static_energy);
  w.kv("dynamic_energy", dynamic_energy);
  w.kv("critical_delay", critical_delay);
  w.kv("runtime_seconds", runtime_seconds);
  w.kv("circuit_evaluations", circuit_evaluations);
  w.kv("tier", tier);
  w.kv("truncated", truncated).kv("truncation_reason", truncation_reason);

  w.key("trajectory").begin_array();
  for (const TrajectoryPoint& p : trajectory) {
    w.begin_object();
    w.kv("i", p.iteration).kv("phase", p.phase);
    w.kv("vdd", p.vdd).kv("vts", p.vts);
    w.kv("energy", p.energy).kv("critical_delay", p.critical_delay);
    w.kv("feasible", p.feasible).kv("accepted", p.accepted);
    w.end_object();
  }
  w.end_array();

  w.key("tiers").begin_array();
  for (const TierRecord& t : tiers) {
    w.begin_object();
    w.kv("tier", t.tier).kv("wall_seconds", t.wall_seconds);
    w.kv("selected", t.selected).kv("failure_reason", t.failure_reason);
    if (!t.certificate_status.empty()) {
      w.kv("certificate_status", t.certificate_status);
      w.kv("certificate_detail", t.certificate_detail);
    }
    w.end_object();
  }
  w.end_array();

  w.key("counters").begin_object();
  for (const auto& [name, v] : counters) w.kv(name, v);
  w.end_object();

  w.end_object();
}

RunReport RunReport::from_json(const std::string& text,
                               const std::string& source_name) {
  const util::JsonValue root = util::JsonValue::parse(text, source_name);
  if (!root.is_object()) {
    throw util::ParseError("run report must be a JSON object", source_name, 1);
  }
  const std::string schema = root.get_string("schema", "");
  if (schema != "minergy.run_report.v1") {
    throw util::ParseError("unknown run-report schema '" + schema + "'",
                           source_name, 1);
  }

  RunReport r;
  r.optimizer = root.get_string("optimizer", "");
  r.circuit = root.get_string("circuit", "");
  r.feasible = root.get_bool("feasible", false);
  r.vdd = root.get_number("vdd", 0.0);
  r.vts_primary = root.get_number("vts_primary", 0.0);
  r.energy_total = root.get_number("energy_total", 0.0);
  r.static_energy = root.get_number("static_energy", 0.0);
  r.dynamic_energy = root.get_number("dynamic_energy", 0.0);
  r.critical_delay = root.get_number("critical_delay", 0.0);
  r.runtime_seconds = root.get_number("runtime_seconds", 0.0);
  r.circuit_evaluations =
      static_cast<std::int64_t>(root.get_number("circuit_evaluations", 0.0));
  r.tier = root.get_string("tier", "");
  r.truncated = root.get_bool("truncated", false);
  r.truncation_reason = root.get_string("truncation_reason", "");

  if (root.has("trajectory")) {
    for (const util::JsonValue& jp : root.at("trajectory").items()) {
      TrajectoryPoint p;
      p.iteration = static_cast<int>(jp.get_number("i", 0.0));
      p.phase = jp.get_string("phase", "");
      p.vdd = jp.get_number("vdd", 0.0);
      p.vts = jp.get_number("vts", 0.0);
      p.energy = jp.get_number("energy", 0.0);
      p.critical_delay = jp.get_number("critical_delay", 0.0);
      p.feasible = jp.get_bool("feasible", false);
      p.accepted = jp.get_bool("accepted", false);
      r.trajectory.push_back(std::move(p));
    }
  }
  if (root.has("tiers")) {
    for (const util::JsonValue& jt : root.at("tiers").items()) {
      TierRecord t;
      t.tier = jt.get_string("tier", "");
      t.wall_seconds = jt.get_number("wall_seconds", 0.0);
      t.selected = jt.get_bool("selected", false);
      t.failure_reason = jt.get_string("failure_reason", "");
      t.certificate_status = jt.get_string("certificate_status", "");
      t.certificate_detail = jt.get_string("certificate_detail", "");
      r.tiers.push_back(std::move(t));
    }
  }
  if (root.has("counters")) {
    for (const auto& [name, jv] : root.at("counters").members()) {
      r.counters[name] = jv.as_int();
    }
  }
  return r;
}

CounterDelta::CounterDelta() : enabled_at_start_(enabled()) {
  if (enabled_at_start_) start_ = Registry::instance().counter_snapshot();
}

void CounterDelta::finish(RunReport* report) const {
  if (!enabled_at_start_ || !enabled()) return;
  for (const auto& [name, end] : Registry::instance().counter_snapshot()) {
    const auto it = start_.find(name);
    const std::int64_t delta = end - (it == start_.end() ? 0 : it->second);
    if (delta != 0) report->counters[name] = delta;
  }
}

}  // namespace minergy::obs
