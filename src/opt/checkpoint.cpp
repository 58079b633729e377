#include "opt/checkpoint.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

#include "io/checkpoint.h"
#include "io/durable.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::opt {
namespace {

using util::JsonValue;
using util::JsonWriter;

// JSON has no literals for non-finite doubles (JsonWriter emits null), so
// costs that can legitimately be infinite are written as marker strings.
void write_extended(JsonWriter& w, double d) {
  if (std::isfinite(d)) {
    w.value(d);
  } else if (std::isnan(d)) {
    w.value("nan");
  } else {
    w.value(d > 0 ? "inf" : "-inf");
  }
}

double read_extended(const JsonValue& v) {
  if (v.is_number()) return v.as_number();
  const std::string& s = v.as_string();
  if (s == "inf") return std::numeric_limits<double>::infinity();
  if (s == "-inf") return -std::numeric_limits<double>::infinity();
  if (s == "nan") return std::numeric_limits<double>::quiet_NaN();
  throw util::ParseError("bad extended double '" + s + "'", "<checkpoint>", 0);
}

void write_state(JsonWriter& w, const CircuitState& s) {
  w.begin_object();
  w.kv("vdd", s.vdd);
  w.key("vts").begin_array();
  for (double v : s.vts) w.value(v);
  w.end_array();
  w.key("widths").begin_array();
  for (double v : s.widths) w.value(v);
  w.end_array();
  w.end_object();
}

CircuitState read_state(const JsonValue& v) {
  CircuitState s;
  s.vdd = v.at("vdd").as_number();
  for (const JsonValue& x : v.at("vts").items()) s.vts.push_back(x.as_number());
  for (const JsonValue& x : v.at("widths").items()) {
    s.widths.push_back(x.as_number());
  }
  return s;
}

void write_rng(JsonWriter& w, const util::RngState& s) {
  w.begin_object();
  w.key("words").begin_array();
  for (std::uint64_t word : s.words) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(word));
    w.value(buf);
  }
  w.end_array();
  w.kv("have_spare_normal", s.have_spare_normal);
  w.kv("spare_normal", s.spare_normal);
  w.end_object();
}

util::RngState read_rng(const JsonValue& v) {
  util::RngState s;
  const auto& words = v.at("words").items();
  MINERGY_CHECK(words.size() == s.words.size());
  for (std::size_t i = 0; i < s.words.size(); ++i) {
    s.words[i] = std::strtoull(words[i].as_string().c_str(), nullptr, 16);
  }
  s.have_spare_normal = v.get_bool("have_spare_normal", false);
  s.spare_normal = v.get_number("spare_normal", 0.0);
  return s;
}

obs::RunReport read_report(const JsonValue& payload, const std::string& path) {
  if (!payload.has("report")) return {};
  JsonWriter w(0);
  util::emit(w, payload.at("report"));
  return obs::RunReport::from_json(w.str(), path);
}

// A checkpoint that cannot land (full disk, flaky storage) loses
// resumability, not correctness — the run itself is unaffected. Swallow the
// typed storage error so an in-flight anneal survives ENOSPC, and leave a
// counter + stderr trail so the loss is visible.
void save_or_warn(const std::string& path, const std::string& schema,
                  const std::string& payload_json) {
  try {
    io::Checkpoint::save(path, schema, payload_json);
  } catch (const io::IoError& e) {
    static obs::Counter& failed = obs::counter("opt.checkpoint.save_failed");
    failed.add();
    std::fprintf(stderr, "checkpoint: snapshot not saved: %s\n", e.what());
  }
}

}  // namespace

void AnnealCheckpoint::save(const std::string& path) const {
  JsonWriter w(0);
  w.begin_object();
  w.kv("circuit", circuit);
  w.kv("pass", pass).kv("move", move);
  w.kv("temperature", temperature);
  w.key("current");
  write_state(w, current);
  w.key("current_cost");
  write_extended(w, current_cost);
  w.key("global_best");
  write_state(w, global_best);
  w.key("global_best_cost");
  write_extended(w, global_best_cost);
  w.key("global_best_crit");
  write_extended(w, global_best_crit);
  w.key("global_best_energy");
  write_extended(w, global_best_energy);
  w.kv("evaluations", evaluations);
  w.key("rng");
  write_rng(w, rng);
  w.key("report");
  report.write_json(w);
  w.end_object();
  save_or_warn(path, kAnnealCheckpointSchema, w.str());
}

AnnealCheckpoint AnnealCheckpoint::load(const std::string& path) {
  const JsonValue p = io::Checkpoint::load(path, kAnnealCheckpointSchema);
  AnnealCheckpoint ck;
  ck.circuit = p.get_string("circuit", "");
  ck.pass = static_cast<int>(p.get_number("pass", 0.0));
  ck.move = static_cast<int>(p.get_number("move", 0.0));
  ck.temperature = p.get_number("temperature", 0.0);
  ck.current = read_state(p.at("current"));
  ck.current_cost = read_extended(p.at("current_cost"));
  ck.global_best = read_state(p.at("global_best"));
  ck.global_best_cost = read_extended(p.at("global_best_cost"));
  ck.global_best_crit = read_extended(p.at("global_best_crit"));
  ck.global_best_energy = read_extended(p.at("global_best_energy"));
  ck.evaluations = static_cast<std::int64_t>(p.get_number("evaluations", 0.0));
  ck.rng = read_rng(p.at("rng"));
  ck.report = read_report(p, path);
  return ck;
}

void JointCheckpoint::save(const std::string& path) const {
  JsonWriter w(0);
  w.begin_object();
  w.kv("circuit", circuit);
  w.kv("next_step", next_step);
  w.kv("vdd_lo", vdd_lo).kv("vdd_hi", vdd_hi);
  w.key("prev_total");
  write_extended(w, prev_total);
  w.kv("has_best", has_best);
  if (has_best) {
    w.key("best_state");
    write_state(w, best_state);
    w.kv("best_static", best_energy.static_energy);
    w.kv("best_dynamic", best_energy.dynamic_energy);
    w.kv("best_short_circuit", best_energy.short_circuit_energy);
    w.kv("best_critical_delay", best_critical_delay);
    w.kv("best_feasible", best_feasible);
  }
  w.kv("evaluations", evaluations);
  w.key("report");
  report.write_json(w);
  w.end_object();
  save_or_warn(path, kJointCheckpointSchema, w.str());
}

JointCheckpoint JointCheckpoint::load(const std::string& path) {
  const JsonValue p = io::Checkpoint::load(path, kJointCheckpointSchema);
  JointCheckpoint ck;
  ck.circuit = p.get_string("circuit", "");
  ck.next_step = static_cast<int>(p.get_number("next_step", 0.0));
  ck.vdd_lo = p.get_number("vdd_lo", 0.0);
  ck.vdd_hi = p.get_number("vdd_hi", 0.0);
  ck.prev_total = read_extended(p.at("prev_total"));
  ck.has_best = p.get_bool("has_best", false);
  if (ck.has_best) {
    ck.best_state = read_state(p.at("best_state"));
    ck.best_energy.static_energy = p.get_number("best_static", 0.0);
    ck.best_energy.dynamic_energy = p.get_number("best_dynamic", 0.0);
    ck.best_energy.short_circuit_energy =
        p.get_number("best_short_circuit", 0.0);
    ck.best_critical_delay = p.get_number("best_critical_delay", 0.0);
    ck.best_feasible = p.get_bool("best_feasible", false);
  }
  ck.evaluations = static_cast<std::int64_t>(p.get_number("evaluations", 0.0));
  ck.report = read_report(p, path);
  return ck;
}

template <class Snapshot>
std::optional<Snapshot> load_for_resume(const std::string& path,
                                        const char* optimizer,
                                        const std::string& circuit) {
  if (path.empty()) return std::nullopt;
  std::optional<Snapshot> ck;
  try {
    ck = Snapshot::load(path);
  } catch (const util::ParseError& e) {
    obs::counter("opt.checkpoint.resume_rejected").add();
    std::fprintf(stderr, "%s: resume snapshot rejected (%s); starting fresh\n",
                 optimizer, e.what());
    return std::nullopt;
  }
  MINERGY_CHECK_MSG(ck->circuit == circuit,
                    std::string(optimizer) +
                        " resume: checkpoint is for circuit '" + ck->circuit +
                        "', not '" + circuit + "'");
  return ck;
}

template std::optional<JointCheckpoint> load_for_resume<JointCheckpoint>(
    const std::string&, const char*, const std::string&);
template std::optional<AnnealCheckpoint> load_for_resume<AnnealCheckpoint>(
    const std::string&, const char*, const std::string&);

}  // namespace minergy::opt
