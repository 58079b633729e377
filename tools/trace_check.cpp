// trace_check: validate observability outputs.
//
//   $ trace_check trace.json                  # Chrome-trace well-formedness
//   $ trace_check trace.json --min-spans=1    # and reject an empty capture
//   $ trace_check trace.json --report=run.json
//   $ trace_check --verify-eventlog=events.jsonl  # daemon event stream
//   $ trace_check --diff-perf=COMMITTED.json FRESH.json  # counter drift
//
// Trace checks: the file parses, has a traceEvents array, every event
// carries name/ph/ts (complete "X" events also dur >= 0), and within each
// (pid, tid) lane the complete events nest properly — a span either fully
// contains or is fully disjoint from every other span in its lane, the
// invariant Perfetto's flame view relies on.
//
// Event-log checks (--verify-eventlog=FILE): the file is the daemon's
// append-only JSONL event stream (schema minergy.event.v1, one object per
// line; see src/obs/eventlog.h). Every line must parse, carry the schema
// id, a non-empty kind, a known severity, and a strictly increasing seq;
// every job_done / job_failed must be preceded by a job_claimed for the
// same job id. Rotation relaxes the pairing rule: a segment whose first
// seq > 1 is a mid-stream continuation (the claim may live in the rotated
// .1 file), so only ordering and well-formedness are enforced there.
//
// Report checks (--report=FILE): the file round-trips through
// obs::RunReport::from_json (schema minergy.run_report.v1) and the energies
// of accepted trajectory points form a non-increasing sequence — the
// optimizers' "accepted = improved the best feasible energy" contract.
// Reports carrying an io artifact-envelope footer are CRC-verified before
// parsing; --verify-envelope makes the footer mandatory, so CI can insist
// that a report really went through the durable write path.
//
// Perf drift (--diff-perf=COMMITTED FRESH): both files are
// minergy.perf_trajectory.v1 documents (bench/trajectory/README.md), whose
// minergy.perf_record.v1 members are compared record by record. The work
// counters are deterministic, so any counter that differs, appears or
// vanishes (or a whole record that does) is drift and fails the check;
// wall_seconds and histogram count/sum deltas are printed for the reader
// but never fail it.
//
// Exit codes are distinct by failure class so CI can tell them apart:
// 0 everything holds, 1 a validation failed (malformed trace, broken
// nesting, non-monotone or corrupt report, missing envelope under
// --verify-envelope, counter drift), 2 bad arguments or an unreadable
// input file (for --diff-perf also an unparseable file or a wrong schema).
// Used by the `obs_smoke` CTest fixture (see tests/CMakeLists.txt) and
// scripts/ci.sh.
#include <algorithm>
#include <cstdio>
#include <cstdint>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "io/envelope.h"
#include "obs/eventlog.h"
#include "obs/report.h"
#include "util/check.h"
#include "util/cli.h"
#include "util/json.h"

using namespace minergy;

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  // An unreadable path is a caller mistake (exit 2), not a validation
  // verdict about the file's content (exit 1) — keep the classes distinct.
  if (!in) throw std::invalid_argument("cannot open " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct SpanRow {
  std::string name;
  double ts = 0.0;
  double dur = 0.0;
  std::int64_t lane = 0;  // pid * 2^20 + tid (both are small here)
};

int check_trace(const std::string& path, std::size_t min_spans) {
  const util::JsonValue root = util::JsonValue::parse(slurp(path), path);
  if (!root.has("traceEvents")) {
    std::fprintf(stderr, "%s: missing traceEvents array\n", path.c_str());
    return 1;
  }
  std::vector<SpanRow> spans;
  std::size_t total = 0;
  for (const util::JsonValue& e : root.at("traceEvents").items()) {
    ++total;
    for (const char* field : {"name", "ph", "ts"}) {
      if (!e.has(field)) {
        std::fprintf(stderr, "%s: event %zu missing \"%s\"\n", path.c_str(),
                     total - 1, field);
        return 1;
      }
    }
    if (e.at("ph").as_string() != "X") continue;
    SpanRow s;
    s.name = e.at("name").as_string();
    s.ts = e.at("ts").as_number();
    s.dur = e.get_number("dur", -1.0);
    if (s.dur < 0.0) {
      std::fprintf(stderr, "%s: complete event '%s' has no dur\n",
                   path.c_str(), s.name.c_str());
      return 1;
    }
    s.lane = static_cast<std::int64_t>(e.get_number("pid", 0.0)) *
                 (std::int64_t{1} << 20) +
             static_cast<std::int64_t>(e.get_number("tid", 0.0));
    spans.push_back(std::move(s));
  }

  // Nesting check per lane: in (ts asc, dur desc) order a parent precedes
  // its children, so a stack of open spans catches any partial overlap.
  std::stable_sort(spans.begin(), spans.end(),
                   [](const SpanRow& a, const SpanRow& b) {
                     if (a.lane != b.lane) return a.lane < b.lane;
                     if (a.ts != b.ts) return a.ts < b.ts;
                     return a.dur > b.dur;
                   });
  std::vector<const SpanRow*> stack;
  std::int64_t lane = -1;
  for (const SpanRow& s : spans) {
    if (s.lane != lane) {
      stack.clear();
      lane = s.lane;
    }
    while (!stack.empty() &&
           s.ts >= stack.back()->ts + stack.back()->dur) {
      stack.pop_back();
    }
    if (!stack.empty() &&
        s.ts + s.dur > stack.back()->ts + stack.back()->dur + 1e-3) {
      std::fprintf(stderr,
                   "%s: span '%s' [%.3f, %.3f] overlaps but does not nest "
                   "inside '%s' [%.3f, %.3f]\n",
                   path.c_str(), s.name.c_str(), s.ts, s.ts + s.dur,
                   stack.back()->name.c_str(), stack.back()->ts,
                   stack.back()->ts + stack.back()->dur);
      return 1;
    }
    stack.push_back(&s);
  }
  if (spans.size() < min_spans) {
    // A structurally valid but empty capture usually means the traced
    // program never entered the instrumented phases — fail loudly instead
    // of letting a smoke test pass vacuously.
    std::fprintf(stderr, "%s: only %zu complete spans (expected >= %zu)\n",
                 path.c_str(), spans.size(), min_spans);
    return 1;
  }
  std::printf("%s: OK (%zu events, %zu complete spans nest cleanly)\n",
              path.c_str(), total, spans.size());
  return 0;
}

int check_report(const std::string& path, bool require_envelope) {
  std::string text = slurp(path);
  if (io::has_envelope_footer(text)) {
    try {
      text = io::unwrap_envelope(text, "minergy.run_report.v1", path);
    } catch (const io::IntegrityError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 1;
    }
  } else if (require_envelope) {
    std::fprintf(stderr,
                 "%s: no artifact-envelope footer (--verify-envelope)\n",
                 path.c_str());
    return 1;
  }
  const obs::RunReport report = obs::RunReport::from_json(text, path);
  const std::vector<double> accepted = report.accepted_energies();
  for (std::size_t i = 1; i < accepted.size(); ++i) {
    if (accepted[i] > accepted[i - 1] * (1.0 + 1e-12)) {
      std::fprintf(stderr,
                   "%s: accepted energies not non-increasing at index %zu "
                   "(%.17g > %.17g)\n",
                   path.c_str(), i, accepted[i], accepted[i - 1]);
      return 1;
    }
  }
  std::printf(
      "%s: OK (optimizer %s on %s, %zu trajectory points, %zu accepted, "
      "%zu tier records)\n",
      path.c_str(), report.optimizer.c_str(), report.circuit.c_str(),
      report.trajectory.size(), accepted.size(), report.tiers.size());
  return 0;
}

int check_eventlog(const std::string& path) {
  std::istringstream in(slurp(path));
  std::string line;
  std::size_t lineno = 0;
  std::int64_t last_seq = 0;
  bool rotated_segment = false;
  std::set<std::string> claimed;
  std::size_t events = 0, terminal = 0;
  auto fail = [&](const std::string& what) {
    std::fprintf(stderr, "%s:%zu: %s\n", path.c_str(), lineno, what.c_str());
    return 1;
  };
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    util::JsonValue e;
    try {
      e = util::JsonValue::parse(line, path + ":" + std::to_string(lineno));
    } catch (const std::exception& ex) {
      return fail(std::string("unparseable event line: ") + ex.what());
    }
    if (e.get_string("schema", "") != obs::kEventSchema) {
      return fail("schema is not " + std::string(obs::kEventSchema));
    }
    const double seq_raw = e.get_number("seq", -1.0);
    const std::int64_t seq = static_cast<std::int64_t>(seq_raw);
    if (seq < 1 || static_cast<double>(seq) != seq_raw) {
      return fail("seq is not a positive integer");
    }
    if (seq <= last_seq) {
      return fail("seq " + std::to_string(seq) +
                  " does not increase past " + std::to_string(last_seq));
    }
    if (events == 0 && seq > 1) rotated_segment = true;
    last_seq = seq;
    ++events;
    const std::string kind = e.get_string("kind", "");
    if (kind.empty()) return fail("event has no kind");
    const std::string severity = e.get_string("severity", "");
    if (severity != "debug" && severity != "info" && severity != "warn" &&
        severity != "error") {
      return fail("unknown severity '" + severity + "'");
    }
    const std::string job = e.get_string("job", "");
    if (kind == "job_claimed" && !job.empty()) claimed.insert(job);
    if (kind == "job_done" || kind == "job_failed") {
      ++terminal;
      if (job.empty()) return fail(kind + " event carries no job id");
      // A rotated segment may have lost the claim to the .1 file — only a
      // fresh (seq-starts-at-1) log can prove claim-before-finalize.
      if (!rotated_segment && claimed.count(job) == 0) {
        return fail(kind + " for job " + job + " with no earlier job_claimed");
      }
    }
    if (kind == "job_quarantined") ++terminal;
  }
  if (events == 0) {
    std::fprintf(stderr, "%s: event log is empty\n", path.c_str());
    return 1;
  }
  std::printf("%s: OK (%zu events, %zu terminal, final seq %lld%s)\n",
              path.c_str(), events, terminal,
              static_cast<long long>(last_seq),
              rotated_segment ? ", rotated segment" : "");
  return 0;
}

// A minergy.perf_trajectory.v1 document, or nullopt (reported) when the
// file cannot be read or parsed or carries another schema.
std::optional<util::JsonValue> load_trajectory(const std::string& path) {
  try {
    util::JsonValue root = util::JsonValue::parse(slurp(path), path);
    if (root.is_object() &&
        root.get_string("schema", "") == "minergy.perf_trajectory.v1") {
      return root;
    }
    std::fprintf(stderr, "%s: not a minergy.perf_trajectory.v1 document\n",
                 path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return std::nullopt;
}

bool is_perf_record(const util::JsonValue& doc, const std::string& key) {
  if (!doc.has(key)) return false;
  const util::JsonValue& v = doc.at(key);
  return v.is_object() &&
         v.get_string("schema", "") == "minergy.perf_record.v1";
}

// The object member `key` of `record`, or an empty map.
const std::map<std::string, util::JsonValue>& section(
    const util::JsonValue& record, const char* key) {
  static const std::map<std::string, util::JsonValue> kEmpty;
  return record.has(key) ? record.at(key).members() : kEmpty;
}

int diff_perf(const std::string& committed_path,
              const std::string& fresh_path) {
  const std::optional<util::JsonValue> committed =
      load_trajectory(committed_path);
  const std::optional<util::JsonValue> fresh = load_trajectory(fresh_path);
  if (!committed || !fresh) return 2;

  std::set<std::string> keys;
  for (const util::JsonValue* doc : {&*committed, &*fresh}) {
    for (const auto& [key, v] : doc->members()) {
      if (is_perf_record(*doc, key)) keys.insert(key);
    }
  }
  int drift = 0;
  for (const std::string& key : keys) {
    const char* k = key.c_str();
    if (!is_perf_record(*committed, key) || !is_perf_record(*fresh, key)) {
      std::printf("%s: record %s\n", k,
                  is_perf_record(*fresh, key) ? "appears" : "vanishes");
      ++drift;
      continue;
    }
    const util::JsonValue& a = committed->at(key);
    const util::JsonValue& b = fresh->at(key);
    std::printf("%s: wall_seconds %.4g -> %.4g (not gated)\n", k,
                a.get_number("wall_seconds", 0.0),
                b.get_number("wall_seconds", 0.0));

    const auto& ca = section(a, "counters");
    const auto& cb = section(b, "counters");
    std::set<std::string> names;
    for (const auto* m : {&ca, &cb}) {
      for (const auto& [name, v] : *m) names.insert(name);
    }
    for (const std::string& name : names) {
      const auto ia = ca.find(name);
      const auto ib = cb.find(name);
      if (ia == ca.end()) {
        std::printf("  counter %s appears: %.17g\n", name.c_str(),
                    ib->second.as_number());
      } else if (ib == cb.end()) {
        std::printf("  counter %s vanishes: was %.17g\n", name.c_str(),
                    ia->second.as_number());
      } else if (ia->second.as_number() != ib->second.as_number()) {
        std::printf("  counter %s: %.17g -> %.17g\n", name.c_str(),
                    ia->second.as_number(), ib->second.as_number());
      } else {
        continue;
      }
      ++drift;
    }

    const auto& ha = section(a, "histograms");
    const auto& hb = section(b, "histograms");
    for (const auto& [name, h] : hb) {
      const auto it = ha.find(name);
      const double count = h.get_number("count", 0.0);
      const double sum = h.get_number("sum", 0.0);
      const double count0 =
          it == ha.end() ? 0.0 : it->second.get_number("count", 0.0);
      const double sum0 =
          it == ha.end() ? 0.0 : it->second.get_number("sum", 0.0);
      if (count != count0 || sum != sum0) {
        std::printf("  histogram %s: count %.17g -> %.17g, sum %.17g -> "
                    "%.17g (not gated)\n",
                    name.c_str(), count0, count, sum0, sum);
      }
    }
  }
  if (drift > 0) {
    std::fflush(stdout);
    std::fprintf(stderr,
                 "diff-perf: %d work counter(s) or record(s) drifted from "
                 "%s\n",
                 drift, committed_path.c_str());
    return 1;
  }
  std::printf("diff-perf: OK (%zu records, work counters identical)\n",
              keys.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (cli.has("diff-perf")) {
    if (cli.positional().size() != 1) {
      std::fprintf(stderr,
                   "usage: trace_check --diff-perf=COMMITTED.json "
                   "FRESH.json\n");
      return 2;
    }
    return diff_perf(cli.get("diff-perf", std::string()),
                     cli.positional()[0]);
  }
  if (cli.positional().empty() && !cli.has("report") &&
      !cli.has("verify-eventlog")) {
    std::fprintf(stderr,
                 "usage: trace_check [trace.json] [--min-spans=N] "
                 "[--report=FILE] [--verify-envelope] "
                 "[--verify-eventlog=FILE]\n"
                 "       trace_check --diff-perf=COMMITTED.json "
                 "FRESH.json\n");
    return 2;
  }
  int rc = 0;
  if (!cli.positional().empty()) {
    rc = check_trace(cli.positional()[0],
                     static_cast<std::size_t>(cli.get("min-spans", 0)));
  }
  if (rc == 0 && cli.has("report")) {
    rc = check_report(cli.get("report", std::string()),
                      cli.has("verify-envelope"));
  }
  if (rc == 0 && cli.has("verify-eventlog")) {
    rc = check_eventlog(cli.get("verify-eventlog", std::string()));
  }
  return rc;
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
