#include "io/scrub.h"

#include <algorithm>
#include <filesystem>
#include <set>

#include "io/checkpoint.h"
#include "io/durable.h"
#include "io/envelope.h"
#include "obs/eventlog.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/json.h"

namespace minergy::io {

namespace fs = std::filesystem;

namespace {

// Serve-layer schema ids, mirrored as literals (see header).
constexpr const char kJobSchema[] = "minergy.job.v1";
constexpr const char kResultSchema[] = "minergy.job_result.v1";
constexpr const char kHealthSchema[] = "minergy.health.v1";
constexpr const char kLeaseSchema[] = "minergy.lease.v1";

constexpr const char* kJobStates[] = {"pending", "running", "done", "failed",
                                      "quarantined"};

// Sorted regular-file names of one directory, skipping in-flight temp
// files (".tmp" suffix from atomic_write_durable, ".renew."/"lease.claim."
// interlocks from the lease protocol).
std::vector<std::string> list_files(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (!e.is_regular_file()) continue;
    const std::string name = e.path().filename().string();
    if (name.size() >= 4 && name.compare(name.size() - 4, 4, ".tmp") == 0) {
      continue;
    }
    if (name.rfind("lease.claim.", 0) == 0) continue;
    if (name.find(".renew.") != std::string::npos) continue;
    names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

struct SpoolScrubber::Verdict {
  enum class State { kOk, kVanished, kDamaged };
  State state = State::kOk;
  std::string problem;  // set when damaged
  std::string detail;
  std::string bytes;  // raw file content when intact (for promotion)
};

SpoolScrubber::SpoolScrubber(std::string root, ScrubOptions opts)
    : root_(std::move(root)), opts_(opts) {}

std::string SpoolScrubber::quarantine_dir() const {
  return (fs::path(root_) / "scrub_quarantine").string();
}

SpoolScrubber::Verdict SpoolScrubber::verify_file(
    const std::string& path, const std::string& schema) const {
  Verdict v;
  std::string bytes;
  try {
    bytes = read_file_or_throw(path);
  } catch (const IoError& e) {
    v.state = Verdict::State::kDamaged;
    v.problem = "read";
    v.detail = e.what();
    return v;
  } catch (const util::ParseError&) {
    v.state = Verdict::State::kVanished;  // gone between list and read
    return v;
  }
  try {
    const std::string payload = unwrap_envelope(bytes, schema, path);
    const util::JsonValue doc = util::JsonValue::parse(payload, path);
    if (!doc.is_object() || !doc.has("schema")) {
      throw util::ParseError("payload has no schema field", path, 0);
    }
  } catch (const IntegrityError& e) {
    v.state = Verdict::State::kDamaged;
    switch (e.kind()) {
      case IntegrityError::Kind::kTruncated: v.problem = "truncated"; break;
      case IntegrityError::Kind::kCorrupt: v.problem = "corrupt"; break;
      case IntegrityError::Kind::kSchemaMismatch: v.problem = "schema"; break;
    }
    v.detail = e.what();
    return v;
  } catch (const util::ParseError& e) {
    v.state = Verdict::State::kDamaged;
    v.problem = "parse";
    v.detail = e.what();
    return v;
  }
  v.bytes = std::move(bytes);
  return v;
}

std::string SpoolScrubber::move_to_quarantine(const std::string& path) const {
  std::error_code ec;
  fs::create_directories(quarantine_dir(), ec);
  const std::string rel =
      fs::relative(fs::path(path), fs::path(root_), ec).string();
  std::string flat = ec ? fs::path(path).filename().string() : rel;
  std::replace(flat.begin(), flat.end(), '/', '_');
  std::string dest = (fs::path(quarantine_dir()) / flat).string();
  for (int n = 1; fs::exists(dest) && n < 1000; ++n) {
    dest = (fs::path(quarantine_dir()) / (flat + "." + std::to_string(n)))
               .string();
  }
  fs::rename(path, dest, ec);
  return ec ? std::string() : dest;
}

void SpoolScrubber::note(ScrubReport* report, ScrubFinding finding,
                         const char* outcome) {
  finding.action = outcome;
  obs::Event ev;
  if (finding.action == "repaired") {
    ++report->repaired;
    obs::counter("io.scrub.repaired").add();
    ev.kind = "scrub_repair";
    ev.severity = "info";
  } else if (finding.action == "quarantined") {
    ++report->quarantined;
    obs::counter("io.scrub.quarantined").add();
    ev.kind = "scrub_quarantine";
    ev.severity = "warn";
  } else {  // "reported": repair disabled
    ++report->quarantined;
    obs::counter("io.scrub.quarantined").add();
    ev.kind = "scrub_quarantine";
    ev.severity = "warn";
  }
  ev.detail = finding.problem + " " + finding.path +
              (finding.detail.empty() ? "" : ": " + finding.detail);
  obs::event(ev);
  report->findings.push_back(std::move(finding));
}

void SpoolScrubber::scrub_job_partition(const std::string& state,
                                        ScrubReport* report) {
  const std::string dir = (fs::path(root_) / state).string();
  for (const std::string& name : list_files(dir)) {
    const std::string path = (fs::path(dir) / name).string();
    const Verdict v = verify_file(path, kJobSchema);
    ++report->checked;
    if (v.state == Verdict::State::kOk) {
      ++report->clean;
      continue;
    }
    if (v.state == Verdict::State::kVanished) {
      ++report->vanished;
      continue;
    }
    ScrubFinding f;
    f.path = state + "/" + name;
    f.problem = v.problem;
    f.detail = v.detail;
    if (!opts_.repair) {
      note(report, std::move(f), "reported");
      continue;
    }
    const std::string dest = move_to_quarantine(path);
    if (dest.empty()) {
      ++report->vanished;  // lost the rename race with the live leader
      continue;
    }
    // A damaged job record is unrecoverable state: preserve its bytes and
    // pin the job id into a terminal partition so the spool's exactly-one-
    // terminal-state audit still holds.
    const std::string id =
        name.size() > 5 ? name.substr(0, name.size() - 5) : name;  // - .json
    bool present_elsewhere = false;
    for (const char* other : kJobStates) {
      if (other == state) continue;
      if (fs::exists(fs::path(root_) / other / (id + ".json"))) {
        present_elsewhere = true;
        break;
      }
    }
    if (!present_elsewhere) {
      util::JsonWriter w(2);
      w.begin_object();
      w.kv("schema", kJobSchema);
      w.kv("id", id);
      w.key("attempts").begin_array().end_array();
      w.key("failure").begin_object();
      w.kv("type", "scrub-quarantine");
      w.kv("detail", v.problem + " " + state + " record; bytes preserved in " +
                         dest);
      w.end_object();
      w.end_object();
      write_artifact((fs::path(root_) / "quarantined" / (id + ".json"))
                         .string(),
                     kJobSchema, w.str() + "\n");
    }
    f.detail = v.problem + " record moved to " + dest;
    note(report, std::move(f), "quarantined");
  }
}

void SpoolScrubber::scrub_results(ScrubReport* report) {
  const std::string dir = (fs::path(root_) / "results").string();
  for (const std::string& name : list_files(dir)) {
    const std::string path = (fs::path(dir) / name).string();
    const Verdict v = verify_file(path, kResultSchema);
    ++report->checked;
    if (v.state == Verdict::State::kOk) {
      ++report->clean;
      continue;
    }
    if (v.state == Verdict::State::kVanished) {
      ++report->vanished;
      continue;
    }
    ScrubFinding f;
    f.path = std::string("results/") + name;
    f.problem = v.problem;
    f.detail = v.detail;
    if (!opts_.repair) {
      note(report, std::move(f), "reported");
      continue;
    }
    // A result envelope is scratch: retiring a damaged one just makes the
    // attempt re-run (recovery sees "no envelope" and requeues), so this
    // is a repair, not a loss.
    const std::string dest = move_to_quarantine(path);
    if (dest.empty()) {
      ++report->vanished;
      continue;
    }
    f.detail = "retired damaged result envelope (attempt re-runs); bytes in " +
               dest;
    note(report, std::move(f), "repaired");
  }
}

void SpoolScrubber::scrub_checkpoints(ScrubReport* report) {
  const std::string dir = (fs::path(root_) / "checkpoints").string();
  // Generation files are <id>.json (newest), <id>.json.1, <id>.json.2;
  // group the family by its newest-generation name.
  std::set<std::string> bases;
  for (const std::string& name : list_files(dir)) {
    std::string base = name;
    for (int g = 1; g < Checkpoint::kGenerations; ++g) {
      const std::string suffix = "." + std::to_string(g);
      if (base.size() > suffix.size() &&
          base.compare(base.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        base = base.substr(0, base.size() - suffix.size());
        break;
      }
    }
    bases.insert(base);
  }
  for (const std::string& base : bases) {
    const std::string newest = (fs::path(dir) / base).string();
    // Verify every present generation; remember the newest intact one.
    // Checkpoint schemas vary by optimizer, so accept any schema ("").
    std::string promote_bytes;
    std::vector<std::pair<std::string, Verdict>> damaged;
    bool newest_ok = false;
    for (int g = 0; g < Checkpoint::kGenerations; ++g) {
      const std::string gpath = Checkpoint::generation_path(newest, g);
      if (!fs::exists(gpath)) continue;
      const Verdict v = verify_file(gpath, "");
      ++report->checked;
      if (v.state == Verdict::State::kOk) {
        ++report->clean;
        if (g == 0) newest_ok = true;
        if (promote_bytes.empty()) promote_bytes = v.bytes;
      } else if (v.state == Verdict::State::kVanished) {
        ++report->vanished;
      } else {
        damaged.emplace_back(gpath, v);
      }
    }
    for (auto& [gpath, v] : damaged) {
      ScrubFinding f;
      f.path = "checkpoints/" +
               fs::path(gpath).filename().string();
      f.problem = v.problem;
      f.detail = v.detail;
      if (!opts_.repair) {
        note(report, std::move(f), "reported");
        continue;
      }
      const bool was_newest = (gpath == newest);
      const std::string dest = move_to_quarantine(gpath);
      if (dest.empty()) {
        ++report->vanished;
        continue;
      }
      if (was_newest && !promote_bytes.empty()) {
        // Promote the newest intact older generation into the newest slot
        // so the resuming worker loads it directly (Checkpoint::load would
        // fall back anyway; promotion makes the family healthy again).
        atomic_write_durable(newest, promote_bytes);
        f.detail = "promoted intact older generation; damaged bytes in " +
                   dest;
        note(report, std::move(f), "repaired");
      } else if (!was_newest && (newest_ok || !promote_bytes.empty())) {
        f.detail = "retired damaged older generation; bytes in " + dest;
        note(report, std::move(f), "repaired");
      } else {
        f.detail = "no intact generation to promote (job restarts from "
                   "scratch); bytes in " +
                   dest;
        note(report, std::move(f), "quarantined");
      }
    }
  }
}

void SpoolScrubber::scrub_singleton(const std::string& name,
                                    const std::string& schema,
                                    ScrubReport* report) {
  const std::string path = (fs::path(root_) / name).string();
  if (!fs::exists(path)) return;
  const Verdict v = verify_file(path, schema);
  ++report->checked;
  if (v.state == Verdict::State::kOk) {
    ++report->clean;
    return;
  }
  if (v.state == Verdict::State::kVanished) {
    ++report->vanished;
    return;
  }
  ScrubFinding f;
  f.path = name;
  f.problem = v.problem;
  f.detail = v.detail;
  if (!opts_.repair) {
    note(report, std::move(f), "reported");
    return;
  }
  // health/lease documents are republished by the daemon within one
  // control-loop tick, so retiring a damaged one is a repair.
  const std::string dest = move_to_quarantine(path);
  if (dest.empty()) {
    ++report->vanished;
    return;
  }
  f.detail = "retired damaged " + name + " (daemon republishes); bytes in " +
             dest;
  note(report, std::move(f), "repaired");
}

ScrubReport SpoolScrubber::run() {
  ScrubReport report;
  for (const char* state : kJobStates) {
    scrub_job_partition(state, &report);
  }
  scrub_results(&report);
  scrub_checkpoints(&report);
  scrub_singleton("health.json", kHealthSchema, &report);
  scrub_singleton("leader.lease", kLeaseSchema, &report);

  obs::counter("io.scrub.passes").add();
  obs::counter("io.scrub.files_checked").add(report.checked);
  obs::counter("io.scrub.clean").add(report.clean);
  obs::counter("io.scrub.vanished").add(report.vanished);
  obs::Event ev;
  ev.kind = "scrub_pass";
  ev.severity = report.quarantined > 0 ? "warn" : "info";
  ev.detail = "spool " + root_;
  ev.num.emplace_back("checked", static_cast<double>(report.checked));
  ev.num.emplace_back("clean", static_cast<double>(report.clean));
  ev.num.emplace_back("repaired", static_cast<double>(report.repaired));
  ev.num.emplace_back("quarantined", static_cast<double>(report.quarantined));
  ev.num.emplace_back("vanished", static_cast<double>(report.vanished));
  obs::event(ev);
  return report;
}

}  // namespace minergy::io
