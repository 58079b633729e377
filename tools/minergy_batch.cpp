// minergy_batch: certified batch runner for the optimizer portfolio.
//
// A client of the service engine (src/serve/): the batch submits one job
// per (circuit, optimizer) to a private spool at <report>.spool/, drains it
// with one serve::Supervisor pass (--once, one worker subprocess at a time,
// certified results, perturbed-seed retries, quarantine), and builds its
// report (schema minergy.batch_report.v1) from the terminal job records:
// every attempt, each job's result envelope, and the quarantine list. The
// spool is removed once the report is written.
//
//   $ minergy_batch --circuits=s27,s298*,s344* --report=batch.json
//   $ minergy_batch --circuits=s27 --optimizers=robust,anneal --timeout=60
//   $ minergy_batch --verify-report=batch.json --expect-quarantined=s420*
//
// Flags (batch mode):
//   --circuits=A,B,...    suite to run (default s27,s298*,s344*)
//   --optimizers=K,...    portfolio per circuit: robust | joint | baseline |
//                         anneal (default robust)
//   --fc=HZ --activity=D  experiment knobs (defaults 300e6, 0.3)
//   --seed=S              base seed; retries perturb it (default 1)
//   --retries=N           extra attempts after the first (default 2)
//   --timeout=SECONDS     per-attempt wall clock (default 300)
//   --backoff=SECONDS     base backoff; retry k waits backoff * 2^(k-1)
//                         (default 0.5)
//   --report=FILE         batch report JSON (default minergy_batch.json)
//   --inject-hang=NAME    test hook: the worker for NAME sleeps forever,
//                         exercising timeout -> retry -> quarantine
//
// Verification mode (for CI): --verify-report=FILE validates the schema and
// that every non-quarantined circuit is feasible AND certified;
// --expect-quarantined=NAME additionally requires NAME on the quarantine
// list; --min-circuits=N requires at least N circuit entries;
// --allow-interrupted accepts a report flushed by an interrupted batch.
//
// SIGTERM/SIGINT drain the batch: the in-flight worker gets the
// supervisor's 2 s grace and is then SIGKILLed, the report is still flushed
// (valid schema, top-level "interrupted": true, every unfinished job marked
// status "interrupted"), and the process exits with the distinct code 3.
//
// Exit codes: 0 success (quarantines alone do not fail the batch), 1 a job
// failed (typed worker error, infeasible or uncertified result) or
// verification failed, 2 bad arguments / unreadable input, 3 interrupted.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "io/envelope.h"
#include "obs/metrics.h"
#include "obs/session.h"
#include "serve/queue.h"
#include "serve/supervisor.h"
#include "serve/worker.h"
#include "util/cli.h"
#include "util/json.h"

using namespace minergy;

namespace {

constexpr const char* kReportSchema = "minergy.batch_report.v1";

constexpr const char* kUsage =
    "usage: minergy_batch [--circuits=A,B,...] [--optimizers=K,...]\n"
    "                     [--seed=S] [--retries=N] [--timeout=S]\n"
    "                     [--backoff=S] [--fc=HZ] [--activity=D]\n"
    "                     [--report=FILE] [--inject-hang=NAME]\n"
    "       minergy_batch --verify-report=FILE [--min-circuits=N]\n"
    "                     [--expect-quarantined=NAME] [--allow-interrupted]\n"
    "  exit codes: 0 ok, 1 failed job or validation failure, 2 usage error,\n"
    "              3 interrupted (SIGTERM/SIGINT; partial report flushed)\n";

std::vector<std::string> split_list(const std::string& csv) {
  std::vector<std::string> out;
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

// Writes the report, one entry per submitted job in submission order, and
// returns the batch exit code. A job still pending or running after the
// supervisor returned was cut short by a SIGTERM/SIGINT drain.
int write_report(const serve::SpoolQueue& queue,
                 const std::vector<std::string>& ids,
                 const std::string& report_path, double total_wall) {
  const serve::QueueCounts counts = queue.counts();
  const bool interrupted = counts.pending + counts.running > 0;
  util::JsonWriter w(2);
  w.begin_object();
  w.kv("schema", kReportSchema);
  w.kv("total_wall_seconds", total_wall);
  w.kv("interrupted", interrupted);
  w.key("circuits").begin_array();
  std::vector<std::string> quarantined;
  bool any_failed = false;
  for (const std::string& id : ids) {
    std::string dir = "running";
    for (const char* d : {"done", "failed", "quarantined", "pending"}) {
      if (std::filesystem::exists(queue.job_path(d, id))) dir = d;
    }
    std::string status = dir == "done" ? "ok" : dir;
    if (dir == "pending" || dir == "running") status = "interrupted";
    const std::string path = queue.job_path(dir, id);
    const std::string text = io::read_artifact(path, serve::kJobSchema);
    const serve::Job job = serve::Job::from_json(text, path);
    const util::JsonValue rec = util::JsonValue::parse(text, path);
    const std::string& optimizer = job.optimizer;
    w.begin_object();
    w.kv("circuit", job.circuit);
    w.kv("optimizer", optimizer);
    w.kv("status", status);
    w.key("attempts").begin_array();
    for (const serve::JobAttempt& a : job.attempts) {
      w.begin_object();
      w.kv("seed", serve::format_seed(a.seed));
      w.kv("outcome", a.outcome);
      w.kv("exit_code", a.exit_code);
      w.kv("wall_seconds", a.wall_seconds);
      w.kv("backoff_seconds", a.backoff_seconds);
      w.end_object();
    }
    w.end_array();
    if (rec.has("result")) {
      w.key("result");
      util::emit(w, rec.at("result"));
    }
    w.end_object();

    const char* name = job.circuit.c_str();
    if (status == "quarantined") {
      quarantined.push_back(job.circuit);
      std::fprintf(stderr, "batch: QUARANTINED %s/%s after %zu attempts\n",
                   name, optimizer.c_str(), job.attempts.size());
    } else if (status == "failed") {
      any_failed = true;
      std::printf("%-8s %-9s FAILED %s: %s\n", name, optimizer.c_str(),
                  job.failure_type.c_str(), job.failure_detail.c_str());
    } else if (status == "ok") {  // done/ holds only certified results
      const util::JsonValue& res = rec.at("result");
      std::printf("%-8s %-9s ok     E %.4g J/cycle  tier %-11s certified\n",
                  name, optimizer.c_str(), res.get_number("energy_total", 0.0),
                  res.get_string("tier", "?").c_str());
    }
  }
  w.end_array();
  w.key("quarantined").begin_array();
  for (const std::string& c : quarantined) w.value(c);
  w.end_array();
  w.end_object();
  io::write_artifact(report_path, kReportSchema, w.str() + "\n");
  std::printf("batch: %zu run(s), %zu quarantined%s, report %s\n", ids.size(),
              quarantined.size(), interrupted ? ", INTERRUPTED" : "",
              report_path.c_str());
  // Quarantine is a contained failure (reported, not fatal); a failed job
  // — a typed error or an infeasible/uncertified answer — fails the batch.
  if (any_failed) return 1;
  return interrupted ? 3 : 0;
}

int run_batch(const util::Cli& cli) {
  const auto t0 = std::chrono::steady_clock::now();
  const std::vector<std::string> circuits =
      split_list(cli.get("circuits", std::string("s27,s298*,s344*")));
  const std::vector<std::string> optimizers =
      split_list(cli.get("optimizers", std::string("robust")));
  if (circuits.empty() || optimizers.empty()) {
    std::fprintf(stderr, "error: empty --circuits or --optimizers\n");
    return 2;
  }
  const std::string report_path =
      cli.get("report", std::string("minergy_batch.json"));
  const std::string hang = cli.get("inject-hang", std::string());
  std::uint64_t seed = 0;
  try {
    seed = serve::parse_seed(cli.get("seed", std::string("1")), "--seed");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  const std::string spool = report_path + ".spool";
  std::filesystem::remove_all(spool);
  serve::SpoolOptions spool_opts;
  spool_opts.max_pending = circuits.size() * optimizers.size();
  serve::SpoolQueue queue(spool, spool_opts);
  std::vector<std::string> ids;
  for (const std::string& circuit : circuits) {
    for (const std::string& optimizer : optimizers) {
      serve::Job job;
      job.circuit = circuit;
      job.optimizer = optimizer;
      job.seed = seed;
      job.clock_frequency = cli.get("fc", 300e6);
      job.activity = cli.get("activity", 0.3);
      if (circuit == hang) job.inject = "hang";
      ids.push_back(queue.submit(std::move(job)));
    }
  }

  serve::SupervisorOptions opts;
  // Workers re-exec this binary in --worker mode.
  opts.worker_binary = "/proc/self/exe";
  opts.workers = 1;
  opts.once = true;
  opts.timeout_seconds = cli.get("timeout", 300.0);
  opts.max_retries = cli.get("retries", 2);
  opts.backoff_seconds = cli.get("backoff", 0.5);
  serve::Supervisor(queue, opts).run();

  const double total_wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  const int rc = write_report(queue, ids, report_path, total_wall);
  std::filesystem::remove_all(spool);
  return rc;
}

// ------------------------------------------------------------ verification

int verify_report(const util::Cli& cli) {
  const std::string path = cli.get("verify-report", std::string());
  std::string text;
  try {
    text = io::read_artifact(path, kReportSchema);
  } catch (const io::IntegrityError& e) {
    // The file exists but its envelope fails: that is a verdict about the
    // report's content (exit 1), not a caller mistake (exit 2).
    std::fprintf(stderr, "verify: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  try {
    const util::JsonValue root = util::JsonValue::parse(text, path);
    if (root.get_string("schema", "") != kReportSchema) {
      std::fprintf(stderr, "verify: bad schema '%s'\n",
                   root.get_string("schema", "").c_str());
      return 1;
    }
    const auto& circuits = root.at("circuits").items();
    const int min_circuits = cli.get("min-circuits", 1);
    if (circuits.size() < static_cast<std::size_t>(min_circuits)) {
      std::fprintf(stderr, "verify: only %zu circuit entries (need %d)\n",
                   circuits.size(), min_circuits);
      return 1;
    }
    if (root.get_bool("interrupted", false) &&
        !cli.has("allow-interrupted")) {
      std::fprintf(stderr,
                   "verify: report is from an interrupted batch "
                   "(pass --allow-interrupted to accept)\n");
      return 1;
    }
    for (const util::JsonValue& c : circuits) {
      const std::string status = c.get_string("status", "");
      if (status == "quarantined" || status == "interrupted") continue;
      if (status != "ok" || !c.has("result")) {
        std::fprintf(stderr, "verify: %s has status '%s'\n",
                     c.get_string("circuit", "?").c_str(), status.c_str());
        return 1;
      }
      const util::JsonValue& res = c.at("result");
      if (!res.get_bool("feasible", false) ||
          !res.get_bool("certified", false)) {
        std::fprintf(stderr, "verify: %s is infeasible or uncertified: %s\n",
                     c.get_string("circuit", "?").c_str(),
                     res.at("certificate").get_string("detail", "").c_str());
        return 1;
      }
    }
    const std::string expect = cli.get("expect-quarantined", std::string());
    if (!expect.empty()) {
      bool found = false;
      for (const util::JsonValue& q : root.at("quarantined").items()) {
        if (q.as_string() == expect) found = true;
      }
      if (!found) {
        std::fprintf(stderr, "verify: expected '%s' on the quarantine list\n",
                     expect.c_str());
        return 1;
      }
    }
    std::printf("verify: %s OK (%zu circuit entries)\n", path.c_str(),
                circuits.size());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "verify: malformed report: %s\n", e.what());
    return 1;
  }
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Cli cli(argc, argv);
  if (cli.has("help")) {
    std::printf("%s", kUsage);
    return 0;
  }
  if (cli.has("worker")) {
    return serve::run_worker_mode(
        cli, serve::SpoolQueue(cli.get("spool", std::string())));
  }
  if (cli.has("verify-report")) return verify_report(cli);
  obs::Session session(cli, "minergy_batch");
  obs::set_enabled(true);
  return run_batch(cli);
} catch (const std::invalid_argument& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 2;
} catch (const std::exception& e) {
  std::fprintf(stderr, "error: %s\n", e.what());
  return 1;
}
