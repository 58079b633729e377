// serve_open: minergy_served at its shipped defaults (2 workers, 20 ms poll)
// fed by an open loop from this process. Jobs are sent on a seeded schedule
// of exponential gaps, 2 jobs/s then 4 jobs/s, whether or not earlier jobs
// finished; each is timed from when it was due to when its done/ record
// appears (polled every 2 ms), so a stall also charges the jobs behind it.
// A burst follows; the run ends with a SIGTERM drain and the daemon's own
// --status --verify audit.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench_suite/iscas.h"
#include "io/envelope.h"
#include "obs/metrics.h"
#include "serve/job.h"
#include "serve/queue.h"
#include "solve.h"
#include "util/json.h"
#include "util/rng.h"
#include "workloads.h"

extern char** environ;

namespace e2e {

using namespace minergy;
namespace fs = std::filesystem;

namespace {

const char* const kCircuits[] = {"c17", "s27", "s298*", "s832*"};
const char* const kBlock[] = {"c17", "s27", "s298*", "s298*", "s832*", "s832*"};
// Jobs/s of the two paced phases: about 1/4 and 1/2 of what the daemon
// drains in the burst on 4 cores, so queueing shows without a backlog.
constexpr double kRates[] = {2.0, 4.0};
constexpr double kSloMs = 1000.0;        // paced e2e latency limit
constexpr double kTailQ = 0.80;          // reported tail percentile
constexpr double kPollS = 0.002;         // done/ polling period
constexpr double kWaitS = 40.0;          // give up on a phase after this

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void sleep_s(double s) {
  if (s > 0.0) std::this_thread::sleep_for(std::chrono::duration<double>(s));
}

// Starts args[0] with stdout and stderr appended to `log`.
pid_t spawn(const std::vector<std::string>& args, const std::string& log) {
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log.c_str(),
                                   O_WRONLY | O_CREAT | O_APPEND, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + args[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

// Exit code of a finished child, 128+signal when killed by one.
int exit_code(int status) {
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

// A child process that is always reaped: stop() drains it with SIGTERM
// and escalates to SIGKILL after `grace_s`; the destructor does the same.
class Child {
 public:
  Child(const std::vector<std::string>& args, const std::string& log)
      : pid_(spawn(args, log)) {}
  ~Child() { stop(10.0); }
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  bool running() {
    if (reaped_) return false;
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      code_ = exit_code(status);
    }
    return !reaped_;
  }

  // Waits up to timeout_s for a voluntary exit; true once reaped.
  bool wait(double timeout_s) {
    const double until = now_s() + timeout_s;
    while (running() && now_s() < until) sleep_s(0.005);
    return reaped_;
  }

  int stop(double grace_s) {
    if (running()) {
      kill(pid_, SIGTERM);
      if (!wait(grace_s)) {
        kill(pid_, SIGKILL);
        int status = 0;
        waitpid(pid_, &status, 0);
        reaped_ = true;
        code_ = exit_code(status);
      }
    }
    return code_;
  }

 private:
  pid_t pid_;
  bool reaped_ = false;
  int code_ = 0;
};

struct Job {
  std::string circuit;
  double activity = 0.0;
  double due_s = 0.0;  // scheduled send, relative to the phase origin
  int phase = 0;       // 0, 1: paced at kRates[phase]; 2: burst
  std::string id;      // empty when admission refused it
  double submit_ms = 0.0;
  double lag_ms = 0.0;
  double done_s = -1.0;  // steady-clock time its done/ record was seen
  double e2e_ms = -1.0;
  bool failed = false;
  // From the done/ record.
  double exec_ms = 0.0;
  double optimize_ms = 0.0;
  int attempts = 0;
  std::string answer;
};

// Appends `count` jobs due from `start_s` on, at exponential gaps of mean
// 1/rate (rate 0: all due at start_s); returns when the last one is due.
// Every block of six jobs holds c17 and s27 once and s298* and s832*
// twice, in shuffled order: the mix is the same at any run length, and the
// median and tail of e2e fall inside one job class rather than on the gap
// between two, where they would jump from seed to seed.
double plan_jobs(util::Rng& rng, std::vector<Job>& jobs, int phase,
                 double rate, int count, double start_s) {
  std::vector<std::string> block;
  double t = start_s;
  for (int k = 0; k < count; ++k) {
    if (rate > 0.0) t += -std::log(1.0 - rng.uniform()) / rate;
    if (block.empty()) {
      block.assign(std::begin(kBlock), std::end(kBlock));
      rng.shuffle(block);
    }
    Job j;
    j.circuit = block.back();
    block.pop_back();
    j.activity = rng.uniform(0.1, 0.5);
    j.due_s = t;
    j.phase = phase;
    jobs.push_back(j);
  }
  return t;
}

std::string label(const Job& j) { return j.circuit + "@" + hexf(j.activity); }

// Sends jobs[first, last) at origin + due_s and waits for each to reach a
// terminal state (done/, or failed/ / quarantined/ which count as failed).
void drive(serve::SpoolQueue& queue, std::vector<Job>& jobs, std::size_t first,
           std::size_t last, double origin, Spans& spans, Result& r) {
  if (first >= last) return;
  std::vector<std::size_t> outstanding;
  std::size_t next = first;
  double last_terminal_scan = 0.0;
  const double give_up = origin + jobs[last - 1].due_s + kWaitS;
  while (next < last || !outstanding.empty()) {
    const double now = now_s();
    if (next < last && now >= origin + jobs[next].due_s) {
      Job& j = jobs[next++];
      serve::Job sj;
      sj.circuit = j.circuit;
      sj.activity = j.activity;
      const double due = origin + j.due_s;
      j.lag_ms = (now - due) * 1e3;
      try {
        spans.time("serve.submit", j.circuit,
                   [&] { j.id = queue.submit(std::move(sj)); });
        outstanding.push_back(static_cast<std::size_t>(&j - jobs.data()));
      } catch (const std::exception& e) {
        j.failed = true;
        r.fail("submit refused: " + std::string(e.what()));
      }
      j.submit_ms = (now_s() - now) * 1e3;
      continue;
    }
    const bool scan_terminal = now - last_terminal_scan >= 0.05;
    if (scan_terminal) last_terminal_scan = now;
    std::erase_if(outstanding, [&](std::size_t i) {
      Job& j = jobs[i];
      if (access(queue.job_path("done", j.id).c_str(), F_OK) == 0) {
        j.done_s = now_s();
        j.e2e_ms = (j.done_s - (origin + j.due_s)) * 1e3;
        spans.record("serve.job", j.id, origin + j.due_s, j.done_s);
        return true;
      }
      if (scan_terminal &&
          (access(queue.job_path("failed", j.id).c_str(), F_OK) == 0 ||
           access(queue.job_path("quarantined", j.id).c_str(), F_OK) == 0)) {
        j.failed = true;
        r.fail("job " + j.id + " (" + j.circuit + ") did not complete");
        return true;
      }
      return false;
    });
    if (now > give_up) {
      for (std::size_t i : outstanding) {
        jobs[i].failed = true;
        r.fail("job " + jobs[i].id + " not done after " +
               std::to_string(kWaitS) + " s");
      }
      break;
    }
    double wake = now + kPollS;
    if (next < last) wake = std::min(wake, origin + jobs[next].due_s);
    sleep_s(wake - now_s());
  }
}

bool wait_serving(const std::string& health, Child& daemon) {
  const double until = now_s() + 10.0;
  while (now_s() < until && daemon.running()) {
    if (read_file(health).find("\"state\": \"serving\"") != std::string::npos) {
      return true;
    }
    sleep_s(kPollS);
  }
  return false;
}

// Reads a job's done/ record into j; false (with the reason recorded) when
// it is missing, unreadable, or not a certified feasible result.
bool read_done(const serve::SpoolQueue& queue, Job& j, Result& r) {
  const std::string path = queue.job_path("done", j.id);
  try {
    const util::JsonValue rec = util::JsonValue::parse(
        io::read_artifact(path, serve::kJobSchema), path);
    if (!rec.has("result") || !rec.has("attempts") ||
        rec.at("attempts").items().empty()) {
      r.fail("done/" + j.id + " has no result or no attempt");
      return false;
    }
    const util::JsonValue& res = rec.at("result");
    const auto& attempts = rec.at("attempts").items();
    j.attempts = static_cast<int>(attempts.size());
    j.exec_ms = attempts.back().get_number("wall_seconds", 0.0) * 1e3;
    j.optimize_ms = res.get_number("runtime_seconds", 0.0) * 1e3;
    j.answer = "opt.robust " + label(j) +
               " E=" + hexf(res.get_number("energy_total", 0.0)) +
               " vdd=" + hexf(res.get_number("vdd", 0.0)) +
               " vts=" + hexf(res.get_number("vts_primary", 0.0)) + "; ";
    if (!res.get_bool("certified", false) || !res.get_bool("feasible", false)) {
      r.fail("done/" + j.id + " is not a certified feasible result");
      return false;
    }
    return true;
  } catch (const std::exception& e) {
    r.fail("job " + j.id + ": " + e.what());
    return false;
  }
}

// sum(part) / sum(whole): the shares of e2e time add up (exec + wait = e2e,
// optimize + worker overhead = exec), which medians would not.
double share(const std::vector<double>& part,
             const std::vector<double>& whole) {
  double p = 0.0, w = 0.0;
  for (double v : part) p += v;
  for (double v : whole) w += v;
  return w > 0.0 ? p / w : 0.0;
}

void note_ms(Result& r, const std::string& key, double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.3f ms", v);
  r.note(key, buf);
}

}  // namespace

void run_serve_open(const Options& o, Result& r) {
  const std::string tag = std::to_string(getpid());
  const std::string spool = o.work_dir + "/spool-" + tag;
  const std::string log = o.work_dir + "/served-" + tag + ".log";
  const std::string perf = o.work_dir + "/perf-" + tag + ".json";
  fs::remove_all(spool);
  fs::create_directories(spool);
  serve::SpoolQueue queue(spool);
  const std::string health = spool + "/health.json";
  std::vector<std::string> daemon_args = {o.served, "--spool=" + spool};
  if (o.trace) daemon_args.push_back("--perf-record=" + perf);
  Spans spans;
  spans.set_recording(o.trace);

  // Set-up: daemon spawn until health.json says "serving", several times;
  // the last daemon serves the load.
  std::vector<double> setup_s;
  std::unique_ptr<Child> daemon;
  const int spawns = o.smoke ? 2 : 5;
  for (int i = 0; i < spawns; ++i) {
    if (daemon) daemon->stop(10.0);
    fs::remove(health);
    bool serving = false;
    setup_s.push_back(spans.time("serve.spawn", "daemon", [&] {
      daemon = std::make_unique<Child>(daemon_args, log);
      serving = wait_serving(health, *daemon);
    }));
    if (!serving) {
      r.fail("minergy_served did not reach \"serving\" (see " + log + ")");
      return;
    }
  }

  util::Rng rng(util::hash_mix(o.seed ^ 0x5e12e0beULL));
  std::vector<Job> jobs;
  // Each paced phase sends rate x 0.45 of the run time, as a fixed count.
  const double phase_s = o.smoke ? 1.0 : 0.45 * o.seconds;
  double due = 0.0;
  for (int p = 0; p < 2; ++p) {
    due = plan_jobs(rng, jobs, p, kRates[p],
                    static_cast<int>(std::lround(kRates[p] * phase_s)), due);
  }
  const std::size_t paced = jobs.size();
  plan_jobs(rng, jobs, 2, 0.0, o.smoke ? 6 : 48, 0.0);

  drive(queue, jobs, 0, paced, now_s(), spans, r);
  const double burst_start = now_s();
  drive(queue, jobs, paced, jobs.size(), burst_start, spans, r);
  double burst_end = burst_start;
  for (std::size_t i = paced; i < jobs.size(); ++i) {
    burst_end = std::max(burst_end, jobs[i].done_s);
  }

  const int daemon_rc = daemon->stop(30.0);
  if (daemon_rc != 0) {
    r.fail("minergy_served exited " + std::to_string(daemon_rc));
  }
  int admitted = 0;
  for (const Job& j : jobs) admitted += j.id.empty() ? 0 : 1;
  {
    Child audit({o.served, "--spool=" + spool, "--status", "--verify",
                 "--expect-jobs=" + std::to_string(admitted)},
                log);
    if (!audit.wait(60.0)) {
      r.fail("minergy_served --status --verify did not finish");
    } else if (const int rc = audit.stop(0.0); rc != 0) {
      r.fail("minergy_served --status --verify exited " + std::to_string(rc));
    }
  }

  int failed = 0;
  for (Job& j : jobs) {
    if (!j.failed && !j.id.empty() && !read_done(queue, j, r)) j.failed = true;
    if (j.failed || j.id.empty()) ++failed;
    r.fingerprint(j.answer);
  }
  r.attempts(static_cast<int>(jobs.size()), failed);

  // The service's answers must be the library's: recompute the first job of
  // each circuit in this process (traced and untraced in a traced run) and
  // compare energies, Vdd and Vts bit for bit.
  std::vector<netlist::Netlist> nls;
  std::vector<Item> items;
  std::vector<const Job*> sources;
  nls.reserve(std::size(kCircuits));
  for (const char* c : kCircuits) {
    const auto it = std::find_if(jobs.begin(), jobs.end(), [&](const Job& j) {
      return j.circuit == c && !j.answer.empty();
    });
    if (it == jobs.end()) continue;
    spans.time("netlist.build", c, [&] {
      nls.push_back(bench_suite::make_circuit(std::string(c)));
    });
    Item item;
    item.label = label(*it);
    item.nl = &nls.back();
    item.flow = Flow::kRobust;
    item.activity = it->activity;
    items.push_back(item);
    sources.push_back(&*it);
  }
  std::vector<double> recompute_s;
  std::vector<Outcome> traced;
  for (int pass = 0; pass < (o.trace ? 2 : 1); ++pass) {
    const bool traced_pass = pass == 1;
    obs::set_enabled(traced_pass);
    spans.set_recording(traced_pass);
    std::vector<Outcome> outs;
    const double start = now_s();
    for (const Item& item : items) outs.push_back(solve_item(item, spans));
    recompute_s.push_back(now_s() - start);
    obs::set_enabled(false);
    for (std::size_t i = 0; i < outs.size(); ++i) {
      if (outs[i].fingerprint != sources[i]->answer) {
        r.fail("served answer for " + items[i].label +
               " differs from the in-process recompute" +
               (traced_pass ? " (traced)" : ""));
      }
    }
    if (traced_pass) traced = std::move(outs);
  }
  spans.set_recording(o.trace);

  std::vector<double> e2e, rate_e2e[2], exec, optimize, overhead, wait,
      submit;
  double lag_max = 0.0;
  int slo_miss = 0, attempts = 0, done = 0;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Job& j = jobs[i];
    submit.push_back(j.submit_ms);
    if (!j.failed) {
      attempts += j.attempts;
      ++done;
    }
    if (i >= paced) continue;
    lag_max = std::max(lag_max, j.lag_ms);
    if (j.failed || j.e2e_ms > kSloMs) ++slo_miss;
    if (j.failed) continue;
    e2e.push_back(j.e2e_ms);
    rate_e2e[j.phase].push_back(j.e2e_ms);
    exec.push_back(j.exec_ms);
    optimize.push_back(j.optimize_ms);
    overhead.push_back(j.exec_ms - j.optimize_ms);
    wait.push_back(j.e2e_ms - j.exec_ms);
  }

  r.metric("setup_s", median(setup_s), "s");
  r.metric("pass_s", burst_end - burst_start, "s");
  r.metric("item_ms.p50", median(e2e), "ms");
  r.metric("peak_rss_mb", peak_rss_mb(), "MB");
  r.note("item_ms.tail", tail_text(e2e, kTailQ, "paced jobs"));
  for (int p = 0; p < 2; ++p) {
    const std::string rate = "r" + std::to_string(static_cast<int>(kRates[p]));
    note_ms(r, "e2e_ms.p50." + rate, median(rate_e2e[p]));
    r.note("e2e_ms.tail." + rate, tail_text(rate_e2e[p], kTailQ, "jobs"));
  }
  char buf[96];
  std::snprintf(buf, sizeof buf, "%.3f jobs/s over a %zu-job burst",
                static_cast<double>(jobs.size() - paced) /
                    std::max(burst_end - burst_start, 1e-9),
                jobs.size() - paced);
  r.note("jobs_per_s", buf);
  note_ms(r, "loadgen.lag_ms.max", lag_max);
  note_ms(r, "serve.submit_ms.p50", median(submit));
  note_ms(r, "serve.exec_ms.p50", median(exec));
  note_ms(r, "serve.optimize_ms.p50", median(optimize));
  note_ms(r, "serve.worker_overhead_ms.p50", median(overhead));
  note_ms(r, "serve.wait_ms.p50", median(wait));
  r.note("serve.wait_ms.tail", tail_text(wait, kTailQ, "paced jobs"));
  r.note("serve.slo_miss", std::to_string(slo_miss) + " of " +
                               std::to_string(paced) + " paced jobs over " +
                               std::to_string(static_cast<int>(kSloMs)) +
                               " ms or failed");

  if (o.trace) {
    add_layer_metrics(r, traced, spans);
    r.metric("serve.exec.share", share(exec, e2e), "frac");
    r.metric("serve.optimize.share", share(optimize, e2e), "frac");
    r.metric("serve.worker_overhead.share", share(overhead, e2e), "frac");
    r.metric("serve.wait.share", share(wait, e2e), "frac");
    r.metric("serve.slo_miss_frac",
             paced > 0 ? slo_miss / static_cast<double>(paced) : 0.0, "frac");
    r.metric("serve.attempts_per_job",
             done > 0 ? attempts / static_cast<double>(done) : 0.0, "count");
    double writes = 0.0;
    try {
      const util::JsonValue rec = util::JsonValue::parse(read_file(perf), perf);
      if (!rec.has("counters")) throw std::runtime_error("no counters");
      writes = rec.at("counters").get_number("io.write.calls", 0.0);
    } catch (const std::exception& e) {
      r.fail("daemon perf record " + perf + ": " + e.what());
    }
    r.metric("io.write.calls_per_job",
             admitted > 0 ? writes / admitted : 0.0, "count");
    r.metric("trace.overhead_frac", recompute_s[1] / recompute_s[0] - 1.0,
             "frac");
    if (!o.trace_out.empty() && !spans.write_chrome_trace(o.trace_out)) {
      r.fail("cannot write " + o.trace_out);
    }
  }
  if (r.correct()) {
    fs::remove_all(spool);
    fs::remove(log);
    fs::remove(perf);
  }
}

}  // namespace e2e
