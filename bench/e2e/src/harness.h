// Measurement plumbing shared by every e2e_bench workload: the clock, order
// statistics, spans around the benchmark's calls into the program, and the
// result document bench/e2e/suite.py reads from the last line of stdout.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

// Steady-clock seconds since an arbitrary origin.
double now_s();

// Quantile by linear interpolation between closest ranks (q in [0, 1]);
// 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}
double geomean(const std::vector<double>& v);

// Peak resident set (MB): the larger of this process and its largest
// waited-for descendant (getrusage self and children).
double peak_rss_mb();

// Spans around the benchmark's calls into each layer. Every span is timed;
// while recording is on, it is also kept in memory with its parent span and
// work item, for the per-layer medians and the Chrome-trace file written at
// exit. Single-threaded: the benchmark issues its calls from one thread.
class Spans {
 public:
  // Runs fn inside the span `name`; returns its wall time in seconds.
  double time(const char* name, const std::string& item,
              const std::function<void()>& fn);

  // Records a span that was not a synchronous call (e.g. a job's life from
  // its scheduled send to its done/ record), with no parent.
  void record(const char* name, const std::string& item, double start_s,
              double end_s);

  void set_recording(bool on) { recording_ = on; }

  // Durations (s) of the recorded spans called `name`.
  std::vector<double> durations(const std::string& name) const;

  // Chrome-trace JSON ({"traceEvents": [...]}, ph "X" events whose args
  // carry the span id, parent id and item). False when unwritable.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string item;
    double start_s = 0.0;
    double end_s = 0.0;
    std::int64_t id = 0;
    std::int64_t parent = -1;
  };
  bool recording_ = false;
  std::int64_t next_id_ = 0;
  std::vector<std::int64_t> open_;  // ids of the spans enclosing the call
  std::vector<Record> records_;
};

// The result of one workload run. Metrics keep insertion order in the
// human-readable listing; suite.py selects the ones BENCHMARK.json names.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  // Free-form context printed next to the metrics (e.g. which percentile a
  // tail is and over how many samples).
  void note(const std::string& key, const std::string& text);
  // A correctness failure: the run is reported as incorrect.
  void fail(const std::string& why);
  // `n` solves or jobs attempted, `failed` of them infeasible, uncertified,
  // errored or refused.
  void attempts(int n, int failed) {
    attempted_ += n;
    failed_ += failed;
  }
  // A fingerprint line (hex-float answers) for the traced/untraced identity
  // check across processes.
  void fingerprint(const std::string& line) { fingerprints_.push_back(line); }

  bool correct() const { return errors_.empty() && failed_ == 0; }
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> errors_;
  std::vector<std::string> fingerprints_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// "%a" rendering of a double: exact, so equal strings mean equal bits.
std::string hexf(double v);

// A latency tail with its percentile and sample count, e.g.
// "336.160 ms (p75 of 64 items, 16 beyond)".
std::string tail_text(const std::vector<double>& ms, double q,
                      const std::string& what);

}  // namespace e2e
