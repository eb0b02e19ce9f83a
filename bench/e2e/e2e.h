// Shared pieces of the end-to-end GATEST benchmark harness: metric report,
// harness-side spans, statistics, digests, the hardware/build fingerprint,
// and the aggregation of the generator's own trace events into layer times.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/logic.h"
#include "telemetry/json.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// num / den, or 0 when den is not positive (a layer that did no work).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// FNV-1a (64-bit) of each vector's logic string plus '\n', as 16 hex digits.
std::string test_set_digest(const std::vector<gatest::TestVector>& tests);
std::string test_set_digest(const std::vector<std::string>& vector_strings);

/// Keep `threads` cores busy for `seconds` before anything is timed: on the
/// calibration VM the first seconds of load after an idle spell run up to
/// 1.7x slower than the rest.
void warm_up(unsigned threads, double seconds = 1.0);

/// Peak resident set size of this program so far, in MB.
double peak_rss_mb();
/// User + system CPU seconds this process has consumed so far.
double cpu_seconds();

/// Machine and build identity.  compare.py refuses to compare records whose
/// fingerprints differ in anything but the git revision.
struct Fingerprint {
  unsigned nproc = 0;
  std::string cpu_model;
  bool avx2 = false;
  std::string compiler;
  std::string build_type;
  std::string git_rev;
  std::string json() const;
};
Fingerprint fingerprint();

/// Observable result of one unit of work (one circuit run or one job).
struct UnitResult {
  std::string name;
  std::uint64_t seed = 0;
  std::string digest;
  std::size_t faults = 0;
  std::size_t detected = 0;
  std::size_t vectors = 0;
  std::size_t evaluations = 0;
  double latency_s = 0.0;  ///< circuit run() time, or job due -> done
};

/// Everything one invocation reports: metrics in print order, the unit
/// results that correctness is judged on, and every failed check.
class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  void fail(const std::string& why);
  void note(const std::string& line) { notes_.push_back(line); }

  std::size_t attempted = 0;
  std::vector<UnitResult> units;

  bool correct() const { return failures_.empty(); }
  std::size_t failed() const { return failures_.size(); }

  /// "name value unit" lines (plus '#' notes and failures) to stdout.
  void print() const;
  /// One JSON record: fingerprint, units, metrics, failures.
  std::string json(const std::string& workload, std::uint64_t seed,
                   bool traced) const;

  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> failures_;
  std::vector<std::string> notes_;
};

/// Compare `units` with the goldens stored for `key` in a goldens file (a
/// JSON object: key -> name -> {digest, detected, vectors}).  A key absent
/// from the file checks nothing.  Mismatches are reported as failures.
void check_goldens(const std::string& goldens_path, const std::string& key,
                   Report& report);

/// Harness-side spans: recorded around each call the harness makes into a
/// layer's public functions, kept in memory, written out at exit.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::uint64_t trace = 0;  ///< circuit run or job the span belongs to
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  void enable() { enabled_ = true; }

  /// Open a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int begin(std::string name, std::uint64_t trace);
  void end(int index);
  std::string json() const;

 private:
  bool enabled_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII wrapper over SpanRecorder::begin/end.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, std::string name, std::uint64_t trace)
      : rec_(rec), index_(rec.begin(std::move(name), trace)) {}
  ~ScopedSpan() { rec_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  int index_;
};

/// Totals folded from the generator's JSONL trace events (phase, GA-run,
/// generation, commit, slice and job events).  Events of several circuit
/// runs or jobs can be folded into one instance; serve events are told apart
/// by their "trace" (job id) field.
struct LayerTotals {
  double run_s = 0.0;        ///< Σ run_end dur_s (every run() call)
  double ga_run_s = 0.0;     ///< Σ ga_run spans
  double ga_eval_s = 0.0;    ///< Σ generation eval_s
  double ga_select_s = 0.0;  ///< Σ generation select_s
  double ga_breed_s = 0.0;   ///< Σ generation breed_s minus select_s
  double commit_s = 0.0;     ///< Σ fsim_commit spans
  std::map<std::string, double> phase_s;  ///< Σ phase spans by phase name
  std::uint64_t ga_runs = 0;
  std::uint64_t generations = 0;
  double vec_eval_s = 0.0;   ///< generation eval_s in phases 1-3
  double seq_eval_s = 0.0;   ///< generation eval_s in phase 4
  std::uint64_t vec_evals = 0;
  std::uint64_t seq_evals = 0;

  // Serve slicing (one run() segment per slice of a job).
  std::uint64_t replayed_vectors = 0;   ///< Σ resume vectors
  std::uint64_t performed_evals = 0;    ///< evaluations run in all segments
  std::uint64_t discarded_evals = 0;    ///< evaluations lost at slice stops
  std::uint64_t cache_hits = 0;         ///< Σ run_end cache_hits
  std::uint64_t cache_misses = 0;       ///< Σ run_end cache_misses
  std::map<std::uint64_t, std::uint64_t> replayed_by_job;
  std::map<std::uint64_t, double> job_run_s;   ///< Σ run() time by job
  std::map<std::uint64_t, double> job_total_s; ///< submit -> done by job

  /// Fold one event line; throws on a line that is not JSON.
  void add_line(std::string_view line);

 private:
  struct JobState {
    std::uint64_t prior = 0;     ///< evaluations restored by resume
    std::uint64_t boundary = 0;  ///< evaluations kept at a slice stop
    bool sliced = false;
  };
  std::map<std::uint64_t, JobState> jobs_;
  std::map<std::uint64_t, double> open_commits_;  ///< span id -> begin ts
};

/// Options shared by every workload.
struct RunOptions {
  std::uint64_t seed = 1;
  bool traced = false;     ///< per-layer (traced) run instead of end-to-end
  bool smoke = false;      ///< toy-sized inputs
  std::string workdir;     ///< scratch space for journals and traces
};

/// Workload entry points.  Failed checks are recorded in `report`; an
/// exception means the run could not finish.
void run_atpg_workload(const std::string& name, const RunOptions& opt,
                       Report& report, SpanRecorder& spans);
void run_serve_workload(const RunOptions& opt, Report& report,
                        SpanRecorder& spans);
/// Calibration: burst capacity of the serve job mix (jobs/s).
void run_serve_burst(const RunOptions& opt, Report& report);
/// Each serve_mixed job run uninterrupted in-process (no server, no
/// slicing) — the source of the serve goldens.
void run_serve_direct(const RunOptions& opt, Report& report);

bool is_atpg_workload(const std::string& name);

}  // namespace e2e
