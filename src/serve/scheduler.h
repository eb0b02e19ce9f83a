// Job manager for gatest_serve: a fixed worker pool running ATPG jobs under
// checkpoint-based fair-share scheduling.
//
// Every job runs in time slices: a worker restores the job's in-memory
// checkpoint (if any), arms GaTestGenerator's slice deadline, and runs until
// the slice expires (StopReason::SliceStop), the job finishes, its budget
// trips, or it is cancelled.  A sliced job checkpoints at its last commit
// boundary and goes to the back of the FIFO queue — round-robin fair share —
// so K workers make progress on more than K jobs concurrently.
//
// Determinism: a slice stop is a budget stop (DESIGN.md §5.3).  The
// checkpoint captures the last commit boundary only (partial GA work is
// discarded, exactly as on resume-from-disk), so the final test set of a
// sliced job is bit-identical to an uninterrupted single-process run with
// the same config — ctest enforces this at 1 and 4 workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "gatest/checkpoint.h"
#include "gatest/test_generator.h"
#include "netlist/circuit.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "telemetry/telemetry.h"
#include "util/run_control.h"

namespace gatest::serve {

struct ServeConfig {
  unsigned workers = 2;         ///< worker threads (>= 1)
  double slice_seconds = 0.25;  ///< fair-share time slice; 0 = run to end
  std::string trace_path;       ///< server-level JSONL trace; empty = off

  // ---- durability (DESIGN.md §5.4) ----
  /// Job journal directory; empty = in-memory only.  With a state dir every
  /// accepted job is persisted crash-atomically (spec + latest slice
  /// checkpoint + terminal result) and recovered on the next start().
  std::string state_dir;

  // ---- overload protection ----
  /// Queued-job cap; a full queue rejects submits with "overloaded".
  /// 0 = unbounded.
  std::size_t max_queued_jobs = 0;
  /// Non-terminal jobs one client may hold; exceeding rejects with
  /// "quota-exceeded".  0 = unlimited.  Client 0 (in-process callers and
  /// recovered jobs) is exempt.
  std::size_t max_jobs_per_client = 0;
  /// Backoff hint attached to overloaded / quota-exceeded / journal-error
  /// rejections (clients add jitter on top — serve/client.h).
  unsigned retry_after_ms = 500;
};

enum class JobState : std::uint8_t {
  Queued,     ///< waiting for a worker (fresh or preempted)
  Running,    ///< a worker is executing a slice right now
  Done,       ///< finished (completed or budget-stopped); result available
  Cancelled,  ///< cancel request or server shutdown ended it
  Failed,     ///< the generator surfaced an error; message recorded
};

const char* to_string(JobState s);

/// One watch stream: a bounded queue of event lines a connection thread
/// drains.  Producers never block — when the consumer lags past the cap the
/// oldest lines are dropped (and counted), so a stalled client cannot back
/// up the workers.
class Subscription {
 public:
  Subscription(bool all, std::uint64_t job_id) : all_(all), job_id_(job_id) {}

  bool wants(std::uint64_t job_id) const { return all_ || job_id_ == job_id; }

  /// Producer side: enqueue one line (drops the oldest beyond the cap).
  void push(const std::string& line);
  /// No more events will arrive (terminal job event or server shutdown).
  void close();

  /// Consumer side: block up to `timeout_seconds` for the next line.  False
  /// means no line yet (timeout, or closed and drained — distinguish with
  /// closed_and_drained()); timeouts let the connection thread notice dead
  /// clients and server shutdown.
  bool pop(std::string& line, double timeout_seconds);

  /// True once close() was called and every queued line was consumed.
  bool closed_and_drained() const;

  std::uint64_t dropped() const;

 private:
  static constexpr std::size_t kMaxQueuedLines = 4096;

  const bool all_;
  const std::uint64_t job_id_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::string> lines_;
  std::uint64_t dropped_ = 0;
  bool closed_ = false;
};

/// Point-in-time view of one job for status responses.
struct JobSnapshot {
  std::uint64_t id = 0;
  std::string name;
  std::string circuit;
  JobState state = JobState::Queued;
  unsigned slices = 0;
  std::size_t vectors = 0;
  std::size_t evaluations = 0;
  double coverage = 0.0;
  double seconds = 0.0;  ///< wall clock since submit (frozen at terminal)
  std::string error;
};

/// Serialize one snapshot as a JSON object into `w` — shared by the line
/// protocol's status/result responses and the HTTP /jobs endpoints.
void append_job_json(JsonWriter& w, const JobSnapshot& s);

class JobManager {
 public:
  explicit JobManager(ServeConfig cfg);
  ~JobManager();

  /// Launch the worker pool (and the server trace, when configured).
  void start();

  /// Stop accepting, cancel queued and running jobs, join workers, close
  /// every watch stream.  Idempotent; called by shutdown command, SIGTERM
  /// path, and the destructor.
  void shutdown();

  bool shutting_down() const;

  /// Validate and enqueue a job.  Returns the job id, or 0 with `err` set
  /// (unknown profile / unparsable bench text / submit after shutdown, plus
  /// the overload rejections: "overloaded" when the queue cap is hit,
  /// "quota-exceeded" when `client` holds too many live jobs, and
  /// "journal-error" when the durable record could not be fsynced — the job
  /// is only acknowledged once it is safely on disk).  `client` identifies
  /// the submitting connection for quota accounting; 0 = exempt.
  std::uint64_t submit(const SubmitRequest& req, ProtocolError& err,
                       std::uint64_t client = 0);

  /// Cancel a queued or running job.  Terminal jobs are left untouched
  /// (cancel is idempotent); unknown ids fail with "unknown-job".
  bool cancel(std::uint64_t id, ProtocolError& err);

  /// Snapshot one job (false + "unknown-job" if the id is unknown).
  bool snapshot(std::uint64_t id, JobSnapshot& out, ProtocolError& err) const;
  /// Snapshot every job, in submit order.
  std::vector<JobSnapshot> snapshot_all() const;

  /// Final test set of a terminal job: fails with "unknown-job" or, for a
  /// job still queued/running, "not-done".
  bool result(std::uint64_t id, JobSnapshot& snap,
              std::vector<std::string>& vectors, ProtocolError& err) const;

  /// Subscribe to job events: every job when `has_id` is false, else one
  /// job ("unknown-job" if the id is unknown; an already-terminal job yields
  /// a closed, empty stream).  The caller drains with Subscription::pop and
  /// must unsubscribe() when done.
  std::shared_ptr<Subscription> watch(bool has_id, std::uint64_t id,
                                      ProtocolError& err);
  void unsubscribe(const std::shared_ptr<Subscription>& sub);

  /// Graceful-degradation step: close every watch stream (clients see a
  /// clean watch_end) so their buffers and threads are freed for submits.
  /// Invoked automatically when the job queue reaches its high-water mark;
  /// exposed for tests.  Returns the number of streams shed.
  std::size_t shed_watchers();

  /// MetricsRegistry snapshot (server gauges refreshed first) as one JSON
  /// object, for the metrics response.
  std::string metrics_json() const;

  /// Same snapshot in Prometheus text exposition format, for GET /metrics.
  std::string metrics_prometheus() const;

  /// Lock-free readiness probe for GET /readyz.  Answers even while start()
  /// holds mu_ for the journal recovery scan, which is exactly when a load
  /// balancer most needs the "not ready yet" signal.
  struct Readiness {
    bool ready = false;
    std::string reason;  ///< why not, when !ready
  };
  Readiness readiness() const;

  telemetry::MetricsRegistry& metrics() { return metrics_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::uint64_t client = 0;  ///< submitting connection, for quota release
    SubmitRequest spec;
    std::string submit_line;  ///< spec re-serialized once, for the journal
    std::string circuit_name;  ///< what snapshots and traces report
    /// Built at submit, and at recovery only for a job that still runs.
    std::unique_ptr<Circuit> circuit;
    JobState state = JobState::Queued;
    std::optional<Checkpoint> cp;  ///< present between slices
    StopToken cancel;
    telemetry::RunTelemetry telem;  ///< streams to watchers via callback
    TestGenResult result;           ///< valid once terminal
    std::string error;
    unsigned slices = 0;
    // Progress as of the last slice boundary (status while running).
    std::size_t last_vectors = 0;
    std::size_t last_evals = 0;
    double last_coverage = 0.0;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point finished;
    std::uint64_t root_span = 0;  ///< trace span the whole job hangs under
    bool started_once = false;
    bool terminal() const {
      return state == JobState::Done || state == JobState::Cancelled ||
             state == JobState::Failed;
    }
  };

  void worker_loop(telemetry::Gauge& busy);
  /// Run one slice of `job` (mu_ NOT held); requeues or finalizes it.
  void run_slice(Job& job);
  /// Mark `job` terminal and emit job_done (mu_ held by caller).
  void finalize(Job& job, JobState state, std::unique_lock<std::mutex>& lk);

  /// Emit a lifecycle event through the job's sink, which publishes it to
  /// watchers and (when a server trace is configured) forwards it there too.
  void job_event(Job& job, std::string_view type,
                 std::initializer_list<telemetry::TraceField> fields);
  /// Open a job's trace sink: watcher callback, trace id, forward sink, and
  /// the root span (opened with a `root_type` event).  mu_ held by caller.
  void open_job_trace_locked(Job& job, std::string_view root_type,
                             std::initializer_list<telemetry::TraceField>
                                 root_fields);
  /// Deliver one wrapped line to every subscription watching `job_id`.
  void publish(std::uint64_t job_id, const std::string& line);

  JobSnapshot snapshot_locked(const Job& job) const;
  void refresh_gauges_locked() const;

  /// Journal image of a job's current state (mu_ held by caller).
  JournalRecord record_locked(const Job& job) const;
  /// Persist the job's current state; throws=false swallows I/O failure
  /// into a log line + metric (slice/terminal records are an optimization —
  /// re-running from an older checkpoint is still bit-identical).
  void journal_update_locked(const Job& job, bool throws);
  /// Rebuild jobs from the state dir (start(), before workers launch).
  void recover_from_journal_locked();

  ServeConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
  std::deque<std::uint64_t> queue_;
  std::vector<std::thread> workers_;
  std::uint64_t next_id_ = 1;
  unsigned active_ = 0;
  bool started_ = false;
  bool stop_ = false;
  std::chrono::steady_clock::time_point start_time_;

  // Lock-free mirrors of the lifecycle/overload state for readiness(), which
  // must answer without touching mu_ (held across the whole recovery scan).
  std::atomic<bool> ready_started_{false};
  std::atomic<bool> ready_stopping_{false};
  std::atomic<bool> ready_recovering_{false};
  std::atomic<bool> ready_shedding_{false};

  Journal journal_;
  /// Non-terminal job count per client id (quota accounting).
  std::map<std::uint64_t, std::size_t> client_active_;
  bool watchers_shed_ = false;  ///< rearms when the queue drains below cap

  std::mutex subs_mu_;
  std::vector<std::shared_ptr<Subscription>> subs_;

  mutable telemetry::MetricsRegistry metrics_;
  telemetry::TraceSink server_trace_;
};

}  // namespace gatest::serve
