#include "serve/scheduler.h"

#include <algorithm>
#include <cstdio>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"
#include "sim/logic.h"

namespace gatest::serve {

using telemetry::TraceField;
using telemetry::TraceValue;

namespace {

/// The name parse_bench_string gives a submitted .bench netlist.
std::string bench_name(const SubmitRequest& req) {
  return req.name.empty() ? "bench" : req.name;
}

/// Build the circuit a submit request names: a profile or inline .bench.
std::unique_ptr<Circuit> build_circuit(const SubmitRequest& req) {
  return std::make_unique<Circuit>(
      req.profile.empty() ? parse_bench_string(req.bench_text, bench_name(req))
                          : benchmark_circuit(req.profile));
}

}  // namespace

const char* to_string(JobState s) {
  switch (s) {
    case JobState::Queued:    return "queued";
    case JobState::Running:   return "running";
    case JobState::Done:      return "done";
    case JobState::Cancelled: return "cancelled";
    case JobState::Failed:    return "failed";
  }
  return "?";
}

// ---- Subscription -----------------------------------------------------------

void Subscription::push(const std::string& line) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return;
    if (lines_.size() >= kMaxQueuedLines) {
      lines_.pop_front();
      ++dropped_;
    }
    lines_.push_back(line);
  }
  cv_.notify_one();
}

void Subscription::close() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }
  cv_.notify_all();
}

bool Subscription::pop(std::string& line, double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
               [this] { return closed_ || !lines_.empty(); });
  if (lines_.empty()) {
    line.clear();
    return false;
  }
  line = std::move(lines_.front());
  lines_.pop_front();
  return true;
}

bool Subscription::closed_and_drained() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_ && lines_.empty();
}

std::uint64_t Subscription::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

// ---- JobManager lifecycle ---------------------------------------------------

JobManager::JobManager(ServeConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.workers == 0) cfg_.workers = 1;
}

JobManager::~JobManager() { shutdown(); }

void JobManager::start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return;
  started_ = true;
  start_time_ = std::chrono::steady_clock::now();
  if (!cfg_.trace_path.empty()) server_trace_.open(cfg_.trace_path);
  if (!cfg_.state_dir.empty()) {
    journal_.open(cfg_.state_dir);  // throws on an unusable directory
    ready_recovering_.store(true, std::memory_order_relaxed);
    recover_from_journal_locked();
    ready_recovering_.store(false, std::memory_order_relaxed);
  }
  metrics_.gauge("serve.workers").set(static_cast<double>(cfg_.workers));
  workers_.reserve(cfg_.workers);
  for (unsigned i = 0; i < cfg_.workers; ++i) {
    metrics_.gauge("serve.worker." + std::to_string(i) + ".busy").set(0.0);
    workers_.emplace_back([this, i] {
      telemetry::Gauge& busy =
          metrics_.gauge("serve.worker." + std::to_string(i) + ".busy");
      worker_loop(busy);
    });
  }
  ready_started_.store(true, std::memory_order_relaxed);
}

void JobManager::shutdown() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    if (stop_) return;
    stop_ = true;
    ready_stopping_.store(true, std::memory_order_relaxed);
    // Cancel everything still in flight: queued jobs terminate here, running
    // jobs get their stop token tripped and finalize in their worker.
    queue_.clear();
    for (auto& [id, job] : jobs_) {
      if (job->state == JobState::Queued) {
        finalize(*job, JobState::Cancelled, lk);
      } else if (job->state == JobState::Running) {
        job->cancel.request_stop();
      }
    }
    refresh_gauges_locked();
  }
  cv_.notify_all();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    for (auto& s : subs_) s->close();
    subs_.clear();
  }
  server_trace_.close();
}

bool JobManager::shutting_down() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stop_;
}

// ---- submit / cancel --------------------------------------------------------

std::uint64_t JobManager::submit(const SubmitRequest& req, ProtocolError& err,
                                 std::uint64_t client) {
  // Build the circuit outside the lock; this is the expensive, fallible part.
  std::unique_ptr<Circuit> circuit;
  try {
    circuit = build_circuit(req);
  } catch (const std::exception& e) {
    err = {"bad-field", e.what()};
    return 0;
  }

  std::unique_lock<std::mutex> lk(mu_);
  if (stop_) {
    err = {"shutting-down", "server is shutting down"};
    return 0;
  }
  if (cfg_.max_jobs_per_client > 0 && client != 0) {
    const auto it = client_active_.find(client);
    if (it != client_active_.end() &&
        it->second >= cfg_.max_jobs_per_client) {
      metrics_.counter("serve.quota_rejections").add();
      err = {"quota-exceeded",
             "client holds " + std::to_string(it->second) +
                 " unfinished jobs (limit " +
                 std::to_string(cfg_.max_jobs_per_client) + ")",
             cfg_.retry_after_ms};
      return 0;
    }
  }
  if (cfg_.max_queued_jobs > 0 && queue_.size() >= cfg_.max_queued_jobs) {
    // Graceful degradation ladder: shed watch streams first (their buffers
    // and connection threads are the cheap load), then refuse the submit
    // with a backoff hint.  Shedding rearms once the queue drains.
    if (!watchers_shed_) {
      watchers_shed_ = true;
      ready_shedding_.store(true, std::memory_order_relaxed);
      shed_watchers();
    }
    metrics_.counter("serve.overload_rejections").add();
    err = {"overloaded",
           "job queue is full (" + std::to_string(queue_.size()) +
               " queued, cap " + std::to_string(cfg_.max_queued_jobs) + ")",
           cfg_.retry_after_ms};
    return 0;
  }
  watchers_shed_ = false;
  ready_shedding_.store(false, std::memory_order_relaxed);
  const std::uint64_t id = next_id_;
  auto job = std::make_unique<Job>();
  Job& j = *job;
  j.id = id;
  j.client = client;
  j.spec = req;
  j.submit_line = submit_json(req);
  j.circuit_name = circuit->name();
  j.circuit = std::move(circuit);
  j.submitted = std::chrono::steady_clock::now();
  // Durable ack: with a journal, the job exists only once its record is
  // fsynced.  On failure the submit is rejected so the client retries — an
  // acknowledged job can never be lost to a crash.
  if (journal_.enabled()) {
    try {
      journal_.write(record_locked(j));
    } catch (const std::exception& e) {
      metrics_.counter("serve.journal_write_failures").add();
      err = {"journal-error", e.what(), cfg_.retry_after_ms};
      return 0;
    }
  }
  next_id_ = id + 1;
  if (client != 0) ++client_active_[client];
  jobs_.emplace(id, std::move(job));
  queue_.push_back(id);
  metrics_.counter("serve.jobs_submitted").add();
  refresh_gauges_locked();
  open_job_trace_locked(
      j, "job_submit",
      {{"job", TraceValue(static_cast<unsigned long long>(id))},
       {"name", TraceValue(j.spec.name)},
       {"circuit", TraceValue(j.circuit_name)},
       {"queue_depth",
        TraceValue(static_cast<unsigned long long>(queue_.size()))}});
  lk.unlock();
  cv_.notify_one();
  return id;
}

void JobManager::open_job_trace_locked(
    Job& job, std::string_view root_type,
    std::initializer_list<telemetry::TraceField> root_fields) {
  // Stream every trace event the generator emits for this job (and our own
  // lifecycle events) to watch subscribers, wrapped with the job id.
  const std::uint64_t id = job.id;
  job.telem.trace.open([this, id](const std::string& line) {
    std::string wrapped = "{\"job\":" + std::to_string(id) + ",";
    if (line.size() > 1) wrapped.append(line.data() + 1, line.size() - 1);
    publish(id, wrapped);
  });
  // Causal identity: events carry "trace":<job id>, and the whole job hangs
  // under one root span opened here — slices running on different workers
  // parent under it via set_root_span.  When the server trace is live, the
  // job sink tees everything there so the file holds the full span tree.
  job.telem.trace.set_trace_id(id);
  if (server_trace_.enabled())
    job.telem.trace.set_forward_sink(&server_trace_);
  job.root_span = job.telem.trace.begin_span(root_type, root_fields);
  job.telem.trace.set_root_span(job.root_span);
}

bool JobManager::cancel(std::uint64_t id, ProtocolError& err) {
  std::unique_lock<std::mutex> lk(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    err = {"unknown-job", "no job with id " + std::to_string(id)};
    return false;
  }
  Job& job = *it->second;
  if (job.terminal()) return true;  // idempotent
  job.cancel.request_stop();
  if (job.state == JobState::Queued) {
    queue_.erase(std::remove(queue_.begin(), queue_.end(), id), queue_.end());
    finalize(job, JobState::Cancelled, lk);
    refresh_gauges_locked();
  }
  // A Running job finalizes in its worker once the generator polls the token.
  return true;
}

// ---- worker loop ------------------------------------------------------------

void JobManager::worker_loop(telemetry::Gauge& busy) {
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      const std::uint64_t id = queue_.front();
      queue_.pop_front();
      job = jobs_.at(id).get();  // jobs_ entries are never erased
      job->state = JobState::Running;
      ++active_;
      refresh_gauges_locked();
      if (!job->started_once) {
        job->started_once = true;
        job_event(*job, "job_start",
                  {{"job", TraceValue(static_cast<unsigned long long>(id))},
                   {"circuit", TraceValue(job->circuit_name)}});
      }
    }
    busy.set(1.0);
    run_slice(*job);
    busy.set(0.0);
  }
}

void JobManager::run_slice(Job& job) {
  // Each slice rebuilds the run from the job's checkpoint: fresh fault list
  // and generator, committed vectors replayed, RNG continued from the last
  // commit boundary.  That makes slices independent of worker identity and
  // interleaving — the determinism argument in DESIGN.md §5.3.
  TestGenResult r;
  std::string error;
  std::optional<Checkpoint> next_cp;
  try {
    FaultList faults(*job.circuit);
    GaTestGenerator gen(*job.circuit, faults, job.spec.config);
    RunControl ctrl;
    ctrl.budget = job.spec.budget;
    ctrl.stop = &job.cancel;
    gen.set_run_control(ctrl);
    gen.set_telemetry(&job.telem);
    if (job.cp) gen.restore_from_checkpoint(*job.cp);
    if (cfg_.slice_seconds > 0.0) gen.set_slice_limit(cfg_.slice_seconds);
    r = gen.run();
    if (r.stop_reason == StopReason::SliceStop) next_cp = gen.make_checkpoint();
  } catch (const std::exception& e) {
    // restore_from_checkpoint / construction failures; run() itself reports
    // errors through stop_reason = Error.
    r.stop_reason = StopReason::Error;
    error = e.what();
  }
  if (r.stop_reason == StopReason::Error && error.empty())
    error = r.error_message;

  std::unique_lock<std::mutex> lk(mu_);
  --active_;
  ++job.slices;
  job.last_vectors = next_cp ? next_cp->test_set.size() : r.test_set.size();
  job.last_evals = next_cp ? next_cp->fitness_evaluations
                           : r.fitness_evaluations;
  job.last_coverage = r.fault_coverage;

  if (r.stop_reason == StopReason::SliceStop && !stop_) {
    metrics_.counter("serve.slice_preemptions").add();
    job_event(job, "slice_stop",
              {{"job", TraceValue(static_cast<unsigned long long>(job.id))},
               {"slice",
                TraceValue(static_cast<unsigned long long>(job.slices))},
               {"vectors", TraceValue(static_cast<unsigned long long>(
                               job.last_vectors))},
               {"evaluations", TraceValue(static_cast<unsigned long long>(
                                   job.last_evals))},
               {"coverage", TraceValue(r.fault_coverage)}});
    job.cp = std::move(next_cp);
    job.state = JobState::Queued;
    journal_update_locked(job, /*throws=*/false);
    queue_.push_back(job.id);  // back of the line: round-robin fair share
    refresh_gauges_locked();
    lk.unlock();
    cv_.notify_one();
    return;
  }

  job.result = std::move(r);
  job.error = std::move(error);
  job.cp.reset();
  JobState final_state = JobState::Done;
  if (job.result.stop_reason == StopReason::Error)
    final_state = JobState::Failed;
  else if (job.result.stop_reason == StopReason::Interrupted ||
           (stop_ && job.result.stop_reason == StopReason::SliceStop))
    final_state = JobState::Cancelled;
  finalize(job, final_state, lk);
  refresh_gauges_locked();
}

void JobManager::finalize(Job& job, JobState state,
                          std::unique_lock<std::mutex>& lk) {
  (void)lk;  // documents that mu_ must be held
  job.state = state;
  job.finished = std::chrono::steady_clock::now();
  if (job.client != 0) {
    const auto it = client_active_.find(job.client);
    if (it != client_active_.end() && --it->second == 0)
      client_active_.erase(it);
  }
  // Make the terminal state durable — except for shutdown-path
  // cancellations, whose on-disk record deliberately stays "queued" (with
  // the last slice checkpoint) so the next start() resumes the work instead
  // of reporting it cancelled.
  if (!(stop_ && state == JobState::Cancelled))
    journal_update_locked(job, /*throws=*/false);
  const double seconds =
      std::chrono::duration<double>(job.finished - job.submitted).count();
  switch (state) {
    case JobState::Done:
      metrics_.counter("serve.jobs_done").add();
      // Time from submit to final coverage, including queue wait — the
      // latency a client actually experiences.  p95 comes out in the
      // metrics snapshot.
      metrics_.histogram("serve.time_to_coverage_s").observe(seconds);
      break;
    case JobState::Cancelled:
      metrics_.counter("serve.jobs_cancelled").add();
      break;
    case JobState::Failed:
      metrics_.counter("serve.jobs_failed").add();
      break;
    default:
      break;
  }
  // job_done closes the job's root span, completing the trace's span tree.
  job.telem.trace.end_span(
      job.root_span, "job_done",
      {{"job", TraceValue(static_cast<unsigned long long>(job.id))},
       {"state", TraceValue(to_string(state))},
       {"vectors", TraceValue(static_cast<unsigned long long>(
                       job.result.test_set.size()))},
       {"coverage", TraceValue(job.result.fault_coverage)},
       {"evaluations", TraceValue(static_cast<unsigned long long>(
                           job.result.fitness_evaluations))},
       {"slices", TraceValue(static_cast<unsigned long long>(job.slices))},
       {"seconds", TraceValue(seconds)}});
  job.telem.trace.close();
  // Close per-job watch streams; watch-all streams stay open.
  std::lock_guard<std::mutex> slock(subs_mu_);
  for (auto& s : subs_)
    if (!s->wants(0) && s->wants(job.id)) s->close();
}

// ---- events -----------------------------------------------------------------

void JobManager::job_event(
    Job& job, std::string_view type,
    std::initializer_list<telemetry::TraceField> fields) {
  // One emission path: the job's sink publishes to watchers through its
  // LineCallback and tees into the server trace through its forward sink —
  // writing the server trace here as well would duplicate the line.
  if (job.telem.trace.enabled()) {
    job.telem.trace.event(type, fields);
  } else if (server_trace_.enabled()) {
    server_trace_.event(type, fields);  // job sink already closed
  }
}

void JobManager::publish(std::uint64_t job_id, const std::string& line) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  for (auto& s : subs_)
    if (s->wants(job_id)) s->push(line);
}

// ---- queries ----------------------------------------------------------------

JobSnapshot JobManager::snapshot_locked(const Job& job) const {
  JobSnapshot s;
  s.id = job.id;
  s.name = job.spec.name;
  s.circuit = job.circuit_name;
  s.state = job.state;
  s.slices = job.slices;
  s.error = job.error;
  const auto until = job.terminal() ? job.finished
                                    : std::chrono::steady_clock::now();
  s.seconds = std::chrono::duration<double>(until - job.submitted).count();
  if (job.terminal()) {
    s.vectors = job.result.test_set.size();
    s.evaluations = job.result.fitness_evaluations;
    s.coverage = job.result.fault_coverage;
  } else {
    s.vectors = job.last_vectors;
    s.evaluations = job.last_evals;
    s.coverage = job.last_coverage;
  }
  return s;
}

bool JobManager::snapshot(std::uint64_t id, JobSnapshot& out,
                          ProtocolError& err) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    err = {"unknown-job", "no job with id " + std::to_string(id)};
    return false;
  }
  out = snapshot_locked(*it->second);
  return true;
}

std::vector<JobSnapshot> JobManager::snapshot_all() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<JobSnapshot> out;
  out.reserve(jobs_.size());
  for (const auto& [id, job] : jobs_) out.push_back(snapshot_locked(*job));
  return out;
}

bool JobManager::result(std::uint64_t id, JobSnapshot& snap,
                        std::vector<std::string>& vectors,
                        ProtocolError& err) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) {
    err = {"unknown-job", "no job with id " + std::to_string(id)};
    return false;
  }
  const Job& job = *it->second;
  if (!job.terminal()) {
    err = {"not-done", "job " + std::to_string(id) + " is " +
                           to_string(job.state)};
    return false;
  }
  snap = snapshot_locked(job);
  vectors.clear();
  vectors.reserve(job.result.test_set.size());
  for (const TestVector& v : job.result.test_set)
    vectors.push_back(logic_string(v));
  return true;
}

std::shared_ptr<Subscription> JobManager::watch(bool has_id, std::uint64_t id,
                                                ProtocolError& err) {
  auto sub = std::make_shared<Subscription>(!has_id, id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Degraded mode: a saturated queue means watch streams are being shed,
    // so refuse new ones until the backlog drains — submits keep priority.
    if (cfg_.max_queued_jobs > 0 && queue_.size() >= cfg_.max_queued_jobs) {
      err = {"overloaded",
             "server is overloaded; watch streams are temporarily disabled",
             cfg_.retry_after_ms};
      return nullptr;
    }
    if (has_id) {
      const auto it = jobs_.find(id);
      if (it == jobs_.end()) {
        err = {"unknown-job", "no job with id " + std::to_string(id)};
        return nullptr;
      }
      if (it->second->terminal()) {
        sub->close();  // nothing more will happen; client sees EOF
        return sub;
      }
    } else if (stop_) {
      sub->close();
    }
  }
  std::lock_guard<std::mutex> lock(subs_mu_);
  subs_.push_back(sub);
  return sub;
}

void JobManager::unsubscribe(const std::shared_ptr<Subscription>& sub) {
  std::lock_guard<std::mutex> lock(subs_mu_);
  subs_.erase(std::remove(subs_.begin(), subs_.end(), sub), subs_.end());
}

std::size_t JobManager::shed_watchers() {
  std::vector<std::shared_ptr<Subscription>> shed;
  {
    std::lock_guard<std::mutex> lock(subs_mu_);
    shed.swap(subs_);
  }
  for (auto& s : shed) s->close();  // clients see a clean watch_end
  if (!shed.empty()) {
    metrics_.counter("serve.watchers_shed").add(shed.size());
    std::fprintf(stderr, "gatest_serve: overload: shed %zu watch stream(s)\n",
                 shed.size());
  }
  return shed.size();
}

// ---- durability (job journal) -----------------------------------------------

JournalRecord JobManager::record_locked(const Job& job) const {
  JournalRecord rec;
  rec.id = job.id;
  rec.submit_line = job.submit_line;
  rec.slices = job.slices;
  if (job.terminal()) {
    rec.state = job.state == JobState::Done        ? "done"
                : job.state == JobState::Cancelled ? "cancelled"
                                                   : "failed";
    rec.evaluations = job.result.fitness_evaluations;
    rec.coverage = job.result.fault_coverage;
    rec.error = job.error;
    rec.vectors.reserve(job.result.test_set.size());
    for (const TestVector& v : job.result.test_set)
      rec.vectors.push_back(logic_string(v));
  } else {
    // Running is recorded as queued: after a crash a half-finished slice is
    // indistinguishable from one that never started, and replaying it from
    // the checkpoint yields the same bits.
    rec.state = "queued";
    rec.evaluations = job.last_evals;
    rec.coverage = job.last_coverage;
    if (job.cp) {
      std::ostringstream os;
      job.cp->write(os);
      rec.checkpoint_text = os.str();
    }
  }
  return rec;
}

void JobManager::journal_update_locked(const Job& job, bool throws) {
  if (!journal_.enabled()) return;
  try {
    journal_.write(record_locked(job));
  } catch (const std::exception& e) {
    metrics_.counter("serve.journal_write_failures").add();
    if (throws) throw;
    // Losing a slice/terminal record costs redone work after a crash, never
    // correctness: recovery replays from the previous record, and the
    // determinism invariant yields the same final test set.
    std::fprintf(stderr,
                 "gatest_serve: journal update for job %llu failed: %s\n",
                 static_cast<unsigned long long>(job.id), e.what());
  }
}

void JobManager::recover_from_journal_locked() {
  Journal::ScanResult scan;
  try {
    scan = journal_.scan();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gatest_serve: journal scan failed: %s\n", e.what());
    return;
  }
  metrics_.counter("serve.journal_corrupt_records")
      .add(static_cast<std::uint64_t>(scan.corrupt));
  for (JournalRecord& rec : scan.records) {
    try {
      Request req;
      ProtocolError perr;
      if (!parse_request(rec.submit_line, req, perr) ||
          req.cmd != Command::Submit)
        throw std::runtime_error("journalled spec rejected: " + perr.message);
      auto job = std::make_unique<Job>();
      Job& j = *job;
      j.id = rec.id;
      j.spec = req.submit;
      j.submit_line = rec.submit_line;
      // A finished job only reports its circuit's name, so only a job that
      // will run again pays for building the circuit.
      j.circuit_name =
          j.spec.profile.empty() ? bench_name(j.spec) : j.spec.profile;
      j.submitted = std::chrono::steady_clock::now();
      j.slices = rec.slices;
      if (rec.state == "queued") {
        j.circuit = build_circuit(j.spec);
        if (!rec.checkpoint_text.empty()) {
          try {
            std::istringstream cs(rec.checkpoint_text);
            Checkpoint cp = Checkpoint::read(cs);
            if (cp.circuit_name != j.circuit_name)
              throw std::runtime_error("checkpoint is for circuit '" +
                                       cp.circuit_name + "'");
            if (cp.seed != j.spec.config.seed)
              throw std::runtime_error("checkpoint seed mismatch");
            j.last_vectors = cp.test_set.size();
            j.last_evals = cp.fitness_evaluations;
            j.cp = std::move(cp);
          } catch (const std::exception& e) {
            // Version skew or corruption inside the embedded checkpoint:
            // requeue from scratch.  Determinism makes that safe — the
            // final test set is the same whether the job resumes mid-way
            // or replays from vector 0.
            std::fprintf(stderr,
                         "gatest_serve: job %llu: discarding checkpoint "
                         "(%s); restarting from scratch\n",
                         static_cast<unsigned long long>(rec.id), e.what());
            metrics_.counter("serve.checkpoints_discarded").add();
          }
        }
        open_job_trace_locked(
            j, "job_recover",
            {{"job", TraceValue(static_cast<unsigned long long>(j.id))},
             {"circuit", TraceValue(j.circuit_name)},
             {"vectors",
              TraceValue(static_cast<unsigned long long>(j.last_vectors))},
             {"slices",
              TraceValue(static_cast<unsigned long long>(j.slices))}});
        queue_.push_back(j.id);
      } else {
        // Terminal record: restore the snapshot and result so status/result
        // keep answering for this job across restarts.
        j.started_once = true;
        j.error = rec.error;
        j.result.fault_coverage = rec.coverage;
        j.result.fitness_evaluations = rec.evaluations;
        j.result.test_set.reserve(rec.vectors.size());
        for (const std::string& v : rec.vectors)
          j.result.test_set.push_back(logic_vector(v));
        if (rec.state == "done") {
          j.state = JobState::Done;
          j.result.stop_reason = StopReason::Completed;
        } else if (rec.state == "cancelled") {
          j.state = JobState::Cancelled;
          j.result.stop_reason = StopReason::Interrupted;
        } else {
          j.state = JobState::Failed;
          j.result.stop_reason = StopReason::Error;
        }
        j.finished = j.submitted;
      }
      next_id_ = std::max(next_id_, j.id + 1);
      jobs_.emplace(j.id, std::move(job));
      metrics_.counter("serve.jobs_recovered").add();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gatest_serve: cannot recover job %llu: %s\n",
                   static_cast<unsigned long long>(rec.id), e.what());
      metrics_.counter("serve.journal_corrupt_records").add();
    }
  }
  if (!scan.records.empty() || scan.corrupt > 0)
    std::fprintf(stderr,
                 "gatest_serve: recovered %zu job(s) from '%s' (%zu queued, "
                 "%zu corrupt record(s) quarantined)\n",
                 jobs_.size(), journal_.dir().c_str(), queue_.size(),
                 scan.corrupt);
  refresh_gauges_locked();
}

void JobManager::refresh_gauges_locked() const {
  metrics_.gauge("serve.queue_depth").set(static_cast<double>(queue_.size()));
  metrics_.gauge("serve.active_jobs").set(static_cast<double>(active_));
  std::size_t done = 0;
  for (const auto& [id, job] : jobs_)
    if (job->terminal()) ++done;
  metrics_.gauge("serve.jobs_terminal").set(static_cast<double>(done));
  metrics_.gauge("serve.jobs_total").set(static_cast<double>(jobs_.size()));
  if (started_)
    metrics_.gauge("serve.uptime_seconds")
        .set(std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                           start_time_)
                 .count());
}

std::string JobManager::metrics_json() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_gauges_locked();
  }
  std::ostringstream os;
  metrics_.write_json(os);
  std::string json = os.str();
  // write_json ends with a newline; the snapshot gets spliced into a
  // single-line response, so strip trailing whitespace.
  while (!json.empty() && (json.back() == '\n' || json.back() == '\r' ||
                           json.back() == ' '))
    json.pop_back();
  return json;
}

std::string JobManager::metrics_prometheus() const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    refresh_gauges_locked();
  }
  std::ostringstream os;
  metrics_.render_prometheus(os);
  return os.str();
}

JobManager::Readiness JobManager::readiness() const {
  Readiness r;
  if (ready_stopping_.load(std::memory_order_relaxed)) {
    r.reason = "shutting-down";
    return r;
  }
  if (ready_recovering_.load(std::memory_order_relaxed)) {
    r.reason = "journal-recovery";
    return r;
  }
  if (!ready_started_.load(std::memory_order_relaxed)) {
    r.reason = "starting";
    return r;
  }
  if (ready_shedding_.load(std::memory_order_relaxed)) {
    r.reason = "overloaded";
    return r;
  }
  r.ready = true;
  return r;
}

void append_job_json(JsonWriter& w, const JobSnapshot& s) {
  w.begin_object()
      .key("id").value(static_cast<std::uint64_t>(s.id))
      .key("name").value(s.name)
      .key("circuit").value(s.circuit)
      .key("state").value(to_string(s.state))
      .key("slices").value(static_cast<std::uint64_t>(s.slices))
      .key("vectors").value(static_cast<std::uint64_t>(s.vectors))
      .key("evaluations").value(static_cast<std::uint64_t>(s.evaluations))
      .key("coverage").value(s.coverage)
      .key("seconds").value(s.seconds);
  if (!s.error.empty()) w.key("error").value(s.error);
  w.end_object();
}

}  // namespace gatest::serve
