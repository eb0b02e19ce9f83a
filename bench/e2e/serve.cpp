// serve_mixed: an in-process gatest_serve (serve::Server on 127.0.0.1, 4
// workers, the daemon's default 250 ms slice, a journal in a fresh state
// dir) driven over loopback TCP by one load-generator thread that submits on
// one connection and watches every job on a second.
//
// The load is an open loop: job i of a step is due at i/rate, whatever the
// server is doing, and its latency is timed from that due time.  Two fixed
// steps, `mid` (0.5 C) and `high` (0.75 C), of 50 jobs each, where C is the
// burst capacity of this mix measured once on the calibration machine
// (README.md); the queue drains between steps.  Seven of
// every eight jobs are short (s298, s344, or an inline circuitgen
// s344-shaped netlist); every eighth is long (s526, alternating with s820)
// and outlasts a slice, so the run exercises preemption, checkpoint restore,
// discarded partial GA work, journal fsyncs and queue wait.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "circuitgen/circuitgen.h"
#include "e2e.h"
#include "fault/fault.h"
#include "fsim/backend.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "serve/client.h"
#include "serve/journal.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "util/net.h"

namespace e2e {

namespace {

namespace serve = gatest::serve;
using gatest::telemetry::JsonValue;
using gatest::telemetry::parse_json;

// ---- frozen calibration (README.md, "Calibration") ------------------------
constexpr unsigned kWorkers = 4;
constexpr double kSliceSeconds = 0.25;  // gatest_serve's default slice
/// 50 jobs per step keep a run near 20 s; 100 per step took about 32 s.
constexpr std::size_t kJobsPerStep = 50;
/// Burst capacity C of this job mix (median of five 160-job bursts).  The
/// steps sit at 0.5 C and 0.75 C: nearer saturation, latency swings with the
/// VM's own speed more than with the code under test.
constexpr double kBurstCapacity = 12.4;  // jobs/s
constexpr double kMidRate = 0.5 * kBurstCapacity;
constexpr double kHighRate = 0.75 * kBurstCapacity;
constexpr double kLatencyLimitS = 2.5;  // p80 limit L for serve.max_ok_rate
constexpr std::size_t kShortEvals = 3000;
constexpr std::size_t kLongS526Evals = 8000;
constexpr std::size_t kLongS820Evals = 12000;
/// A schedule whose generator sent any job later than this after its due
/// time measured a different load than the one specified.  It is run again,
/// up to kScheduleAttempts times in all, and the run is invalid only when
/// every attempt was late.  2 of the 73 schedules run while calibrating were
/// late, none twice in a row.
constexpr double kMaxGeneratorLateS = 0.050;
constexpr int kScheduleAttempts = 3;

struct Step {
  const char* name;
  double rate;
  std::size_t jobs;
};

std::vector<Step> steps_for(bool smoke) {
  if (smoke) return {{"mid", 40.0, 8}, {"high", 60.0, 8}};
  return {{"mid", kMidRate, kJobsPerStep}, {"high", kHighRate, kJobsPerStep}};
}

struct JobSpec {
  std::string name;
  std::string profile;  ///< benchmark profile, or empty for an inline netlist
  std::string bench;    ///< inline .bench text
  std::uint64_t seed = 0;
  std::size_t max_evals = 0;
  std::string submit_line;
};

/// The job mix; job k runs with seed S+k.
std::vector<JobSpec> make_jobs(std::uint64_t seed, std::size_t count,
                               bool smoke) {
  std::vector<JobSpec> jobs;
  std::size_t shorts = 0, longs = 0;
  for (std::size_t k = 0; k < count; ++k) {
    JobSpec j;
    j.seed = seed + k;
    std::string circuit;
    if (k % 8 == 7) {
      const bool s526 = longs++ % 2 == 0;
      circuit = smoke ? "s298" : (s526 ? "s526" : "s820");
      j.profile = circuit;
      j.max_evals = smoke ? 2000 : (s526 ? kLongS526Evals : kLongS820Evals);
    } else {
      const std::size_t kind = shorts++ % 3;
      j.max_evals = smoke ? 800 : kShortEvals;
      if (kind == 2) {
        circuit = "gen-s344";
        j.bench = gatest::write_bench_string(gatest::generate_circuit(
            gatest::profile_by_name("s344"), j.seed));
      } else {
        circuit = kind == 0 ? "s298" : "s344";
        j.profile = circuit;
      }
    }
    char idx[32];
    std::snprintf(idx, sizeof idx, "j%03zu-", k);
    j.name = idx + circuit;

    serve::JsonWriter w;
    w.begin_object().key("cmd").value("submit").key("name").value(j.name);
    if (j.profile.empty()) w.key("bench").value(j.bench);
    else w.key("profile").value(j.profile);
    w.key("config").begin_object()
        .key("seed").value(static_cast<std::uint64_t>(j.seed))
    .end_object();
    w.key("budget").begin_object()
        .key("max_evals").value(static_cast<std::uint64_t>(j.max_evals))
    .end_object();
    w.end_object();
    j.submit_line = w.take();
    jobs.push_back(std::move(j));
  }
  return jobs;
}

gatest::Circuit build_circuit(const JobSpec& j) {
  return j.profile.empty() ? gatest::parse_bench_string(j.bench, j.name)
                           : gatest::benchmark_circuit(j.profile);
}

/// What the load generator saw of one job.
struct Tracked {
  std::uint64_t id = 0;
  std::size_t step = 0;
  double due = 0.0;
  double sent = -1.0;
  double rtt = 0.0;
  double done = -1.0;
  std::string state;
  unsigned slices = 0;
  std::size_t evaluations = 0;
  double coverage = 0.0;  ///< as the server reported it
  std::vector<std::string> vectors;
};

struct ScheduleResult {
  std::vector<Tracked> jobs;
  std::vector<double> step_last_due;
  double first_due = 0.0;
  double last_done = 0.0;
  double gen_late_max = 0.0;
  double cpu_s = 0.0;
  std::size_t watch_fallbacks = 0;  ///< terminal states learned by polling
  LayerTotals layers;               ///< traced schedules only
  std::vector<double> journal_write_ms;
};

/// Server running its accept loop on a thread of its own; stopped and joined
/// on destruction.
class RunningServer {
 public:
  explicit RunningServer(serve::ServerConfig cfg)
      : server_(std::make_unique<serve::Server>(std::move(cfg))) {
    server_->start();
  }
  ~RunningServer() { stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  unsigned short port() const { return server_->port(); }
  void serve_in_background() {
    thread_ = std::thread([this] { server_->run(); });
  }
  void stop() {
    if (!server_) return;
    server_->request_stop();
    if (thread_.joinable()) thread_.join();
    server_.reset();
  }

 private:
  std::unique_ptr<serve::Server> server_;
  std::thread thread_;
};

serve::ServerConfig server_config(const std::string& state_dir,
                                  const std::string& trace_path) {
  serve::ServerConfig cfg;
  cfg.host = "127.0.0.1";
  cfg.port = 0;
  cfg.serve.workers = kWorkers;
  cfg.serve.slice_seconds = kSliceSeconds;
  cfg.serve.state_dir = state_dir;
  cfg.serve.trace_path = trace_path;
  return cfg;
}

JsonValue roundtrip_json(gatest::TcpConnection& conn, const std::string& req) {
  std::string resp;
  if (!serve::roundtrip(conn, req, resp))
    throw std::runtime_error("connection to the server lost");
  return parse_json(resp);
}

bool ok(const JsonValue& v) {
  const JsonValue* o = v.find("ok");
  return o && o->type == JsonValue::Type::Bool && o->boolean;
}

/// Run the steps against one fresh server and fetch every job's result.  A
/// job whose submit was refused ends "rejected", one whose result could not
/// be fetched "no result"; verify() fails both.
ScheduleResult run_schedule(const std::vector<JobSpec>& specs,
                            const std::vector<Step>& steps,
                            const std::string& dir, bool traced,
                            SpanRecorder& spans) {
  namespace fs = std::filesystem;
  ScheduleResult out;
  const std::string state_dir = dir + "/state";
  const std::string trace_path = traced ? dir + "/serve-trace.jsonl" : "";
  fs::create_directories(dir);

  const int s_setup = spans.begin("serve.setup", 0);
  RunningServer server(server_config(state_dir, trace_path));
  spans.end(s_setup);
  server.serve_in_background();

  gatest::TcpConnection submit_conn = gatest::tcp_connect("127.0.0.1", server.port());
  gatest::TcpConnection watch_conn = gatest::tcp_connect("127.0.0.1", server.port());
  std::string line;
  if (!watch_conn.write_all("{\"cmd\":\"watch\"}\n") ||
      watch_conn.read_line(line, serve::kMaxRequestBytes) !=
          gatest::TcpConnection::ReadStatus::Ok ||
      !ok(parse_json(line)))
    throw std::runtime_error("watch request refused: " + line);

  const auto epoch = Clock::now();
  const auto now = [&epoch] { return seconds_between(epoch, Clock::now()); };
  std::map<std::uint64_t, std::size_t> index;  // job id -> position
  out.jobs.resize(specs.size());
  std::size_t terminal = 0;

  // The watch stream carries every event of every job; only job_done
  // matters here: it marks the job finished at the moment it is read.
  const auto on_watch_line = [&](const std::string& l, double t) {
    if (l.find("\"type\":\"job_done\"") == std::string::npos) return;
    const JsonValue e = parse_json(l);
    const auto it = index.find(static_cast<std::uint64_t>(e.number_or("job", 0)));
    if (it == index.end() || out.jobs[it->second].done >= 0.0) return;
    Tracked& j = out.jobs[it->second];
    j.done = t;
    j.state = e.string_or("state", "?");
    ++terminal;
  };
  // Read watch lines until `until` (seconds since epoch); false when no line
  // arrived before it.
  const auto pump = [&](double until) {
    bool any = false;
    for (;;) {
      const double left = until - now();
      if (left <= 0.0) return any;
      const auto rs = watch_conn.read_line(line, serve::kMaxRequestBytes,
                                           std::max(left, 1e-4));
      if (rs == gatest::TcpConnection::ReadStatus::Timeout) return any;
      if (rs != gatest::TcpConnection::ReadStatus::Ok)
        throw std::runtime_error("watch stream closed");
      on_watch_line(line, now());
      any = true;
    }
  };
  // Fallback when the watch stream stays quiet: ask for the state of every
  // job still outstanding (a watcher that lags far behind can lose lines).
  const auto poll_outstanding = [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      Tracked& j = out.jobs[k];
      if (j.done >= 0.0 || j.id == 0) continue;
      const JsonValue r = roundtrip_json(
          submit_conn, "{\"cmd\":\"status\",\"id\":" + std::to_string(j.id) + "}\n");
      const JsonValue* job = r.find("job");
      const std::string state = job ? job->string_or("state", "") : "";
      if (state == "done" || state == "failed" || state == "cancelled") {
        j.done = now();
        j.state = state;
        ++terminal;
        ++out.watch_fallbacks;
      }
    }
  };

  const double cpu0 = cpu_seconds();
  std::size_t k = 0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::size_t begin = k;
    const double t0 = now() + 0.05;
    for (std::size_t i = 0; i < steps[s].jobs; ++i, ++k) {
      Tracked& j = out.jobs[k];
      j.step = s;
      j.due = t0 + static_cast<double>(i) / steps[s].rate;
      pump(j.due);
      j.sent = now();
      out.gen_late_max = std::max(out.gen_late_max, j.sent - j.due);
      const int s_submit = spans.begin("serve.submit", k + 1);
      const JsonValue r = roundtrip_json(submit_conn, specs[k].submit_line);
      spans.end(s_submit);
      j.rtt = now() - j.sent;
      if (!ok(r)) {
        j.done = now();
        j.state = "rejected";
        ++terminal;
        continue;
      }
      j.id = static_cast<std::uint64_t>(r.number_or("id", 0));
      index[j.id] = k;
    }
    out.step_last_due.push_back(out.jobs[k - 1].due);
    // Drain: the next step starts only once this one's jobs are terminal.
    double quiet_since = now();
    while (terminal < k) {
      if (pump(now() + 0.5)) {
        quiet_since = now();
      } else if (now() - quiet_since > 0.5) {
        poll_outstanding(begin, k);
        quiet_since = now();
      }
      if (now() - out.jobs[k - 1].due > 120.0)
        throw std::runtime_error(std::string("step ") + steps[s].name +
                                 " did not drain within 120 s");
    }
  }
  out.cpu_s = cpu_seconds() - cpu0;
  out.first_due = out.jobs.front().due;
  for (const Tracked& j : out.jobs) out.last_done = std::max(out.last_done, j.done);

  for (std::size_t i = 0; i < out.jobs.size(); ++i) {
    Tracked& j = out.jobs[i];
    if (j.id == 0) continue;
    const int s_result = spans.begin("serve.result", i + 1);
    const JsonValue r = roundtrip_json(
        submit_conn, "{\"cmd\":\"result\",\"id\":" + std::to_string(j.id) + "}\n");
    spans.end(s_result);
    const JsonValue* job = r.find("job");
    const JsonValue* vectors = r.find("vectors");
    if (!ok(r) || !job || !vectors) {
      j.state = "no result";
      continue;
    }
    j.state = job->string_or("state", "?");
    j.slices = static_cast<unsigned>(job->number_or("slices", 0));
    j.evaluations = static_cast<std::size_t>(job->number_or("evaluations", 0));
    j.coverage = job->number_or("coverage", -1.0);
    for (const JsonValue& v : vectors->array) j.vectors.push_back(v.str);
  }
  submit_conn.close();
  watch_conn.close();
  server.stop();

  if (traced) {
    std::ifstream in(trace_path);
    for (std::string l; std::getline(in, l);)
      if (!l.empty()) out.layers.add_line(l);
    // Bench-timed journal writes of this workload's own records.
    serve::Journal scan_dir;
    scan_dir.open(state_dir);
    serve::Journal rewrite;
    rewrite.open(dir + "/journal-rewrite");
    for (const serve::JournalRecord& rec : scan_dir.scan().records) {
      const int s_journal = spans.begin("journal.write", rec.id);
      const auto t0 = Clock::now();
      rewrite.write(rec);
      out.journal_write_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      spans.end(s_journal);
    }
  }
  return out;
}

/// Per-job results of a schedule checked and summarized.
struct Verified {
  std::vector<UnitResult> units;
  std::vector<double> replay_s;  ///< bench-timed replay per job
  double netlist_s = 0.0, fault_s = 0.0, construct_s = 0.0;
};

/// Every job must end done, and its test set, replayed through a fresh
/// simulator, must reproduce the coverage the server reported.
Verified verify(const std::vector<JobSpec>& specs, const ScheduleResult& r,
                SpanRecorder& spans, Report& report) {
  Verified v;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& spec = specs[i];
    const Tracked& j = r.jobs[i];
    if (j.state != "done") {
      report.fail(spec.name + ": ended " + j.state + ", expected done");
      v.replay_s.push_back(0.0);
      continue;
    }
    const auto t0 = Clock::now();
    const gatest::Circuit c = build_circuit(spec);
    const auto t1 = Clock::now();
    gatest::FaultList faults(c);
    const auto t2 = Clock::now();
    gatest::TestGenConfig cfg;
    cfg.seed = spec.seed;
    { gatest::GaTestGenerator gen(c, faults, cfg); }
    const auto t3 = Clock::now();
    v.netlist_s += seconds_between(t0, t1);
    v.fault_s += seconds_between(t1, t2);
    v.construct_s += seconds_between(t2, t3);

    gatest::TestSequence tests;
    for (const std::string& s : j.vectors) tests.push_back(gatest::logic_vector(s));
    auto sim = gatest::make_fault_sim_backend(cfg.fsim_backend, c, faults);
    const int s_replay = spans.begin("fsim.replay", j.id);
    const auto t4 = Clock::now();
    sim->replay_committed(tests);
    v.replay_s.push_back(seconds_between(t4, Clock::now()));
    spans.end(s_replay);

    const double replayed = static_cast<double>(faults.num_detected()) /
                            static_cast<double>(faults.size());
    if (std::abs(replayed - j.coverage) > 1e-7)
      report.fail(spec.name + ": replay covers " + std::to_string(replayed) +
                  ", server reported " + std::to_string(j.coverage));

    UnitResult u;
    u.name = spec.name;
    u.seed = spec.seed;
    u.digest = test_set_digest(j.vectors);
    u.faults = faults.size();
    u.detected = faults.num_detected();
    u.vectors = j.vectors.size();
    u.evaluations = j.evaluations;
    u.latency_s = j.done - j.due;
    v.units.push_back(u);
  }
  return v;
}

std::vector<double> latencies(const ScheduleResult& r, int step) {
  std::vector<double> xs;
  for (const Tracked& j : r.jobs)
    if (step < 0 || j.step == static_cast<std::size_t>(step))
      xs.push_back(j.done - j.due);
  return xs;
}

/// Fault-simulator counters live in each job's private metrics registry,
/// which the server does not expose, so serve_mixed reports them as 0; the
/// single-threaded jobs have no parallel chunks either.
const char* const kUnobservedZeros[][2] = {
    {"fsim.candidate_evaluations", "count"}, {"fsim.frames_simulated", "count"},
    {"fsim.vectors_committed", "count"},     {"fsim.fault_groups", "count"},
    {"fsim.good_events", "count"},           {"fsim.faulty_events", "count"},
    {"fsim.packed_utilization", "ratio"},    {"fsim.frame_us", "us"},
    {"fsim.event_ns", "ns"},                 {"parallel.chunk_s", "s"},
    {"parallel.efficiency", "ratio"},        {"parallel.imbalance_p50", "ratio"},
    {"parallel.imbalance_max", "ratio"}};

void report_end_to_end(const ScheduleResult& r, const Verified& v,
                       const std::vector<double>& setups, Report& report) {
  std::size_t faults = 0, detected = 0, vectors = 0, evals = 0;
  for (const UnitResult& u : v.units) {
    faults += u.faults;
    detected += u.detected;
    vectors += u.vectors;
    evals += u.evaluations;
  }
  const double run_s = r.last_done - r.first_due;
  report.set("setup_s", median(setups), "s");
  report.set("run_s", run_s, "s");
  report.set("evals_per_s", ratio(static_cast<double>(evals), run_s), "1/s");
  report.set("latency_p50_s", median(latencies(r, -1)), "s");
  report.set("coverage", ratio(static_cast<double>(detected),
                               static_cast<double>(faults)), "ratio");
  report.set("test_length", static_cast<double>(vectors), "vectors");
  report.set("peak_rss_mb", peak_rss_mb(), "MB");
}

/// setup_s samples: Server construct + start() on the state dir a finished
/// schedule left behind, so start() recovers every job from the journal, as
/// a restarted daemon does.  A start on an empty dir (a socket and four
/// threads, about 0.1 ms) swung 2x between runs.
std::vector<double> restart_samples(const std::string& state_dir, int reps) {
  std::vector<double> xs;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    RunningServer server(server_config(state_dir, ""));
    xs.push_back(seconds_between(t0, Clock::now()));
  }
  return xs;
}

}  // namespace

void run_serve_workload(const RunOptions& opt, Report& report,
                        SpanRecorder& spans) {
  const std::vector<Step> steps = steps_for(opt.smoke);
  std::size_t total = 0;
  for (const Step& s : steps) total += s.jobs;
  const std::vector<JobSpec> specs = make_jobs(opt.seed, total, opt.smoke);
  if (!opt.smoke) warm_up(kWorkers);
  report.note("serve_mixed: " + std::to_string(kWorkers) + " workers, " +
              std::to_string(static_cast<int>(kSliceSeconds * 1000)) +
              " ms slices, steps mid " + std::to_string(steps[0].rate) +
              "/s and high " + std::to_string(steps[1].rate) + "/s, n=" +
              std::to_string(steps[0].jobs) + " per step, seeds " +
              std::to_string(opt.seed) + ".." +
              std::to_string(opt.seed + total - 1));

  ScheduleResult plain;
  std::string plain_dir;
  for (int attempt = 1;; ++attempt) {
    plain_dir = opt.workdir + "/plain-" + std::to_string(attempt);
    plain = run_schedule(specs, steps, plain_dir, false, spans);
    if (plain.gen_late_max <= kMaxGeneratorLateS) break;
    const std::string late =
        "load generator ran " + std::to_string(plain.gen_late_max) +
        " s late (limit " + std::to_string(kMaxGeneratorLateS) + " s)";
    if (attempt == kScheduleAttempts) {
      report.fail(late + " in every attempt: run invalid");
      break;
    }
    report.note(late + ": schedule repeated");
  }
  report.attempted += specs.size();
  const std::vector<double> setups = restart_samples(plain_dir + "/state", 20);
  const Verified v = verify(specs, plain, spans, report);
  report.units = v.units;
  if (plain.watch_fallbacks > 0)
    report.note(std::to_string(plain.watch_fallbacks) +
                " terminal states learned by polling, not the watch stream");
  report_end_to_end(plain, v, setups, report);
  if (!opt.traced) return;

  // ---- per-layer metrics: the same schedule again with the server trace on.
  const ScheduleResult traced =
      run_schedule(specs, steps, opt.workdir + "/traced", true, spans);
  report.attempted += specs.size();
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (traced.jobs[i].vectors != plain.jobs[i].vectors)
      report.fail(specs[i].name + ": traced run's test set differs");
  const LayerTotals& L = traced.layers;
  const double run_s = plain.last_done - plain.first_due;

  report.set("netlist.build_s", v.netlist_s, "s");
  report.set("fault.build_s", v.fault_s, "s");
  report.set("gatest.construct_s", v.construct_s, "s");
  report.set("gatest.run_s", L.run_s, "s");
  for (const char* ph : {"init_ffs", "detect", "detect_activity", "sequences"}) {
    const auto it = L.phase_s.find(ph);
    report.set(std::string("gatest.phase.") + ph + "_s",
               it == L.phase_s.end() ? 0.0 : it->second, "s");
  }
  const double other = L.run_s - L.ga_run_s - L.commit_s;
  report.set("gatest.commit_s", L.commit_s, "s");
  report.set("gatest.other_s", other, "s");
  report.set("gatest.trace_coverage",
             ratio(L.ga_eval_s + L.ga_select_s + L.ga_breed_s + L.commit_s + other,
                   L.run_s), "ratio");
  report.set("ga.eval_s", L.ga_eval_s, "s");
  report.set("ga.select_s", L.ga_select_s, "s");
  report.set("ga.breed_s", L.ga_breed_s, "s");
  report.set("ga.runs", static_cast<double>(L.ga_runs), "count");
  report.set("ga.generations", static_cast<double>(L.generations), "count");

  std::size_t evals = 0;
  for (const UnitResult& u : v.units) evals += u.evaluations;
  report.set("fitness.evaluations", static_cast<double>(evals), "count");
  report.set("fitness.sim_evaluations",
             static_cast<double>(L.performed_evals - L.cache_hits), "count");
  report.set("fitness.cache_hit_ratio",
             ratio(static_cast<double>(L.cache_hits),
                   static_cast<double>(L.cache_hits + L.cache_misses)), "ratio");
  report.set("fitness.vec_eval_us",
             1e6 * ratio(L.vec_eval_s, static_cast<double>(L.vec_evals)), "us");
  report.set("fitness.seq_eval_ms",
             1e3 * ratio(L.seq_eval_s, static_cast<double>(L.seq_evals)), "ms");

  for (const auto& [metric, unit] : kUnobservedZeros) report.set(metric, 0.0, unit);
  double replay_s = 0.0, restore_est_s = 0.0;
  std::size_t replay_vectors = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const Tracked& j = plain.jobs[i];
    replay_s += v.replay_s[i];
    replay_vectors += j.vectors.size();
    const auto it = L.replayed_by_job.find(traced.jobs[i].id);
    if (it != L.replayed_by_job.end())
      restore_est_s += static_cast<double>(it->second) *
                       ratio(v.replay_s[i], static_cast<double>(j.vectors.size()));
  }
  report.set("fsim.replay_s", replay_s, "s");
  report.set("fsim.replay_vectors_per_s",
             ratio(static_cast<double>(replay_vectors), replay_s), "1/s");
  report.set("proc.cpu_s", plain.cpu_s, "s");
  report.set("proc.cpu_util", ratio(plain.cpu_s, run_s), "ratio");

  std::vector<double> rtt_ms;
  double slices = 0.0, preemptions = 0.0;
  for (const Tracked& j : plain.jobs) {
    rtt_ms.push_back(1e3 * j.rtt);
    slices += j.slices;
    preemptions += j.slices > 0 ? j.slices - 1 : 0;
  }
  // Time a job spent in the server outside run(): queued, or restoring.
  std::vector<double> waits;
  for (const auto& [job, total] : L.job_total_s) {
    const auto it = L.job_run_s.find(job);
    waits.push_back(total - (it == L.job_run_s.end() ? 0.0 : it->second));
  }
  report.set("serve.submit_rtt_p50_ms", quantile(rtt_ms, 0.5), "ms");
  report.set("serve.submit_rtt_p90_ms", quantile(rtt_ms, 0.9), "ms");
  report.set("serve.queue_wait_p50_s", quantile(waits, 0.5), "s");
  report.set("serve.queue_wait_p90_s", quantile(waits, 0.9), "s");
  report.set("serve.slices_per_job", slices / static_cast<double>(plain.jobs.size()),
             "count");
  report.set("serve.preemptions", preemptions, "count");
  report.set("serve.discarded_eval_ratio",
             ratio(static_cast<double>(L.discarded_evals),
                   static_cast<double>(L.performed_evals)), "ratio");
  report.set("serve.replayed_vectors", static_cast<double>(L.replayed_vectors), "count");
  report.set("serve.restore_est_s", restore_est_s, "s");
  report.set("serve.worker_busy_ratio",
             ratio(L.run_s, kWorkers * (traced.last_done - traced.first_due)), "ratio");
  report.set("serve.gen_late_max_s", plain.gen_late_max, "s");

  // Per step, the median and p80: with 50 jobs a step, p80 is the highest
  // percentile that has ten samples beyond it.
  double max_ok = 0.0;
  for (std::size_t s = 0; s < steps.size(); ++s) {
    const std::vector<double> lat = latencies(plain, static_cast<int>(s));
    const double p80 = quantile(lat, 0.8);
    std::size_t backlog = 0;
    for (const Tracked& j : plain.jobs)
      if (j.step == s && j.done > plain.step_last_due[s]) ++backlog;
    const std::string key = std::string("serve.latency_") + steps[s].name;
    report.set(key + "_p50_s", quantile(lat, 0.5), "s");
    report.set(key + "_p80_s", p80, "s");
    report.note(std::string("step ") + steps[s].name + ": n=" +
                std::to_string(lat.size()) + ", backlog at last due " +
                std::to_string(backlog));
    if (p80 <= kLatencyLimitS && backlog <= kWorkers) max_ok = steps[s].rate;
  }
  report.set("serve.max_ok_rate", max_ok, "1/s");
  report.set("journal.write_ms_p50", quantile(traced.journal_write_ms, 0.5), "ms");
  report.set("journal.write_ms_p90", quantile(traced.journal_write_ms, 0.9), "ms");

  std::vector<double> lat_plain = latencies(plain, -1);
  std::vector<double> lat_traced = latencies(traced, -1);
  double sum_plain = 0.0, sum_traced = 0.0;
  for (double x : lat_plain) sum_plain += x;
  for (double x : lat_traced) sum_traced += x;
  report.set("telemetry.overhead_ratio", ratio(sum_traced, sum_plain) - 1.0, "ratio");
}

void run_serve_burst(const RunOptions& opt, Report& report) {
  const std::size_t n = opt.smoke ? 16 : 160;
  const std::vector<JobSpec> specs = make_jobs(opt.seed, n, opt.smoke);
  if (!opt.smoke) warm_up(kWorkers);
  SpanRecorder spans;
  // Every job due at once: the completion rate is the burst capacity C.
  const ScheduleResult r = run_schedule(specs, {{"burst", 1e9, n}},
                                        opt.workdir + "/burst", false, spans);
  report.attempted = n;
  const Verified v = verify(specs, r, spans, report);
  report.units = v.units;
  const double capacity = ratio(static_cast<double>(n), r.last_done - r.first_due);
  report.note("burst of " + std::to_string(n) + " jobs");
  report.set("serve.burst_capacity", capacity, "1/s");
}

void run_serve_direct(const RunOptions& opt, Report& report) {
  const std::vector<Step> steps = steps_for(opt.smoke);
  std::size_t total = 0;
  for (const Step& s : steps) total += s.jobs;
  std::vector<double> run_s;
  for (const JobSpec& spec : make_jobs(opt.seed, total, opt.smoke)) {
    const gatest::Circuit c = build_circuit(spec);
    gatest::FaultList faults(c);
    gatest::TestGenConfig cfg;
    cfg.seed = spec.seed;
    gatest::GaTestGenerator gen(c, faults, cfg);
    gatest::RunControl ctrl;
    ctrl.budget.max_evaluations = spec.max_evals;
    gen.set_run_control(ctrl);
    const auto t0 = Clock::now();
    const gatest::TestGenResult r = gen.run();
    run_s.push_back(seconds_between(t0, Clock::now()));
    ++report.attempted;
    if (r.stop_reason == gatest::StopReason::Error)
      report.fail(spec.name + ": " + r.error_message);
    UnitResult u;
    u.name = spec.name;
    u.seed = spec.seed;
    u.digest = test_set_digest(r.test_set);
    u.faults = r.faults_total;
    u.detected = r.faults_detected;
    u.vectors = r.test_set.size();
    u.evaluations = r.fitness_evaluations;
    report.units.push_back(u);
    report.note(spec.name + " " + std::to_string(run_s.back()) + " s");
  }
  double sum = 0.0;
  for (double x : run_s) sum += x;
  report.set("serve.direct_cpu_s", sum, "s");
  report.set("serve.direct_job_p50_s", quantile(run_s, 0.5), "s");
}

}  // namespace e2e
