// Service throughput: K workers multiplexing a queue of mixed ATPG jobs via
// checkpoint-based fair-share slicing (gatest_serve's scheduler, driven
// in-process — the socket layer is exercised by tests/serve_test.cpp).
//
// The experiment queues the same 12-job mixed workload (s27 / s298 / s344
// profiles plus inline synthetic netlists) at 1 and 4 workers and reports
// completed jobs/sec plus submit-to-done latency quantiles.
//
// --check gates, in order:
//   1. every job completes (state done) at both worker counts,
//   2. every job's test set is bit-identical to an uninterrupted
//      single-process run of the same config — slicing is invisible,
//   3. 4-worker throughput >= 2x 1-worker throughput, gated only when the
//      machine exposes >= 4 hardware threads (a single-core container can't
//      speed up CPU-bound work; identity and completion still gate).
//
// Each worker count runs twice in ABBA order (1, 4, 4, 1) and the gate
// compares the best wall time of each: one run is ~1 s, so a stall of
// other processes on the machine decides a single sample, while the best of
// two interleaved samples measures the pool's capacity.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "experiments/bench_record.h"
#include "fault/fault.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "serve/scheduler.h"
#include "sim/logic.h"
#include "telemetry/json.h"
#include "util/stats.h"

using namespace gatest;

namespace {

struct JobSpec {
  std::string profile;     // empty when bench_text is used
  std::string bench_text;  // inline netlist (circuitgen path)
  std::string name;
  std::uint64_t seed = 0;
  std::size_t max_evals = 0;
};

std::vector<JobSpec> mixed_workload(bool full) {
  const std::vector<std::string> rotation = {"s27", "s298", "s344"};
  std::vector<JobSpec> jobs;
  const std::size_t count = full ? 24 : 12;
  for (std::size_t i = 0; i < count; ++i) {
    JobSpec j;
    const std::string& profile = rotation[i % rotation.size()];
    j.seed = 100 + i;
    j.max_evals = full ? 10000 : 2500;
    if (i % 4 == 3) {
      // Inline synthetic netlist matching the profile's shape.
      const Circuit c = generate_circuit(profile_by_name(profile), j.seed);
      j.bench_text = write_bench_string(c);
      j.name = "gen-" + profile + "-" + std::to_string(i);
    } else {
      j.profile = profile;
      j.name = profile + "-" + std::to_string(i);
    }
    jobs.push_back(std::move(j));
  }
  return jobs;
}

std::vector<std::string> test_set_strings(const std::vector<TestVector>& ts) {
  std::vector<std::string> out;
  out.reserve(ts.size());
  for (const TestVector& v : ts) out.push_back(logic_string(v));
  return out;
}

/// Uninterrupted single-process run of one job — the identity golden.
std::vector<std::string> golden_run(const JobSpec& j) {
  const Circuit c = j.profile.empty()
                        ? parse_bench_string(j.bench_text, j.name)
                        : benchmark_circuit(j.profile);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = j.seed;
  GaTestGenerator gen(c, faults, cfg);
  RunControl ctrl;
  ctrl.budget.max_evaluations = j.max_evals;
  gen.set_run_control(ctrl);
  return test_set_strings(gen.run().test_set);
}

struct PoolResult {
  double wall = 0.0;
  std::size_t done = 0;
  std::uint64_t preemptions = 0;
  RunningStats latency;
  std::map<std::string, std::vector<std::string>> test_sets;  // name -> set
  std::map<std::string, serve::JobState> states;
};

PoolResult run_pool(const std::vector<JobSpec>& jobs, unsigned workers,
                    double slice_seconds) {
  serve::ServeConfig cfg;
  cfg.workers = workers;
  cfg.slice_seconds = slice_seconds;
  serve::JobManager jm(cfg);
  jm.start();

  using Clock = std::chrono::steady_clock;
  const auto t0 = Clock::now();
  std::map<std::uint64_t, std::string> names;
  std::map<std::uint64_t, double> latency;
  serve::ProtocolError err;
  for (const JobSpec& j : jobs) {
    serve::SubmitRequest req;
    req.profile = j.profile;
    req.bench_text = j.bench_text;
    req.name = j.name;
    req.config.seed = j.seed;
    req.budget.max_evaluations = j.max_evals;
    const std::uint64_t id = jm.submit(req, err);
    if (id == 0) {
      std::fprintf(stderr, "submit failed: %s\n", err.message.c_str());
      std::exit(1);
    }
    names[id] = j.name;
  }

  PoolResult out;
  while (latency.size() < jobs.size()) {
    for (const serve::JobSnapshot& s : jm.snapshot_all()) {
      if (latency.count(s.id)) continue;
      if (s.state == serve::JobState::Done ||
          s.state == serve::JobState::Cancelled ||
          s.state == serve::JobState::Failed) {
        latency[s.id] =
            std::chrono::duration<double>(Clock::now() - t0).count();
        out.states[names[s.id]] = s.state;
      }
    }
    if (latency.size() < jobs.size())
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  out.wall = std::chrono::duration<double>(Clock::now() - t0).count();

  for (const auto& [id, name] : names) {
    serve::JobSnapshot snap;
    std::vector<std::string> vectors;
    if (jm.result(id, snap, vectors, err)) {
      out.test_sets[name] = std::move(vectors);
      ++out.done;
    }
    out.latency.add(latency[id]);
  }
  const telemetry::JsonValue m = telemetry::parse_json(jm.metrics_json());
  if (m.find("counters"))
    out.preemptions = static_cast<std::uint64_t>(
        m.find("counters")->number_or("serve.slice_preemptions", 0));
  jm.shutdown();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  bool full = false;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_out = argv[i] + 7;
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--full] [--json=FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  const std::vector<JobSpec> jobs = mixed_workload(full);
  const double slice = 0.02;  // aggressive: forces many preemptions
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf(
      "Service throughput: %zu mixed jobs (profiles + inline netlists), "
      "%.0f ms slices, %u hardware threads\n\n",
      jobs.size(), slice * 1000.0, hw);

  std::printf("computing uninterrupted goldens...\n");
  std::map<std::string, std::vector<std::string>> golden;
  for (const JobSpec& j : jobs) golden[j.name] = golden_run(j);

  int failures = 0;
  std::map<unsigned, PoolResult> results;  // fastest run per worker count
  for (unsigned workers : {1u, 4u, 4u, 1u}) {
    PoolResult r = run_pool(jobs, workers, slice);
    std::printf(
        "workers=%u: %zu/%zu done, %.2fs wall, %.2f jobs/sec, %llu "
        "preemptions, latency p50/p95 %.2fs/%.2fs\n",
        workers, r.done, jobs.size(), r.wall,
        r.wall > 0 ? static_cast<double>(r.done) / r.wall : 0.0,
        static_cast<unsigned long long>(r.preemptions), r.latency.p50(),
        r.latency.p95());
    if (r.done != jobs.size()) {
      std::printf("  FAIL: not every job completed\n");
      ++failures;
    }
    for (const JobSpec& j : jobs) {
      const auto it = r.test_sets.find(j.name);
      if (it == r.test_sets.end() || it->second != golden[j.name]) {
        std::printf("  FAIL: %s test set differs from uninterrupted run\n",
                    j.name.c_str());
        ++failures;
      }
    }
    const auto best = results.find(workers);
    if (best == results.end())
      results.emplace(workers, std::move(r));
    else if (r.wall < best->second.wall)
      best->second = std::move(r);
  }

  if (!json_out.empty()) {
    bench::RecordWriter rec("serve_throughput");
    rec.param("jobs", static_cast<double>(jobs.size()));
    rec.param("slice_seconds", slice);
    for (const auto& [workers, r] : results) {
      rec.begin_entry("mixed", "workers" + std::to_string(workers));
      rec.exact("jobs_done", static_cast<double>(r.done));
      rec.perf("wall_seconds", r.wall);
      rec.perf("jobs_per_sec",
               r.wall > 0 ? static_cast<double>(r.done) / r.wall : 0.0);
      rec.perf("latency_p50_s", r.latency.p50());
      rec.perf("latency_p95_s", r.latency.p95());
    }
    std::string err;
    if (!rec.write(json_out, err)) {
      std::fprintf(stderr, "serve_throughput: %s\n", err.c_str());
      return 1;
    }
  }

  const double t1 = results.at(1).wall, t4 = results.at(4).wall;
  const double ratio = t4 > 0 ? t1 / t4 : 0.0;
  std::printf("\nthroughput ratio (4 workers vs 1, best of 2 each): %.2fx\n",
              ratio);
  if (hw >= 4) {
    if (ratio < 2.0) {
      std::printf("FAIL: expected >= 2x with %u hardware threads\n", hw);
      ++failures;
    }
  } else {
    std::printf(
        "NOTE: this machine exposes %u hardware thread(s); the >= 2x "
        "throughput gate\nneeds >= 4 and is skipped — completion and "
        "test-set identity still gate.\n",
        hw);
  }

  if (check) {
    if (failures) {
      std::printf("\nserve_throughput --check: %d failure(s)\n", failures);
      return 1;
    }
    std::printf("\nserve_throughput --check: all gates passed\n");
  }
  return failures ? 1 : 0;
}
