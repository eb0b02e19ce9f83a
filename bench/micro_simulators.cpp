// Fault-simulator throughput on a dense-activity evaluate stream.
//
// Workload: the inner loop of GATEST phases 2/3 — a committed vector prefix
// gives the machine realistic state with the fault universe still mostly
// undetected, then a candidate stream is scored with evaluate_vector()
// against the full remaining universe.  Every frame touches hundreds of live
// faults, so the packed-lane kernel sets the wall clock.
//
// The bench prints the best-of-N time of the stream and a digest of every
// fitness observable the stream produced.  `--json` writes both as one
// bench-registry entry for scripts/bench_regress.py; ctest's
// bench_regress_exact holds the digest to the committed baseline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "experiments/bench_record.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "util/rng.h"
#include "util/timer.h"

using namespace gatest;

namespace {

constexpr unsigned kCommittedPrefix = 8;  ///< vectors committed before timing
constexpr unsigned kEvalStream = 96;      ///< candidate evaluations timed

TestVector random_vector(const Circuit& c, Rng& rng) {
  TestVector v(c.num_inputs());
  for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
  return v;
}

/// Deterministic digest of everything a fitness function reads from a
/// FaultSimStats, summed over the candidate stream.
struct WorkloadDigest {
  std::uint64_t detected = 0;
  std::uint64_t effects = 0;
  std::uint64_t good_events = 0;
  std::uint64_t faulty_events = 0;
};

struct SampleResult {
  double seconds = 0.0;
  WorkloadDigest digest;
};

/// One pass of the workload on a fresh simulator.  Setup (the committed
/// prefix and candidate stream) is seed-deterministic; only the
/// evaluate_vector stream is timed.
SampleResult run_sample(const Circuit& c) {
  FaultList faults(c);
  SequentialFaultSimulator sim(c, faults);

  Rng rng(4242);
  for (unsigned i = 0; i < kCommittedPrefix; ++i)
    sim.apply_vector(random_vector(c, rng), static_cast<std::int64_t>(i));

  std::vector<TestVector> stream;
  stream.reserve(kEvalStream);
  for (unsigned i = 0; i < kEvalStream; ++i)
    stream.push_back(random_vector(c, rng));

  FaultSimScratch scratch;
  SampleResult r;
  Timer t;
  for (const TestVector& v : stream) {
    const FaultSimStats s = sim.evaluate_vector(v, scratch);
    r.digest.detected += s.detected;
    r.digest.effects += s.fault_effects_at_ffs;
    r.digest.good_events += s.good_events;
    r.digest.faulty_events += s.faulty_events;
  }
  r.seconds = t.elapsed_seconds();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  unsigned runs = 3;
  std::string circuit_name = "s1423", json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") runs = 9;
    else if (a.rfind("--runs=", 0) == 0)
      runs = std::max(1u, static_cast<unsigned>(
                              std::strtoul(a.c_str() + 7, nullptr, 10)));
    else if (a.rfind("--circuit=", 0) == 0)
      circuit_name = a.substr(10);
    else if (a.rfind("--json=", 0) == 0)
      json_out = a.substr(7);
    else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--runs=N] [--full] [--circuit=NAME] "
                   "[--json=FILE]\n"
                   "(other bench-suite flags are accepted and ignored)\n",
                   argv[0]);
      return 0;
    }
    // Tolerate the shared bench-suite flags so run_experiments.sh can pass
    // one flag set to every binary.
  }

  const Circuit& c = benchmark_circuit(circuit_name);
  const SampleResult warm = run_sample(c);
  double best = 0.0;
  for (unsigned r = 0; r < runs; ++r) {
    const double s = run_sample(c).seconds;
    if (r == 0 || s < best) best = s;
  }

  const WorkloadDigest& d = warm.digest;
  std::printf(
      "%s evaluate stream (%u committed + %u evaluated, full universe, %u "
      "lanes): best of %u runs %.3f ms\n"
      "digest: detected %llu, effects %llu, good events %llu, faulty events "
      "%llu\n",
      circuit_name.c_str(), kCommittedPrefix, kEvalStream, kFaultSimLanes,
      runs, 1e3 * best, static_cast<unsigned long long>(d.detected),
      static_cast<unsigned long long>(d.effects),
      static_cast<unsigned long long>(d.good_events),
      static_cast<unsigned long long>(d.faulty_events));

  if (!json_out.empty()) {
    bench::RecordWriter rec("micro_simulators");
    rec.param("runs", static_cast<double>(runs));
    rec.begin_entry(circuit_name, "event");
    rec.exact("lane_width", static_cast<double>(kFaultSimLanes));
    rec.exact("detected_sum", static_cast<double>(d.detected));
    rec.exact("effects_sum", static_cast<double>(d.effects));
    rec.exact("good_events_sum", static_cast<double>(d.good_events));
    rec.exact("faulty_events_sum", static_cast<double>(d.faulty_events));
    rec.perf("best_seconds", best);
    std::string err;
    if (!rec.write(json_out, err)) {
      std::fprintf(stderr, "micro_simulators: %s\n", err.c_str());
      return 1;
    }
  }
  return 0;
}
