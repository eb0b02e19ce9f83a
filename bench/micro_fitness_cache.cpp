// Micro-benchmark for the genome→fitness memoization cache.
//
// Workload: GATEST's phase-2 inner loop on s344 — a committed vector prefix
// gives the machine realistic state and a partially-dropped fault list, then
// a candidate stream with the duplicate rate of an overlapping-population GA
// (each unique candidate scored a few times) is evaluated through
// FitnessEvaluator.
//
// Two configurations, measured ABBA best-of-N:
//   plain  — cache off (seed behavior)
//   accel  — genome memoization cache
//
// `--check` gates accel >= kRequiredSpeedup x plain, which is how
// run_experiments.sh holds the acceleration claim; the fitness sums of both
// configurations must match exactly or the bench aborts (a cheap built-in
// differential test).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "experiments/bench_record.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/config.h"
#include "gatest/fitness.h"
#include "util/rng.h"
#include "util/table.h"
#include "util/timer.h"

using namespace gatest;

namespace {

constexpr unsigned kCommittedPrefix = 24;  ///< vectors committed before timing
constexpr unsigned kUniqueCandidates = 32;
constexpr unsigned kCandidateStream = 512;  ///< ~16x re-use, hit rate ~94%...
// ...within one epoch; real runs re-commit constantly, so the stream is
// split into epochs: every kEpochStride evaluations one vector is committed,
// invalidating the cache exactly as a GA commit boundary would.
constexpr unsigned kEpochStride = 128;

TestVector random_vector(const Circuit& c, Rng& rng) {
  TestVector v(c.num_inputs());
  for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
  return v;
}

struct SampleResult {
  double seconds = 0.0;
  double fitness_sum = 0.0;
  std::size_t sim_evals = 0;
  std::size_t cache_hits = 0;
};

/// One timed pass of the phase-2 workload.  Setup (circuit state, candidate
/// stream) is deterministic and identical for both configurations.
SampleResult run_sample(const Circuit& c, bool accel) {
  FaultList faults(c);
  SequentialFaultSimulator sim(c, faults);
  TestGenConfig cfg;
  FitnessEvaluator fit(sim, cfg);
  if (accel) fit.set_cache(true);

  Rng rng(2024);
  for (unsigned i = 0; i < kCommittedPrefix; ++i)
    sim.apply_vector(random_vector(c, rng), static_cast<std::int64_t>(i));

  std::vector<TestVector> pool;
  pool.reserve(kUniqueCandidates);
  for (unsigned i = 0; i < kUniqueCandidates; ++i)
    pool.push_back(random_vector(c, rng));
  std::vector<std::uint32_t> stream(kCandidateStream);
  for (std::uint32_t& s : stream)
    s = static_cast<std::uint32_t>(rng.below(kUniqueCandidates));
  std::vector<TestVector> commits;
  for (unsigned i = 0; i < kCandidateStream / kEpochStride; ++i)
    commits.push_back(random_vector(c, rng));

  SampleResult r;
  Timer t;
  for (unsigned i = 0; i < kCandidateStream; ++i) {
    if (i > 0 && i % kEpochStride == 0)
      sim.apply_vector(commits[i / kEpochStride - 1],
                       static_cast<std::int64_t>(kCommittedPrefix + i));
    r.fitness_sum += fit.vector_fitness(pool[stream[i]], Phase::DetectFaults);
  }
  r.seconds = t.elapsed_seconds();
  r.sim_evals = fit.sim_evaluations();
  r.cache_hits = fit.cache_stats().hits;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  unsigned pairs = 3;
  double required = 1.25;
  std::string json_out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--check") check = true;
    else if (a == "--full") pairs = 9;
    else if (a.rfind("--runs=", 0) == 0)
      pairs = std::max(1u, static_cast<unsigned>(
                               std::strtoul(a.c_str() + 7, nullptr, 10)));
    else if (a.rfind("--speedup=", 0) == 0)
      required = std::strtod(a.c_str() + 10, nullptr);
    else if (a.rfind("--json=", 0) == 0)
      json_out = a.substr(7);
    else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--check] [--runs=N] [--speedup=F] [--full] "
                   "[--json=FILE]\n"
                   "(other bench-suite flags are accepted and ignored)\n",
                   argv[0]);
      return 0;
    }
    // Tolerate the shared bench-suite flags so run_experiments.sh can pass
    // one flag set to every binary.
  }

  const Circuit& c = benchmark_circuit("s344");

  // Warm caches, and check the two configurations agree before timing
  // anything: a fitness-sum mismatch means the acceleration changed results
  // and no speedup number matters.
  const SampleResult warm_plain = run_sample(c, false);
  const SampleResult warm_accel = run_sample(c, true);
  if (warm_plain.fitness_sum != warm_accel.fitness_sum) {
    std::fprintf(stderr,
                 "micro_fitness_cache: FAIL — fitness sums diverge "
                 "(plain %.17g, accel %.17g)\n",
                 warm_plain.fitness_sum, warm_accel.fitness_sum);
    return 1;
  }

  // Best-of-N with the measurement order alternating per pair (ABBA) so
  // slow machine-load drift cancels.  Under --check, a below-threshold
  // result gets more rounds before it counts as a failure: minima only
  // tighten with extra samples, so noise can't rescue a genuinely slow path.
  double plain_best = 0.0, accel_best = 0.0, speedup = 0.0;
  unsigned sampled = 0;
  for (int round = 0; round < 3; ++round) {
    for (unsigned r = 0; r < pairs; ++r, ++sampled) {
      double plain, accel;
      if (r % 2 == 0) {
        plain = run_sample(c, false).seconds;
        accel = run_sample(c, true).seconds;
      } else {
        accel = run_sample(c, true).seconds;
        plain = run_sample(c, false).seconds;
      }
      if (sampled == 0 || plain < plain_best) plain_best = plain;
      if (sampled == 0 || accel < accel_best) accel_best = accel;
    }
    speedup = accel_best > 0.0 ? plain_best / accel_best : 0.0;
    if (!check || speedup >= required) break;
  }

  AsciiTable table({"Config", "Best (ms)", "Sim evals", "Cache hits"});
  table.add_row({"plain", strprintf("%.3f", 1e3 * plain_best),
                 strprintf("%zu", warm_plain.sim_evals),
                 strprintf("%zu", warm_plain.cache_hits)});
  table.add_row({"cache", strprintf("%.3f", 1e3 * accel_best),
                 strprintf("%zu", warm_accel.sim_evals),
                 strprintf("%zu", warm_accel.cache_hits)});
  table.print(std::cout);

  std::printf(
      "\ns344 phase-2 stream (%u evals, %u unique, commit every %u), "
      "best of %u pairs: plain %.4fs, accel %.4fs — speedup %.2fx "
      "(required %.2fx)\n",
      kCandidateStream, kUniqueCandidates, kEpochStride, sampled, plain_best,
      accel_best, speedup, required);

  if (!json_out.empty()) {
    bench::RecordWriter rec("micro_fitness_cache");
    rec.param("pairs", static_cast<double>(pairs));
    rec.begin_entry("s344", "phase2-stream");
    rec.exact("sim_evals_plain", static_cast<double>(warm_plain.sim_evals));
    rec.exact("sim_evals_accel", static_cast<double>(warm_accel.sim_evals));
    rec.exact("cache_hits_accel", static_cast<double>(warm_accel.cache_hits));
    rec.perf("plain_seconds", plain_best);
    rec.perf("accel_seconds", accel_best);
    std::string err;
    if (!rec.write(json_out, err)) {
      std::fprintf(stderr, "micro_fitness_cache: %s\n", err.c_str());
      return 1;
    }
  }

  if (check && speedup < required) {
    std::fprintf(stderr,
                 "micro_fitness_cache: FAIL — speedup %.2fx below "
                 "required %.2fx\n",
                 speedup, required);
    return 1;
  }
  if (check) std::printf("micro_fitness_cache: speedup check passed\n");
  return 0;
}
