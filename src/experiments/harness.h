// Shared experiment harness for the paper-reproduction benchmarks (bench/).
//
// Each bench binary reproduces one table of the paper.  The harness supplies:
// circuit construction (cached), the per-circuit configuration tweaks the
// paper describes (progress limits and sequence lengths for s5378/s35932),
// repeated runs with fresh seeds, aggregation in the paper's
// mean(stddev) style, and a tiny command-line parser so every bench supports
//   --runs=N           repetitions per configuration (paper: 10)
//   --circuits=a,b,c   explicit circuit list
//   --full             the full ISCAS89-profile circuit set & paper run count
//   --seed=S           base RNG seed
//   --quiet/--verbose  stderr log level (tables on stdout are unaffected)
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/bench_record.h"
#include "gatest/config.h"
#include "gatest/test_generator.h"
#include "netlist/circuit.h"
#include "util/stats.h"

namespace gatest {

/// Aggregated results over repeated runs of one configuration.
struct RunSummary {
  RunningStats detected;
  RunningStats vectors;
  RunningStats seconds;
  RunningStats evaluations;
  RunningStats efficiency;  ///< detected / (total − pruned), per run
  std::size_t faults_total = 0;
  std::size_t faults_pruned = 0;  ///< static-analysis classification count
};

/// Circuits small enough for quick default bench runs (seconds each).
const std::vector<std::string>& default_circuit_set();

/// Mid-size set used by sweeps whose default must stay under a minute.
const std::vector<std::string>& compact_circuit_set();

/// Every circuit in the paper's Table 2.
const std::vector<std::string>& full_circuit_set();

/// Per-circuit configuration exactly as §V describes: progress limit 4x
/// depth and sequence lengths {1,2,4}x depth, except s5378 and s35932 which
/// use 1x and {1/4,1/2,1}.
TestGenConfig paper_config_for(const std::string& circuit_name);

/// Build (and memoize) a benchmark circuit by name.
const Circuit& cached_circuit(const std::string& name);

/// Run GATEST `runs` times with seeds seed_base+1..seed_base+runs on a fresh
/// fault list each time, aggregating the paper's reporting quantities.
RunSummary run_gatest_repeated(const std::string& circuit_name,
                               const TestGenConfig& config, unsigned runs,
                               std::uint64_t seed_base);

/// Minimal argv parser shared by the bench mains.
struct BenchArgs {
  unsigned runs = 2;
  bool full = false;
  std::uint64_t seed = 1000;
  /// Enable static-analysis fault pruning (TestGenConfig::prune_untestable):
  /// results are identical, but summaries add fault-efficiency accounting.
  bool prune_untestable = false;
  /// Enable the implication-engine prover (TestGenConfig::prune_proven):
  /// inert proven faults leave the simulated universe; observables are
  /// bit-identical (see DESIGN.md §4h) and tables add Proven/Inert columns.
  bool prune_proven = false;
  /// Write a machine-readable bench record (experiments/bench_record.h) for
  /// the bench-regression registry; empty = don't.
  std::string json_out;
  std::vector<std::string> circuits;  ///< empty = bench default set

  /// Circuits to use given a bench's default and full sets.
  std::vector<std::string> pick_circuits(
      const std::vector<std::string>& dflt,
      const std::vector<std::string>& full_set) const;
};

/// Parse known flags; unknown flags abort with a usage message.
BenchArgs parse_bench_args(int argc, char** argv);

/// Fold one aggregated GATEST summary into a bench record entry: the
/// seed-deterministic quantities as exact metrics, wall clock as perf.
void record_summary(bench::RecordWriter& rec, const std::string& circuit,
                    const std::string& config, const RunSummary& s);

/// Write the record when --json=FILE was passed (no-op otherwise); exits
/// with a diagnostic on I/O failure so CI catches a broken registry early.
void finish_record(const BenchArgs& args, bench::RecordWriter& rec);

}  // namespace gatest
