// Configuration of the GA-based test generator, mirroring the parameter
// choices studied in the paper (§III-D, Table 1, and §V).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ga/ga.h"

namespace gatest {

/// GA parameters used while generating individual test vectors, as a
/// function of the vector length L (the paper's Table 1).
struct VectorPhaseGaParams {
  unsigned population_size;
  double mutation_prob;
};

/// Table 1: L < 4 -> (8, 1/8); 4 <= L <= 16 -> (16, 1/16); L > 16 -> (16, 1/L).
constexpr VectorPhaseGaParams table1_params(unsigned vector_length) {
  if (vector_length < 4) return {8, 1.0 / 8.0};
  if (vector_length <= 16) return {16, 1.0 / 16.0};
  return {16, 1.0 / static_cast<double>(vector_length)};
}

struct TestGenConfig {
  // ---- GA operator choices (paper defaults: the best-performing set) -----
  SelectionScheme selection = SelectionScheme::TournamentNoReplacement;
  CrossoverScheme crossover = CrossoverScheme::Uniform;
  double crossover_prob = 1.0;
  Coding sequence_coding = Coding::Binary;
  unsigned num_generations = 8;  ///< paper limits each GA run to 8 generations

  // ---- population / mutation ----------------------------------------------
  /// Population size during test-sequence generation (paper: 32).
  unsigned seq_population = 32;
  /// Mutation rate during test-sequence generation (paper: 1/64).
  double seq_mutation = 1.0 / 64.0;
  /// Override the Table-1 vector-phase population (0 = use Table 1).
  unsigned vec_population_override = 0;
  /// Override the Table-1 vector-phase mutation rate (0 = use Table 1).
  double vec_mutation_override = 0.0;

  // ---- overlapping populations (paper §III-C, Table 7) --------------------
  /// Generation gap G = g/N; 1.0 = non-overlapping.
  double generation_gap = 1.0;

  // ---- progress limits & sequence lengths (paper §III) --------------------
  /// Progress limit = this multiple of the sequential depth (paper: 4 for
  /// most circuits, 1 for s5378 and s35932).
  double progress_limit_multiplier = 4.0;
  /// Sequence lengths tried, as multiples of the sequential depth (paper:
  /// {1, 2, 4} for most circuits, {1/4, 1/2, 1} for s5378 and s35932).
  std::vector<double> seq_length_multipliers = {1.0, 2.0, 4.0};
  /// Consecutive failed GA re-initializations before giving up on a
  /// sequence length (paper: 4).
  unsigned seq_fail_limit = 4;

  // ---- fault sampling (paper §III-B, Table 6) ------------------------------
  /// Simulate only this many randomly chosen undetected faults per fitness
  /// evaluation; 0 = the full remaining fault list.  The committed test is
  /// always simulated against the full list.
  unsigned fault_sample_size = 0;

  // ---- population seeding (§II: "it may also be supplied by the user") -----
  /// Seed each vector-phase GA's initial population with the previously
  /// committed best vector (a cheap warm start exploited by GATEST's
  /// follow-on work); sequences always start from fresh random populations
  /// as §III requires.
  bool seed_with_previous_best = false;
  /// Carry the best individual between generations (see GaConfig::elitism).
  bool elitism = false;

  // ---- parallel fitness evaluation (paper §VI outlook) ---------------------
  /// Number of threads evaluating candidate fitness concurrently (each gets
  /// its own fault simulator; results are bit-identical to a serial run).
  /// 1 = serial.
  unsigned num_threads = 1;

  // ---- ablation switches (DESIGN.md §6) -----------------------------------
  /// Run phases 1-3 (individual test vectors).
  bool enable_vector_phases = true;
  /// Run phase 4 (test sequences).
  bool enable_sequence_phase = true;
  /// Use the phase-3 activity term; when false, phase 3 falls back to the
  /// phase-2 fitness (isolates the contribution of the activity heuristic).
  bool use_activity_fitness = true;

  // ---- static-analysis fault pruning (analysis/prune) ---------------------
  /// Classify structurally untestable stuck-at faults (sequential-SCOAP
  /// infinity proofs) and report fault efficiency = detected/(total−pruned)
  /// alongside coverage.  Accounting only: the GA still simulates the full
  /// universe (its fitness denominators, activity observables, and sampling
  /// pools depend on it), so detected faults and test sequences are
  /// bit-identical with and without pruning.
  bool prune_untestable = false;
  /// Prove faults untestable with the static implication engine
  /// (analysis/untestable) and *remove* the provably-inert subset from the
  /// simulated universe before generation.  Unlike prune_untestable this
  /// shrinks every fault-simulation pass; the simulator counts pruned faults
  /// back into its per-frame denominators, so detected faults and test
  /// sequences stay bit-identical with pruning on or off (ctest-enforced on
  /// the golden s298/s344 runs at 1 and 4 threads).
  bool prune_proven = false;

  // ---- fault-simulation engine (fsim/backend.h) ----------------------------
  /// Engine name passed to make_fault_sim_backend.  "event" is the only
  /// engine; any other name makes GaTestGenerator's constructor throw.  The
  /// field stays because the end-to-end benchmark harness builds its replay
  /// simulators from it (bench/e2e/atpg.cpp:292, bench/e2e/serve.cpp:420).
  std::string fsim_backend = "event";

  // ---- fitness hot-path acceleration (DESIGN.md) ---------------------------
  /// Memoize genome→fitness results between commits.  Overlapping
  /// populations and elitist survivors re-evaluate identical genomes; a hit
  /// skips the fault simulation entirely.  Emitted tests are bit-identical
  /// with the cache on or off (ctest-enforced).
  bool fitness_cache = false;
  /// Max cached entries per evaluator before a whole-map eviction.
  std::size_t fitness_cache_capacity = 1u << 14;

  // ---- robustness guards (not in the paper; needed for circuits with
  // uninitializable flip-flops, which a simulation-based generator cannot
  // distinguish from hard-to-initialize ones) -------------------------------
  /// Abort phase 1 if this many consecutive vectors fail to initialize any
  /// additional flip-flop (multiplied by the sequential depth).
  double phase1_stall_multiplier = 4.0;
  /// Hard cap on the total test-set length.
  std::size_t max_vectors = 1u << 20;

  std::uint64_t seed = 1;
};

}  // namespace gatest
