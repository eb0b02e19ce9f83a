// The four GATEST fitness functions (paper §III-B).
//
// Phase 1 (initialization):
//     fitness = #flip-flops set + fraction of flip-flops changed
// Phase 2 (detection):
//     fitness = #faults detected
//             + #fault effects at flip-flops / (#faults * #flip-flops)
// Phase 3 (detection + activity):
//     fitness = phase-2 fitness
//             + 2 * (good + faulty circuit events) / (#nodes * #faults)
// Phase 4 (sequences):
//     fitness = #faults detected
//             + #fault effects at flip-flops / (#faults * #flip-flops * len)
//
// "#fault effects at flip-flops" counts (fault, flip-flop) pairs — the
// denominators normalize each secondary term below 1 so the detection count
// always dominates, as the paper requires.  In phase 4 the sequence length
// joins the denominator because effects accumulate over every frame.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "fsim/fault_sim.h"
#include "gatest/config.h"
#include "sim/logic.h"

namespace gatest {

/// GATEST generation phase.
enum class Phase : std::uint8_t {
  InitializeFfs = 1,
  DetectFaults = 2,
  DetectWithActivity = 3,
  Sequences = 4,
};

/// Stable lowercase phase identifier ("init_ffs", "detect", ...) used in
/// trace events and metric names.
const char* phase_name(Phase phase);

/// Decode a GA chromosome (one bit per PI per frame) into test vectors.
TestVector decode_vector(const std::vector<std::uint8_t>& genes,
                         std::size_t num_pis, std::size_t frame = 0);
TestSequence decode_sequence(const std::vector<std::uint8_t>& genes,
                             std::size_t num_pis);

/// Observability counters for the genome→fitness memoization cache.
struct FitnessCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;        ///< enabled lookups that ran the simulator
  std::uint64_t evictions = 0;     ///< entries dropped for capacity
  std::uint64_t invalidations = 0; ///< whole-cache clears (epoch/sample change)

  void accumulate(const FitnessCacheStats& o) {
    hits += o.hits;
    misses += o.misses;
    evictions += o.evictions;
    invalidations += o.invalidations;
  }
};

/// Computes candidate fitness against the simulator's committed state.
/// Each evaluator owns its simulator scratch, so one evaluator per thread
/// can share one simulator.
class FitnessEvaluator {
 public:
  /// Scores candidates through `sim`'s const evaluate_* calls; its circuit()
  /// and state_epoch() size the fitness terms and key the cache, which
  /// starts as `config`'s fitness_cache settings say.
  FitnessEvaluator(const SequentialFaultSimulator& sim,
                   const TestGenConfig& config);

  /// Set the fault sample used for subsequent evaluations (empty = full
  /// remaining fault list).  Invalidates the cache only when the sample
  /// actually changes, so repeated refreshes with an unchanged sample keep
  /// memoized fitness alive.
  void set_sample(std::vector<std::uint32_t> sample);
  const std::vector<std::uint32_t>& sample() const { return sample_; }

  /// Enable/disable the genome→fitness memoization cache.  Entries are keyed
  /// on (phase, candidate bits) and implicitly on the simulator's committed-
  /// state epoch: any commit, reset, restore, or fault-status import bumps
  /// the epoch and the next lookup clears the map.  Disabling drops all
  /// entries but keeps the stats.
  void set_cache(bool enabled, std::size_t capacity = kDefaultCacheCapacity);
  bool cache_enabled() const { return cache_enabled_; }
  const FitnessCacheStats& cache_stats() const { return cache_stats_; }

  /// Fitness of a single candidate vector in the given vector phase (1-3).
  double vector_fitness(const TestVector& v, Phase phase);

  /// Fitness of a candidate sequence (phase 4).
  double sequence_fitness(const TestSequence& seq);

  /// Scalar fitness from raw observables (exposed for tests and ablations).
  double phase_fitness(const FaultSimStats& stats, Phase phase,
                       std::size_t seq_len) const;

  /// Logical fitness calls, cache hits included.  Budgets (`--max-evals`)
  /// and checkpoints consume this count so runs stop at identical points
  /// whether or not the cache is on.
  std::size_t evaluations() const { return evaluations_; }

  /// Fitness calls that actually ran the simulator (== evaluations() minus
  /// cache hits).
  std::size_t sim_evaluations() const { return sim_evaluations_; }

  /// Evaluations attributed to one phase (index by Phase; telemetry).
  std::size_t evaluations_in(Phase phase) const {
    return phase_evaluations_[static_cast<std::size_t>(phase) - 1];
  }

  /// Scratch of this evaluator's simulator calls (and their counters).
  FaultSimScratch& scratch() { return scratch_; }
  const FaultSimScratch& scratch() const { return scratch_; }

  static constexpr std::size_t kDefaultCacheCapacity = 1u << 14;

 private:
  /// Clear the cache when the simulator's committed-state epoch moved since
  /// the last lookup.
  void refresh_cache_epoch();
  /// Build the lookup key for a (phase, frames) candidate into key_buf_.
  void make_key(Phase phase, std::span<const TestVector> frames);
  /// Cache-aware wrapper: looks up key_buf_, else runs `compute` and stores.
  template <typename Compute>
  double cached(Compute&& compute);

  const SequentialFaultSimulator* sim_;
  FaultSimScratch scratch_;
  std::vector<std::uint32_t> sample_;
  std::size_t evaluations_ = 0;
  std::size_t sim_evaluations_ = 0;
  std::size_t phase_evaluations_[4] = {0, 0, 0, 0};

  // Full keys (phase byte + raw Logic bytes) are stored, not hashes, so a
  // hash collision can never return the wrong fitness — a hard requirement
  // for the cache-on/off bit-identity gates.
  bool cache_enabled_ = false;
  std::size_t cache_capacity_ = kDefaultCacheCapacity;
  std::uint64_t cache_epoch_ = 0;
  bool cache_epoch_valid_ = false;
  std::string key_buf_;
  std::unordered_map<std::string, double> cache_;
  FitnessCacheStats cache_stats_;
};

}  // namespace gatest
