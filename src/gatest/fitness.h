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
#include <utility>
#include <vector>

#include "fsim/fault_sim.h"
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

/// Computes candidate fitness against the simulator's committed state.
/// Each evaluator owns its simulator scratch, so one evaluator per thread
/// can share one simulator.
class FitnessEvaluator {
 public:
  /// Scores candidates through `sim`'s const evaluate_* calls; its circuit()
  /// sizes the fitness terms.
  explicit FitnessEvaluator(const SequentialFaultSimulator& sim) : sim_(&sim) {}

  /// Set the fault sample used for subsequent evaluations (empty = full
  /// remaining fault list).
  void set_sample(std::vector<std::uint32_t> sample) {
    sample_ = std::move(sample);
  }
  const std::vector<std::uint32_t>& sample() const { return sample_; }

  /// Fitness of a single candidate vector in the given vector phase (1-3).
  double vector_fitness(const TestVector& v, Phase phase);

  /// Fitness of a candidate sequence (phase 4).
  double sequence_fitness(const TestSequence& seq);

  /// Scalar fitness from raw observables (exposed for tests and ablations).
  double phase_fitness(const FaultSimStats& stats, Phase phase,
                       std::size_t seq_len) const;

  /// Scratch of this evaluator's simulator calls (and their counters).
  FaultSimScratch& scratch() { return scratch_; }
  const FaultSimScratch& scratch() const { return scratch_; }

 private:
  const SequentialFaultSimulator* sim_;
  FaultSimScratch scratch_;
  std::vector<std::uint32_t> sample_;
};

}  // namespace gatest
