// Versioned on-disk checkpoints for GA test-generation runs.
//
// A checkpoint captures everything GaTestGenerator needs to continue a run
// deterministically from a commit boundary: the committed test set, the
// per-fault detection state, the RNG state as of the boundary, the
// phase-machine position, and the result counters accumulated so far.
// Resume replays the committed vectors through a fresh simulator once,
// verifies the replayed fault statuses against the stored ones, then
// continues the phase loops — so a budget-stopped run resumed
// from its checkpoint produces the identical test set and coverage as an
// uninterrupted run with the same seed.
//
// Format: a line-oriented text file, first line "gatest-checkpoint v<N>".
// Unknown versions and truncated/corrupt files are rejected with
// std::runtime_error.  Saves are atomic (write to <path>.tmp, then rename).
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "fault/fault.h"
#include "gatest/fitness.h"
#include "sim/logic.h"

namespace gatest {

/// Where in the generator's phase machine a checkpoint was taken.
enum class MacroPhase : std::uint8_t {
  Vectors = 0,    ///< phases 1-3 (individual vectors)
  Sequences = 1,  ///< phase 4 (test sequences)
  Done = 2,
};

struct Checkpoint {
  static constexpr unsigned kFormatVersion = 1;

  // ---- identity (validated on resume) ------------------------------------
  std::string circuit_name;
  std::size_t num_inputs = 0;
  std::size_t num_faults = 0;
  std::uint64_t seed = 0;

  // ---- committed state -----------------------------------------------------
  std::vector<TestVector> test_set;
  std::vector<FaultStatus> fault_status;
  std::vector<std::int64_t> detected_by;

  // ---- generator position (commit-boundary snapshot) ----------------------
  std::array<std::uint64_t, 4> rng_state{};
  std::vector<std::uint8_t> last_best_genes;
  MacroPhase macro = MacroPhase::Vectors;
  Phase phase = Phase::InitializeFfs;
  unsigned noncontributing = 0;
  unsigned phase1_stall = 0;
  unsigned best_ffs_set = 0;
  std::size_t seq_mult_index = 0;
  unsigned seq_consecutive_failures = 0;

  // ---- result counters as of the boundary ---------------------------------
  std::size_t fitness_evaluations = 0;
  double seconds = 0.0;
  std::size_t vectors_from_vector_phases = 0;
  std::size_t vectors_from_sequences = 0;
  std::size_t detected_by_vectors = 0;
  std::size_t detected_by_sequences = 0;
  std::size_t sequence_attempts = 0;
  std::size_t sequences_committed = 0;
  bool all_ffs_initialized = false;
  unsigned progress_limit = 0;
  std::vector<unsigned> sequence_lengths_tried;

  void write(std::ostream& out) const;
  static Checkpoint read(std::istream& in);

  /// Atomic save: writes <path>.tmp then renames over <path>.
  void save(const std::string& path) const;
  static Checkpoint load(const std::string& path);
};

}  // namespace gatest
