// PROOFS-style sequential circuit fault simulator (Niermann, Cheng, Patel,
// IEEE TCAD 1992), extended with the modifications the GATEST paper's §IV
// describes: candidate tests can be *evaluated* against the committed
// good/faulty machine state without disturbing it, and the simulator reports
// the observables GATEST's fitness functions need (fault-effects-at-flip-
// flops and good+faulty circuit event counts).
//
// Algorithm: for each vector, the fault-free machine is simulated first;
// undetected faults are then simulated in groups of up to 64, one faulty
// machine per bit lane, event-driven from the fault-injection sites and from
// flip-flops whose faulty state differs from the good state.  Faulty state
// is stored per fault as a diff list against the good flip-flop state, so
// the (typical) fault whose machine re-converged to the good machine costs
// nothing.  Detected faults are dropped.
//
// Fault models: classic single stuck-at faults plus gross-delay transition
// faults (slow-to-rise/slow-to-fall, modeled as conditional stuck-at — the
// faulty line holds its previous fault-free value through a missed edge;
// see FaultModel).  The GA test generator runs on either universe.
//
// This is the repo's one fault-simulation engine.  The GA test generator,
// the fitness evaluator, checkpoint/resume, the serve daemon and the bench
// harnesses all drive it directly; fsim/backend.h only keeps construction
// by engine name for callers that still select it through
// TestGenConfig::fsim_backend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fault/fault.h"
#include "netlist/circuit.h"
#include "sim/logic.h"
#include "sim/packed.h"

namespace gatest {

/// Faulty machines packed per fault group: one per bit of a PackedVal word.
inline constexpr unsigned kFaultSimLanes = 64;

/// Observables from simulating one vector (or accumulated over a sequence).
/// These are exactly the quantities GATEST's four fitness phases consume.
struct FaultSimStats {
  /// Faults newly detected at a primary output (definite binary difference).
  unsigned detected = 0;
  /// (fault, flip-flop) pairs where a definite fault effect (good and faulty
  /// next-state both binary and different) reached a flip-flop.
  unsigned fault_effects_at_ffs = 0;
  /// Fault-free machine events: gates whose value changed this frame.
  std::uint64_t good_events = 0;
  /// Faulty machine events: per-lane value deviations created while settling
  /// the fault groups (proxy for faulty-circuit activity, cf. paper §III-B).
  std::uint64_t faulty_events = 0;
  /// Fault-free flip-flops holding a binary value after the frame.
  unsigned ffs_set = 0;
  /// Fault-free flip-flops whose value changed to a (different) binary value.
  unsigned ffs_changed = 0;
  /// Number of faults actually simulated (sample size in sampling mode).
  unsigned faults_simulated = 0;

  void accumulate(const FaultSimStats& s) {
    detected += s.detected;
    fault_effects_at_ffs += s.fault_effects_at_ffs;
    good_events += s.good_events;
    faulty_events += s.faulty_events;
    ffs_set = s.ffs_set;          // state-like: keep last frame's
    ffs_changed += s.ffs_changed;
    faults_simulated = std::max(faults_simulated, s.faults_simulated);
  }
};

/// Lifetime workload counters, accumulated across every call (telemetry).
/// Plain non-atomic fields: a simulator instance is confined to one thread;
/// parallel runs use one simulator per worker and merge with accumulate().
/// Observation-only — nothing in the simulator reads them back.
struct FsimCounters {
  std::uint64_t vectors_committed = 0;    ///< committed frames (apply_*)
  std::uint64_t candidate_evaluations = 0;///< evaluate_* calls
  std::uint64_t frames_simulated = 0;     ///< frames incl. candidate frames
  std::uint64_t good_events = 0;          ///< fault-free machine events
  std::uint64_t faulty_events = 0;        ///< packed faulty-machine events
  std::uint64_t faults_dropped = 0;       ///< faults detected & dropped (commit)
  std::uint64_t fault_groups = 0;         ///< packed groups settled
  std::uint64_t fault_group_lanes = 0;    ///< faults across those groups

  /// Mean occupancy of the packed bit lanes, in [0, 1].  Low values mean
  /// the undetected-fault tail no longer fills packed words.
  double packed_utilization() const {
    return fault_groups == 0
               ? 0.0
               : static_cast<double>(fault_group_lanes) /
                     (kFaultSimLanes * static_cast<double>(fault_groups));
  }

  void accumulate(const FsimCounters& o) {
    vectors_committed += o.vectors_committed;
    candidate_evaluations += o.candidate_evaluations;
    frames_simulated += o.frames_simulated;
    good_events += o.good_events;
    faulty_events += o.faulty_events;
    faults_dropped += o.faults_dropped;
    fault_groups += o.fault_groups;
    fault_group_lanes += o.fault_group_lanes;
  }
};

/// Everything needed to roll a simulator back: good values, per-fault state
/// diffs, and fault detection status.
struct FaultSimSnapshot {
  std::vector<Logic> good_values;
  std::vector<Logic> prev_values;  // pre-latch values of the last frame
  std::vector<std::vector<std::pair<std::uint32_t, Logic>>> diffs;
  std::vector<FaultStatus> status;
  std::vector<std::int64_t> detected_by;
  bool started = false;
};

class SequentialFaultSimulator {
 public:
  /// The fault list is shared, mutable bookkeeping: committed vectors mark
  /// faults detected there.  Both objects must outlive the simulator.
  SequentialFaultSimulator(const Circuit& c, FaultList& faults);

  const Circuit& circuit() const { return *circuit_; }

  /// Forget all committed state: good machine all-X, every faulty machine
  /// equal to the good machine.  Does not reset the fault list.
  void reset();

  // ---- committed simulation ----------------------------------------------

  /// Simulate one vector, update good and faulty state, and drop faults it
  /// detects (marked detected-by `test_index` in the fault list).
  FaultSimStats apply_vector(const TestVector& v, std::int64_t test_index);

  /// Apply a whole sequence (indices test_index, test_index+1, ...).
  FaultSimStats apply_sequence(const TestSequence& seq,
                               std::int64_t test_index);

  /// Checkpoint resume: forget all committed state AND fault bookkeeping,
  /// then re-commit `tests` from index 0, deterministically rebuilding the
  /// good/faulty machine state and each fault's detected-by record.
  FaultSimStats replay_committed(const TestSequence& tests);

  // ---- fault-status export/import (run-control checkpointing) -------------

  /// Snapshot the shared fault list's detection state.
  void export_fault_status(std::vector<FaultStatus>& status,
                           std::vector<std::int64_t>& detected_by) const;

  /// Restore detection state exported earlier.  Only bookkeeping moves; the
  /// simulator's machine state is untouched (pair with replay_committed()).
  void import_fault_status(const std::vector<FaultStatus>& status,
                           const std::vector<std::int64_t>& detected_by);

  // ---- candidate evaluation (no state mutation) ---------------------------

  /// Fitness-evaluate a candidate vector against the committed state.
  /// `fault_subset`: indices into the fault list to simulate (the paper's
  /// fault sampling); empty means every undetected fault.
  FaultSimStats evaluate_vector(
      const TestVector& v, std::span<const std::uint32_t> fault_subset = {});

  /// Fitness-evaluate a candidate sequence (faulty state evolves in scratch
  /// storage across the frames; committed state is untouched).
  FaultSimStats evaluate_sequence(
      const TestSequence& seq,
      std::span<const std::uint32_t> fault_subset = {});

  /// Fault-free-machine-only evaluation (GATEST phase 1 needs just the
  /// flip-flop initialization observables; no fault simulation is run).
  FaultSimStats evaluate_vector_good_only(const TestVector& v);

  // ---- state access & checkpointing (paper §IV) ---------------------------

  /// Committed good-machine flip-flop state.
  std::vector<Logic> good_ff_state() const;

  /// Number of committed-good-machine flip-flops with binary values.
  unsigned good_ffs_set() const;

  FaultSimSnapshot snapshot() const;
  /// Roll machine state and every fault's status and detected-by record
  /// back to `s`.
  void restore(const FaultSimSnapshot& s);

  /// Lifetime workload counters (not part of snapshot()/restore(): they
  /// describe work performed, not machine state).
  const FsimCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = FsimCounters{}; }

  // ---- committed-state epoch (memoization support) ------------------------

  /// Monotonic counter bumped whenever the committed machine state or the
  /// fault list's detection bookkeeping changes (apply_*, reset, restore,
  /// replay_committed, import_fault_status).  Candidate evaluation never
  /// bumps it, so a fitness value computed against epoch E is valid for as
  /// long as state_epoch() == E — the FitnessEvaluator cache keys on this.
  std::uint64_t state_epoch() const { return state_epoch_; }

 private:
  using FfDiff = std::pair<std::uint32_t, Logic>;  // (ff ordinal, faulty val)

  struct EvalContext {
    // Good net values evolving frame by frame: &good_val_ when committing,
    // a scratch copy when evaluating.
    std::vector<Logic>* val = nullptr;
    // Previous frame's *pre-latch* good values (transition-fault launch
    // reference: flip-flop entries hold the state as seen during the
    // previous frame, so clock-edge transitions on flop outputs count).
    std::vector<Logic>* prev = nullptr;
    bool commit = false;
    std::int64_t test_index = -1;
    // False only for explicit fault subsets (sampling mode).  When the full
    // universe is simulated, pruned faults are counted back into
    // faults_simulated so fitness denominators match an unpruned run.
    bool full_universe = true;
  };

  /// Simulate one frame: good machine, then all faults in `active`
  /// (already filtered to undetected; newly detected faults are removed).
  FaultSimStats simulate_frame(const TestVector& v,
                               std::vector<std::uint32_t>& active,
                               EvalContext& ctx);

  void settle_good(const TestVector& v, EvalContext& ctx, FaultSimStats& stats);
  void latch_good(EvalContext& ctx, FaultSimStats& stats);

  /// The faulty-machine kernel: settle every fault in `active` against the
  /// good frame in *ctx.val, record detections/fault-effects/faulty-events
  /// into `stats`, update the per-fault diff lists, and erase newly detected
  /// faults from `active`.
  void simulate_fault_groups(std::vector<std::uint32_t>& active,
                             EvalContext& ctx, FaultSimStats& stats);

  const std::vector<FfDiff>& diff_of(std::uint32_t fi, bool commit) const;
  void write_diff(std::uint32_t fi, std::vector<FfDiff> d, bool commit);
  void begin_eval();  // reset scratch diffs / scratch detection flags

  /// Value the faulty machine sees on the faulted line this frame, given the
  /// fault-free current and previous-frame values of that line.
  static Logic injected_value(const Fault& f, Logic cur, Logic prev);

  /// True if the fault can deviate this frame: nonempty state diff or an
  /// injection whose forced value may differ from the good value.
  bool fault_is_active(std::uint32_t fi, const EvalContext& ctx) const;

  const Circuit* circuit_;
  FaultList* faults_;

  // Committed state.
  std::vector<Logic> good_val_;                 // every net, last frame
  std::vector<Logic> prev_val_;                 // pre-latch values, last frame
  std::vector<std::vector<FfDiff>> diffs_;      // per fault
  bool started_ = false;                        // any vector committed yet

  // Pre-computed per-FF ordinal of each DFF node and reverse map.
  std::vector<std::uint32_t> ff_ordinal_;       // gate id -> ordinal or ~0

  // Scratch for event-driven fault-group settling (sized once).
  std::vector<PackedVal> fval_;
  std::vector<std::uint8_t> ftouched_;
  std::vector<GateId> touched_list_;
  std::vector<std::vector<GateId>> flevel_queue_;
  std::vector<std::uint8_t> fqueued_;

  // Copy-on-write scratch diffs for evaluation mode.
  std::vector<std::vector<FfDiff>> scratch_diffs_;
  std::vector<std::uint8_t> scratch_dirty_;
  std::vector<std::uint32_t> scratch_dirty_list_;
  std::vector<std::uint8_t> eval_detected_;
  std::vector<std::uint32_t> eval_detected_list_;

  // Other per-call scratch.
  std::vector<Logic> eval_val_;
  std::vector<Logic> eval_prev_val_;
  std::vector<Logic> latch_scratch_;

  std::uint64_t state_epoch_ = 0;

  FsimCounters counters_;
};

}  // namespace gatest
