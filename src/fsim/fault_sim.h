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
// Both machines run on one gate evaluator, the netlist compiled once into
// branch-free PackedGateOps: the good machine as words whose 64 lanes agree,
// swept over every gate each frame, which every faulty lane starts from.
// PROOFS' activity check is a table lookup per fault: a fault joins this
// frame's groups if its machine has diverged or its injection can excite.
// A group's fault injections live in flat per-gate tables and every working
// buffer in a FaultSimScratch that keeps its capacity, so a warm candidate
// evaluation allocates nothing and hashes nothing.
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

/// Lifetime workload counters (telemetry).  Commits count into the
/// simulator, each evaluation into the FaultSimScratch that ran it; merge
/// them with accumulate().  Observation-only — nothing in the simulator
/// reads them back.
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

/// Caller-owned working storage for candidate evaluation: everything an
/// evaluate_* call writes, plus the counters of that work.  The simulator
/// sizes it on first use; one scratch serves one thread at a time.  Every
/// buffer keeps its capacity between calls, so a warm evaluation allocates
/// nothing.  The commit path keeps its own, sized on the first commit, and
/// leaves the evaluation-only arrays at the end empty.
class FaultSimScratch {
 public:
  const FsimCounters& counters() const { return counters_; }

 private:
  friend class SequentialFaultSimulator;
  using FfDiff = std::pair<std::uint32_t, Logic>;  // (ff ordinal, faulty val)

  /// Output-stem injections of one group, as lane masks.  Transition faults
  /// may force X (an uncertain late transition), so three masks are needed.
  struct OutInj {
    std::uint64_t force0 = 0, force1 = 0, forceX = 0;
  };
  /// One input-pin injection (stuck-at only), chained per gate through
  /// `next` (an index into pin_inj_, or kNoPinInj).
  struct PinInj {
    std::int16_t pin;
    std::uint8_t lane;
    std::uint8_t stuck;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNoPinInj = ~0u;
  static constexpr std::uint8_t kOutInjFlag = 1, kPinInjFlag = 2;

  // Good machine of one frame: the scalar values (eval_val_/eval_prev_val_
  // hold the evaluated copy of the committed state) and gval_, the same
  // values as words whose 64 lanes agree, which the good sweep computes and
  // every fault group starts from.  gval_ and fval_ are PackedGateOps word
  // arrays: the identity words follow the gate words.
  std::vector<Logic> eval_val_;
  std::vector<Logic> eval_prev_val_;
  std::vector<Logic> latch_scratch_;
  std::vector<PackedVal> gval_;

  // Event-driven fault-group settling.  fval_ holds the group's faulty
  // words: gval_ except on the touched gates, which the group restores.
  std::vector<PackedVal> fval_;
  std::vector<std::uint8_t> ftouched_;
  std::vector<GateId> touched_list_;
  std::vector<std::vector<GateId>> flevel_queue_;
  std::vector<std::uint8_t> fqueued_;

  // Injection tables of one group, indexed by gate: inj_flags_ says which of
  // out_inj_ / pin_head_ hold this group's entries.  Reset through
  // inj_gates_, so stale entries are never read.
  std::vector<std::uint8_t> inj_flags_;
  std::vector<OutInj> out_inj_;
  std::vector<std::uint32_t> pin_head_;
  std::vector<PinInj> pin_inj_;
  std::vector<GateId> inj_gates_;

  // Faults of one frame (active_), those of them the activity check lets
  // through, cut into groups of kFaultSimLanes (frame_), and flip-flops to
  // capture for a group, marked per ordinal (ff_mark_).
  std::vector<std::uint32_t> active_;
  std::vector<std::uint32_t> frame_;
  std::vector<std::uint8_t> ff_mark_;
  std::vector<std::vector<FfDiff>> new_diffs_;  // per lane, this group

  // Copy-on-write faulty-state diffs and detections of one evaluation;
  // diverged_ starts as the committed flags and follows scratch_diffs_.
  std::vector<std::vector<FfDiff>> scratch_diffs_;
  std::vector<std::uint8_t> diverged_;
  std::vector<std::uint8_t> scratch_dirty_;
  std::vector<std::uint32_t> scratch_dirty_list_;
  std::vector<std::uint8_t> eval_detected_;
  std::vector<std::uint32_t> eval_detected_list_;

  FsimCounters counters_;
};

/// Everything needed to roll a simulator back: good values, per-fault state
/// diffs, and fault detection status.
struct FaultSimSnapshot {
  std::vector<Logic> good_values;
  std::vector<Logic> prev_values;  // pre-latch values of the last frame
  std::vector<std::vector<std::pair<std::uint32_t, Logic>>> diffs;
  std::vector<FaultStatus> status;
  std::vector<std::int64_t> detected_by;
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

  // ---- candidate evaluation (const: no state mutation) --------------------
  // Every write goes to `scratch`, so threads may evaluate concurrently, each
  // with its own scratch, while no commit runs.

  /// Fitness-evaluate a candidate vector against the committed state.
  /// `fault_subset`: distinct indices into the fault list to simulate (the
  /// paper's fault sampling); empty means every undetected fault.
  FaultSimStats evaluate_vector(
      const TestVector& v, FaultSimScratch& scratch,
      std::span<const std::uint32_t> fault_subset = {}) const;

  /// Fitness-evaluate a candidate sequence (faulty state evolves in the
  /// scratch across the frames; committed state is untouched).
  FaultSimStats evaluate_sequence(
      std::span<const TestVector> seq, FaultSimScratch& scratch,
      std::span<const std::uint32_t> fault_subset = {}) const;

  /// Fault-free-machine-only evaluation (GATEST phase 1 needs just the
  /// flip-flop initialization observables; no fault simulation is run).
  FaultSimStats evaluate_vector_good_only(const TestVector& v,
                                          FaultSimScratch& scratch) const;

  // ---- state access & checkpointing (paper §IV) ---------------------------

  /// Committed good-machine flip-flop state.
  std::vector<Logic> good_ff_state() const;

  /// Number of committed-good-machine flip-flops with binary values.
  unsigned good_ffs_set() const;

  FaultSimSnapshot snapshot() const;
  /// Roll machine state and every fault's status and detected-by record
  /// back to `s`.
  void restore(const FaultSimSnapshot& s);

  /// Lifetime counters of the commit path (evaluations count into their
  /// scratch).  Not part of snapshot()/restore(): they describe work
  /// performed, not machine state.
  const FsimCounters& counters() const { return commit_scratch_.counters_; }
  void reset_counters() { commit_scratch_.counters_ = FsimCounters{}; }

 private:
  using FfDiff = FaultSimScratch::FfDiff;

  struct EvalContext {
    FaultSimScratch* s = nullptr;  // commit_scratch_ or the caller's scratch
    // Good net values evolving frame by frame: &good_val_ when committing,
    // the scratch copy when evaluating.
    std::vector<Logic>* val = nullptr;
    // Previous frame's *pre-latch* good values (transition-fault launch
    // reference: flip-flop entries hold the state as seen during the
    // previous frame, so clock-edge transitions on flop outputs count).
    std::vector<Logic>* prev = nullptr;
    // Commit mode only (null while evaluating): the committed per-fault
    // diffs the frame rewrites.
    std::vector<std::vector<FfDiff>>* committed_diffs = nullptr;
    // Per fault, 1 while its diff is not empty: the committed flags when
    // committing, the scratch's copy when evaluating.
    std::uint8_t* diverged = nullptr;
    std::int64_t test_index = -1;
    // False only for explicit fault subsets (sampling mode).  When the full
    // universe is simulated, pruned faults are counted back into
    // faults_simulated so fitness denominators match an unpruned run.
    bool full_universe = true;
    bool commit() const { return committed_diffs != nullptr; }
  };

  /// One node as the fault groups read it: the netlist's type and level,
  /// and its readers minus frame sources (flip-flops and inputs never
  /// re-evaluate within a frame).  Its function is op `id` of ops_.
  struct FlatGate {
    GateType type = GateType::Buf;
    std::uint32_t level = 0;
    std::uint32_t reader_begin = 0, num_readers = 0;  // into readers_
  };

  /// What a fault forces on its line: a stuck constant, or a transition
  /// fault's held previous value.
  enum class Injection : std::uint8_t {
    Stuck0,
    Stuck1,
    SlowToRise,
    SlowToFall,
  };

  /// Simulate one frame: good machine, then every fault in ctx.s->active_
  /// (already filtered to undetected; newly detected faults are removed).
  FaultSimStats simulate_frame(const TestVector& v,
                               const EvalContext& ctx) const;

  void settle_good(const TestVector& v, const EvalContext& ctx,
                   FaultSimStats& stats) const;
  void latch_good(const EvalContext& ctx, FaultSimStats& stats) const;

  /// The faulty-machine kernel: settle every fault in ctx.s->active_ that
  /// can deviate against the good frame in *ctx.val, record detections/
  /// fault-effects/faulty-events into `stats`, update the per-fault diff
  /// lists, and erase newly detected faults from the active list.
  void simulate_fault_groups(const EvalContext& ctx,
                             FaultSimStats& stats) const;
  /// Settle the faults of `group` (one per lane); returns the lanes
  /// detected at a primary output.
  std::uint64_t settle_group(std::span<const std::uint32_t> group,
                             const EvalContext& ctx,
                             FaultSimStats& stats) const;

  const std::vector<FfDiff>& diff_of(std::uint32_t fi,
                                     const EvalContext& ctx) const;
  static void write_diff(std::uint32_t fi, const std::vector<FfDiff>& d,
                         const EvalContext& ctx);
  /// Size the gate- and flip-flop-indexed buffers of `s` for this circuit
  /// if they do not fit (commits and evaluations both need them).
  void fit_frame_buffers(FaultSimScratch& s) const;
  /// Ready `s` for an evaluation: clear the last one's diffs and detection
  /// flags, and size `s` for this circuit and fault list if it does not fit.
  void prepare(FaultSimScratch& s) const;
  void seed_const_nets(std::vector<Logic>& val) const;

  /// Value the faulty machine sees on the faulted line this frame, given the
  /// fault-free current and previous-frame values of that line.
  static constexpr Logic forced_value(Injection kind, Logic cur, Logic prev);

  const Circuit* circuit_;
  FaultList* faults_;

  // Committed state.
  std::vector<Logic> good_val_;                 // every net, last frame
  std::vector<Logic> prev_val_;                 // pre-latch values, last frame
  std::vector<std::vector<FfDiff>> diffs_;      // per fault
  std::vector<std::uint8_t> diverged_;          // per fault: diff not empty

  // Flat, read-only views of the circuit and fault list, built once.
  std::vector<FlatGate> gates_;                 // per gate
  PackedGateOps ops_;                           // op i = gate i
  std::vector<GateId> readers_;
  std::vector<GateId> comb_order_;              // topo order minus sources
  std::vector<GateId> const_nets_;
  std::vector<GateId> ff_din_;                  // FF ordinal -> data input
  std::vector<std::uint32_t> ff_ordinal_;       // gate id -> ordinal or ~0
  // Per fault, for the activity check: the net whose good value the faulted
  // line carries (the driver, for an input-pin fault) and what it forces.
  std::vector<GateId> fault_site_;
  std::vector<Injection> fault_kind_;

  FaultSimScratch commit_scratch_;              // commit path's scratch
};

}  // namespace gatest
