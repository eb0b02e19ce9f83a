// Event-driven, levelized, 64-lane three-valued logic simulator for the
// fault-free machine.
//
// Lanes are independent copies of the circuit: the GA evaluator maps one
// candidate test per lane (so a whole population settles in one pass), the
// CRIS-style baseline maps one sequence per lane, and single-lane use is
// plain logic simulation.
//
// A time frame is: write primary inputs -> settle combinational logic ->
// observe outputs -> latch flip-flops.  Flip-flop output nodes change value
// only at the latch.
#pragma once

#include <cstdint>
#include <vector>

#include "netlist/circuit.h"
#include "sim/logic.h"
#include "sim/packed.h"

namespace gatest {

/// Per-step activity statistics (used by GATEST's phase-3 fitness).
struct LogicSimStats {
  /// Sum over gates of the number of lanes whose value changed during the
  /// combinational settle and flip-flop latch — "circuit events".
  std::uint64_t events = 0;
};

class ParallelLogicSim {
 public:
  explicit ParallelLogicSim(const Circuit& c);

  const Circuit& circuit() const { return *circuit_; }

  /// Forget all state: every net and flip-flop becomes X in every lane.
  void reset();

  // ---- flip-flop state ----------------------------------------------------

  /// Set every lane's flip-flop state (ffs[i] applies to circuit().dffs()[i]).
  void set_ff_state_all(const std::vector<Logic>& ffs);

  /// Set one lane's flip-flop state.
  void set_ff_state_lane(unsigned lane, const std::vector<Logic>& ffs);

  /// Read one lane's flip-flop state.
  std::vector<Logic> ff_state_lane(unsigned lane) const;

  // ---- stepping -----------------------------------------------------------

  /// Apply one input vector to every lane and run one time frame.
  LogicSimStats step_broadcast(const TestVector& pis);

  /// Apply per-lane input vectors (lane-major: vectors[lane]) to the first
  /// vectors.size() lanes; remaining lanes receive X inputs.
  LogicSimStats step_per_lane(const std::vector<TestVector>& vectors);

  /// Apply pre-packed input values (pi_vals[i] drives circuit().inputs()[i]).
  LogicSimStats step_packed(const std::vector<PackedVal>& pi_vals);

  // ---- observation --------------------------------------------------------

  /// Packed value of any node after the last step.
  PackedVal value(GateId id) const { return values_[id]; }

  /// Primary-output values of one lane after the last step.
  std::vector<Logic> outputs_lane(unsigned lane) const;

  /// Number of flip-flops holding a binary value in a lane.
  unsigned ffs_set_lane(unsigned lane) const;

  /// Per-lane event counts accumulated since the last reset_event_counts().
  const std::vector<std::uint64_t>& lane_events() const { return lane_events_; }
  void reset_event_counts();

 private:
  void schedule(GateId id);
  void write_value(GateId id, PackedVal v, bool count_events);
  LogicSimStats settle_and_latch();

  const Circuit* circuit_;
  PackedGateOps ops_;                              // op i = gate i
  std::vector<PackedVal> values_;                  // PackedGateOps words
  std::vector<std::vector<GateId>> level_queue_;   // pending gates per level
  std::vector<bool> queued_;
  std::vector<std::uint64_t> lane_events_;
  std::vector<PackedVal> latch_scratch_;
  std::uint64_t step_events_ = 0;
  bool first_step_ = true;
};

}  // namespace gatest
