#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "analysis/untestable.h"
#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "diagnosis/diagnosis.h"
#include "gatest/test_generator.h"
#include "netlist/circuit.h"
#include "sim/logic.h"
#include "util/rng.h"

namespace gatest {
namespace {

// ---- brute-force reference fault simulator ----------------------------------
//
// One full 3-valued machine per fault, evaluated gate by gate each frame.
// Used as the golden model for the PROOFS-style simulator's detection sets
// and per-frame flip-flop fault-effect counts.  Detection is checked on the
// settled combinational frame *before* the latch commits (primary outputs may
// tap flop nodes directly), matching the packed simulator's ordering.

class ReferenceFaultSim {
 public:
  /// Per-frame observables comparable to FaultSimStats.
  struct FrameStats {
    std::size_t detected = 0;
    std::size_t ff_effects = 0;  ///< (fault, flop) definite-difference pairs
  };

  ReferenceFaultSim(const Circuit& c, const std::vector<Fault>& faults)
      : c_(c), faults_(faults) {
    good_.assign(c.num_gates(), Logic::X);
    faulty_.assign(faults.size(),
                   std::vector<Logic>(c.num_gates(), Logic::X));
    detected_.assign(faults.size(), false);
  }

  FrameStats apply(const TestVector& v) {
    FrameStats fs;
    settle(good_, v, nullptr);
    const std::vector<Logic> good_next = next_state(good_, nullptr);
    for (std::size_t f = 0; f < faults_.size(); ++f) {
      if (detected_[f]) continue;
      settle(faulty_[f], v, &faults_[f]);
      bool det = false;
      for (GateId po : c_.outputs()) {
        const Logic g = value_of(good_, po, nullptr);
        const Logic b = value_of(faulty_[f], po, &faults_[f]);
        if (is_binary(g) && is_binary(b) && g != b) {
          det = true;
          break;
        }
      }
      const std::vector<Logic> next = next_state(faulty_[f], &faults_[f]);
      latch(faulty_[f], next);
      if (det) {
        detected_[f] = true;
        ++fs.detected;
        continue;  // dropped: its state no longer matters
      }
      // A fault effect at a flip-flop is a definite binary difference
      // between the good and faulty captured next-states, counted only for
      // faults that survive the frame (the packed simulator drops detected
      // lanes before capture).
      for (std::size_t i = 0; i < next.size(); ++i)
        if (is_binary(good_next[i]) && is_binary(next[i]) &&
            good_next[i] != next[i])
          ++fs.ff_effects;
    }
    latch(good_, good_next);
    return fs;
  }

  bool detected(std::size_t f) const { return detected_[f]; }
  std::size_t num_detected() const {
    return static_cast<std::size_t>(
        std::count(detected_.begin(), detected_.end(), true));
  }

 private:
  // Value of node `id` as seen by readers (output faults force it).
  Logic value_of(const std::vector<Logic>& val, GateId id,
                 const Fault* f) const {
    if (f && f->pin == Fault::kOutputPin && f->gate == id)
      return f->stuck ? Logic::One : Logic::Zero;
    return val[id];
  }

  Logic eval(const std::vector<Logic>& val, GateId id, const Fault* f) const {
    const Gate& g = c_.gate(id);
    auto in = [&](std::size_t i) {
      if (f && f->pin == static_cast<std::int16_t>(i) && f->gate == id)
        return f->stuck ? Logic::One : Logic::Zero;
      return value_of(val, g.fanins[i], f);
    };
    switch (g.type) {
      case GateType::Const0: return Logic::Zero;
      case GateType::Const1: return Logic::One;
      case GateType::Buf:    return in(0);
      case GateType::Not:    return logic_not(in(0));
      case GateType::And:
      case GateType::Nand: {
        Logic acc = in(0);
        for (std::size_t i = 1; i < g.fanins.size(); ++i)
          acc = logic_and(acc, in(i));
        return g.type == GateType::Nand ? logic_not(acc) : acc;
      }
      case GateType::Or:
      case GateType::Nor: {
        Logic acc = in(0);
        for (std::size_t i = 1; i < g.fanins.size(); ++i)
          acc = logic_or(acc, in(i));
        return g.type == GateType::Nor ? logic_not(acc) : acc;
      }
      case GateType::Xor:
      case GateType::Xnor: {
        Logic acc = in(0);
        for (std::size_t i = 1; i < g.fanins.size(); ++i)
          acc = logic_xor(acc, in(i));
        return g.type == GateType::Xnor ? logic_not(acc) : acc;
      }
      default: return Logic::X;
    }
  }

  /// Load PIs and settle the combinational frame (no latch).
  void settle(std::vector<Logic>& val, const TestVector& v,
              const Fault* f) {
    for (std::size_t i = 0; i < c_.num_inputs(); ++i)
      val[c_.inputs()[i]] = v[i];
    for (GateId id : c_.topo_order())
      if (!is_combinational_source(c_.gate(id).type))
        val[id] = eval(val, id, f);
  }

  /// Captured next-state values (simultaneous; D-pin faults latch the stuck
  /// value), one per flip-flop in c_.dffs() order.
  std::vector<Logic> next_state(const std::vector<Logic>& val,
                                const Fault* f) const {
    std::vector<Logic> next;
    next.reserve(c_.dffs().size());
    for (GateId ff : c_.dffs()) {
      Logic d = value_of(val, c_.gate(ff).fanins[0], f);
      if (f && f->gate == ff && f->pin == 0)
        d = f->stuck ? Logic::One : Logic::Zero;
      next.push_back(d);
    }
    return next;
  }

  void latch(std::vector<Logic>& val, const std::vector<Logic>& next) {
    for (std::size_t i = 0; i < c_.dffs().size(); ++i)
      val[c_.dffs()[i]] = next[i];
  }

  const Circuit& c_;
  std::vector<Fault> faults_;
  std::vector<Logic> good_;
  std::vector<std::vector<Logic>> faulty_;
  std::vector<bool> detected_;
};

TestVector random_vector(const Circuit& c, Rng& rng) {
  TestVector v(c.num_inputs());
  for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
  return v;
}

void expect_stats_equal(const FaultSimStats& got, const FaultSimStats& want,
                        const std::string& ctx) {
  EXPECT_EQ(got.detected, want.detected) << ctx;
  EXPECT_EQ(got.fault_effects_at_ffs, want.fault_effects_at_ffs) << ctx;
  EXPECT_EQ(got.good_events, want.good_events) << ctx;
  EXPECT_EQ(got.faulty_events, want.faulty_events) << ctx;
  EXPECT_EQ(got.ffs_set, want.ffs_set) << ctx;
  EXPECT_EQ(got.ffs_changed, want.ffs_changed) << ctx;
  EXPECT_EQ(got.faults_simulated, want.faults_simulated) << ctx;
}

// ---- directed unit tests ----------------------------------------------------

TEST(FaultSim, DetectsStuckOutputOnCombinationalGate) {
  Circuit c("and2");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::And, "g", {a, b});
  c.add_output(g);
  c.finalize();

  FaultList fl(c, {Fault{g, Fault::kOutputPin, 0}});
  SequentialFaultSimulator sim(c, fl);
  // 0,1 does not detect g s-a-0 (good output already 0).
  FaultSimStats s = sim.apply_vector(logic_vector("01"), 0);
  EXPECT_EQ(s.detected, 0u);
  // 1,1 detects it (good 1, faulty 0).
  s = sim.apply_vector(logic_vector("11"), 1);
  EXPECT_EQ(s.detected, 1u);
  EXPECT_EQ(fl.status(0), FaultStatus::Detected);
  EXPECT_EQ(fl.detected_by(0), 1);
}

TEST(FaultSim, DetectsInputPinFaultOnlyThroughItsBranch) {
  // a branches to AND and BUF; the AND.in0 s-a-1 fault must be invisible
  // through the BUF path.
  Circuit c("branch");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g1 = c.add_gate(GateType::And, "g1", {a, b});
  const GateId g2 = c.add_gate(GateType::Buf, "g2", {a});
  c.add_output(g1);
  c.add_output(g2);
  c.finalize();

  FaultList fl(c, {Fault{g1, 0, 1}});
  SequentialFaultSimulator sim(c, fl);
  // a=0, b=1: good g1 = 0, faulty g1 = AND(1,1) = 1 -> detected; g2 shows
  // 0 in both machines.
  const FaultSimStats s = sim.apply_vector(logic_vector("01"), 0);
  EXPECT_EQ(s.detected, 1u);
}

TEST(FaultSim, SequentialFaultNeedsTwoFrames) {
  // pi -> ff -> not -> po.  A stuck flop output needs one frame to load a
  // distinguishing value and is observed in the next frame.
  Circuit c("seq");
  const GateId pi = c.add_input("pi");
  const GateId ff = c.add_dff("ff", pi);
  const GateId n = c.add_gate(GateType::Not, "n", {ff});
  c.add_output(n);
  c.finalize();

  FaultList fl(c, {Fault{ff, Fault::kOutputPin, 0}});
  SequentialFaultSimulator sim(c, fl);
  EXPECT_EQ(sim.apply_vector(logic_vector("1"), 0).detected, 0u);
  // After the latch, good ff = 1, faulty ff forced 0 -> PO differs now.
  EXPECT_EQ(sim.apply_vector(logic_vector("0"), 1).detected, 1u);
}

TEST(FaultSim, FaultEffectAtFlipFlopCounted) {
  Circuit c("seq");
  const GateId pi = c.add_input("pi");
  const GateId inv = c.add_gate(GateType::Not, "inv", {pi});
  const GateId ff = c.add_dff("ff", inv);
  const GateId n = c.add_gate(GateType::Buf, "n", {ff});
  c.add_output(n);
  c.finalize();

  FaultList fl(c, {Fault{inv, Fault::kOutputPin, 0}});
  SequentialFaultSimulator sim(c, fl);
  // pi=0: good inv = 1, faulty 0: a definite fault effect reaches the flop.
  const FaultSimStats s = sim.apply_vector(logic_vector("0"), 0);
  EXPECT_EQ(s.detected, 0u);
  EXPECT_EQ(s.fault_effects_at_ffs, 1u);
}

TEST(FaultSim, XStateBlocksDetection) {
  // With the flop uninitialized, good PO is X: nothing can be detected.
  Circuit c("seq");
  const GateId pi = c.add_input("pi");
  const GateId ff = c.add_dff("ff");
  const GateId g = c.add_gate(GateType::And, "g", {pi, ff});
  c.set_dff_input(ff, g);
  c.add_output(ff);
  c.finalize();

  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  const FaultSimStats s = sim.apply_vector(logic_vector("1"), 0);
  EXPECT_EQ(s.detected, 0u);
}

TEST(FaultSim, Phase1Observables) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  EXPECT_EQ(sim.good_ffs_set(), 0u);
  const FaultSimStats s = sim.apply_vector(logic_vector("0000"), 0);
  // s27 initializes G6 (via G11=NOR(G5=X, G9)) only when G9=1 ... at least
  // some flops must resolve on an all-zero vector; exact value checked via
  // simulator state.
  EXPECT_EQ(s.ffs_set, sim.good_ffs_set());
  EXPECT_GE(s.ffs_set, 1u);
  EXPECT_LE(s.ffs_set, 3u);
}

TEST(FaultSim, GoodOnlyEvaluationMatchesApply) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  const TestVector v = logic_vector("0110");
  const FaultSimStats ev = sim.evaluate_vector_good_only(v, scratch);
  const FaultSimStats ap = sim.apply_vector(v, 0);
  EXPECT_EQ(ev.ffs_set, ap.ffs_set);
  EXPECT_EQ(ev.ffs_changed, ap.ffs_changed);
  EXPECT_EQ(ev.good_events, ap.good_events);
}

TEST(FaultSim, EvaluateDoesNotMutateState) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  sim.apply_vector(logic_vector("0101"), 0);

  const auto snap_state = sim.good_ff_state();
  const std::size_t det_before = fl.num_detected();

  Rng rng(3);
  for (int i = 0; i < 10; ++i) {
    TestSequence seq;
    for (int j = 0; j < 4; ++j) seq.push_back(random_vector(c, rng));
    sim.evaluate_sequence(seq, scratch);
  }
  EXPECT_EQ(sim.good_ff_state(), snap_state);
  EXPECT_EQ(fl.num_detected(), det_before);
}

TEST(FaultSim, EvaluateThenApplyAgree) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  Rng rng(17);
  for (int round = 0; round < 12; ++round) {
    const TestVector v = random_vector(c, rng);
    const FaultSimStats ev = sim.evaluate_vector(v, scratch);
    const FaultSimStats ap = sim.apply_vector(v, round);
    expect_stats_equal(ev, ap, "round " + std::to_string(round));
  }
}

TEST(FaultSim, EvaluateSequenceMatchesSequentialApplies) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  Rng rng(23);
  // Commit a prefix to give the machine interesting state.
  for (int i = 0; i < 5; ++i) sim.apply_vector(random_vector(c, rng), i);

  TestSequence seq;
  for (int j = 0; j < 6; ++j) seq.push_back(random_vector(c, rng));

  const FaultSimStats ev = sim.evaluate_sequence(seq, scratch);

  // Replay on a snapshot-restored committed machine.
  const auto snap = sim.snapshot();
  const FaultSimStats ap = sim.apply_sequence(seq, 100);
  EXPECT_EQ(ev.detected, ap.detected);
  EXPECT_EQ(ev.fault_effects_at_ffs, ap.fault_effects_at_ffs);
  EXPECT_EQ(ev.faulty_events, ap.faulty_events);
  sim.restore(snap);
}

TEST(FaultSim, SnapshotRestoreRoundTrip) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(29);
  for (int i = 0; i < 8; ++i) sim.apply_vector(random_vector(c, rng), i);

  const auto snap = sim.snapshot();
  const auto state = sim.good_ff_state();
  const std::size_t det = fl.num_detected();

  for (int i = 0; i < 8; ++i) sim.apply_vector(random_vector(c, rng), 100 + i);
  EXPECT_GT(fl.num_detected(), det);

  sim.restore(snap);
  EXPECT_EQ(sim.good_ff_state(), state);
  EXPECT_EQ(fl.num_detected(), det);
  // Every fault's bookkeeping rolls back, including the detected-by index
  // of faults first detected after the snapshot.
  for (std::size_t f = 0; f < fl.size(); ++f) {
    ASSERT_EQ(fl.status(f), snap.status[f]) << fault_name(c, fl.fault(f));
    ASSERT_EQ(fl.detected_by(f), snap.detected_by[f])
        << fault_name(c, fl.fault(f));
  }

  // Determinism: the same vectors after restore give the same observables.
  Rng rng2(31);
  const TestVector v = random_vector(c, rng2);
  const FaultSimStats s1 = sim.apply_vector(v, 200);
  sim.restore(snap);
  const FaultSimStats s2 = sim.apply_vector(v, 200);
  expect_stats_equal(s1, s2, "restore determinism");
}

TEST(FaultSim, RestoreRejectsShortDiffsOrPrevValues) {
  // Every array of a snapshot must fit the simulator: one entry short in
  // the per-fault diffs or in the previous frame's values throws, and the
  // committed state stays as it was.
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(29);
  for (int i = 0; i < 8; ++i) sim.apply_vector(random_vector(c, rng), i);
  FaultSimSnapshot short_diffs = sim.snapshot();
  FaultSimSnapshot short_prev = short_diffs;
  const auto snap_state = sim.good_ff_state();
  for (int i = 0; i < 4; ++i) sim.apply_vector(random_vector(c, rng), 8 + i);
  const auto state = sim.good_ff_state();
  const std::size_t det = fl.num_detected();
  ASSERT_NE(state, snap_state);

  short_diffs.diffs.pop_back();
  short_prev.prev_values.pop_back();
  EXPECT_THROW(sim.restore(short_diffs), std::runtime_error);
  EXPECT_EQ(sim.good_ff_state(), state);
  EXPECT_THROW(sim.restore(short_prev), std::runtime_error);
  EXPECT_EQ(sim.good_ff_state(), state);
  EXPECT_EQ(fl.num_detected(), det);
}

TEST(FaultSim, FaultSamplingRestrictsSimulation) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  Rng rng(37);
  const TestVector v = random_vector(c, rng);

  std::vector<std::uint32_t> sample;
  for (std::uint32_t i = 0; i < 50; ++i) sample.push_back(i);
  const FaultSimStats s = sim.evaluate_vector(v, scratch, sample);
  EXPECT_LE(s.faults_simulated, 50u);
  EXPECT_LE(s.detected, 50u);
}

TEST(FaultSim, SampledDetectionsSubsetOfFull) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  Rng rng(41);
  for (int i = 0; i < 6; ++i) sim.apply_vector(random_vector(c, rng), i);

  const TestVector v = random_vector(c, rng);
  const FaultSimStats full = sim.evaluate_vector(v, scratch);
  std::vector<std::uint32_t> sample;
  for (std::uint32_t i = 0; i < fl.size(); i += 3) sample.push_back(i);
  const FaultSimStats part = sim.evaluate_vector(v, scratch, sample);
  EXPECT_LE(part.detected, full.detected);
}

TEST(FaultSim, ResetForgetsCommittedState) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  sim.apply_vector(logic_vector("1111"), 0);
  sim.reset();
  EXPECT_EQ(sim.good_ffs_set(), 0u);
}

TEST(FaultSim, RejectsMismatchedInputs) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  EXPECT_THROW(sim.apply_vector(logic_vector("10"), 0), std::runtime_error);
}

TEST(FaultSim, SequenceIndicesRecordDetectingVector) {
  // apply_sequence assigns indices test_index, test_index+1, ... so the
  // detected_by bookkeeping points at the exact vector.
  Circuit c("seq");
  const GateId pi = c.add_input("pi");
  const GateId ff = c.add_dff("ff", pi);
  const GateId n = c.add_gate(GateType::Not, "n", {ff});
  c.add_output(n);
  c.finalize();

  FaultList fl(c, {Fault{ff, Fault::kOutputPin, 0}});
  SequentialFaultSimulator sim(c, fl);
  const TestSequence seq = {logic_vector("1"), logic_vector("0")};
  sim.apply_sequence(seq, 10);
  EXPECT_EQ(fl.status(0), FaultStatus::Detected);
  EXPECT_EQ(fl.detected_by(0), 11);  // second vector of the sequence
}

TEST(FaultSim, ManyFaultsSpanMultipleGroups) {
  // More than 64 undetected faults forces multiple 64-lane passes; the
  // result must match the golden reference (covered broadly by the
  // equivalence suite; here we just pin the group-boundary arithmetic).
  const Circuit c = benchmark_circuit("s386", 3);
  FaultList fl(c);
  ASSERT_GT(fl.size(), 128u);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(51);
  FaultSimStats s{};
  for (int i = 0; i < 10; ++i) s = sim.apply_vector(random_vector(c, rng), i);
  EXPECT_GT(s.faults_simulated, 128u);
  EXPECT_GT(fl.num_detected(), 0u);
}

TEST(FaultSim, DetectedFaultsAreNeverResimulated) {
  const Circuit c = make_s27();
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(53);
  std::size_t last_active = fl.size();
  for (int i = 0; i < 20 && fl.num_undetected() > 0; ++i) {
    const FaultSimStats s = sim.apply_vector(random_vector(c, rng), i);
    EXPECT_LE(s.faults_simulated, last_active);
    last_active = fl.num_undetected();
  }
}

TEST(FaultSim, FaultStatusExportImportRoundTrip) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(107);
  TestSequence committed;
  for (int i = 0; i < 10; ++i) {
    committed.push_back(random_vector(c, rng));
    sim.apply_vector(committed.back(), i);
  }

  std::vector<FaultStatus> status;
  std::vector<std::int64_t> detected_by;
  sim.export_fault_status(status, detected_by);
  const std::size_t det = fl.num_detected();
  ASSERT_GT(det, 0u);

  // Wipe and restore via replay + import (the run-control resume path).
  sim.replay_committed(committed);
  EXPECT_EQ(fl.num_detected(), det);
  sim.import_fault_status(status, detected_by);
  EXPECT_EQ(fl.num_detected(), det);
  for (std::size_t f = 0; f < fl.size(); ++f) {
    EXPECT_EQ(fl.status(f), status[f]);
    EXPECT_EQ(fl.detected_by(f), detected_by[f]);
  }
}

TEST(FaultSim, ProvenPruningLeavesObservablesIdentical) {
  // The implication prover's pruned universe (--prune-proven) must not
  // change any observable: pruned faults are counted back into
  // faults_simulated and never simulated.
  const Circuit c = benchmark_circuit("s344", 5);
  FaultList plain_fl(c);
  SequentialFaultSimulator plain(c, plain_fl);
  const std::vector<analysis::FaultProof> proofs =
      analysis::prove_untestable(c, plain_fl.faults());
  FaultList pruned_fl(c);
  analysis::apply_proven_pruning(pruned_fl, proofs);
  SequentialFaultSimulator pruned(c, pruned_fl);

  Rng rng(109);
  for (int t = 0; t < 20; ++t) {
    const TestVector v = random_vector(c, rng);
    const FaultSimStats a = plain.apply_vector(v, t);
    const FaultSimStats b = pruned.apply_vector(v, t);
    expect_stats_equal(b, a, "pruned frame " + std::to_string(t));
  }
  for (std::size_t f = 0; f < plain_fl.size(); ++f)
    ASSERT_EQ(pruned_fl.status(f) == FaultStatus::Detected,
              plain_fl.status(f) == FaultStatus::Detected)
        << fault_name(c, plain_fl.fault(f));
}

TEST(FaultSim, CountersTrackWorkAndReset) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  Rng rng(127);
  for (int i = 0; i < 4; ++i) sim.apply_vector(random_vector(c, rng), i);
  sim.evaluate_vector(random_vector(c, rng), scratch);

  // Commits count into the simulator, the evaluation into its scratch.
  const FsimCounters& fc = sim.counters();
  EXPECT_EQ(fc.vectors_committed, 4u);
  EXPECT_EQ(fc.candidate_evaluations, 0u);
  EXPECT_EQ(fc.frames_simulated, 4u);
  EXPECT_GT(fc.fault_groups, 0u);
  EXPECT_GT(fc.fault_group_lanes, 0u);
  EXPECT_GT(fc.packed_utilization(), 0.0);
  EXPECT_LE(fc.packed_utilization(), 1.0);
  const FsimCounters& ec = scratch.counters();
  EXPECT_EQ(ec.vectors_committed, 0u);
  EXPECT_EQ(ec.candidate_evaluations, 1u);
  EXPECT_EQ(ec.frames_simulated, 1u);
  EXPECT_EQ(ec.faults_dropped, 0u);
  EXPECT_GT(ec.fault_groups, 0u);

  sim.reset_counters();
  EXPECT_EQ(sim.counters().vectors_committed, 0u);
  EXPECT_EQ(sim.counters().fault_groups, 0u);
}

TEST(FaultSim, EvaluateVectorWithAllFaultsDetected) {
  const Circuit c = make_s27();
  FaultList fl(c);
  for (std::size_t i = 0; i < fl.size(); ++i) fl.mark_detected(i, 0);
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  const FaultSimStats s = sim.evaluate_vector(logic_vector("1010"), scratch);
  EXPECT_EQ(s.detected, 0u);
  EXPECT_EQ(s.faults_simulated, 0u);
  EXPECT_GT(s.good_events, 0u);  // good machine still simulates
}

// ---- transition faults --------------------------------------------------------

TEST(TransitionFaults, UniverseEnumerates) {
  const Circuit c = make_s27();
  const std::vector<Fault> tf = enumerate_transition_faults(c);
  // Two transition faults per fault-site node.
  EXPECT_EQ(tf.size(), 2u * c.num_gates());
  for (const Fault& f : tf) {
    EXPECT_NE(f.model, FaultModel::StuckAt);
    EXPECT_EQ(f.pin, Fault::kOutputPin);
  }
  EXPECT_EQ(fault_name(c, tf[0]), "G0 slow-to-rise");
}

TEST(TransitionFaults, SlowToRiseNeedsLaunchAndCapture) {
  // a -> buf -> po.  slow-to-rise on `a` is detected only by a 0 -> 1
  // pattern pair (launch 0, capture 1: the faulty line still shows 0).
  Circuit c("wire");
  const GateId a = c.add_input("a");
  const GateId bufg = c.add_gate(GateType::Buf, "b", {a});
  c.add_output(bufg);
  c.finalize();

  {
    // 1 alone: no transition (prev is X -> forced value X) -> undetected.
    FaultList fl(c, {Fault{a, Fault::kOutputPin, 0, FaultModel::SlowToRise}});
    SequentialFaultSimulator sim(c, fl);
    EXPECT_EQ(sim.apply_vector(logic_vector("1"), 0).detected, 0u);
  }
  {
    // 0 then 1: the rise is late, PO shows 0 in the faulty machine.
    FaultList fl(c, {Fault{a, Fault::kOutputPin, 0, FaultModel::SlowToRise}});
    SequentialFaultSimulator sim(c, fl);
    EXPECT_EQ(sim.apply_vector(logic_vector("0"), 0).detected, 0u);
    EXPECT_EQ(sim.apply_vector(logic_vector("1"), 1).detected, 1u);
  }
  {
    // 1 then 0 detects slow-to-fall but not slow-to-rise.
    FaultList fl(c, {Fault{a, Fault::kOutputPin, 0, FaultModel::SlowToRise},
                     Fault{a, Fault::kOutputPin, 1, FaultModel::SlowToFall}});
    SequentialFaultSimulator sim(c, fl);
    sim.apply_vector(logic_vector("1"), 0);
    const FaultSimStats s = sim.apply_vector(logic_vector("0"), 1);
    EXPECT_EQ(s.detected, 1u);
    EXPECT_EQ(fl.status(0), FaultStatus::Undetected);
    EXPECT_EQ(fl.status(1), FaultStatus::Detected);
  }
}

TEST(TransitionFaults, LateTransitionLatchesIntoState) {
  // pi -> ff -> buf -> po: the late value is captured by the flop and the
  // effect must surface at the output one frame later.
  Circuit c("seq");
  const GateId pi = c.add_input("pi");
  const GateId ff = c.add_dff("ff", pi);
  const GateId bufg = c.add_gate(GateType::Buf, "buf", {ff});
  c.add_output(bufg);
  c.finalize();

  FaultList fl(c, {Fault{pi, Fault::kOutputPin, 0, FaultModel::SlowToRise}});
  SequentialFaultSimulator sim(c, fl);
  sim.apply_vector(logic_vector("0"), 0);
  // Launch frame: pi rises, faulty machine latches the stale 0.
  EXPECT_EQ(sim.apply_vector(logic_vector("1"), 1).detected, 0u);
  // Capture frame: the flop's stale value reaches the PO.
  EXPECT_EQ(sim.apply_vector(logic_vector("1"), 2).detected, 1u);
}

TEST(TransitionFaults, GaTestGeneratorCoversTransitionModel) {
  // The paper's conclusion: the same GA framework handles other fault
  // models.  GATEST must reach substantial transition coverage on s27.
  const Circuit c = make_s27();
  FaultList fl(c, enumerate_transition_faults(c));
  TestGenConfig cfg;
  cfg.seed = 11;
  GaTestGenerator gen(c, fl, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.fault_coverage, 0.5);
  // Replay invariant holds for transition faults too.
  FaultList replay(c, enumerate_transition_faults(c));
  SequentialFaultSimulator sim(c, replay);
  for (std::size_t i = 0; i < res.test_set.size(); ++i)
    sim.apply_vector(res.test_set[i], static_cast<std::int64_t>(i));
  EXPECT_EQ(replay.num_detected(), res.faults_detected);
}

TEST(TransitionFaults, RejectedOnPins) {
  const Circuit c = make_s27();
  FaultList fl(c, {Fault{c.find("G8"), 0, 0, FaultModel::SlowToRise}});
  EXPECT_THROW(SequentialFaultSimulator(c, fl), std::runtime_error);
}

// ---- simulator contract across circuits and fault models ---------------------
//
// The evaluation, snapshot and status-export contracts GATEST relies on,
// swept over circuits of different depth and over both fault models: the
// transition model's launch reference (prev_values) must follow evaluation,
// snapshots and replays exactly as the stuck-at state does.

/// Parameter: circuit name, and whether the universe is the transition
/// faults (otherwise the collapsed stuck-at list).
class FsimContractTest
    : public ::testing::TestWithParam<std::tuple<const char*, bool>> {
 protected:
  FsimContractTest()
      : c_(benchmark_circuit(std::get<0>(GetParam()), 3)),
        fl_(std::get<1>(GetParam())
                ? FaultList(c_, enumerate_transition_faults(c_))
                : FaultList(c_)),
        sim_(c_, fl_) {}

  /// Commits `n` random vectors, indexed from `first`.
  void commit(Rng& rng, int n, std::int64_t first = 0) {
    for (int i = 0; i < n; ++i)
      sim_.apply_vector(random_vector(c_, rng), first + i);
  }

  std::string ctx(const std::string& what) const {
    return std::string(std::get<0>(GetParam())) + " " + what;
  }

  const Circuit c_;
  FaultList fl_;
  SequentialFaultSimulator sim_;
  FaultSimScratch scratch_;
};

TEST_P(FsimContractTest, EvaluateVectorMatchesApplyAndMutatesNothing) {
  Rng rng(211);
  commit(rng, 4);
  for (int round = 0; round < 8; ++round) {
    const auto state = sim_.good_ff_state();
    const std::size_t det = fl_.num_detected();
    const TestVector v = random_vector(c_, rng);
    const FaultSimStats ev = sim_.evaluate_vector(v, scratch_);
    EXPECT_EQ(sim_.good_ff_state(), state);
    EXPECT_EQ(fl_.num_detected(), det);
    const FaultSimStats ap = sim_.apply_vector(v, 100 + round);
    expect_stats_equal(ev, ap, ctx("round " + std::to_string(round)));
  }
}

TEST_P(FsimContractTest, EvaluateSequenceMatchesApplySequence) {
  Rng rng(223);
  commit(rng, 4);
  for (int round = 0; round < 4; ++round) {
    TestSequence seq(2 + round);
    for (TestVector& v : seq) v = random_vector(c_, rng);
    const FaultSimStats ev = sim_.evaluate_sequence(seq, scratch_);
    const FaultSimSnapshot snap = sim_.snapshot();
    const FaultSimStats ap = sim_.apply_sequence(seq, 100);
    const std::string where = ctx("round " + std::to_string(round));
    EXPECT_EQ(ev.detected, ap.detected) << where;
    EXPECT_EQ(ev.fault_effects_at_ffs, ap.fault_effects_at_ffs) << where;
    EXPECT_EQ(ev.faulty_events, ap.faulty_events) << where;
    sim_.restore(snap);
    // Commit one vector so the next round starts from a new state.
    commit(rng, 1, 10 + round);
  }
}

TEST_P(FsimContractTest, RestoreRollsBackStateAndEveryFaultRecord) {
  Rng rng(227);
  commit(rng, 6);
  const FaultSimSnapshot snap = sim_.snapshot();
  const auto state = sim_.good_ff_state();
  const std::size_t det = fl_.num_detected();
  commit(rng, 10, 100);
  // Faults first detected after the snapshot must lose their records.
  ASSERT_GT(fl_.num_detected(), det) << ctx("no detections to roll back");

  sim_.restore(snap);
  EXPECT_EQ(sim_.good_ff_state(), state);
  for (std::size_t f = 0; f < fl_.size(); ++f) {
    ASSERT_EQ(fl_.status(f), snap.status[f]) << fault_name(c_, fl_.fault(f));
    ASSERT_EQ(fl_.detected_by(f), snap.detected_by[f])
        << fault_name(c_, fl_.fault(f));
  }
  // The restored machine evolves exactly as it did from the snapshot.
  Rng replay(229);
  std::vector<FaultSimStats> first;
  for (int t = 0; t < 6; ++t)
    first.push_back(sim_.apply_vector(random_vector(c_, replay), 200 + t));
  sim_.restore(snap);
  replay.reseed(229);
  for (int t = 0; t < 6; ++t)
    expect_stats_equal(sim_.apply_vector(random_vector(c_, replay), 200 + t),
                       first[static_cast<std::size_t>(t)],
                       ctx("post-restore frame " + std::to_string(t)));
}

TEST_P(FsimContractTest, ReplayPlusImportRestoresTheResumePoint) {
  Rng rng(233);
  TestSequence committed;
  for (int i = 0; i < 32; ++i) {
    committed.push_back(random_vector(c_, rng));
    sim_.apply_vector(committed.back(), i);
  }
  ASSERT_GT(fl_.num_detected(), 0u) << ctx("nothing detected");
  std::vector<FaultStatus> status;
  std::vector<std::int64_t> detected_by;
  sim_.export_fault_status(status, detected_by);
  const auto state = sim_.good_ff_state();
  const TestVector next = random_vector(c_, rng);
  const FaultSimStats want = sim_.evaluate_vector(next, scratch_);

  // The run-control resume path: rebuild machine state by replay, then
  // overwrite the bookkeeping with the exported records.
  sim_.replay_committed(committed);
  sim_.import_fault_status(status, detected_by);
  EXPECT_EQ(sim_.good_ff_state(), state);
  for (std::size_t f = 0; f < fl_.size(); ++f) {
    ASSERT_EQ(fl_.status(f), status[f]) << fault_name(c_, fl_.fault(f));
    ASSERT_EQ(fl_.detected_by(f), detected_by[f])
        << fault_name(c_, fl_.fault(f));
  }
  expect_stats_equal(sim_.evaluate_vector(next, scratch_), want,
                     ctx("after resume"));
}

TEST_P(FsimContractTest, ConcurrentEvaluationMatchesSerial) {
  // Evaluation is a const function of the committed state plus the caller's
  // scratch: four threads, each with its own scratch, score one candidate
  // set against one simulator and must each see exactly the serial scores.
  Rng rng(239);
  commit(rng, 5);
  std::vector<TestSequence> candidates;
  for (int i = 0; i < 12; ++i) {
    TestSequence seq(1 + i % 4);
    for (TestVector& v : seq) v = random_vector(c_, rng);
    candidates.push_back(std::move(seq));
  }
  std::vector<std::uint32_t> sample;
  for (std::uint32_t f = 0; f < fl_.size(); f += 2) sample.push_back(f);
  // Per candidate: full-universe score, sampled score, good machine only.
  const auto score_all = [&](const SequentialFaultSimulator& sim,
                             FaultSimScratch& scratch) {
    std::vector<FaultSimStats> out;
    for (const TestSequence& seq : candidates) {
      out.push_back(sim.evaluate_sequence(seq, scratch));
      out.push_back(sim.evaluate_vector(seq.front(), scratch, sample));
      out.push_back(sim.evaluate_vector_good_only(seq.front(), scratch));
    }
    return out;
  };
  const SequentialFaultSimulator& committed = sim_;
  const std::vector<FaultSimStats> serial = score_all(committed, scratch_);
  const auto state = sim_.good_ff_state();

  constexpr int kThreads = 4;
  std::vector<std::vector<FaultSimStats>> got(kThreads);
  std::vector<FaultSimScratch> scratches(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] { got[t] = score_all(committed, scratches[t]); });
  for (std::thread& th : threads) th.join();

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      expect_stats_equal(got[t][i], serial[i],
                         ctx("thread " + std::to_string(t) + " score " +
                             std::to_string(i)));
    EXPECT_EQ(scratches[t].counters().candidate_evaluations,
              scratch_.counters().candidate_evaluations);
  }
  EXPECT_EQ(sim_.good_ff_state(), state);
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndModels, FsimContractTest,
    ::testing::Combine(::testing::Values("s27", "s344", "s386", "s526"),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<FsimContractTest::ParamType>& info) {
      return std::string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_transition" : "_stuck_at");
    });

// ---- golden-model equivalence (the core property) ---------------------------

class FsimEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(FsimEquivalenceTest, MatchesBruteForceReference) {
  const auto [name, seed] = GetParam();
  const Circuit c = benchmark_circuit(name, seed);
  FaultList fl(c);
  SequentialFaultSimulator sim(c, fl);
  ReferenceFaultSim ref(c, fl.faults());

  Rng rng(seed * 1234567 + 1);
  for (int t = 0; t < 40; ++t) {
    const TestVector v = random_vector(c, rng);
    sim.apply_vector(v, t);
    ref.apply(v);
    ASSERT_EQ(fl.num_detected(), ref.num_detected()) << "frame " << t;
  }
  for (std::size_t f = 0; f < fl.size(); ++f)
    EXPECT_EQ(fl.status(f) == FaultStatus::Detected, ref.detected(f))
        << fault_name(c, fl.fault(f));
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndSeeds, FsimEquivalenceTest,
    ::testing::Combine(::testing::Values("s27", "s298", "s386"),
                       ::testing::Values(1, 2, 3)));

// A deeper circuit (s526, depth 11) exercises long diff-list evolution.
INSTANTIATE_TEST_SUITE_P(
    DeepCircuit, FsimEquivalenceTest,
    ::testing::Combine(::testing::Values("s526"), ::testing::Values(1)));

// ---- uncollapsed universe: every injection path -------------------------------
//
// Collapsed lists seldom put several output and pin injections on one gate
// in one group, or a flip-flop's D-pin fault beside its other faults; the
// full universe does.  Each frame scores a random 1-3 vector probe with
// evaluate_sequence against the reference run on a copy, then commits one
// vector to both and compares the frame's observables.

class FsimUncollapsedTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FsimUncollapsedTest, EvaluateAndApplyMatchReference) {
  const Circuit c = benchmark_circuit(GetParam());
  FaultList fl(c, enumerate_all_faults(c));
  ASSERT_TRUE(std::any_of(fl.faults().begin(), fl.faults().end(),
                          [](const Fault& f) {
                            return f.pin != Fault::kOutputPin;
                          }))
      << "no pin faults in the universe";
  SequentialFaultSimulator sim(c, fl);
  FaultSimScratch scratch;
  ReferenceFaultSim ref(c, fl.faults());

  Rng rng(4099);
  for (int t = 0; t < 30; ++t) {
    const std::string where =
        std::string(GetParam()) + " frame " + std::to_string(t);
    TestSequence probe(1 + rng.below(3));
    for (TestVector& pv : probe) pv = random_vector(c, rng);
    ReferenceFaultSim probe_ref = ref;
    std::size_t probe_detected = 0, probe_effects = 0;
    for (const TestVector& pv : probe) {
      const ReferenceFaultSim::FrameStats fs = probe_ref.apply(pv);
      probe_detected += fs.detected;
      probe_effects += fs.ff_effects;
    }
    const FaultSimStats scored = sim.evaluate_sequence(probe, scratch);
    ASSERT_EQ(scored.detected, probe_detected) << where << " (evaluate)";
    ASSERT_EQ(scored.fault_effects_at_ffs, probe_effects)
        << where << " (evaluate)";

    const TestVector v = random_vector(c, rng);
    const ReferenceFaultSim::FrameStats want = ref.apply(v);
    const FaultSimStats got = sim.apply_vector(v, t);
    ASSERT_EQ(got.detected, want.detected) << where;
    ASSERT_EQ(got.fault_effects_at_ffs, want.ff_effects) << where;
  }
  for (std::size_t f = 0; f < fl.size(); ++f)
    EXPECT_EQ(fl.status(f) == FaultStatus::Detected, ref.detected(f))
        << fault_name(c, fl.fault(f));
}

INSTANTIATE_TEST_SUITE_P(Circuits, FsimUncollapsedTest,
                         ::testing::Values("s27", "s298", "s386", "s526"));

// ---- differential fuzz: random circuits vs. the naive reference -------------
//
// circuitgen-driven randomized sweep (fixed seed): ~50 random small
// sequential circuits, each driven by a random vector sequence through three
// machines in lockstep — the one-fault-at-a-time reference, the packed
// simulator, and the packed simulator with every implication-proven inert
// fault pruned.  The per-frame detection counts, per-frame flip-flop
// fault-effect counts, and final detection sets must agree exactly.  Before
// each frame the packed simulator also scores a random candidate sequence
// with evaluate_sequence (GATEST phase 4), held to the reference run on a
// copy of its machines.

TEST(FsimDifferentialFuzz, RandomCircuitsMatchReference) {
  Rng rng(0xf52f);
  // Candidate sequences draw from their own stream so the circuits and the
  // committed vectors stay exactly those `rng` produces.
  Rng probe_rng(0x5e9f);
  int built = 0;
  for (int iter = 0; built < 50; ++iter) {
    ASSERT_LT(iter, 200) << "circuit generation kept failing";
    CircuitProfile prof;
    prof.name = "fuzz" + std::to_string(iter);
    prof.num_pis = 3 + static_cast<unsigned>(rng.below(6));
    prof.num_pos = 1 + static_cast<unsigned>(rng.below(4));
    prof.seq_depth = 1 + static_cast<unsigned>(rng.below(4));
    prof.num_ffs = prof.seq_depth + static_cast<unsigned>(rng.below(7));
    prof.num_gates = 10 + static_cast<unsigned>(rng.below(51));
    Circuit c;
    try {
      c = generate_circuit(prof, 0xabc0 + static_cast<std::uint64_t>(iter));
    } catch (const std::exception&) {
      continue;  // profile rejected (e.g. too few gates for the depth)
    }
    ++built;

    FaultList ref_fl(c);
    ReferenceFaultSim ref(c, ref_fl.faults());
    FaultList plain_fl(c);
    SequentialFaultSimulator plain(c, plain_fl);
    FaultSimScratch plain_scratch;
    // Third machine: same universe with every implication-proven inert
    // fault pruned.  The prover claims those faults have zero simulation
    // footprint, so every frame observable must stay bit-identical and no
    // vector may ever detect a proven fault (soundness).
    const std::vector<analysis::FaultProof> proofs =
        analysis::prove_untestable(c, ref_fl.faults());
    FaultList pruned_fl(c);
    analysis::apply_proven_pruning(pruned_fl, proofs);
    SequentialFaultSimulator pruned(c, pruned_fl);

    const int frames = 8 + static_cast<int>(rng.below(9));
    for (int t = 0; t < frames; ++t) {
      // Score a 1-4 vector candidate against the committed state; the
      // reference applies it to a throwaway copy of its machines.
      TestSequence probe_seq(1 + probe_rng.below(4));
      for (TestVector& pv : probe_seq) pv = random_vector(c, probe_rng);
      ReferenceFaultSim probe = ref;
      std::size_t probe_detected = 0, probe_effects = 0;
      for (const TestVector& pv : probe_seq) {
        const ReferenceFaultSim::FrameStats fs = probe.apply(pv);
        probe_detected += fs.detected;
        probe_effects += fs.ff_effects;
      }
      const FaultSimStats scored =
          plain.evaluate_sequence(probe_seq, plain_scratch);
      ASSERT_EQ(scored.detected, probe_detected)
          << prof.name << " frame " << t << " (evaluate_sequence)";
      ASSERT_EQ(scored.fault_effects_at_ffs, probe_effects)
          << prof.name << " frame " << t << " (evaluate_sequence)";

      const TestVector v = random_vector(c, rng);
      const ReferenceFaultSim::FrameStats want = ref.apply(v);
      const FaultSimStats plain_s = plain.apply_vector(v, t);
      ASSERT_EQ(plain_s.detected, want.detected)
          << prof.name << " frame " << t;
      ASSERT_EQ(plain_s.fault_effects_at_ffs, want.ff_effects)
          << prof.name << " frame " << t;
      // Pruning proven-inert faults must leave every observable — including
      // the fitness denominator faults_simulated — bit-identical.
      const FaultSimStats pruned_s = pruned.apply_vector(v, t);
      ASSERT_EQ(pruned_s.detected, plain_s.detected)
          << prof.name << " frame " << t << " (pruned)";
      ASSERT_EQ(pruned_s.fault_effects_at_ffs, plain_s.fault_effects_at_ffs)
          << prof.name << " frame " << t << " (pruned)";
      ASSERT_EQ(pruned_s.good_events, plain_s.good_events);
      ASSERT_EQ(pruned_s.faulty_events, plain_s.faulty_events)
          << prof.name << " frame " << t << " (pruned)";
      ASSERT_EQ(pruned_s.ffs_set, plain_s.ffs_set);
      ASSERT_EQ(pruned_s.ffs_changed, plain_s.ffs_changed);
      ASSERT_EQ(pruned_s.faults_simulated, plain_s.faults_simulated)
          << prof.name << " frame " << t << " (pruned)";
    }
    for (std::size_t f = 0; f < plain_fl.size(); ++f) {
      ASSERT_EQ(plain_fl.status(f) == FaultStatus::Detected, ref.detected(f))
          << prof.name << ": " << fault_name(c, plain_fl.fault(f));
      // Soundness: no vector in any run ever detects a proven fault.
      ASSERT_FALSE(proofs[f].proven() &&
                   plain_fl.status(f) == FaultStatus::Detected)
          << prof.name << ": proven-untestable "
          << fault_name(c, plain_fl.fault(f)) << " was detected ("
          << proofs[f].witness << ")";
      ASSERT_EQ(pruned_fl.status(f) == FaultStatus::Detected,
                plain_fl.status(f) == FaultStatus::Detected)
          << prof.name << ": " << fault_name(c, pruned_fl.fault(f))
          << " (pruned)";
      if (pruned_fl.status(f) == FaultStatus::Detected) {
        ASSERT_EQ(pruned_fl.detected_by(f), plain_fl.detected_by(f))
            << prof.name << ": " << fault_name(c, pruned_fl.fault(f))
            << " (pruned)";
      }
    }
  }
  EXPECT_EQ(built, 50);
}

/// Transition-fault variant of the golden-model equivalence, via the
/// diagnosis dictionary's independent scalar implementation.
class TransitionEquivalenceTest
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransitionEquivalenceTest, PackedMatchesScalarImplementation) {
  const Circuit c = benchmark_circuit("s386", GetParam());
  const std::vector<Fault> tf = enumerate_transition_faults(c);
  FaultList fl(c, tf);
  SequentialFaultSimulator sim(c, fl);
  Rng rng(GetParam() * 999 + 5);
  std::vector<TestVector> tests;
  for (int t = 0; t < 25; ++t) {
    tests.push_back(random_vector(c, rng));
    sim.apply_vector(tests.back(), t);
  }
  // Reference: one scalar machine per fault (diagnosis module).
  FaultDictionary dict(c, tf, tests);
  for (std::size_t i = 0; i < fl.size(); ++i)
    ASSERT_EQ(fl.status(i) == FaultStatus::Detected,
              !dict.signature(i).empty())
        << fault_name(c, fl.fault(i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitionEquivalenceTest,
                         ::testing::Values(1, 2));

}  // namespace
}  // namespace gatest
