// Run-control integration tests: budgets, interrupts, checkpoint round-trips,
// and the central robustness guarantee — a budget-stopped run resumed from its
// checkpoint produces the identical test set and coverage as an uninterrupted
// run with the same seed.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "gatest/checkpoint.h"
#include "gatest/config.h"
#include "gatest/test_generator.h"
#include "util/run_control.h"

namespace gatest {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "run_control_" + name;
}

TestGenConfig small_config(unsigned threads = 1) {
  TestGenConfig cfg;
  cfg.seed = 5;
  cfg.num_threads = threads;
  return cfg;
}

Checkpoint sample_checkpoint() {
  Checkpoint cp;
  cp.circuit_name = "s27";
  cp.num_inputs = 4;
  cp.num_faults = 7;
  cp.seed = 42;
  cp.test_set = {logic_vector("0110"), logic_vector("1001")};
  cp.fault_status = {FaultStatus::Detected,   FaultStatus::Undetected,
                     FaultStatus::Untestable, FaultStatus::Undetected,
                     FaultStatus::Detected,   FaultStatus::Undetected,
                     FaultStatus::Undetected};
  cp.detected_by = {0, -1, -1, -1, 1, -1, -1};
  cp.rng_state = {1u, 2u, 3u, 0xfffffffffffffffull};
  cp.last_best_genes = {1, 0, 1, 1};
  cp.macro = MacroPhase::Sequences;
  cp.phase = Phase::Sequences;
  cp.noncontributing = 3;
  cp.phase1_stall = 2;
  cp.best_ffs_set = 3;
  cp.seq_mult_index = 1;
  cp.seq_consecutive_failures = 2;
  cp.fitness_evaluations = 1234;
  cp.seconds = 1.5;
  cp.vectors_from_vector_phases = 2;
  cp.vectors_from_sequences = 0;
  cp.detected_by_vectors = 2;
  cp.detected_by_sequences = 0;
  cp.sequence_attempts = 4;
  cp.sequences_committed = 1;
  cp.all_ffs_initialized = true;
  cp.progress_limit = 8;
  cp.sequence_lengths_tried = {3, 6};
  return cp;
}

void expect_checkpoints_equal(const Checkpoint& a, const Checkpoint& b) {
  EXPECT_EQ(a.circuit_name, b.circuit_name);
  EXPECT_EQ(a.num_inputs, b.num_inputs);
  EXPECT_EQ(a.num_faults, b.num_faults);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.fault_status, b.fault_status);
  EXPECT_EQ(a.detected_by, b.detected_by);
  EXPECT_EQ(a.rng_state, b.rng_state);
  EXPECT_EQ(a.last_best_genes, b.last_best_genes);
  EXPECT_EQ(a.macro, b.macro);
  EXPECT_EQ(a.phase, b.phase);
  EXPECT_EQ(a.noncontributing, b.noncontributing);
  EXPECT_EQ(a.phase1_stall, b.phase1_stall);
  EXPECT_EQ(a.best_ffs_set, b.best_ffs_set);
  EXPECT_EQ(a.seq_mult_index, b.seq_mult_index);
  EXPECT_EQ(a.seq_consecutive_failures, b.seq_consecutive_failures);
  EXPECT_EQ(a.fitness_evaluations, b.fitness_evaluations);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.vectors_from_vector_phases, b.vectors_from_vector_phases);
  EXPECT_EQ(a.vectors_from_sequences, b.vectors_from_sequences);
  EXPECT_EQ(a.detected_by_vectors, b.detected_by_vectors);
  EXPECT_EQ(a.detected_by_sequences, b.detected_by_sequences);
  EXPECT_EQ(a.sequence_attempts, b.sequence_attempts);
  EXPECT_EQ(a.sequences_committed, b.sequences_committed);
  EXPECT_EQ(a.all_ffs_initialized, b.all_ffs_initialized);
  EXPECT_EQ(a.progress_limit, b.progress_limit);
  EXPECT_EQ(a.sequence_lengths_tried, b.sequence_lengths_tried);
}

// ---- checkpoint format -------------------------------------------------------

TEST(Checkpoint, StreamRoundTripPreservesEveryField) {
  const Checkpoint cp = sample_checkpoint();
  std::ostringstream out;
  cp.write(out);
  std::istringstream in(out.str());
  expect_checkpoints_equal(cp, Checkpoint::read(in));
}

TEST(Checkpoint, FileRoundTripAndAtomicSave) {
  const std::string path = temp_path("roundtrip.ckpt");
  const Checkpoint cp = sample_checkpoint();
  cp.save(path);
  expect_checkpoints_equal(cp, Checkpoint::load(path));
  // The temporary used for the atomic rename must not linger.
  std::ifstream tmp(path + ".tmp");
  EXPECT_FALSE(tmp.good());
  std::remove(path.c_str());
}

TEST(Checkpoint, RejectsUnknownVersion) {
  std::ostringstream out;
  sample_checkpoint().write(out);
  std::string text = out.str();
  text.replace(text.find("v1"), 2, "v999");
  std::istringstream in(text);
  EXPECT_THROW(Checkpoint::read(in), std::runtime_error);
}

TEST(Checkpoint, RejectsTruncatedFile) {
  std::ostringstream out;
  sample_checkpoint().write(out);
  const std::string text = out.str();
  // Cut at several points, including mid-vector-list; every truncation must
  // be rejected, never silently zero-filled.
  for (std::size_t keep : {std::size_t{20}, text.size() / 2, text.size() - 4}) {
    std::istringstream in(text.substr(0, keep));
    EXPECT_THROW(Checkpoint::read(in), std::runtime_error) << "keep=" << keep;
  }
}

TEST(Checkpoint, LoadOfMissingFileThrows) {
  EXPECT_THROW(Checkpoint::load(temp_path("does_not_exist.ckpt")),
               std::runtime_error);
}

TEST(Checkpoint, BitFlipFuzzNeverCrashesTheReader) {
  // Single-byte corruption at every position in the serialized image must
  // either parse (the flip hit a don't-care spot) or throw std::runtime_error
  // — never crash, hang, or drive a huge allocation.  This is the same
  // reader the serve-layer journal recovery trusts with post-crash disk
  // contents.
  std::ostringstream out;
  sample_checkpoint().write(out);
  const std::string text = out.str();
  for (std::size_t pos = 0; pos < text.size(); ++pos) {
    for (const char flip : {'\0', '9', char(0xFF), ' '}) {
      std::string bad = text;
      if (bad[pos] == flip) continue;
      bad[pos] = flip;
      std::istringstream in(bad);
      try {
        (void)Checkpoint::read(in);
      } catch (const std::runtime_error&) {
        // structured rejection is the expected outcome
      }
    }
  }
}

TEST(Checkpoint, ImplausibleCountsAreRejectedBeforeAllocation) {
  // A bit flip in a count field must not become a multi-gigabyte resize:
  // the reader cross-checks counts against plausibility caps and fails with
  // a diagnostic instead.
  std::ostringstream out;
  sample_checkpoint().write(out);
  const std::string text = out.str();
  const std::vector<std::pair<std::string, std::string>> bloats = {
      {"\ninputs 4", "\ninputs 99999999999"},
      {"\nfaults 7", "\nfaults 99999999999"},
      {"\nvectors 2", "\nvectors 99999999999"},
  };
  for (const auto& [from, to] : bloats) {
    std::string bad = text;
    const std::size_t pos = bad.find(from);
    ASSERT_NE(pos, std::string::npos) << from;
    bad.replace(pos, from.size(), to);
    std::istringstream in(bad);
    try {
      (void)Checkpoint::read(in);
      FAIL() << "implausible '" << to << "' was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("implausible"), std::string::npos)
          << e.what();
    }
  }
}

// ---- budgets and interrupts --------------------------------------------------

TEST(RunControlGen, EvalBudgetStopsRunAtCommitBoundary) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  RunControl ctrl;
  ctrl.budget.max_evaluations = 40;
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();
  EXPECT_EQ(r.stop_reason, StopReason::EvalLimit);
  EXPECT_GE(r.fitness_evaluations, 40u);
  EXPECT_EQ(std::string(to_string(r.stop_reason)), "eval-limit");
}

TEST(RunControlGen, VectorBudgetStopsRun) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  RunControl ctrl;
  ctrl.budget.max_vectors = 2;
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();
  EXPECT_EQ(r.stop_reason, StopReason::VectorLimit);
  EXPECT_GE(r.test_set.size(), 2u);
}

TEST(RunControlGen, TimeBudgetStopsRun) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  RunControl ctrl;
  ctrl.budget.time_limit_seconds = 1e-9;
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();
  EXPECT_EQ(r.stop_reason, StopReason::TimeLimit);
}

TEST(RunControlGen, PreTrippedStopTokenInterruptsImmediately) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  StopToken token;
  token.request_stop();
  RunControl ctrl;
  ctrl.stop = &token;
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();
  EXPECT_EQ(r.stop_reason, StopReason::Interrupted);
  EXPECT_TRUE(r.test_set.empty());
}

TEST(RunControlGen, CheckpointSaveFailureSurfacesAsErrorNotTerminate) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  RunControl ctrl;
  ctrl.checkpoint_path = "/nonexistent_dir_gatest/x.ckpt";
  ctrl.checkpoint_interval_seconds = 0.0;  // checkpoint at the first boundary
  gen.set_run_control(ctrl);
  const TestGenResult r = gen.run();  // must not throw or std::terminate
  EXPECT_EQ(r.stop_reason, StopReason::Error);
  EXPECT_FALSE(r.error_message.empty());
  EXPECT_EQ(r.faults_total, faults.size());
}

// ---- checkpoint/resume determinism ------------------------------------------

TEST(RunControlGen, RestoreRejectsMismatchedCircuit) {
  Circuit c = make_s27();
  FaultList faults(c);
  GaTestGenerator gen(c, faults, small_config());
  Checkpoint cp = gen.make_checkpoint();

  {
    Checkpoint bad = cp;
    bad.circuit_name = "other";
    FaultList f2(c);
    GaTestGenerator g2(c, f2, small_config());
    EXPECT_THROW(g2.restore_from_checkpoint(bad), std::runtime_error);
  }
  {
    Checkpoint bad = cp;
    bad.num_faults += 1;
    FaultList f2(c);
    GaTestGenerator g2(c, f2, small_config());
    EXPECT_THROW(g2.restore_from_checkpoint(bad), std::runtime_error);
  }
}

// Shared scenario: run uninterrupted; run again with an eval budget so the
// run stops partway and writes a checkpoint; resume from that checkpoint and
// require the identical final test set, coverage, and evaluation count.
void check_resume_equivalence(const Circuit& c, const TestGenConfig& cfg) {
  FaultList full_faults(c);
  GaTestGenerator full(c, full_faults, cfg);
  // A pruned run must actually prune, or the pruned resume path goes
  // untested.
  if (cfg.prune_proven) {
    ASSERT_GT(full_faults.num_pruned(), 0u);
  }
  const TestGenResult uninterrupted = full.run();
  ASSERT_EQ(uninterrupted.stop_reason, StopReason::Completed);
  ASSERT_FALSE(uninterrupted.test_set.empty());

  // Stop roughly halfway through the uninterrupted run's evaluation budget.
  const std::string ckpt =
      temp_path("resume_" + c.name() + "_t" + std::to_string(cfg.num_threads) +
                (cfg.prune_proven ? "_pruned" : "") + ".ckpt");
  FaultList part_faults(c);
  GaTestGenerator part(c, part_faults, cfg);
  RunControl ctrl;
  ctrl.budget.max_evaluations = uninterrupted.fitness_evaluations / 2;
  ctrl.checkpoint_path = ckpt;
  part.set_run_control(ctrl);
  const TestGenResult stopped = part.run();
  ASSERT_EQ(stopped.stop_reason, StopReason::EvalLimit);
  ASSERT_LT(stopped.test_set.size(), uninterrupted.test_set.size());

  const Checkpoint cp = Checkpoint::load(ckpt);
  EXPECT_EQ(cp.test_set, stopped.test_set);

  FaultList resumed_faults(c);
  GaTestGenerator resumed(c, resumed_faults, cfg);
  RunControl resume_ctrl;
  resume_ctrl.checkpoint_path = ckpt;
  resumed.set_run_control(resume_ctrl);
  resumed.restore_from_checkpoint(cp);
  const TestGenResult finished = resumed.run();

  EXPECT_TRUE(finished.resumed);
  EXPECT_EQ(finished.stop_reason, StopReason::Completed);
  EXPECT_EQ(finished.test_set, uninterrupted.test_set);
  EXPECT_DOUBLE_EQ(finished.fault_coverage, uninterrupted.fault_coverage);
  EXPECT_EQ(finished.faults_detected, uninterrupted.faults_detected);
  EXPECT_EQ(finished.fitness_evaluations, uninterrupted.fitness_evaluations);
  EXPECT_EQ(finished.sequences_committed, uninterrupted.sequences_committed);
  std::remove(ckpt.c_str());
}

TEST(RunControlGen, ResumeMatchesUninterruptedRunSerial) {
  check_resume_equivalence(make_s27(), small_config(1));
}

TEST(RunControlGen, ResumeMatchesUninterruptedRunParallel) {
  check_resume_equivalence(make_s27(), small_config(4));
}

TEST(RunControlGen, ResumeMatchesUninterruptedRunParallelPruned) {
  // Resume replays the test set into the one shared fault list; the
  // proven-inert faults pruned at construction must stay out of the
  // universe through that replay, at 4 threads as at 1.
  TestGenConfig cfg = small_config(4);
  cfg.prune_proven = true;
  check_resume_equivalence(benchmark_circuit("s298", 3), cfg);
}

TEST(RunControlGen, ParallelRunMatchesSerialRun) {
  Circuit c = make_s27();
  FaultList f1(c);
  GaTestGenerator g1(c, f1, small_config(1));
  const TestGenResult serial = g1.run();
  FaultList f4(c);
  GaTestGenerator g4(c, f4, small_config(4));
  const TestGenResult parallel = g4.run();
  EXPECT_EQ(serial.test_set, parallel.test_set);
  EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations);
}

}  // namespace
}  // namespace gatest
