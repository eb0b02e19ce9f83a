// GATEST: the GA-based sequential circuit test generator (paper §III, Figures
// 1 and 2).
//
// The generator first evolves individual test vectors (phases 1-3), then
// whole test sequences of increasing length (phase 4).  Every GA run starts
// from a fresh random population; the best candidate evolved is committed to
// the test set through the fault simulator, which updates circuit state and
// drops detected faults.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include <memory>

#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/checkpoint.h"
#include "gatest/config.h"
#include "gatest/fitness.h"
#include "netlist/circuit.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/run_control.h"
#include "util/thread_pool.h"

namespace gatest {

/// Outcome of one test-generation run.
struct TestGenResult {
  std::vector<TestVector> test_set;

  std::size_t faults_total = 0;
  std::size_t faults_detected = 0;
  double fault_coverage = 0.0;  ///< detected / total

  /// Faults classified structurally untestable by static analysis (0 unless
  /// TestGenConfig::prune_untestable).  Pruning never changes the run itself
  /// — coverage keeps the full paper-comparable denominator; efficiency
  /// excludes the pruned faults.
  std::size_t faults_pruned = 0;
  double fault_efficiency = 0.0;  ///< detected / (total − pruned)

  double seconds = 0.0;              ///< wall-clock test-generation time
  std::size_t fitness_evaluations = 0;

  /// Why the run ended: Completed, a budget limit, an interrupt, or Error
  /// (in which case `error_message` holds the exception text and the other
  /// fields describe the usable partial result).
  StopReason stop_reason = StopReason::Completed;
  std::string error_message;
  bool resumed = false;  ///< run continued from a checkpoint

  // Breakdown for analysis.
  std::size_t vectors_from_vector_phases = 0;  ///< phases 1-3
  std::size_t vectors_from_sequences = 0;      ///< phase 4
  std::size_t detected_by_vectors = 0;
  std::size_t detected_by_sequences = 0;
  std::size_t sequence_attempts = 0;
  std::size_t sequences_committed = 0;
  bool all_ffs_initialized = false;
  unsigned progress_limit = 0;
  std::vector<unsigned> sequence_lengths_tried;
};

class GaTestGenerator {
 public:
  /// The fault list carries detection state in and out: pre-detected faults
  /// are skipped, and the run marks everything it detects.
  GaTestGenerator(const Circuit& c, FaultList& faults, TestGenConfig config);

  /// Budgets, interrupt token, and checkpoint policy for subsequent run()s.
  /// Without this, runs are unbounded and uncheckpointed (seed behavior).
  void set_run_control(const RunControl& ctrl) { ctrl_ = ctrl; }

  /// Attach a telemetry bundle (nullptr detaches); the bundle must outlive
  /// the generator.  Attach before restore_from_checkpoint() to get the
  /// resume event traced.  Telemetry is observation-only: the generated test
  /// set is bit-identical with or without it, at any thread count.
  void set_telemetry(telemetry::RunTelemetry* telemetry) { telem_ = telemetry; }

  /// Rebuild committed state from a checkpoint (before run()): the test set
  /// is replayed through the simulator once, replayed fault statuses are
  /// verified against the stored ones, and the RNG and phase machine
  /// continue from the recorded commit boundary, so the resumed run is
  /// bit-identical to an uninterrupted one with the same seed.  Throws
  /// std::runtime_error on circuit/fault-universe mismatch or replay
  /// divergence.
  void restore_from_checkpoint(const Checkpoint& cp);

  /// Snapshot of the last commit boundary (what a stop would write to disk).
  Checkpoint make_checkpoint() const;

  // ---- cooperative time slicing (gatest_serve fair-share scheduling) ------
  //
  // A slice stop ends run() with StopReason::SliceStop at the next
  // generation-granularity poll, exactly like a budget stop: partial GA work
  // is discarded, the last commit boundary stays intact, and a resume from
  // make_checkpoint() reproduces the uninterrupted run bit-for-bit.  No
  // signal is involved, so many sliced jobs can coexist in one process.

  /// Arm a slice deadline for the next run(): once `seconds` of wall clock
  /// elapse AND at least one vector has been committed in this run segment,
  /// the run stops with SliceStop.  The progress precondition guarantees
  /// every slice advances the job, so a scheduler can never livelock on a
  /// slice shorter than one GA run.  0 disables (seed behavior).
  void set_slice_limit(double seconds) { slice_seconds_ = seconds; }

  /// Request an immediate cooperative slice stop (thread-safe; honored at
  /// the next generation or commit-boundary poll, without the one-commit
  /// progress precondition).  Cleared when run() starts.
  void request_slice_stop() {
    slice_requested_.store(true, std::memory_order_relaxed);
  }

  /// Run full test generation (vectors, then sequences), or continue a
  /// restored run.  Ends early — at a commit boundary, with the partial
  /// test set intact — when the budget, the stop token, or an exception
  /// fires; TestGenResult::stop_reason says which.
  TestGenResult run();

  /// Effective sequential depth used for limits: max(1, structural depth).
  unsigned effective_depth() const { return depth_; }

 private:
  /// Phase-machine position, checkpointed at every commit boundary.
  struct RunState {
    MacroPhase macro = MacroPhase::Vectors;
    Phase phase = Phase::InitializeFfs;
    unsigned noncontributing = 0;
    unsigned phase1_stall = 0;
    unsigned best_ffs_set = 0;
    std::size_t seq_mult_index = 0;
    unsigned seq_consecutive_failures = 0;
  };

  /// Phases 1-3; returns when the progress limit is exhausted.
  void generate_vectors();
  /// Phase 4; returns when every sequence length stopped making progress.
  void generate_sequences();

  /// Cumulative fitness evaluations (prior run segments + this one).
  std::size_t total_evaluations() const;
  /// GA candidates this generator had the simulator score (memo misses).
  std::size_t sim_evaluations() const;

  /// Budget/interrupt poll; records the first stop reason (sticky).
  bool stop_now();

  /// Mark a commit boundary: snapshot the RNG/eval counters the checkpoint
  /// would need, and write a periodic checkpoint when one is due.
  void note_boundary();

  /// One GA run evolving a single vector under `phase`; returns the best.
  TestVector evolve_vector(Phase phase);
  /// One GA run evolving a sequence of `frames` vectors; returns the best.
  TestSequence evolve_sequence(unsigned frames);

  /// Draw a fresh fault sample if sampling is enabled (applied to every
  /// evaluator so all threads score identically).
  void refresh_sample();

  /// Commit a vector through the simulator (traced as an fsim_commit span).
  FaultSimStats commit_vector(const TestVector& v, std::int64_t index);

  /// Run one GA scoring its chromosomes under `phase`.  A memo kept for
  /// this one run answers repeated chromosomes; the others are scored on
  /// evaluators_[0], or shared out by parallel_for on evaluators_[slot].
  const Individual& run_ga(GeneticAlgorithm& ga, Phase phase);

  // ---- telemetry (all no-ops when telem_ == nullptr) ----------------------

  /// Trace-enabled shorthand.
  bool tracing() const { return telem_ && telem_->trace.enabled(); }
  /// Name of the phase the generator is currently evolving for.
  const char* current_phase_name() const;
  /// Install the per-generation GA observer (no-op without telemetry).
  void install_ga_observer(GeneticAlgorithm& ga);
  /// Open the phase span for `phase` (closing the previous one, if any).
  void telemetry_enter_phase(Phase phase);
  /// Close the currently open phase span.
  void telemetry_close_phase();
  /// Per-commit trace event, progress redraw, and commit metrics.
  void telemetry_commit(std::size_t index, unsigned detected_delta);
  /// Fold end-of-run totals (fsim/fitness/result) into the registry.
  void telemetry_finalize_metrics();

  GaConfig vector_ga_config() const;
  GaConfig sequence_ga_config() const;

  const Circuit* circuit_;
  FaultList* faults_;
  TestGenConfig config_;
  /// The one committed fault-simulation state, shared read-only by every
  /// evaluation thread.  Built by make_fault_sim_backend(
  /// config_.fsim_backend), so a stale engine name throws at construction.
  std::unique_ptr<SequentialFaultSimulator> sim_;
  /// One evaluator per evaluation thread (config_.num_threads), each with
  /// its own simulator scratch; [0] is the calling thread's.
  std::vector<FitnessEvaluator> evaluators_;
  /// Fitness evaluations per phase (index Phase - 1): every individual a GA
  /// scored, memo hits included, so budgets and checkpoints count the same
  /// work whatever the memo answers.
  std::array<std::size_t, 4> phase_evals_{};
  std::size_t memo_hits_ = 0;  ///< of those, answered by a GA run's memo
  Rng rng_;
  unsigned depth_ = 1;
  std::size_t faults_pruned_ = 0;  ///< static-analysis count (accounting only)
  std::vector<std::uint8_t> last_best_genes_;  // for population seeding

  // Run control.
  RunControl ctrl_;
  BudgetTracker tracker_;
  TestGenResult result_;  // accumulates across a (possibly resumed) run
  RunState state_;
  StopReason stop_reason_ = StopReason::Completed;  // Completed = not stopped
  std::array<std::uint64_t, 4> boundary_rng_{};  // RNG at last commit boundary
  std::size_t boundary_evals_ = 0;     // cumulative evals at last boundary
  std::size_t prior_evals_ = 0;        // from checkpointed run segments
  double prior_seconds_ = 0.0;
  double last_checkpoint_elapsed_ = 0.0;
  bool resumed_ = false;

  // Cooperative time slicing (see set_slice_limit / request_slice_stop).
  double slice_seconds_ = 0.0;
  std::atomic<bool> slice_requested_{false};
  std::size_t slice_start_vectors_ = 0;  // test-set size when run() started

  // Parallel evaluation (config_.num_threads > 1): num_threads - 1 workers
  // score beside the calling thread; parallel_for slot k uses evaluators_[k].
  std::unique_ptr<ThreadPool> pool_;

  // Telemetry (borrowed; nullptr = disabled).  The open-phase bookkeeping
  // lets the per-phase spans tile the whole run: a span closes exactly when
  // the next opens (or the run ends).
  telemetry::RunTelemetry* telem_ = nullptr;
  int open_phase_ = -1;                  ///< Phase as int, -1 = none open
  double open_phase_start_ = 0.0;        ///< trace timestamp of phase_begin
  std::size_t open_phase_detected_ = 0;  ///< faults detected at phase_begin
  std::size_t open_phase_vectors_ = 0;   ///< test-set size at phase_begin
  std::uint64_t open_phase_span_ = 0;    ///< trace span id of the open phase
  std::vector<double> busy_seconds_;     ///< per-slot scoring time in a batch
};

}  // namespace gatest
