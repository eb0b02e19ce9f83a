#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/compaction.h"
#include "gatest/config.h"
#include "gatest/fitness.h"
#include "gatest/test_generator.h"
#include "util/rng.h"

namespace gatest {
namespace {

TEST(Config, Table1Parameters) {
  // Table 1: L < 4 -> (8, 1/8); 4 <= L <= 16 -> (16, 1/16); L > 16 -> (16, 1/L).
  EXPECT_EQ(table1_params(3).population_size, 8u);
  EXPECT_DOUBLE_EQ(table1_params(3).mutation_prob, 1.0 / 8.0);
  EXPECT_EQ(table1_params(4).population_size, 16u);
  EXPECT_DOUBLE_EQ(table1_params(4).mutation_prob, 1.0 / 16.0);
  EXPECT_EQ(table1_params(16).population_size, 16u);
  EXPECT_DOUBLE_EQ(table1_params(16).mutation_prob, 1.0 / 16.0);
  EXPECT_EQ(table1_params(35).population_size, 16u);
  EXPECT_DOUBLE_EQ(table1_params(35).mutation_prob, 1.0 / 35.0);
}

TEST(Config, PaperDefaults) {
  const TestGenConfig cfg;
  EXPECT_EQ(cfg.selection, SelectionScheme::TournamentNoReplacement);
  EXPECT_EQ(cfg.crossover, CrossoverScheme::Uniform);
  EXPECT_EQ(cfg.num_generations, 8u);
  EXPECT_EQ(cfg.seq_population, 32u);
  EXPECT_DOUBLE_EQ(cfg.seq_mutation, 1.0 / 64.0);
  EXPECT_DOUBLE_EQ(cfg.crossover_prob, 1.0);
  EXPECT_EQ(cfg.sequence_coding, Coding::Binary);
  EXPECT_EQ(cfg.seq_fail_limit, 4u);
  EXPECT_EQ(cfg.seq_length_multipliers,
            (std::vector<double>{1.0, 2.0, 4.0}));
}

TEST(Decode, VectorFromGenes) {
  const std::vector<std::uint8_t> genes{1, 0, 1, 1, 0, 0};
  const TestVector v = decode_vector(genes, 3, 0);
  EXPECT_EQ(logic_string(v), "101");
  const TestVector v1 = decode_vector(genes, 3, 1);
  EXPECT_EQ(logic_string(v1), "100");
  EXPECT_THROW(decode_vector(genes, 3, 2), std::runtime_error);
}

TEST(Decode, SequenceFromGenes) {
  const std::vector<std::uint8_t> genes{1, 0, 0, 1, 1, 1};
  const TestSequence seq = decode_sequence(genes, 2);
  ASSERT_EQ(seq.size(), 3u);
  EXPECT_EQ(logic_string(seq[0]), "10");
  EXPECT_EQ(logic_string(seq[1]), "01");
  EXPECT_EQ(logic_string(seq[2]), "11");
  EXPECT_THROW(decode_sequence(genes, 4), std::runtime_error);
}

// ---- fitness formulas --------------------------------------------------------

class FitnessFormulaTest : public ::testing::Test {
 protected:
  FitnessFormulaTest()
      : circuit_(make_s27()), faults_(circuit_), sim_(circuit_, faults_),
        eval_(sim_, config_) {}

  Circuit circuit_;
  FaultList faults_;
  TestGenConfig config_;
  SequentialFaultSimulator sim_;
  FitnessEvaluator eval_{sim_, config_};
};

TEST_F(FitnessFormulaTest, Phase1Formula) {
  FaultSimStats s;
  s.ffs_set = 2;
  s.ffs_changed = 1;
  // s27 has 3 flip-flops: fitness = 2 + 1/3.
  EXPECT_NEAR(eval_.phase_fitness(s, Phase::InitializeFfs, 1), 2.0 + 1.0 / 3.0,
              1e-12);
}

TEST_F(FitnessFormulaTest, Phase2Formula) {
  FaultSimStats s;
  s.detected = 5;
  s.fault_effects_at_ffs = 6;
  s.faults_simulated = 32;
  EXPECT_NEAR(eval_.phase_fitness(s, Phase::DetectFaults, 1),
              5.0 + 6.0 / (32.0 * 3.0), 1e-12);
}

TEST_F(FitnessFormulaTest, Phase3AddsActivityTerm) {
  FaultSimStats s;
  s.detected = 1;
  s.fault_effects_at_ffs = 3;
  s.faults_simulated = 32;
  s.good_events = 10;
  s.faulty_events = 20;
  const double base = eval_.phase_fitness(s, Phase::DetectFaults, 1);
  const double with_activity =
      eval_.phase_fitness(s, Phase::DetectWithActivity, 1);
  const double nodes = static_cast<double>(circuit_.num_gates());
  EXPECT_NEAR(with_activity, base + 2.0 * 30.0 / (nodes * 32.0), 1e-12);
}

TEST_F(FitnessFormulaTest, Phase4DividesEffectsBySequenceLength) {
  FaultSimStats s;
  s.detected = 2;
  s.fault_effects_at_ffs = 12;
  s.faults_simulated = 32;
  const double f4 = eval_.phase_fitness(s, Phase::Sequences, 4);
  EXPECT_NEAR(f4, 2.0 + 12.0 / (32.0 * 3.0 * 4.0), 1e-12);
}

TEST_F(FitnessFormulaTest, DetectionDominatesSecondaryTerms) {
  // A candidate detecting one more fault must always outrank any candidate
  // with fewer detections, whatever the secondary observables.
  FaultSimStats lo;
  lo.detected = 3;
  lo.fault_effects_at_ffs = 32 * 3 - 1;  // almost every possible pair
  lo.faults_simulated = 32;
  lo.good_events = 100000;
  lo.faulty_events = 100000;
  FaultSimStats hi;
  hi.detected = 4;
  hi.faults_simulated = 32;
  for (Phase p : {Phase::DetectFaults, Phase::Sequences}) {
    EXPECT_GT(eval_.phase_fitness(hi, p, 1),
              eval_.phase_fitness(lo, p, 1) - 1.0 + 1e-9);
  }
  // Phase 2/4 secondary terms stay strictly below 1.
  EXPECT_LT(eval_.phase_fitness(lo, Phase::DetectFaults, 1), 4.0);
}

TEST_F(FitnessFormulaTest, Phase1PrefersMoreInitializedFfs) {
  // Drive the evaluator through the simulator: an input that initializes
  // more flip-flops scores higher.
  const double f_a = eval_.vector_fitness(logic_vector("0000"), Phase::InitializeFfs);
  EXPECT_GE(f_a, 1.0);  // at least G5 initializes (see fsim_test)
}

TEST_F(FitnessFormulaTest, SampleRestrictsFaultsSimulated) {
  eval_.set_sample({0, 1, 2, 3});
  const double f = eval_.vector_fitness(logic_vector("1111"), Phase::DetectFaults);
  (void)f;
  EXPECT_EQ(eval_.sample().size(), 4u);
  EXPECT_EQ(eval_.evaluations(), 1u);
}

// ---- generator end-to-end -------------------------------------------------------

// ---- fitness memoization cache ----------------------------------------------

class FitnessCacheTest : public FitnessFormulaTest {
 protected:
  TestVector vec(const char* bits) { return logic_vector(bits); }
};

TEST_F(FitnessCacheTest, RepeatedGenomeHitsWithoutResimulating) {
  eval_.set_cache(true);
  const double a = eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  const double b = eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(a, b);
  EXPECT_EQ(eval_.cache_stats().hits, 1u);
  EXPECT_EQ(eval_.cache_stats().misses, 1u);
  EXPECT_EQ(eval_.evaluations(), 2u);       // logical count includes hits
  EXPECT_EQ(eval_.sim_evaluations(), 1u);   // but the simulator ran once
}

TEST_F(FitnessCacheTest, PhaseIsPartOfTheKey) {
  eval_.set_cache(true);
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  eval_.vector_fitness(vec("0110"), Phase::DetectWithActivity);
  eval_.vector_fitness(vec("0110"), Phase::InitializeFfs);
  EXPECT_EQ(eval_.cache_stats().hits, 0u);
  EXPECT_EQ(eval_.cache_stats().misses, 3u);
}

TEST_F(FitnessCacheTest, CommitInvalidatesAndRecomputes) {
  eval_.set_cache(true);
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  sim_.apply_vector(vec("1011"), 0);  // commit: epoch moves, state changed
  const double after = eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(eval_.cache_stats().hits, 0u);
  EXPECT_EQ(eval_.cache_stats().misses, 2u);
  EXPECT_GE(eval_.cache_stats().invalidations, 1u);
  // The recomputed value reflects the new committed state.
  FitnessEvaluator fresh(sim_, config_);
  EXPECT_EQ(after, fresh.vector_fitness(vec("0110"), Phase::DetectFaults));
}

TEST_F(FitnessCacheTest, ResetAndRestoreInvalidate) {
  eval_.set_cache(true);
  sim_.apply_vector(vec("1011"), 0);
  const auto snap = sim_.snapshot();
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  sim_.restore(snap);
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  sim_.reset();
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(eval_.cache_stats().hits, 0u);
  EXPECT_EQ(eval_.cache_stats().misses, 3u);
}

TEST_F(FitnessCacheTest, SampleChangeInvalidatesOnlyOnRealChange) {
  eval_.set_cache(true);
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  eval_.set_sample({0, 1, 2});  // real change: drop memoized full-list scores
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(eval_.cache_stats().misses, 2u);
  eval_.set_sample({0, 1, 2});  // same sample again: cache survives
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(eval_.cache_stats().hits, 1u);
  EXPECT_EQ(eval_.cache_stats().misses, 2u);
}

TEST_F(FitnessCacheTest, CapacityOverflowEvicts) {
  eval_.set_cache(true, 4);
  Rng rng(91);
  std::set<std::vector<Logic>> seen;
  for (int i = 0; i < 32; ++i) {
    TestVector v(circuit_.num_inputs());
    for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
    seen.insert(v);
    eval_.vector_fitness(v, Phase::DetectFaults);
  }
  EXPECT_GT(eval_.cache_stats().evictions, 0u);
  EXPECT_LE(eval_.sim_evaluations(), 32u);
  EXPECT_GE(eval_.sim_evaluations(), seen.size());
}

TEST_F(FitnessCacheTest, SequencesAreCachedToo) {
  eval_.set_cache(true);
  const TestSequence seq = {vec("0110"), vec("1011"), vec("0001")};
  const double a = eval_.sequence_fitness(seq);
  const double b = eval_.sequence_fitness(seq);
  EXPECT_EQ(a, b);
  EXPECT_EQ(eval_.cache_stats().hits, 1u);
  EXPECT_EQ(eval_.sim_evaluations(), 1u);
}

TEST_F(FitnessCacheTest, DisabledCacheTouchesNothing) {
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  eval_.vector_fitness(vec("0110"), Phase::DetectFaults);
  EXPECT_EQ(eval_.cache_stats().hits, 0u);
  EXPECT_EQ(eval_.cache_stats().misses, 0u);
  EXPECT_EQ(eval_.sim_evaluations(), eval_.evaluations());
}

TEST(FitnessCache, GeneratorRunsIdenticallyWithCache) {
  // End-to-end (library-level twin of the cli_cache_identity gates): same
  // circuit and seed, accelerated vs. plain, byte-identical test sets.
  const Circuit c = benchmark_circuit("s386", 3);
  TestGenConfig plain_cfg;
  plain_cfg.seed = 21;
  FaultList plain_faults(c);
  GaTestGenerator plain(c, plain_faults, plain_cfg);
  const TestGenResult plain_res = plain.run();

  TestGenConfig accel_cfg = plain_cfg;
  accel_cfg.fitness_cache = true;
  FaultList accel_faults(c);
  GaTestGenerator accel(c, accel_faults, accel_cfg);
  const TestGenResult accel_res = accel.run();

  EXPECT_EQ(plain_res.test_set, accel_res.test_set);
  EXPECT_EQ(plain_res.faults_detected, accel_res.faults_detected);
  EXPECT_EQ(plain_res.fitness_evaluations, accel_res.fitness_evaluations);
  EXPECT_GT(accel.cache_stats().hits, 0u);
}

TEST(GaTestGenerator, RejectsUnknownFsimBackend) {
  // "event" is the only engine; a stale name such as the retired
  // "levelized" must fail at construction instead of running the default.
  const Circuit c = make_s27();
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.fsim_backend = "levelized";
  EXPECT_THROW({ GaTestGenerator gen(c, faults, cfg); },
               std::invalid_argument);
}

TEST(GaTestGenerator, FullCoverageOnS27) {
  const Circuit c = make_s27();
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 5;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_EQ(res.faults_total, 32u);
  EXPECT_EQ(res.faults_detected, 32u);
  EXPECT_DOUBLE_EQ(res.fault_coverage, 1.0);
  EXPECT_GT(res.test_set.size(), 0u);
  EXPECT_GT(res.fitness_evaluations, 0u);
  EXPECT_TRUE(res.all_ffs_initialized);
}

TEST(GaTestGenerator, DeterministicGivenSeed) {
  const Circuit c = benchmark_circuit("s298", 3);
  auto run_once = [&](std::uint64_t seed) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = seed;
    GaTestGenerator gen(c, faults, cfg);
    return gen.run();
  };
  const TestGenResult a = run_once(11);
  const TestGenResult b = run_once(11);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.test_set.size(), b.test_set.size());
  for (std::size_t i = 0; i < a.test_set.size(); ++i)
    EXPECT_EQ(logic_string(a.test_set[i]), logic_string(b.test_set[i]));
}

TEST(GaTestGenerator, TestSetReplayReproducesDetections) {
  // The invariant that makes the test set a *deliverable*: replaying it
  // through a fresh fault simulator detects exactly the reported faults.
  const Circuit c = benchmark_circuit("s386", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 21;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();

  FaultList replay(c);
  SequentialFaultSimulator sim(c, replay);
  for (std::size_t i = 0; i < res.test_set.size(); ++i)
    sim.apply_vector(res.test_set[i], static_cast<std::int64_t>(i));
  EXPECT_EQ(replay.num_detected(), res.faults_detected);
  for (std::size_t f = 0; f < faults.size(); ++f)
    EXPECT_EQ(faults.status(f) == FaultStatus::Detected,
              replay.status(f) == FaultStatus::Detected);
}

TEST(GaTestGenerator, RespectsMaxVectors) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 31;
  cfg.max_vectors = 10;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_LE(res.test_set.size(), 10u);
}

TEST(GaTestGenerator, EffectiveDepthAtLeastOne) {
  Circuit c("comb");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::Nand, "g", {a, b});
  c.add_output(g);
  c.finalize();
  FaultList faults(c);
  TestGenConfig cfg;
  GaTestGenerator gen(c, faults, cfg);
  EXPECT_EQ(gen.effective_depth(), 1u);
  // Combinational circuit: full coverage expected quickly.
  const TestGenResult res = gen.run();
  EXPECT_EQ(res.fault_coverage, 1.0);
}

TEST(GaTestGenerator, FaultSamplingStillDetects) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 41;
  cfg.fault_sample_size = 50;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.faults_detected, res.faults_total / 4);
}

TEST(GaTestGenerator, OverlappingPopulationsWork) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 43;
  cfg.generation_gap = 0.5;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.faults_detected, res.faults_total / 4);
}

TEST(GaTestGenerator, AblationVectorPhasesOnly) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 47;
  cfg.enable_sequence_phase = false;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_EQ(res.vectors_from_sequences, 0u);
  EXPECT_EQ(res.sequences_committed, 0u);
}

TEST(GaTestGenerator, AblationSequencePhaseOnly) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 53;
  cfg.enable_vector_phases = false;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_EQ(res.vectors_from_vector_phases, 0u);
  // Sequences alone must still detect a reasonable share.
  EXPECT_GT(res.faults_detected, 0u);
}

TEST(GaTestGenerator, SeedingAndElitismRun) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 61;
  cfg.seed_with_previous_best = true;
  cfg.elitism = true;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.faults_detected, res.faults_total / 4);

  // Replay invariant still holds with the warm-start path.
  FaultList replay(c);
  SequentialFaultSimulator sim(c, replay);
  for (std::size_t i = 0; i < res.test_set.size(); ++i)
    sim.apply_vector(res.test_set[i], static_cast<std::int64_t>(i));
  EXPECT_EQ(replay.num_detected(), res.faults_detected);
}

TEST(GaTestGenerator, SeedingWithThreadsStillCorrect) {
  // The warm-start path evaluates serially even when threads are
  // configured; results must match the unthreaded warm-start run exactly.
  const Circuit c = benchmark_circuit("s298", 3);
  auto run_with = [&](unsigned threads) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = 63;
    cfg.seed_with_previous_best = true;
    cfg.num_threads = threads;
    GaTestGenerator gen(c, faults, cfg);
    return gen.run();
  };
  const TestGenResult a = run_with(1);
  const TestGenResult b = run_with(3);
  EXPECT_EQ(a.faults_detected, b.faults_detected);
  EXPECT_EQ(a.test_set.size(), b.test_set.size());
}

TEST(GaTestGenerator, NonBinaryCodingRuns) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 59;
  cfg.sequence_coding = Coding::NonBinary;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.faults_detected, res.faults_total / 4);
}

// ---- compaction ---------------------------------------------------------------

TEST(Compaction, PreservesCoverageAndShrinksRandomSets) {
  // A random test set is highly redundant; compaction must shrink it without
  // losing a single detection.
  const Circuit c = benchmark_circuit("s298", 3);
  Rng rng(5);
  std::vector<TestVector> tests;
  for (int i = 0; i < 300; ++i) {
    TestVector v(c.num_inputs());
    for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
    tests.push_back(std::move(v));
  }

  const CompactionResult comp = compact_test_set(c, tests);
  EXPECT_EQ(comp.original_length, 300u);
  EXPECT_LT(comp.compacted_length, comp.original_length / 2);

  // Replay: the compacted set detects at least the original detections.
  FaultList before(c), after(c);
  {
    SequentialFaultSimulator sim(c, before);
    for (std::size_t i = 0; i < tests.size(); ++i)
      sim.apply_vector(tests[i], static_cast<std::int64_t>(i));
  }
  {
    SequentialFaultSimulator sim(c, after);
    for (std::size_t i = 0; i < comp.test_set.size(); ++i)
      sim.apply_vector(comp.test_set[i], static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(comp.detections, before.num_detected());
  for (std::size_t f = 0; f < before.size(); ++f) {
    if (before.status(f) == FaultStatus::Detected) {
      EXPECT_EQ(after.status(f), FaultStatus::Detected)
          << fault_name(c, before.fault(f));
    }
  }
}

TEST(Compaction, EmptyAndTrivialSets) {
  const Circuit c = make_s27();
  const CompactionResult empty = compact_test_set(c, {});
  EXPECT_EQ(empty.compacted_length, 0u);

  // A set detecting nothing compacts to nothing to preserve (the empty
  // detection set is preserved by any subset; block removal deletes all).
  std::vector<TestVector> useless(4, TestVector(c.num_inputs(), Logic::Zero));
  const CompactionResult res = compact_test_set(c, useless);
  EXPECT_LE(res.compacted_length, res.original_length);
}

TEST(Compaction, RespectsPassBudget) {
  const Circuit c = benchmark_circuit("s298", 3);
  Rng rng(7);
  std::vector<TestVector> tests;
  for (int i = 0; i < 100; ++i) {
    TestVector v(c.num_inputs());
    for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
    tests.push_back(std::move(v));
  }
  CompactionConfig cfg;
  cfg.max_passes = 5;
  const CompactionResult comp = compact_test_set(c, tests, cfg);
  EXPECT_LE(comp.simulation_passes, 5u + 2u);
}

/// Property sweep: compaction never loses a detection and never grows the
/// set, across circuits and seeds.
class CompactionPropertyTest
    : public ::testing::TestWithParam<std::tuple<const char*, std::uint64_t>> {
};

TEST_P(CompactionPropertyTest, SoundAndShrinking) {
  const auto [name, seed] = GetParam();
  const Circuit c = benchmark_circuit(name, 3);
  Rng rng(seed);
  std::vector<TestVector> tests;
  for (int i = 0; i < 120; ++i) {
    TestVector v(c.num_inputs());
    for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
    tests.push_back(std::move(v));
  }
  const CompactionResult comp = compact_test_set(c, tests);
  EXPECT_LE(comp.compacted_length, comp.original_length);

  FaultList before(c), after(c);
  {
    SequentialFaultSimulator sim(c, before);
    for (std::size_t i = 0; i < tests.size(); ++i)
      sim.apply_vector(tests[i], static_cast<std::int64_t>(i));
  }
  {
    SequentialFaultSimulator sim(c, after);
    for (std::size_t i = 0; i < comp.test_set.size(); ++i)
      sim.apply_vector(comp.test_set[i], static_cast<std::int64_t>(i));
  }
  for (std::size_t f = 0; f < before.size(); ++f) {
    if (before.status(f) == FaultStatus::Detected) {
      EXPECT_EQ(after.status(f), FaultStatus::Detected)
          << fault_name(c, before.fault(f));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CircuitsAndSeeds, CompactionPropertyTest,
    ::testing::Combine(::testing::Values("s27", "s298", "s386"),
                       ::testing::Values(101, 202)));

TEST(Compaction, GatestSetsCompactOnlyALittle) {
  // GATEST sets are already compact; compaction should not butcher them.
  const Circuit c = make_s27();
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 9;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  const CompactionResult comp = compact_test_set(c, res.test_set);
  EXPECT_EQ(comp.detections, res.faults_detected);
  EXPECT_LE(comp.compacted_length, res.test_set.size());
  EXPECT_GE(comp.compacted_length, 1u);
}

TEST(GaTestGenerator, ParallelEvaluationMatchesSerial) {
  // The paper's parallel-GA outlook: thread-parallel fitness evaluation must
  // be bit-identical to the serial run (replica simulators are clones).
  const Circuit c = benchmark_circuit("s298", 3);
  auto run_with = [&](unsigned threads) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = 67;
    cfg.num_threads = threads;
    GaTestGenerator gen(c, faults, cfg);
    return gen.run();
  };
  const TestGenResult serial = run_with(1);
  const TestGenResult parallel = run_with(4);
  EXPECT_EQ(serial.faults_detected, parallel.faults_detected);
  ASSERT_EQ(serial.test_set.size(), parallel.test_set.size());
  for (std::size_t i = 0; i < serial.test_set.size(); ++i)
    EXPECT_EQ(logic_string(serial.test_set[i]),
              logic_string(parallel.test_set[i]));
  EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations);
}

TEST(GaTestGenerator, ParallelWithSamplingMatchesSerial) {
  const Circuit c = benchmark_circuit("s386", 3);
  auto run_with = [&](unsigned threads) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = 71;
    cfg.num_threads = threads;
    cfg.fault_sample_size = 60;
    GaTestGenerator gen(c, faults, cfg);
    return gen.run();
  };
  const TestGenResult serial = run_with(1);
  const TestGenResult parallel = run_with(3);
  EXPECT_EQ(serial.faults_detected, parallel.faults_detected);
  EXPECT_EQ(serial.test_set.size(), parallel.test_set.size());
}

/// Every selection/crossover combination from Table 3 must run end to end.
class SchemeMatrixTest
    : public ::testing::TestWithParam<
          std::tuple<SelectionScheme, CrossoverScheme>> {};

TEST_P(SchemeMatrixTest, RunsToCompletion) {
  const auto [sel, xover] = GetParam();
  const Circuit c = make_s27();
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 61;
  cfg.selection = sel;
  cfg.crossover = xover;
  GaTestGenerator gen(c, faults, cfg);
  const TestGenResult res = gen.run();
  EXPECT_GT(res.faults_detected, 20u);  // near-full coverage on s27
}

INSTANTIATE_TEST_SUITE_P(
    Table3Matrix, SchemeMatrixTest,
    ::testing::Combine(
        ::testing::Values(SelectionScheme::RouletteWheel,
                          SelectionScheme::StochasticUniversal,
                          SelectionScheme::TournamentNoReplacement,
                          SelectionScheme::TournamentWithReplacement),
        ::testing::Values(CrossoverScheme::OnePoint, CrossoverScheme::TwoPoint,
                          CrossoverScheme::Uniform)));

}  // namespace
}  // namespace gatest
