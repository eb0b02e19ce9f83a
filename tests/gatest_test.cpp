#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/compaction.h"
#include "gatest/config.h"
#include "gatest/fitness.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"
#include "util/rng.h"
#include "util/run_control.h"

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
        eval_(sim_) {}

  Circuit circuit_;
  FaultList faults_;
  SequentialFaultSimulator sim_;
  FitnessEvaluator eval_;
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
  EXPECT_EQ(eval_.scratch().counters().candidate_evaluations, 1u);
}

// ---- generator end-to-end -------------------------------------------------------

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
  // Warm-started GA runs fan their batches out over the threads like any
  // other run; results must match the unthreaded warm-start run exactly.
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
  EXPECT_EQ(a.test_set, b.test_set);
  EXPECT_EQ(a.fitness_evaluations, b.fitness_evaluations);
}

TEST(GaTestGenerator, WarmStartRunsReportTheirGenerations) {
  // A warm-started vector GA runs the same loop as every other GA run, so
  // each traced vector-phase ga_run span holds its generation events.
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 61;
  cfg.seed_with_previous_best = true;
  cfg.enable_sequence_phase = false;
  std::vector<std::string> lines;
  telemetry::RunTelemetry telem;
  telem.trace.open(
      [&lines](const std::string& line) { lines.push_back(line); });
  GaTestGenerator gen(c, faults, cfg);
  gen.set_telemetry(&telem);
  gen.run();
  telem.trace.close();

  std::size_t vector_runs = 0;
  bool in_run = false;
  unsigned generations = 0;
  for (const std::string& line : lines) {
    const telemetry::JsonValue ev = telemetry::parse_json(line);
    const std::string type = ev.string_or("type", "");
    if (type == "ga_run_begin") {
      in_run = ev.string_or("phase", "") != "sequences";
      generations = 0;
    } else if (type == "generation" && in_run) {
      ++generations;
    } else if (type == "ga_run_end" && in_run) {
      ++vector_runs;
      EXPECT_GE(generations, 1u) << "vector-phase ga_run #" << vector_runs
                                 << " has no generation event";
      in_run = false;
    }
  }
  // Every run after the first is warm-started.
  EXPECT_GT(vector_runs, 2u);
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
  // be bit-identical to the serial run (every thread scores against the
  // same committed simulator state).
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
  // 8 threads exceed most of s298's batches (3 inputs: at most 8 distinct
  // vectors, fewer once the memo answers repeats), so parallel_for often
  // wakes fewer workers than the pool holds.
  for (const unsigned threads : {2u, 3u, 4u, 8u}) {
    const TestGenResult parallel = run_with(threads);
    EXPECT_EQ(serial.faults_detected, parallel.faults_detected)
        << threads << " threads";
    ASSERT_EQ(serial.test_set.size(), parallel.test_set.size())
        << threads << " threads";
    for (std::size_t i = 0; i < serial.test_set.size(); ++i)
      EXPECT_EQ(logic_string(serial.test_set[i]),
                logic_string(parallel.test_set[i]))
          << threads << " threads, vector " << i;
    EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations)
        << threads << " threads";
  }
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
  EXPECT_EQ(serial.test_set, parallel.test_set);
  EXPECT_EQ(serial.fitness_evaluations, parallel.fitness_evaluations);
}

TEST(GaTestGenerator, WorkCountersDoNotDependOnThreadCount) {
  // Every thread scores candidates against the one committed simulator, so
  // a run's fault-simulation counters are the same at every thread count:
  // each vector is committed once, and each distinct chromosome of a GA run
  // is simulated once, whichever thread scores it; the run's memo answers
  // its repeats on the calling thread.
  const Circuit c = benchmark_circuit("s298");
  const char* const names[] = {
      "fsim.vectors_committed", "fsim.candidate_evaluations",
      "fsim.frames_simulated",  "fsim.good_events",
      "fsim.faulty_events",     "fsim.faults_dropped",
      "fsim.fault_groups",      "fsim.fault_group_lanes",
      "fitness.sim_evaluations", "fitness.cache.hits",
      "gatest.evaluations"};
  auto run_with = [&](unsigned threads) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = 11;
    cfg.num_threads = threads;
    telemetry::RunTelemetry telem;
    GaTestGenerator gen(c, faults, cfg);
    gen.set_telemetry(&telem);
    const TestGenResult res = gen.run();
    std::map<std::string, std::uint64_t> counts;
    for (const char* name : names)
      counts[name] = telem.metrics.counter(name).value();
    EXPECT_EQ(counts["fsim.vectors_committed"], res.test_set.size())
        << threads << " threads";
    EXPECT_EQ(counts["fsim.faults_dropped"], res.faults_detected)
        << threads << " threads";
    // The golden s298 seed 11 run: repeats are 45% of its evaluations.
    EXPECT_EQ(counts["gatest.evaluations"], 7360u) << threads << " threads";
    EXPECT_EQ(counts["fitness.sim_evaluations"], 4035u)
        << threads << " threads";
    EXPECT_EQ(counts["fitness.cache.hits"], 3325u) << threads << " threads";
    // The kernel's exact work: lanes are the faults the activity check let
    // through, good events the good-machine values that changed.
    EXPECT_EQ(counts["fsim.candidate_evaluations"], 4049u)
        << threads << " threads";
    EXPECT_EQ(counts["fsim.frames_simulated"], 62143u)
        << threads << " threads";
    EXPECT_EQ(counts["fsim.fault_groups"], 124275u) << threads << " threads";
    EXPECT_EQ(counts["fsim.fault_group_lanes"], 6519890u)
        << threads << " threads";
    EXPECT_EQ(counts["fsim.good_events"], 2510892u) << threads << " threads";
    EXPECT_EQ(counts["fsim.faulty_events"], 8033970u)
        << threads << " threads";
    // Parallel timing: each participating thread's busy time per batch, and
    // max/mean over a batch's participants, which lies in [1, threads].
    const telemetry::Histogram& busy =
        telem.metrics.histogram("parallel.chunk_seconds");
    const telemetry::Histogram& imbalance =
        telem.metrics.histogram("parallel.imbalance_ratio");
    if (threads == 1) {
      EXPECT_EQ(busy.count(), 0u);
      EXPECT_EQ(imbalance.count(), 0u);
    } else {
      EXPECT_GT(busy.count(), 0u) << threads << " threads";
      EXPECT_GT(imbalance.count(), 0u) << threads << " threads";
      EXPECT_GE(imbalance.min(), 1.0 - 1e-9) << threads << " threads";
      EXPECT_LE(imbalance.max(), threads) << threads << " threads";
    }
    return counts;
  };
  const auto serial = run_with(1);
  for (const unsigned threads : {3u, 4u, 8u})
    EXPECT_EQ(serial, run_with(threads)) << threads << " threads";
}

// ---- fitness memo ---------------------------------------------------------------

TEST(FitnessMemo, PublishedCountsMatchSimulatorCalls) {
  // fitness.sim_evaluations is derived (evaluations minus memo hits), so it
  // must equal the simulator's own count of candidates it scored; the only
  // other evaluate_* call is each sequence attempt's full-list probe.
  const Circuit c = benchmark_circuit("s386");
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 1;
  telemetry::RunTelemetry telem;
  GaTestGenerator gen(c, faults, cfg);
  gen.set_telemetry(&telem);
  const TestGenResult res = gen.run();
  auto count = [&](const char* name) {
    return telem.metrics.counter(name).value();
  };
  const std::uint64_t evals = count("gatest.evaluations");
  const std::uint64_t hits = count("fitness.cache.hits");
  const std::uint64_t sims = count("fitness.sim_evaluations");
  EXPECT_EQ(evals, res.fitness_evaluations);
  EXPECT_GT(hits, 0u);
  EXPECT_GT(res.sequence_attempts, 0u);
  EXPECT_EQ(hits + sims, evals);
  EXPECT_EQ(count("fitness.cache.misses"), sims);
  EXPECT_EQ(count("fsim.candidate_evaluations"),
            sims + res.sequence_attempts);
  EXPECT_EQ(count("fitness.evals.init_ffs") + count("fitness.evals.detect") +
                count("fitness.evals.detect_activity") +
                count("fitness.evals.sequences"),
            evals);
}

TEST(FitnessMemo, OneInputCircuitSimulatesEachValueOncePerGaRun) {
  // With one primary input a vector chromosome is a single binary gene, so a
  // vector GA run holds at most two distinct chromosomes however many
  // individuals it scores; the run's memo answers all the others.
  const Circuit c = parse_bench_string(
      "INPUT(a)\nOUTPUT(z)\nq1 = DFF(d1)\nq2 = DFF(d2)\n"
      "d1 = XOR(a, q2)\nd2 = AND(a, q1)\nz = NOR(q1, q2)\n",
      "one_input");
  FaultList faults(c);
  TestGenConfig cfg;
  cfg.seed = 7;
  cfg.enable_sequence_phase = false;
  telemetry::RunTelemetry telem;
  GaTestGenerator gen(c, faults, cfg);
  gen.set_telemetry(&telem);
  const TestGenResult res = gen.run();
  auto count = [&](const char* name) {
    return telem.metrics.counter(name).value();
  };
  const std::uint64_t runs = count("ga.runs");
  const std::uint64_t sims = count("fitness.sim_evaluations");
  ASSERT_GT(runs, 0u);
  EXPECT_GT(res.faults_detected, 0u);
  EXPECT_LE(sims, 2 * runs);
  EXPECT_EQ(count("fsim.candidate_evaluations"), sims);
  EXPECT_EQ(count("fitness.cache.hits") + sims, res.fitness_evaluations);
  EXPECT_GT(count("fitness.cache.hits"), 8 * sims);
}

TEST(FitnessMemo, BudgetStopCountsHitsAtAnyThreadCount) {
  // s1488 seed 1 stopped at 7000 evaluations: memo hits count toward the
  // budget, so the stop lands on the same evaluation at 1 and 3 threads
  // (with 3, which thread scores which miss varies run to run), with 43% of
  // the evaluations answered by the memo.
  const Circuit c = benchmark_circuit("s1488");
  auto run_with = [&](unsigned threads) {
    FaultList faults(c);
    TestGenConfig cfg;
    cfg.seed = 1;
    cfg.num_threads = threads;
    GaTestGenerator gen(c, faults, cfg);
    RunControl ctrl;
    ctrl.budget.max_evaluations = 7000;
    gen.set_run_control(ctrl);
    telemetry::RunTelemetry telem;
    gen.set_telemetry(&telem);
    const TestGenResult res = gen.run();
    auto count = [&](const char* name) {
      return telem.metrics.counter(name).value();
    };
    EXPECT_EQ(res.stop_reason, StopReason::EvalLimit);
    EXPECT_EQ(res.faults_detected, 1151u) << threads << " threads";
    EXPECT_EQ(res.test_set.size(), 54u) << threads << " threads";
    EXPECT_EQ(res.fitness_evaluations, 7008u) << threads << " threads";
    EXPECT_EQ(count("fitness.sim_evaluations"), 4003u)
        << threads << " threads";
    EXPECT_EQ(count("fitness.cache.hits"), 3005u) << threads << " threads";
    return res.test_set;
  };
  EXPECT_EQ(run_with(1), run_with(3));
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
