#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "ga/ga.h"
#include "util/rng.h"

namespace gatest {
namespace {

double ones_count(const std::vector<std::uint8_t>& genes) {
  return static_cast<double>(
      std::count(genes.begin(), genes.end(), std::uint8_t{1}));
}

GaConfig basic_config() {
  GaConfig cfg;
  cfg.population_size = 16;
  cfg.num_generations = 8;
  cfg.mutation_prob = 1.0 / 16.0;
  return cfg;
}

TEST(Ga, ToStringCoversAllSchemes) {
  EXPECT_EQ(to_string(SelectionScheme::RouletteWheel), "roulette");
  EXPECT_EQ(to_string(SelectionScheme::StochasticUniversal),
            "stochastic-universal");
  EXPECT_EQ(to_string(SelectionScheme::TournamentNoReplacement),
            "tournament-no-repl");
  EXPECT_EQ(to_string(SelectionScheme::TournamentWithReplacement),
            "tournament-repl");
  EXPECT_EQ(to_string(CrossoverScheme::OnePoint), "1-point");
  EXPECT_EQ(to_string(CrossoverScheme::TwoPoint), "2-point");
  EXPECT_EQ(to_string(CrossoverScheme::Uniform), "uniform");
  EXPECT_EQ(to_string(Coding::Binary), "binary");
  EXPECT_EQ(to_string(Coding::NonBinary), "nonbinary");
}

TEST(Ga, RejectsBadConfigs) {
  Rng rng(1);
  GaConfig cfg = basic_config();
  cfg.population_size = 1;
  EXPECT_THROW(GeneticAlgorithm(cfg, 8, rng), std::runtime_error);
  cfg = basic_config();
  EXPECT_THROW(GeneticAlgorithm(cfg, 0, rng), std::runtime_error);
  cfg.coding = Coding::NonBinary;
  cfg.gene_block = 3;
  EXPECT_THROW(GeneticAlgorithm(cfg, 8, rng), std::runtime_error);
  cfg = basic_config();
  cfg.generation_gap = 0.0;
  EXPECT_THROW(GeneticAlgorithm(cfg, 8, rng), std::runtime_error);
}

TEST(Ga, RandomizePopulationFillsAllBits) {
  Rng rng(2);
  GeneticAlgorithm ga(basic_config(), 64, rng);
  ga.randomize_population();
  bool any_one = false, any_zero = false;
  for (const Individual& ind : ga.population()) {
    EXPECT_EQ(ind.genes.size(), 64u);
    EXPECT_FALSE(ind.evaluated);
    for (std::uint8_t g : ind.genes) (g ? any_one : any_zero) = true;
  }
  EXPECT_TRUE(any_one);
  EXPECT_TRUE(any_zero);
}

TEST(Ga, EvaluateCachesAndCounts) {
  Rng rng(3);
  GeneticAlgorithm ga(basic_config(), 16, rng);
  ga.randomize_population();
  const std::size_t n1 = ga.evaluate(ones_count);
  EXPECT_EQ(n1, 16u);
  const std::size_t n2 = ga.evaluate(ones_count);
  EXPECT_EQ(n2, 0u);  // all cached
  EXPECT_EQ(ga.evaluations(), 16u);
}

TEST(Ga, BestTracksMaximum) {
  Rng rng(4);
  GeneticAlgorithm ga(basic_config(), 16, rng);
  ga.randomize_population();
  ga.evaluate(ones_count);
  double max_fit = 0;
  for (const Individual& ind : ga.population())
    max_fit = std::max(max_fit, ind.fitness);
  EXPECT_EQ(ga.best().fitness, max_fit);
}

TEST(Ga, RunImprovesOneMax) {
  // OneMax: the GA should do much better than a random individual
  // (expected 32 ones out of 64).
  Rng rng(5);
  GaConfig cfg = basic_config();
  cfg.population_size = 32;
  cfg.num_generations = 20;
  GeneticAlgorithm ga(cfg, 64, rng);
  const Individual& best = ga.run(ones_count);
  EXPECT_GE(best.fitness, 45.0);
}

TEST(Ga, DeterministicGivenSeed) {
  auto run_once = [](std::uint64_t seed) {
    Rng rng(seed);
    GeneticAlgorithm ga(basic_config(), 32, rng);
    ga.run(ones_count);
    return ga.best().genes;
  };
  EXPECT_EQ(run_once(99), run_once(99));
  EXPECT_NE(run_once(99), run_once(100));
}

TEST(Ga, SetIndividualSeedsPopulation) {
  Rng rng(6);
  GeneticAlgorithm ga(basic_config(), 8, rng);
  ga.randomize_population();
  std::vector<std::uint8_t> all_ones(8, 1);
  ga.set_individual(0, all_ones);
  ga.evaluate(ones_count);
  EXPECT_EQ(ga.best().fitness, 8.0);
  EXPECT_THROW(ga.set_individual(99, all_ones), std::runtime_error);
  EXPECT_THROW(ga.set_individual(0, std::vector<std::uint8_t>(3, 0)),
               std::runtime_error);
}

TEST(Ga, BatchEvaluateMatchesSerial) {
  auto run_with = [](bool batch) {
    Rng rng(77);
    GeneticAlgorithm ga(basic_config(), 32, rng);
    if (batch) {
      ga.run([](const std::vector<const std::vector<std::uint8_t>*>& genes,
                std::vector<double>& out) {
        for (std::size_t i = 0; i < genes.size(); ++i)
          out[i] = ones_count(*genes[i]);
      });
    } else {
      ga.run(ones_count);
    }
    return ga.best().genes;
  };
  EXPECT_EQ(run_with(true), run_with(false));
}

TEST(Ga, BatchEvaluateCountsComputations) {
  Rng rng(78);
  GeneticAlgorithm ga(basic_config(), 16, rng);
  ga.randomize_population();
  const std::size_t n = ga.evaluate(
      [](const std::vector<const std::vector<std::uint8_t>*>& genes,
         std::vector<double>& out) {
        for (std::size_t i = 0; i < genes.size(); ++i)
          out[i] = ones_count(*genes[i]);
      });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(ga.evaluations(), 16u);
}

TEST(Ga, BatchEvaluateHandsOverDuplicateGenomes) {
  // Duplicate individuals in one generation each occupy a batch slot (the
  // GA deduplicates nothing itself — the generator's fitness memo does), and
  // the per-generation eval counter reflects every slot.
  Rng rng(79);
  GeneticAlgorithm ga(basic_config(), 8, rng);
  ga.randomize_population();
  const std::vector<std::uint8_t> dup(8, 1);
  for (std::size_t slot = 0; slot < 4; ++slot) ga.set_individual(slot, dup);
  std::size_t batch_slots = 0, dup_slots = 0;
  const std::size_t n = ga.evaluate(
      [&](const std::vector<const std::vector<std::uint8_t>*>& genes,
          std::vector<double>& out) {
        batch_slots = genes.size();
        for (std::size_t i = 0; i < genes.size(); ++i) {
          if (*genes[i] == dup) ++dup_slots;
          out[i] = ones_count(*genes[i]);
        }
      });
  EXPECT_EQ(n, 16u);
  EXPECT_EQ(batch_slots, 16u);
  EXPECT_GE(dup_slots, 4u);
  EXPECT_EQ(ga.evaluations(), 16u);
}

TEST(Ga, ObserverReportsPerGenerationEvalCounts) {
  // The telemetry observer's per-generation `evaluations` must count only
  // the individuals evaluated in that generation (survivors of an
  // overlapping population stay cached), and the per-generation counts must
  // sum to the GA's lifetime total.
  GaConfig cfg = basic_config();
  cfg.generation_gap = 0.5;  // half the population survives each generation
  Rng rng(81);
  GeneticAlgorithm ga(cfg, 16, rng);
  std::vector<std::size_t> per_gen;
  ga.set_observer([&](const GaGenerationInfo& g) {
    ASSERT_EQ(g.generation, per_gen.size());
    per_gen.push_back(g.evaluations);
  });
  ga.run([](const std::vector<const std::vector<std::uint8_t>*>& genes,
            std::vector<double>& out) {
    for (std::size_t i = 0; i < genes.size(); ++i)
      out[i] = ones_count(*genes[i]);
  });
  ASSERT_EQ(per_gen.size(), cfg.num_generations);
  EXPECT_EQ(per_gen[0], cfg.population_size);  // fresh population
  const std::size_t replaced = static_cast<std::size_t>(
      cfg.generation_gap * cfg.population_size);
  for (std::size_t g = 1; g < per_gen.size(); ++g)
    EXPECT_LE(per_gen[g], replaced) << "generation " << g;
  EXPECT_EQ(std::accumulate(per_gen.begin(), per_gen.end(), std::size_t{0}),
            ga.evaluations());
}

TEST(Ga, StopCheckEndsRunAfterCurrentGeneration) {
  Rng rng(11);
  GeneticAlgorithm ga(basic_config(), 24, rng);
  ga.set_stop_check([] { return true; });
  ga.run([](const std::vector<std::uint8_t>& g) { return ones_count(g); });
  // Stop requested after the first generation's evaluation: exactly one
  // population was scored and the run flags the early exit.
  EXPECT_EQ(ga.evaluations(), basic_config().population_size);
  EXPECT_TRUE(ga.stopped_early());
}

TEST(Ga, BatchRunHonorsStopCheck) {
  Rng rng(11);
  GeneticAlgorithm ga(basic_config(), 24, rng);
  unsigned calls = 0;
  ga.set_stop_check([&calls] { return ++calls >= 2; });
  ga.run([](const std::vector<const std::vector<std::uint8_t>*>& batch,
            std::vector<double>& fitness) {
    for (std::size_t i = 0; i < batch.size(); ++i)
      fitness[i] = ones_count(*batch[i]);
  });
  EXPECT_TRUE(ga.stopped_early());
  EXPECT_LT(ga.evaluations(),
            static_cast<std::size_t>(basic_config().population_size) *
                basic_config().num_generations);
}

TEST(Ga, StopCheckNeverFiringLeavesRunComplete) {
  Rng rng(11);
  GeneticAlgorithm ga(basic_config(), 24, rng);
  ga.set_stop_check([] { return false; });
  ga.run([](const std::vector<std::uint8_t>& g) { return ones_count(g); });
  EXPECT_FALSE(ga.stopped_early());
}

TEST(Ga, NextGenerationRequiresEvaluation) {
  Rng rng(7);
  GeneticAlgorithm ga(basic_config(), 8, rng);
  ga.randomize_population();
  EXPECT_THROW(ga.next_generation(), std::runtime_error);
}

// ---- selection pressure ------------------------------------------------------

class SelectionSchemeTest
    : public ::testing::TestWithParam<SelectionScheme> {};

TEST_P(SelectionSchemeTest, FitterIndividualsReproduceMore) {
  Rng rng(11);
  GaConfig cfg = basic_config();
  cfg.selection = GetParam();
  cfg.population_size = 32;
  cfg.mutation_prob = 0.0;  // isolate selection
  cfg.crossover_prob = 0.0;
  GeneticAlgorithm ga(cfg, 16, rng);
  ga.randomize_population();
  ga.evaluate(ones_count);
  const double mean_before =
      std::accumulate(ga.population().begin(), ga.population().end(), 0.0,
                      [](double acc, const Individual& i) {
                        return acc + i.fitness;
                      }) /
      32.0;
  ga.next_generation();
  ga.evaluate(ones_count);
  const double mean_after =
      std::accumulate(ga.population().begin(), ga.population().end(), 0.0,
                      [](double acc, const Individual& i) {
                        return acc + i.fitness;
                      }) /
      32.0;
  EXPECT_GT(mean_after, mean_before - 0.5);  // no collapse
  EXPECT_GE(mean_after, mean_before);        // selection raises the mean
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SelectionSchemeTest,
    ::testing::Values(SelectionScheme::RouletteWheel,
                      SelectionScheme::StochasticUniversal,
                      SelectionScheme::TournamentNoReplacement,
                      SelectionScheme::TournamentWithReplacement));

TEST(Ga, StochasticUniversalGivesProportionalCopies) {
  // SUS's defining property: an individual holding half the total fitness
  // receives half the selections, +/- 1 (far less noise than roulette).
  Rng rng(61);
  GaConfig cfg = basic_config();
  cfg.selection = SelectionScheme::StochasticUniversal;
  cfg.population_size = 8;
  cfg.mutation_prob = 0.0;
  cfg.crossover_prob = 0.0;
  GeneticAlgorithm ga(cfg, 8, rng);
  // One individual with fitness 8 (all ones), seven with fitness ~1.
  std::vector<std::uint8_t> strong(8, 1);
  std::vector<std::uint8_t> weak(8, 0);
  weak[0] = 1;
  ga.set_individual(0, strong);
  for (std::size_t i = 1; i < 8; ++i) ga.set_individual(i, weak);
  ga.evaluate(ones_count);
  // Total fitness 8 + 7 = 15; strong holds 8/15 of the wheel; over 8
  // markers it gets floor/ceil of 8 * 8/15 = 4.27 -> 4 or 5 copies.
  ga.next_generation();
  ga.evaluate(ones_count);
  int strong_copies = 0;
  for (const Individual& ind : ga.population())
    if (ind.genes == strong) ++strong_copies;
  EXPECT_GE(strong_copies, 4);
  EXPECT_LE(strong_copies, 5);
}

TEST(Ga, RouletteFavorsFitterOverManyTrials) {
  Rng rng(67);
  GaConfig cfg = basic_config();
  cfg.selection = SelectionScheme::RouletteWheel;
  cfg.population_size = 4;
  cfg.mutation_prob = 0.0;
  cfg.crossover_prob = 0.0;
  int strong_total = 0, trials = 0;
  for (int round = 0; round < 30; ++round) {
    GeneticAlgorithm ga(cfg, 4, rng);
    std::vector<std::uint8_t> strong(4, 1);
    ga.set_individual(0, strong);
    for (std::size_t i = 1; i < 4; ++i)
      ga.set_individual(i, std::vector<std::uint8_t>(4, 0));
    // Give the weak ones a nonzero share via one bit.
    ga.evaluate([](const std::vector<std::uint8_t>& g) {
      return 1.0 + 3.0 * ones_count(g);
    });
    ga.next_generation();
    ga.evaluate(ones_count);
    for (const Individual& ind : ga.population()) {
      strong_total += ind.genes == strong;
      ++trials;
    }
  }
  // Strong holds 13/16 of the wheel; expect clearly more than half of all
  // selections across rounds.
  EXPECT_GT(strong_total, trials / 2);
}

TEST(Ga, ZeroFitnessPopulationStillSelects) {
  Rng rng(13);
  GaConfig cfg = basic_config();
  cfg.selection = SelectionScheme::RouletteWheel;
  GeneticAlgorithm ga(cfg, 8, rng);
  ga.randomize_population();
  ga.evaluate([](const std::vector<std::uint8_t>&) { return 0.0; });
  EXPECT_NO_THROW(ga.next_generation());
}

// ---- crossover structure -------------------------------------------------------

TEST(Ga, OnePointCrossoverPreservesPrefixSuffix) {
  Rng rng(17);
  GaConfig cfg = basic_config();
  cfg.crossover = CrossoverScheme::OnePoint;
  cfg.mutation_prob = 0.0;
  cfg.population_size = 2;
  GeneticAlgorithm ga(cfg, 16, rng);
  ga.set_individual(0, std::vector<std::uint8_t>(16, 0));
  ga.set_individual(1, std::vector<std::uint8_t>(16, 1));
  ga.evaluate(ones_count);
  ga.next_generation();
  for (const Individual& child : ga.population()) {
    // Child must be 0...01...1 or 1...10...0 (exactly one switch point).
    int switches = 0;
    for (std::size_t i = 1; i < child.genes.size(); ++i)
      if (child.genes[i] != child.genes[i - 1]) ++switches;
    EXPECT_LE(switches, 1);
  }
}

TEST(Ga, TwoPointCrossoverHasAtMostTwoSwitches) {
  Rng rng(19);
  GaConfig cfg = basic_config();
  cfg.crossover = CrossoverScheme::TwoPoint;
  cfg.mutation_prob = 0.0;
  cfg.population_size = 2;
  GeneticAlgorithm ga(cfg, 16, rng);
  ga.set_individual(0, std::vector<std::uint8_t>(16, 0));
  ga.set_individual(1, std::vector<std::uint8_t>(16, 1));
  ga.evaluate(ones_count);
  ga.next_generation();
  for (const Individual& child : ga.population()) {
    int switches = 0;
    for (std::size_t i = 1; i < child.genes.size(); ++i)
      if (child.genes[i] != child.genes[i - 1]) ++switches;
    EXPECT_LE(switches, 2);
  }
}

TEST(Ga, CrossoverChildrenDrawBitsFromParents) {
  // With mutation off, every child bit must equal one of the parents' bits
  // at that position, whatever the crossover scheme.
  for (CrossoverScheme scheme :
       {CrossoverScheme::OnePoint, CrossoverScheme::TwoPoint,
        CrossoverScheme::Uniform}) {
    Rng rng(23);
    GaConfig cfg = basic_config();
    cfg.crossover = scheme;
    cfg.mutation_prob = 0.0;
    cfg.population_size = 2;
    GeneticAlgorithm ga(cfg, 32, rng);
    Rng gen(29);
    std::vector<std::uint8_t> p0(32), p1(32);
    for (auto& b : p0) b = static_cast<std::uint8_t>(gen.coin());
    for (auto& b : p1) b = static_cast<std::uint8_t>(gen.coin());
    ga.set_individual(0, p0);
    ga.set_individual(1, p1);
    ga.evaluate(ones_count);
    ga.next_generation();
    for (const Individual& child : ga.population()) {
      for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_TRUE(child.genes[i] == p0[i] || child.genes[i] == p1[i])
            << "scheme " << to_string(scheme) << " pos " << i;
      }
    }
  }
}

TEST(Ga, NonBinaryCrossoverCutsAtVectorBoundaries) {
  // 4 characters of 8 bits. Parents are 0x00.. and 0xFF..: children must be
  // whole-character mixtures — every 8-bit block all-0 or all-1.
  Rng rng(31);
  GaConfig cfg = basic_config();
  cfg.coding = Coding::NonBinary;
  cfg.gene_block = 8;
  cfg.mutation_prob = 0.0;
  cfg.population_size = 2;
  for (CrossoverScheme scheme :
       {CrossoverScheme::OnePoint, CrossoverScheme::TwoPoint,
        CrossoverScheme::Uniform}) {
    cfg.crossover = scheme;
    GeneticAlgorithm ga(cfg, 32, rng);
    ga.set_individual(0, std::vector<std::uint8_t>(32, 0));
    ga.set_individual(1, std::vector<std::uint8_t>(32, 1));
    ga.evaluate(ones_count);
    ga.next_generation();
    for (const Individual& child : ga.population()) {
      for (std::size_t blk = 0; blk < 4; ++blk) {
        int sum = 0;
        for (std::size_t i = blk * 8; i < (blk + 1) * 8; ++i)
          sum += child.genes[i];
        EXPECT_TRUE(sum == 0 || sum == 8)
            << "scheme " << to_string(scheme) << " block " << blk;
      }
    }
  }
}

// ---- mutation -----------------------------------------------------------------

TEST(Ga, MutationRateMatchesExpectation) {
  Rng rng(37);
  GaConfig cfg = basic_config();
  cfg.population_size = 64;
  cfg.mutation_prob = 0.25;
  cfg.crossover_prob = 0.0;
  cfg.selection = SelectionScheme::TournamentWithReplacement;
  GeneticAlgorithm ga(cfg, 64, rng);
  // All-zero population; after one generation count mutated bits.
  for (std::size_t i = 0; i < 64; ++i)
    ga.set_individual(i, std::vector<std::uint8_t>(64, 0));
  ga.evaluate([](const std::vector<std::uint8_t>&) { return 1.0; });
  ga.next_generation();
  std::size_t ones = 0;
  for (const Individual& ind : ga.population())
    ones += static_cast<std::size_t>(ones_count(ind.genes));
  const double rate = static_cast<double>(ones) / (64.0 * 64.0);
  EXPECT_NEAR(rate, 0.25, 0.03);
}

TEST(Ga, NonBinaryMutationRegeneratesWholeVector) {
  Rng rng(41);
  GaConfig cfg = basic_config();
  cfg.coding = Coding::NonBinary;
  cfg.gene_block = 16;
  cfg.mutation_prob = 1.0;  // every character regenerated
  cfg.crossover_prob = 0.0;
  cfg.population_size = 2;
  GeneticAlgorithm ga(cfg, 32, rng);
  ga.set_individual(0, std::vector<std::uint8_t>(32, 0));
  ga.set_individual(1, std::vector<std::uint8_t>(32, 0));
  ga.evaluate(ones_count);
  ga.next_generation();
  // With p=1 every 16-bit character is uniform-random: all-zero blocks are
  // ~2^-16 likely, so expect some ones in each child.
  for (const Individual& child : ga.population())
    EXPECT_GT(ones_count(child.genes), 0.0);
}

// ---- overlapping populations ----------------------------------------------------

TEST(Ga, GenerationGapKeepsBestIndividuals) {
  Rng rng(43);
  GaConfig cfg = basic_config();
  cfg.population_size = 16;
  cfg.generation_gap = 0.25;  // replace only the 4 worst
  cfg.mutation_prob = 0.0;
  GeneticAlgorithm ga(cfg, 16, rng);
  ga.randomize_population();
  std::vector<std::uint8_t> all_ones(16, 1);
  ga.set_individual(3, all_ones);
  ga.evaluate(ones_count);
  ga.next_generation();
  // The elite all-ones chromosome must survive the replacement.
  bool survived = false;
  for (const Individual& ind : ga.population())
    if (ind.genes == all_ones) survived = true;
  EXPECT_TRUE(survived);
}

TEST(Ga, GenerationGapReplacesExactCount) {
  Rng rng(47);
  GaConfig cfg = basic_config();
  cfg.population_size = 16;
  cfg.generation_gap = 0.5;
  cfg.mutation_prob = 0.0;
  cfg.crossover_prob = 0.0;
  GeneticAlgorithm ga(cfg, 8, rng);
  ga.randomize_population();
  ga.evaluate(ones_count);
  // Evaluating after the generation shows exactly 8 new (unevaluated).
  ga.next_generation();
  std::size_t unevaluated = 0;
  for (const Individual& ind : ga.population())
    if (!ind.evaluated) ++unevaluated;
  EXPECT_EQ(unevaluated, 8u);
}

TEST(Ga, ElitismPreservesBestInFullReplacement) {
  Rng rng(59);
  GaConfig cfg = basic_config();
  cfg.population_size = 8;
  cfg.elitism = true;
  cfg.mutation_prob = 0.5;  // heavy mutation would normally lose the elite
  GeneticAlgorithm ga(cfg, 16, rng);
  ga.randomize_population();
  std::vector<std::uint8_t> all_ones(16, 1);
  ga.set_individual(2, all_ones);
  ga.evaluate(ones_count);
  for (int gen = 0; gen < 5; ++gen) {
    ga.next_generation();
    ga.evaluate(ones_count);
    double max_fit = 0;
    for (const Individual& ind : ga.population())
      max_fit = std::max(max_fit, ind.fitness);
    EXPECT_EQ(max_fit, 16.0) << "elite lost in generation " << gen;
  }
}

TEST(Ga, FullGapReplacesWholePopulation) {
  Rng rng(53);
  GaConfig cfg = basic_config();
  cfg.population_size = 8;
  GeneticAlgorithm ga(cfg, 8, rng);
  ga.randomize_population();
  ga.evaluate(ones_count);
  ga.next_generation();
  std::size_t unevaluated = 0;
  for (const Individual& ind : ga.population())
    if (!ind.evaluated) ++unevaluated;
  EXPECT_EQ(unevaluated, 8u);
}

}  // namespace
}  // namespace gatest
