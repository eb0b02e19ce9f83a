// Genetic-algorithm engine: populations of bit-string chromosomes with the
// selection, crossover, and mutation schemes studied in the paper (§II-III):
//   selection — roulette wheel, stochastic universal, binary tournament
//               with and without replacement;
//   crossover — one-point, two-point, uniform (always applied, Pc = 1 by
//               default);
//   coding    — binary (operators act on bits) or nonbinary (each test
//               vector is one character: crossover cuts only at vector
//               boundaries and mutation regenerates a whole vector);
//   overlapping populations — a generation gap G = g/N replaces only the g
//               worst individuals each generation.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "util/rng.h"

namespace gatest {

enum class SelectionScheme : std::uint8_t {
  RouletteWheel,
  StochasticUniversal,
  TournamentNoReplacement,
  TournamentWithReplacement,
};

enum class CrossoverScheme : std::uint8_t {
  OnePoint,
  TwoPoint,
  Uniform,
};

/// Chromosome coding for test sequences (paper §III-A).
enum class Coding : std::uint8_t {
  Binary,     ///< the GA sees one flat bit string
  NonBinary,  ///< each length-L vector is one character of a 2^L alphabet
};

std::string to_string(SelectionScheme s);
std::string to_string(CrossoverScheme c);
std::string to_string(Coding c);

/// One candidate solution: a bit string plus its cached fitness.
struct Individual {
  std::vector<std::uint8_t> genes;  ///< one bit per element (0/1)
  double fitness = 0.0;
  bool evaluated = false;
};

struct GaConfig {
  unsigned population_size = 32;
  unsigned num_generations = 8;  ///< paper limits generations to 8
  SelectionScheme selection = SelectionScheme::TournamentNoReplacement;
  CrossoverScheme crossover = CrossoverScheme::Uniform;
  double crossover_prob = 1.0;
  double mutation_prob = 1.0 / 64.0;  ///< per bit (binary) / per character
  Coding coding = Coding::Binary;
  /// Character width in bits for nonbinary coding (the test-vector length L);
  /// ignored for binary coding.
  unsigned gene_block = 1;
  /// Generation gap G = g/N: fraction of the population replaced per
  /// generation. 1.0 = non-overlapping (whole population replaced).
  double generation_gap = 1.0;
  /// With non-overlapping generations, carry the best individual into the
  /// next generation unchanged (classic elitism; the paper's overlapping
  /// populations get this implicitly by replacing only the worst).
  bool elitism = false;
};

/// Fitness callback: given genes, return a nonnegative fitness.
using FitnessFn = std::function<double(const std::vector<std::uint8_t>&)>;

/// Batch fitness callback: evaluate many chromosomes at once (out[i] is the
/// fitness of genes[i]).  Lets callers parallelize evaluation — the dominant
/// cost in fault-simulation-based fitness (paper §VI).
using BatchFitnessFn =
    std::function<void(const std::vector<const std::vector<std::uint8_t>*>&,
                       std::vector<double>&)>;

/// Per-generation observation delivered to the GaObserver after the
/// generation's population is evaluated (telemetry only; never fed back into
/// the algorithm, so installing an observer cannot change a run's outcome).
struct GaGenerationInfo {
  unsigned generation = 0;      ///< 0-based index within this run()
  double best_fitness = 0.0;    ///< best individual in the current population
  double avg_fitness = 0.0;     ///< population mean
  std::size_t evaluations = 0;  ///< fitness computations this generation
  double eval_seconds = 0.0;    ///< wall time in fitness evaluation
  double select_seconds = 0.0;  ///< wall time in parent selection
  double breed_seconds = 0.0;   ///< selection + crossover + mutation + replace
};

using GaObserver = std::function<void(const GaGenerationInfo&)>;

class GeneticAlgorithm {
 public:
  /// chromosome_length is in bits; for nonbinary coding it must be a
  /// multiple of config.gene_block.
  GeneticAlgorithm(GaConfig config, std::size_t chromosome_length, Rng& rng);

  const GaConfig& config() const { return config_; }
  std::size_t chromosome_length() const { return length_; }

  /// Fill the population with uniform-random chromosomes (paper: a random
  /// initial population for each vector/sequence).
  void randomize_population();

  /// Seed one slot with a given chromosome (user-supplied initial tests).
  void set_individual(std::size_t slot, std::vector<std::uint8_t> genes);

  /// Warm start: run() plants `genes` in slot 0 right after it randomizes
  /// the population, so the RNG draws match an unseeded run.
  void seed_individual(std::vector<std::uint8_t> genes) {
    seed_genes_ = std::move(genes);
  }

  const std::vector<Individual>& population() const { return pop_; }

  /// Evaluate all unevaluated individuals and update the best-ever record.
  /// Returns the number of fitness computations performed.
  std::size_t evaluate(const FitnessFn& fn);

  /// Batch form of evaluate(): all unevaluated individuals are handed to
  /// `fn` in one call (callers may fan the batch out over threads).
  std::size_t evaluate(const BatchFitnessFn& fn);

  /// Run `config.num_generations` generations with batch evaluation.
  const Individual& run(const BatchFitnessFn& fn);

  /// Breed the next generation: selection + crossover + mutation, replacing
  /// the g = round(G*N) worst individuals (everyone when G = 1).
  /// Requires the population to be fully evaluated.
  void next_generation();

  /// Run `config.num_generations` generations from a random population.
  /// Returns the best individual ever evaluated.
  const Individual& run(const FitnessFn& fn);

  /// Cooperative cancellation: run() polls `check` between generations and
  /// returns the best-so-far early when it reports true (run-control
  /// budgets/interrupts; the caller decides whether to use the result).
  void set_stop_check(std::function<bool()> check);

  /// True when the last run() exited early through the stop check.
  bool stopped_early() const { return stopped_early_; }

  /// Install a per-generation observer (pass nullptr/empty to remove).  The
  /// per-generation statistics and timings are only gathered while one is
  /// installed, keeping unobserved runs free of the bookkeeping.
  void set_observer(GaObserver observer);

  /// Best individual seen across all evaluate() calls.
  const Individual& best() const { return best_; }

  /// Total fitness computations across all evaluate() calls.
  std::size_t evaluations() const { return evaluations_; }

 private:
  std::vector<std::uint32_t> select_parents(std::size_t count);
  void crossover(const std::vector<std::uint8_t>& a,
                 const std::vector<std::uint8_t>& b,
                 std::vector<std::uint8_t>& child1,
                 std::vector<std::uint8_t>& child2);
  void mutate(std::vector<std::uint8_t>& genes);
  std::size_t num_characters() const {
    return config_.coding == Coding::NonBinary ? length_ / config_.gene_block
                                               : length_;
  }

  double population_avg_fitness() const;

  GaConfig config_;
  std::size_t length_;
  Rng* rng_;
  std::vector<Individual> pop_;
  std::vector<std::uint8_t> seed_genes_;  ///< planted by run(); empty = none
  Individual best_;
  std::size_t evaluations_ = 0;
  std::function<bool()> stop_check_;
  bool stopped_early_ = false;
  GaObserver observer_;
  double last_select_seconds_ = 0.0;  ///< set by next_generation when observed
};

}  // namespace gatest
