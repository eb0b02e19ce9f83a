#include "ga/ga.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "util/timer.h"

namespace gatest {

std::string to_string(SelectionScheme s) {
  switch (s) {
    case SelectionScheme::RouletteWheel:            return "roulette";
    case SelectionScheme::StochasticUniversal:      return "stochastic-universal";
    case SelectionScheme::TournamentNoReplacement:  return "tournament-no-repl";
    case SelectionScheme::TournamentWithReplacement:return "tournament-repl";
  }
  return "?";
}

std::string to_string(CrossoverScheme c) {
  switch (c) {
    case CrossoverScheme::OnePoint: return "1-point";
    case CrossoverScheme::TwoPoint: return "2-point";
    case CrossoverScheme::Uniform:  return "uniform";
  }
  return "?";
}

std::string to_string(Coding c) {
  return c == Coding::Binary ? "binary" : "nonbinary";
}

GeneticAlgorithm::GeneticAlgorithm(GaConfig config,
                                   std::size_t chromosome_length, Rng& rng)
    : config_(config), length_(chromosome_length), rng_(&rng) {
  if (config_.population_size < 2)
    throw std::runtime_error("GA: population size must be >= 2");
  if (length_ == 0) throw std::runtime_error("GA: empty chromosome");
  if (config_.coding == Coding::NonBinary) {
    if (config_.gene_block == 0 || length_ % config_.gene_block != 0)
      throw std::runtime_error(
          "GA: nonbinary coding needs length % gene_block == 0");
  }
  if (config_.generation_gap <= 0.0 || config_.generation_gap > 1.0)
    throw std::runtime_error("GA: generation gap must be in (0, 1]");
  pop_.resize(config_.population_size);
  for (Individual& ind : pop_) ind.genes.assign(length_, 0);
}

void GeneticAlgorithm::randomize_population() {
  for (Individual& ind : pop_) {
    for (auto& g : ind.genes) g = static_cast<std::uint8_t>(rng_->coin());
    ind.evaluated = false;
    ind.fitness = 0.0;
  }
  best_ = Individual{};
}

void GeneticAlgorithm::set_individual(std::size_t slot,
                                      std::vector<std::uint8_t> genes) {
  if (slot >= pop_.size()) throw std::runtime_error("GA: bad slot");
  if (genes.size() != length_) throw std::runtime_error("GA: bad genes size");
  pop_[slot].genes = std::move(genes);
  pop_[slot].evaluated = false;
  pop_[slot].fitness = 0.0;
}

std::size_t GeneticAlgorithm::evaluate(const FitnessFn& fn) {
  std::size_t n = 0;
  for (Individual& ind : pop_) {
    if (ind.evaluated) continue;
    ind.fitness = fn(ind.genes);
    ind.evaluated = true;
    ++n;
    if (!best_.evaluated || ind.fitness > best_.fitness) best_ = ind;
  }
  evaluations_ += n;
  return n;
}

std::size_t GeneticAlgorithm::evaluate(const BatchFitnessFn& fn) {
  std::vector<const std::vector<std::uint8_t>*> batch;
  std::vector<Individual*> targets;
  for (Individual& ind : pop_) {
    if (ind.evaluated) continue;
    batch.push_back(&ind.genes);
    targets.push_back(&ind);
  }
  if (batch.empty()) return 0;
  std::vector<double> fitness(batch.size(), 0.0);
  fn(batch, fitness);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i]->fitness = fitness[i];
    targets[i]->evaluated = true;
    if (!best_.evaluated || targets[i]->fitness > best_.fitness)
      best_ = *targets[i];
  }
  evaluations_ += batch.size();
  return batch.size();
}

const Individual& GeneticAlgorithm::run(const BatchFitnessFn& fn) {
  randomize_population();
  if (!seed_genes_.empty()) set_individual(0, seed_genes_);
  stopped_early_ = false;
  Timer timer;
  for (unsigned gen = 0; gen < config_.num_generations; ++gen) {
    if (observer_) timer.restart();
    const std::size_t n = evaluate(fn);
    GaGenerationInfo info;
    if (observer_) {
      info.generation = gen;
      info.evaluations = n;
      info.eval_seconds = timer.elapsed_seconds();
      info.best_fitness = pop_.front().fitness;
      for (const Individual& ind : pop_)
        info.best_fitness = std::max(info.best_fitness, ind.fitness);
      info.avg_fitness = population_avg_fitness();
    }
    if (stop_check_ && stop_check_()) {
      stopped_early_ = gen + 1 < config_.num_generations;
      if (observer_) observer_(info);
      break;
    }
    if (gen + 1 < config_.num_generations) {
      if (observer_) timer.restart();
      next_generation();
      if (observer_) {
        info.breed_seconds = timer.elapsed_seconds();
        info.select_seconds = last_select_seconds_;
      }
    }
    if (observer_) observer_(info);
  }
  return best_;
}

void GeneticAlgorithm::set_stop_check(std::function<bool()> check) {
  stop_check_ = std::move(check);
}

void GeneticAlgorithm::set_observer(GaObserver observer) {
  observer_ = std::move(observer);
}

double GeneticAlgorithm::population_avg_fitness() const {
  double sum = 0.0;
  for (const Individual& ind : pop_) sum += ind.fitness;
  return pop_.empty() ? 0.0 : sum / static_cast<double>(pop_.size());
}

std::vector<std::uint32_t> GeneticAlgorithm::select_parents(std::size_t count) {
  const std::size_t n = pop_.size();
  std::vector<std::uint32_t> out;
  out.reserve(count);

  auto uniform_pick = [&] { return static_cast<std::uint32_t>(rng_->below(n)); };

  switch (config_.selection) {
    case SelectionScheme::RouletteWheel: {
      double total = 0.0;
      for (const Individual& ind : pop_) total += std::max(ind.fitness, 0.0);
      for (std::size_t k = 0; k < count; ++k) {
        if (total <= 0.0) {
          out.push_back(uniform_pick());
          continue;
        }
        double spin = rng_->uniform() * total;
        std::uint32_t pick = static_cast<std::uint32_t>(n - 1);
        for (std::uint32_t i = 0; i < n; ++i) {
          spin -= std::max(pop_[i].fitness, 0.0);
          if (spin <= 0.0) {
            pick = i;
            break;
          }
        }
        out.push_back(pick);
      }
      break;
    }
    case SelectionScheme::StochasticUniversal: {
      // N equidistant markers in one spin; then deal the selected copies out
      // in random order.
      double total = 0.0;
      for (const Individual& ind : pop_) total += std::max(ind.fitness, 0.0);
      if (total <= 0.0) {
        for (std::size_t k = 0; k < count; ++k) out.push_back(uniform_pick());
        break;
      }
      const double step = total / static_cast<double>(count);
      double marker = rng_->uniform() * step;
      double acc = 0.0;
      std::uint32_t i = 0;
      for (std::size_t k = 0; k < count; ++k) {
        while (i < n && acc + std::max(pop_[i].fitness, 0.0) < marker) {
          acc += std::max(pop_[i].fitness, 0.0);
          ++i;
        }
        out.push_back(std::min(i, static_cast<std::uint32_t>(n - 1)));
        marker += step;
      }
      std::shuffle(out.begin(), out.end(), *rng_);
      break;
    }
    case SelectionScheme::TournamentWithReplacement: {
      for (std::size_t k = 0; k < count; ++k) {
        const std::uint32_t a = uniform_pick();
        const std::uint32_t b = uniform_pick();
        out.push_back(pop_[a].fitness >= pop_[b].fitness ? a : b);
      }
      break;
    }
    case SelectionScheme::TournamentNoReplacement: {
      // Pairs are drawn from a shuffled deck so each individual plays
      // exactly one tournament per deck pass (Goldberg & Deb's variant).
      std::vector<std::uint32_t> deck;
      auto refill = [&] {
        deck.resize(n);
        std::iota(deck.begin(), deck.end(), 0u);
        std::shuffle(deck.begin(), deck.end(), *rng_);
      };
      refill();
      for (std::size_t k = 0; k < count; ++k) {
        if (deck.size() < 2) refill();
        const std::uint32_t a = deck.back();
        deck.pop_back();
        const std::uint32_t b = deck.back();
        deck.pop_back();
        out.push_back(pop_[a].fitness >= pop_[b].fitness ? a : b);
      }
      break;
    }
  }
  return out;
}

void GeneticAlgorithm::crossover(const std::vector<std::uint8_t>& a,
                                 const std::vector<std::uint8_t>& b,
                                 std::vector<std::uint8_t>& child1,
                                 std::vector<std::uint8_t>& child2) {
  child1 = a;
  child2 = b;
  if (!rng_->chance(config_.crossover_prob)) return;

  // In nonbinary coding, positions are characters (whole test vectors);
  // a cut/swap at character k moves k * gene_block bits.
  const std::size_t chars = num_characters();
  const std::size_t block =
      config_.coding == Coding::NonBinary ? config_.gene_block : 1;
  if (chars < 2) return;

  auto swap_range = [&](std::size_t from_char, std::size_t to_char) {
    for (std::size_t i = from_char * block; i < to_char * block; ++i)
      std::swap(child1[i], child2[i]);
  };

  switch (config_.crossover) {
    case CrossoverScheme::OnePoint: {
      const std::size_t cut = 1 + rng_->below(chars - 1);
      swap_range(cut, chars);
      break;
    }
    case CrossoverScheme::TwoPoint: {
      std::size_t c1 = 1 + rng_->below(chars - 1);
      std::size_t c2 = 1 + rng_->below(chars - 1);
      if (c1 > c2) std::swap(c1, c2);
      swap_range(c1, c2);
      break;
    }
    case CrossoverScheme::Uniform: {
      for (std::size_t k = 0; k < chars; ++k)
        if (rng_->coin()) swap_range(k, k + 1);
      break;
    }
  }
}

void GeneticAlgorithm::mutate(std::vector<std::uint8_t>& genes) {
  if (config_.coding == Coding::NonBinary) {
    // Replace a whole character (test vector) with a random one.
    const std::size_t block = config_.gene_block;
    for (std::size_t k = 0; k < num_characters(); ++k)
      if (rng_->chance(config_.mutation_prob))
        for (std::size_t i = k * block; i < (k + 1) * block; ++i)
          genes[i] = static_cast<std::uint8_t>(rng_->coin());
  } else {
    for (auto& g : genes)
      if (rng_->chance(config_.mutation_prob)) g ^= 1u;
  }
}

void GeneticAlgorithm::next_generation() {
  for (const Individual& ind : pop_)
    if (!ind.evaluated)
      throw std::runtime_error("GA: next_generation before evaluate");

  const std::size_t n = pop_.size();
  const std::size_t g = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::lround(config_.generation_gap * static_cast<double>(n))),
      1, n);

  // Breed g offspring (rounded up to pairs, trimmed after).
  std::vector<Individual> offspring;
  offspring.reserve(g + 1);
  Timer select_timer;
  const std::vector<std::uint32_t> parents = select_parents(g + (g & 1));
  last_select_seconds_ = observer_ ? select_timer.elapsed_seconds() : 0.0;
  for (std::size_t k = 0; k + 1 < parents.size() && offspring.size() < g;
       k += 2) {
    Individual c1, c2;
    crossover(pop_[parents[k]].genes, pop_[parents[k + 1]].genes, c1.genes,
              c2.genes);
    mutate(c1.genes);
    mutate(c2.genes);
    offspring.push_back(std::move(c1));
    if (offspring.size() < g) offspring.push_back(std::move(c2));
  }

  if (g == n) {
    Individual carry;
    if (config_.elitism) {
      carry = *std::max_element(pop_.begin(), pop_.end(),
                                [](const Individual& a, const Individual& b) {
                                  return a.fitness < b.fitness;
                                });
    }
    pop_ = std::move(offspring);
    pop_.resize(n);
    for (Individual& ind : pop_)
      if (ind.genes.size() != length_) ind.genes.assign(length_, 0);
    if (config_.elitism) pop_[0] = std::move(carry);
  } else {
    // Overlapping generations: the g worst are replaced (paper §III-C).
    std::vector<std::uint32_t> order(n);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](std::uint32_t x, std::uint32_t y) {
      return pop_[x].fitness < pop_[y].fitness;
    });
    for (std::size_t k = 0; k < offspring.size(); ++k)
      pop_[order[k]] = std::move(offspring[k]);
  }
}

const Individual& GeneticAlgorithm::run(const FitnessFn& fn) {
  // Forward through the batch overload so the observer instrumentation
  // lives in exactly one run loop.
  return run(BatchFitnessFn(
      [&fn](const std::vector<const std::vector<std::uint8_t>*>& batch,
            std::vector<double>& out) {
        for (std::size_t i = 0; i < batch.size(); ++i) out[i] = fn(*batch[i]);
      }));
}

}  // namespace gatest
