#include "gatest/fitness.h"

#include <stdexcept>

namespace gatest {

const char* phase_name(Phase phase) {
  switch (phase) {
    case Phase::InitializeFfs:       return "init_ffs";
    case Phase::DetectFaults:        return "detect";
    case Phase::DetectWithActivity:  return "detect_activity";
    case Phase::Sequences:           return "sequences";
  }
  return "?";
}

TestVector decode_vector(const std::vector<std::uint8_t>& genes,
                         std::size_t num_pis, std::size_t frame) {
  if ((frame + 1) * num_pis > genes.size())
    throw std::runtime_error("decode_vector: chromosome too short");
  TestVector v(num_pis);
  for (std::size_t i = 0; i < num_pis; ++i)
    v[i] = genes[frame * num_pis + i] ? Logic::One : Logic::Zero;
  return v;
}

TestSequence decode_sequence(const std::vector<std::uint8_t>& genes,
                             std::size_t num_pis) {
  if (num_pis == 0 || genes.size() % num_pis != 0)
    throw std::runtime_error("decode_sequence: length not a vector multiple");
  const std::size_t frames = genes.size() / num_pis;
  TestSequence seq;
  seq.reserve(frames);
  for (std::size_t f = 0; f < frames; ++f)
    seq.push_back(decode_vector(genes, num_pis, f));
  return seq;
}

FitnessEvaluator::FitnessEvaluator(SequentialFaultSimulator& sim,
                                   const TestGenConfig& config)
    : sim_(&sim), config_(&config) {}

void FitnessEvaluator::set_sample(std::vector<std::uint32_t> sample) {
  if (sample == sample_) return;
  sample_ = std::move(sample);
  if (cache_enabled_ && !cache_.empty()) {
    cache_.clear();
    ++cache_stats_.invalidations;
  }
}

void FitnessEvaluator::set_cache(bool enabled, std::size_t capacity) {
  cache_enabled_ = enabled;
  cache_capacity_ = std::max<std::size_t>(1, capacity);
  cache_.clear();
  cache_epoch_valid_ = false;
}

void FitnessEvaluator::refresh_cache_epoch() {
  const std::uint64_t epoch = sim_->state_epoch();
  if (cache_epoch_valid_ && epoch == cache_epoch_) return;
  if (!cache_.empty()) {
    cache_.clear();
    ++cache_stats_.invalidations;
  }
  cache_epoch_ = epoch;
  cache_epoch_valid_ = true;
}

void FitnessEvaluator::make_key(Phase phase,
                                std::span<const TestVector> frames) {
  key_buf_.clear();
  key_buf_.push_back(static_cast<char>(phase));
  for (const TestVector& v : frames)
    for (const Logic value : v)
      key_buf_.push_back(static_cast<char>(value));
}

template <typename Compute>
double FitnessEvaluator::cached(Compute&& compute) {
  refresh_cache_epoch();
  if (const auto it = cache_.find(key_buf_); it != cache_.end()) {
    ++cache_stats_.hits;
    return it->second;
  }
  ++cache_stats_.misses;
  const double fitness = compute();
  if (cache_.size() >= cache_capacity_) {
    // Whole-map eviction: cheap, and correctness never depends on what is
    // cached, only on what a cached entry says.
    cache_stats_.evictions += cache_.size();
    cache_.clear();
  }
  cache_.emplace(key_buf_, fitness);
  return fitness;
}

double FitnessEvaluator::phase_fitness(const FaultSimStats& stats, Phase phase,
                                       std::size_t seq_len) const {
  const Circuit& c = sim_->circuit();
  const double n_ffs = std::max<double>(1.0, static_cast<double>(c.num_dffs()));
  const double n_faults =
      std::max<double>(1.0, static_cast<double>(stats.faults_simulated));
  const double n_nodes =
      std::max<double>(1.0, static_cast<double>(c.num_gates()));

  switch (phase) {
    case Phase::InitializeFfs:
      return static_cast<double>(stats.ffs_set) +
             static_cast<double>(stats.ffs_changed) / n_ffs;
    case Phase::DetectFaults:
      return static_cast<double>(stats.detected) +
             static_cast<double>(stats.fault_effects_at_ffs) /
                 (n_faults * n_ffs);
    case Phase::DetectWithActivity:
      return static_cast<double>(stats.detected) +
             static_cast<double>(stats.fault_effects_at_ffs) /
                 (n_faults * n_ffs) +
             2.0 *
                 static_cast<double>(stats.good_events + stats.faulty_events) /
                 (n_nodes * n_faults);
    case Phase::Sequences:
      return static_cast<double>(stats.detected) +
             static_cast<double>(stats.fault_effects_at_ffs) /
                 (n_faults * n_ffs *
                  static_cast<double>(std::max<std::size_t>(1, seq_len)));
  }
  return 0.0;
}

double FitnessEvaluator::vector_fitness(const TestVector& v, Phase phase) {
  ++evaluations_;
  ++phase_evaluations_[static_cast<std::size_t>(phase) - 1];
  const auto compute = [&] {
    ++sim_evaluations_;
    if (phase == Phase::InitializeFfs) {
      // Only the fault-free machine matters for initialization.
      const FaultSimStats stats = sim_->evaluate_vector_good_only(v);
      return phase_fitness(stats, phase, 1);
    }
    const FaultSimStats stats = sim_->evaluate_vector(v, sample_);
    return phase_fitness(stats, phase, 1);
  };
  if (!cache_enabled_) return compute();
  make_key(phase, std::span<const TestVector>(&v, 1));
  return cached(compute);
}

double FitnessEvaluator::sequence_fitness(const TestSequence& seq) {
  ++evaluations_;
  ++phase_evaluations_[static_cast<std::size_t>(Phase::Sequences) - 1];
  const auto compute = [&] {
    ++sim_evaluations_;
    const FaultSimStats stats = sim_->evaluate_sequence(seq, sample_);
    return phase_fitness(stats, Phase::Sequences, seq.size());
  };
  if (!cache_enabled_) return compute();
  make_key(Phase::Sequences, std::span<const TestVector>(seq));
  return cached(compute);
}

}  // namespace gatest
