#include "gatest/fitness.h"

#include <algorithm>
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
  // Only the fault-free machine matters for initialization.
  const FaultSimStats stats =
      phase == Phase::InitializeFfs
          ? sim_->evaluate_vector_good_only(v, scratch_)
          : sim_->evaluate_vector(v, scratch_, sample_);
  return phase_fitness(stats, phase, 1);
}

double FitnessEvaluator::sequence_fitness(const TestSequence& seq) {
  const FaultSimStats stats = sim_->evaluate_sequence(seq, scratch_, sample_);
  return phase_fitness(stats, Phase::Sequences, seq.size());
}

}  // namespace gatest
