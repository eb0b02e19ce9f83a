#include "gatest/test_generator.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/prune.h"
#include "analysis/untestable.h"
#include "fsim/backend.h"
#include "util/timer.h"

namespace gatest {

GaTestGenerator::GaTestGenerator(const Circuit& c, FaultList& faults,
                                 TestGenConfig config)
    : circuit_(&c),
      faults_(&faults),
      config_(config),
      sim_(make_fault_sim_backend(config_.fsim_backend, c, faults)),
      fitness_(*sim_, config_),
      rng_(config.seed) {
  depth_ = std::max(1u, c.sequential_depth());
  fitness_.set_cache(config_.fitness_cache, config_.fitness_cache_capacity);
  std::vector<UntestableTag> heuristic_tags;
  if (config_.prune_untestable)
    heuristic_tags = analysis::classify_untestable(c, faults.faults());
  std::vector<analysis::FaultProof> proofs;
  if (config_.prune_proven) {
    proofs = analysis::prove_untestable(c, faults.faults());
    // Remove the provably-inert subset from the simulated universe.  The
    // pruned marks survive FaultList::reset(), so checkpoint replay and
    // serve slices rebuild the same universe.
    analysis::apply_proven_pruning(faults, proofs);
  }
  // Fault-efficiency accounting: a fault is "pruned" if either engine
  // classified it (union, so running both never double-counts).
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const bool heuristic =
        !heuristic_tags.empty() && heuristic_tags[i] != UntestableTag::None;
    const bool proven = !proofs.empty() && proofs[i].proven();
    if (heuristic || proven) ++faults_pruned_;
  }
  boundary_rng_ = rng_.state();
  if (config_.num_threads > 1) {
    // One extra simulator replica per additional thread; the main simulator
    // doubles as replica 0 during parallel evaluation.
    pool_ = std::make_unique<ThreadPool>(config_.num_threads);
    for (unsigned t = 1; t < config_.num_threads; ++t) {
      worker_faults_.push_back(std::make_unique<FaultList>(c));
      // Replicas need their own pruned marks (a mirrored Untestable status
      // alone would not survive replay during checkpoint restore).
      if (config_.prune_proven)
        analysis::apply_proven_pruning(*worker_faults_.back(), proofs);
      // Mirror any pre-detected faults.
      for (std::size_t i = 0; i < faults.size(); ++i)
        worker_faults_.back()->set_status(i, faults.status(i));
      worker_sims_.push_back(make_fault_sim_backend(
          config_.fsim_backend, c, *worker_faults_.back()));
      worker_fitness_.push_back(
          std::make_unique<FitnessEvaluator>(*worker_sims_.back(), config_));
      worker_fitness_.back()->set_cache(config_.fitness_cache,
                                        config_.fitness_cache_capacity);
    }
  }
}

FaultSimStats GaTestGenerator::commit_vector(const TestVector& v,
                                             std::int64_t index) {
  // The fsim pass that advances committed state gets its own span, so a
  // job's span tree resolves down to slice → phase → ga run → fsim commit.
  std::uint64_t fsim_span = 0;
  if (tracing())
    fsim_span = telem_->trace.begin_span(
        "fsim_commit_begin", {{"index", static_cast<long long>(index)}});
  const FaultSimStats stats = sim_->apply_vector(v, index);
  for (auto& wsim : worker_sims_) wsim->apply_vector(v, index);
  if (fsim_span != 0)
    telem_->trace.end_span(fsim_span, "fsim_commit_end",
                           {{"detected", stats.detected}});
  return stats;
}

FitnessCacheStats GaTestGenerator::cache_stats() const {
  FitnessCacheStats cs = fitness_.cache_stats();
  for (const auto& wf : worker_fitness_) cs.accumulate(wf->cache_stats());
  return cs;
}

std::size_t GaTestGenerator::total_evaluations() const {
  std::size_t n = prior_evals_ + fitness_.evaluations();
  for (const auto& wf : worker_fitness_) n += wf->evaluations();
  return n;
}

bool GaTestGenerator::stop_now() {
  if (stop_reason_ != StopReason::Completed) return true;
  StopReason r = tracker_.check(total_evaluations(),
                                result_.test_set.size(), ctrl_.stop);
  if (r == StopReason::Completed) {
    // Slice stops rank below every budget/interrupt: an explicit request is
    // honored immediately, a deadline only once this segment has committed
    // at least one vector (so a slice always makes progress).
    if (slice_requested_.load(std::memory_order_relaxed)) {
      r = StopReason::SliceStop;
    } else if (slice_seconds_ > 0.0 &&
               result_.test_set.size() > slice_start_vectors_ &&
               tracker_.elapsed_seconds() >= slice_seconds_) {
      r = StopReason::SliceStop;
    }
  }
  if (r == StopReason::Completed) return false;
  stop_reason_ = r;
  return true;
}

void GaTestGenerator::note_boundary() {
  boundary_rng_ = rng_.state();
  boundary_evals_ = total_evaluations();
  if (!ctrl_.checkpoint_path.empty() &&
      tracker_.elapsed_seconds() - last_checkpoint_elapsed_ >=
          ctrl_.checkpoint_interval_seconds) {
    last_checkpoint_elapsed_ = tracker_.elapsed_seconds();
    make_checkpoint().save(ctrl_.checkpoint_path);
    if (telem_) {
      telem_->metrics.counter("gatest.checkpoints_written").add(1);
      if (telem_->trace.enabled())
        telem_->trace.event(
            "checkpoint_write",
            {{"path", ctrl_.checkpoint_path},
             {"vectors", static_cast<std::uint64_t>(result_.test_set.size())},
             {"evaluations", static_cast<std::uint64_t>(boundary_evals_)}});
    }
  }
}

Checkpoint GaTestGenerator::make_checkpoint() const {
  Checkpoint cp;
  cp.circuit_name = circuit_->name();
  cp.num_inputs = circuit_->num_inputs();
  cp.num_faults = faults_->size();
  cp.seed = config_.seed;
  cp.test_set = result_.test_set;
  faults_->export_status(cp.fault_status, cp.detected_by);
  cp.rng_state = boundary_rng_;
  cp.last_best_genes = last_best_genes_;
  cp.macro = state_.macro;
  cp.phase = state_.phase;
  cp.noncontributing = state_.noncontributing;
  cp.phase1_stall = state_.phase1_stall;
  cp.best_ffs_set = state_.best_ffs_set;
  cp.seq_mult_index = state_.seq_mult_index;
  cp.seq_consecutive_failures = state_.seq_consecutive_failures;
  cp.fitness_evaluations = boundary_evals_;
  cp.seconds = prior_seconds_ + tracker_.elapsed_seconds();
  cp.vectors_from_vector_phases = result_.vectors_from_vector_phases;
  cp.vectors_from_sequences = result_.vectors_from_sequences;
  cp.detected_by_vectors = result_.detected_by_vectors;
  cp.detected_by_sequences = result_.detected_by_sequences;
  cp.sequence_attempts = result_.sequence_attempts;
  cp.sequences_committed = result_.sequences_committed;
  cp.all_ffs_initialized = result_.all_ffs_initialized;
  cp.progress_limit = result_.progress_limit;
  cp.sequence_lengths_tried = result_.sequence_lengths_tried;
  return cp;
}

void GaTestGenerator::restore_from_checkpoint(const Checkpoint& cp) {
  if (cp.circuit_name != circuit_->name() ||
      cp.num_inputs != circuit_->num_inputs())
    throw std::runtime_error(
        "checkpoint: circuit mismatch (checkpoint is for '" + cp.circuit_name +
        "' with " + std::to_string(cp.num_inputs) + " inputs, generator has '" +
        circuit_->name() + "' with " +
        std::to_string(circuit_->num_inputs()) + ")");
  if (cp.num_faults != faults_->size())
    throw std::runtime_error(
        "checkpoint: fault universe mismatch (checkpoint has " +
        std::to_string(cp.num_faults) + " faults, generator has " +
        std::to_string(faults_->size()) + ")");
  // The RNG stream continues from the stored state; keep the stored seed so
  // further checkpoints of this run stay self-consistent.
  config_.seed = cp.seed;

  sim_->replay_committed(cp.test_set);
  for (auto& wsim : worker_sims_) wsim->replay_committed(cp.test_set);

  // Replay rebuilds every Detected mark; Untestable marks came from outside
  // (a deterministic engine) and are restored from the checkpoint.  Any
  // other difference means the committed state did not reproduce — refuse to
  // continue from a diverged world.
  for (std::size_t i = 0; i < faults_->size(); ++i) {
    const FaultStatus replayed = faults_->status(i);
    const FaultStatus want = cp.fault_status[i];
    if (replayed == want) continue;
    if (want == FaultStatus::Untestable &&
        replayed == FaultStatus::Undetected) {
      faults_->set_status(i, FaultStatus::Untestable);
      for (auto& wf : worker_faults_) wf->set_status(i, FaultStatus::Untestable);
      continue;
    }
    throw std::runtime_error(
        "checkpoint: replay diverged at fault " + std::to_string(i) +
        " (replayed status " + std::to_string(static_cast<int>(replayed)) +
        ", checkpoint has " + std::to_string(static_cast<int>(want)) +
        ") — different build or corrupted checkpoint?");
  }

  rng_.set_state(cp.rng_state);
  boundary_rng_ = cp.rng_state;
  last_best_genes_ = cp.last_best_genes;

  state_.macro = cp.macro;
  state_.phase = cp.phase;
  state_.noncontributing = cp.noncontributing;
  state_.phase1_stall = cp.phase1_stall;
  state_.best_ffs_set = cp.best_ffs_set;
  state_.seq_mult_index = cp.seq_mult_index;
  state_.seq_consecutive_failures = cp.seq_consecutive_failures;

  result_ = TestGenResult{};
  result_.faults_total = faults_->size();
  result_.test_set = cp.test_set;
  result_.resumed = true;
  result_.vectors_from_vector_phases = cp.vectors_from_vector_phases;
  result_.vectors_from_sequences = cp.vectors_from_sequences;
  result_.detected_by_vectors = cp.detected_by_vectors;
  result_.detected_by_sequences = cp.detected_by_sequences;
  result_.sequence_attempts = cp.sequence_attempts;
  result_.sequences_committed = cp.sequences_committed;
  result_.all_ffs_initialized = cp.all_ffs_initialized;
  result_.progress_limit = cp.progress_limit;
  result_.sequence_lengths_tried = cp.sequence_lengths_tried;

  prior_evals_ = cp.fitness_evaluations;
  boundary_evals_ = cp.fitness_evaluations;
  prior_seconds_ = cp.seconds;
  resumed_ = true;

  if (tracing())
    telem_->trace.event(
        "resume",
        {{"vectors", static_cast<std::uint64_t>(cp.test_set.size())},
         {"evaluations", static_cast<std::uint64_t>(cp.fitness_evaluations)},
         {"prior_seconds", cp.seconds},
         {"detected", static_cast<std::uint64_t>(faults_->num_detected())}});
}

const char* GaTestGenerator::current_phase_name() const {
  return state_.macro == MacroPhase::Sequences ? phase_name(Phase::Sequences)
                                               : phase_name(state_.phase);
}

void GaTestGenerator::install_ga_observer(GeneticAlgorithm& ga) {
  if (!telem_) return;
  const char* pname = current_phase_name();
  // Look the metrics up once here, not per generation: registry references
  // are stable and lock-free to update, lookups take the registry mutex.
  telemetry::Counter& generations = telem_->metrics.counter("ga.generations");
  telemetry::Histogram& eval_h = telem_->metrics.histogram("ga.eval_seconds");
  telemetry::Histogram& select_h =
      telem_->metrics.histogram("ga.select_seconds");
  telemetry::Histogram& breed_h = telem_->metrics.histogram("ga.breed_seconds");
  ga.set_observer([this, pname, &generations, &eval_h, &select_h,
                   &breed_h](const GaGenerationInfo& g) {
    generations.add(1);
    eval_h.observe(g.eval_seconds);
    select_h.observe(g.select_seconds);
    breed_h.observe(g.breed_seconds);
    if (telem_->trace.enabled())
      telem_->trace.event(
          "generation",
          {{"phase", pname},
           {"gen", g.generation},
           {"best", g.best_fitness},
           {"avg", g.avg_fitness},
           {"evals", static_cast<std::uint64_t>(g.evaluations)},
           {"eval_s", g.eval_seconds},
           {"select_s", g.select_seconds},
           {"breed_s", g.breed_seconds}});
  });
}

const Individual& GaTestGenerator::run_ga(
    GeneticAlgorithm& ga,
    const std::function<double(FitnessEvaluator&,
                               const std::vector<std::uint8_t>&)>& fit) {
  ga.set_stop_check([this] { return stop_now(); });
  install_ga_observer(ga);
  const double ga_t0 = tracker_.elapsed_seconds();
  std::uint64_t ga_span = 0;
  if (tracing())
    ga_span = telem_->trace.begin_span(
        "ga_run_begin",
        {{"phase", current_phase_name()},
         {"length", static_cast<std::uint64_t>(ga.chromosome_length())}});

  const Individual* best = nullptr;
  if (!pool_) {
    best = &ga.run([&](const std::vector<std::uint8_t>& genes) {
      return fit(fitness_, genes);
    });
  } else {
    // Parallel path: split each unevaluated batch across the simulator
    // replicas.  Fitness values are identical to the serial path (replicas
    // are committed-state clones), so results do not depend on the thread
    // count.
    best = &ga.run([&](const std::vector<const std::vector<std::uint8_t>*>&
                           batch,
                       std::vector<double>& out) {
      const std::size_t sims = worker_sims_.size() + 1;
      const std::size_t chunk = (batch.size() + sims - 1) / sims;
      const bool timed = telem_ != nullptr;
      if (timed) chunk_seconds_.assign(sims, 0.0);
      std::size_t used = 0;
      for (std::size_t s = 0; s < sims; ++s) {
        const std::size_t begin = s * chunk;
        const std::size_t end = std::min(batch.size(), begin + chunk);
        if (begin >= end) break;
        FitnessEvaluator* ev =
            s == 0 ? &fitness_ : worker_fitness_[s - 1].get();
        ++used;
        // Each task writes its wall time into its own slot; the main thread
        // reads them only after wait_idle()'s join, so this is race-free.
        pool_->submit([this, &batch, &out, &fit, ev, begin, end, timed, s] {
          Timer chunk_timer;
          for (std::size_t i = begin; i < end; ++i)
            out[i] = fit(*ev, *batch[i]);
          if (timed) chunk_seconds_[s] = chunk_timer.elapsed_seconds();
        });
      }
      pool_->wait_idle();  // rethrows the first worker exception, if any
      if (timed && used > 1) {
        double sum = 0.0, max = 0.0;
        for (std::size_t s = 0; s < used; ++s) {
          sum += chunk_seconds_[s];
          max = std::max(max, chunk_seconds_[s]);
          telem_->metrics.histogram("parallel.chunk_seconds")
              .observe(chunk_seconds_[s]);
        }
        // max/mean across the batch's chunks: 1.0 = perfectly balanced.
        if (sum > 0.0)
          telem_->metrics.histogram("parallel.imbalance_ratio")
              .observe(max * static_cast<double>(used) / sum);
      }
    });
  }

  if (telem_) {
    const double dur = tracker_.elapsed_seconds() - ga_t0;
    telem_->metrics.counter("ga.runs").add(1);
    telem_->metrics.histogram("ga.run_seconds").observe(dur);
    telem_->trace.end_span(
        ga_span, "ga_run_end",
        {{"phase", current_phase_name()},
         {"dur_s", dur},
         {"best", best->fitness},
         {"evaluations", static_cast<std::uint64_t>(ga.evaluations())}});
  }
  return *best;
}

GaConfig GaTestGenerator::vector_ga_config() const {
  const auto L = static_cast<unsigned>(circuit_->num_inputs());
  const VectorPhaseGaParams t1 = table1_params(L);
  GaConfig ga;
  ga.population_size = config_.vec_population_override
                           ? config_.vec_population_override
                           : t1.population_size;
  ga.mutation_prob = config_.vec_mutation_override > 0.0
                         ? config_.vec_mutation_override
                         : t1.mutation_prob;
  ga.num_generations = config_.num_generations;
  ga.selection = config_.selection;
  ga.crossover = config_.crossover;
  ga.crossover_prob = config_.crossover_prob;
  ga.coding = Coding::Binary;  // single vectors are always binary-coded
  ga.generation_gap = config_.generation_gap;
  ga.elitism = config_.elitism;
  return ga;
}

GaConfig GaTestGenerator::sequence_ga_config(unsigned frames) const {
  GaConfig ga;
  ga.population_size = config_.seq_population;
  ga.mutation_prob = config_.seq_mutation;
  ga.num_generations = config_.num_generations;
  ga.selection = config_.selection;
  ga.crossover = config_.crossover;
  ga.crossover_prob = config_.crossover_prob;
  ga.coding = config_.sequence_coding;
  ga.gene_block = static_cast<unsigned>(circuit_->num_inputs());
  ga.generation_gap = config_.generation_gap;
  ga.elitism = config_.elitism;
  (void)frames;
  return ga;
}

void GaTestGenerator::refresh_sample() {
  std::vector<std::uint32_t> sample;
  if (config_.fault_sample_size > 0) {
    sample = faults_->undetected_indices();
    if (sample.size() > config_.fault_sample_size) {
      // Partial Fisher-Yates: draw sample_size distinct faults.  If fewer
      // faults remain than the sample size, all are simulated (paper §V).
      for (unsigned i = 0; i < config_.fault_sample_size; ++i) {
        const std::size_t j = i + rng_.below(sample.size() - i);
        std::swap(sample[i], sample[j]);
      }
      sample.resize(config_.fault_sample_size);
    }
  }
  for (auto& wf : worker_fitness_) wf->set_sample(sample);
  fitness_.set_sample(std::move(sample));
}

TestVector GaTestGenerator::evolve_vector(Phase phase) {
  refresh_sample();
  GeneticAlgorithm ga(vector_ga_config(), circuit_->num_inputs(), rng_);
  if (config_.seed_with_previous_best &&
      last_best_genes_.size() == circuit_->num_inputs()) {
    // Warm start: GeneticAlgorithm::run() randomizes before evaluating, so
    // plant the seed through a wrapper around the first evaluation instead.
    ga.randomize_population();
    ga.set_individual(0, last_best_genes_);
    const auto fit = [this, phase](FitnessEvaluator& ev,
                                   const std::vector<std::uint8_t>& genes) {
      return ev.vector_fitness(decode_vector(genes, circuit_->num_inputs()),
                               phase);
    };
    const double ga_t0 = tracker_.elapsed_seconds();
    std::uint64_t ga_span = 0;
    if (tracing())
      ga_span = telem_->trace.begin_span(
          "ga_run_begin",
          {{"phase", current_phase_name()},
           {"length", static_cast<std::uint64_t>(ga.chromosome_length())},
           {"warm_start", true}});
    for (unsigned gen = 0; gen < config_.num_generations; ++gen) {
      ga.evaluate([&](const std::vector<std::uint8_t>& genes) {
        return fit(fitness_, genes);
      });
      if (stop_now()) break;
      if (gen + 1 < config_.num_generations) ga.next_generation();
    }
    if (telem_) {
      const double dur = tracker_.elapsed_seconds() - ga_t0;
      telem_->metrics.counter("ga.runs").add(1);
      telem_->metrics.histogram("ga.run_seconds").observe(dur);
      telem_->trace.end_span(
          ga_span, "ga_run_end",
          {{"phase", current_phase_name()},
           {"dur_s", dur},
           {"best", ga.best().fitness},
           {"evaluations", static_cast<std::uint64_t>(ga.evaluations())}});
    }
    last_best_genes_ = ga.best().genes;
    return decode_vector(ga.best().genes, circuit_->num_inputs());
  }
  const Individual& best = run_ga(
      ga, [this, phase](FitnessEvaluator& ev,
                        const std::vector<std::uint8_t>& genes) {
        return ev.vector_fitness(decode_vector(genes, circuit_->num_inputs()),
                                 phase);
      });
  last_best_genes_ = best.genes;
  return decode_vector(best.genes, circuit_->num_inputs());
}

TestSequence GaTestGenerator::evolve_sequence(unsigned frames) {
  refresh_sample();
  GeneticAlgorithm ga(sequence_ga_config(frames),
                      static_cast<std::size_t>(frames) * circuit_->num_inputs(),
                      rng_);
  const Individual& best = run_ga(
      ga, [this](FitnessEvaluator& ev, const std::vector<std::uint8_t>& genes) {
        return ev.sequence_fitness(
            decode_sequence(genes, circuit_->num_inputs()));
      });
  return decode_sequence(best.genes, circuit_->num_inputs());
}

void GaTestGenerator::telemetry_enter_phase(Phase phase) {
  const int p = static_cast<int>(phase);
  if (!telem_ || open_phase_ == p) return;
  telemetry_close_phase();
  open_phase_ = p;
  open_phase_start_ = tracker_.elapsed_seconds();
  open_phase_detected_ = faults_->num_detected();
  open_phase_vectors_ = result_.test_set.size();
  open_phase_span_ = telem_->trace.begin_span(
      "phase_begin",
      {{"phase", phase_name(phase)},
       {"vectors", static_cast<std::uint64_t>(open_phase_vectors_)},
       {"detected", static_cast<std::uint64_t>(open_phase_detected_)}});
}

void GaTestGenerator::telemetry_close_phase() {
  if (!telem_ || open_phase_ < 0) return;
  const Phase phase = static_cast<Phase>(open_phase_);
  const double dur = tracker_.elapsed_seconds() - open_phase_start_;
  telem_->metrics
      .histogram(std::string("phase.seconds.") + phase_name(phase))
      .observe(dur);
  telem_->trace.end_span(
      open_phase_span_, "phase_end",
      {{"phase", phase_name(phase)},
       {"dur_s", dur},
       {"detected_delta",
        static_cast<std::uint64_t>(faults_->num_detected() -
                                   open_phase_detected_)},
       {"vectors_delta",
        static_cast<std::uint64_t>(result_.test_set.size() -
                                   open_phase_vectors_)}});
  open_phase_ = -1;
  open_phase_span_ = 0;
}

void GaTestGenerator::telemetry_commit(std::size_t index,
                                       unsigned detected_delta) {
  if (!telem_) return;
  telem_->metrics.counter("gatest.commits").add(1);
  if (detected_delta)
    telem_->metrics.counter("gatest.detected").add(detected_delta);
  const double coverage = faults_->coverage();
  const char* pname = current_phase_name();
  if (telem_->trace.enabled())
    telem_->trace.event(
        "commit",
        {{"index", static_cast<std::uint64_t>(index)},
         {"phase", pname},
         {"detected_delta", detected_delta},
         {"detected_total",
          static_cast<std::uint64_t>(faults_->num_detected())},
         {"coverage", coverage},
         {"vectors", static_cast<std::uint64_t>(result_.test_set.size())}});
  if (telem_->progress.enabled())
    telem_->progress.update(pname, result_.test_set.size(), coverage,
                            total_evaluations(), tracker_.elapsed_seconds());
}

void GaTestGenerator::generate_vectors() {
  const unsigned progress_limit = std::max(
      1u, static_cast<unsigned>(std::lround(config_.progress_limit_multiplier *
                                            static_cast<double>(depth_))));
  const unsigned phase1_stall_limit = std::max(
      1u, static_cast<unsigned>(std::lround(config_.phase1_stall_multiplier *
                                            static_cast<double>(depth_))));
  result_.progress_limit = progress_limit;

  while (faults_->num_undetected() > 0 &&
         result_.test_set.size() < config_.max_vectors) {
    telemetry_enter_phase(state_.phase);
    note_boundary();
    if (stop_now()) return;
    const TestVector best = evolve_vector(state_.phase);
    // A stop inside the GA discards that (partial) evolution; the resumed
    // run redoes it from the boundary RNG state, so nothing is lost.
    if (stop_reason_ != StopReason::Completed) return;
    const FaultSimStats committed = commit_vector(
        best, static_cast<std::int64_t>(result_.test_set.size()));
    result_.test_set.push_back(best);
    ++result_.vectors_from_vector_phases;
    result_.detected_by_vectors += committed.detected;
    telemetry_commit(result_.test_set.size() - 1, committed.detected);

    if (state_.phase == Phase::InitializeFfs) {
      const unsigned set_now = sim_->good_ffs_set();
      if (set_now >= circuit_->num_dffs()) {
        result_.all_ffs_initialized = true;
        state_.phase = Phase::DetectFaults;
      } else if (set_now > state_.best_ffs_set) {
        state_.best_ffs_set = set_now;
        state_.phase1_stall = 0;
      } else if (++state_.phase1_stall >= phase1_stall_limit) {
        // Robustness guard (see config.h): some flip-flops appear
        // uninitializable; proceed to detection with partial state.
        state_.phase = Phase::DetectFaults;
      }
      continue;
    }

    if (committed.detected > 0) {
      state_.phase = Phase::DetectFaults;
      state_.noncontributing = 0;
    } else {
      state_.phase = config_.use_activity_fitness ? Phase::DetectWithActivity
                                                  : Phase::DetectFaults;
      if (++state_.noncontributing >= progress_limit) break;
    }
  }
}

void GaTestGenerator::generate_sequences() {
  telemetry_enter_phase(Phase::Sequences);
  while (state_.seq_mult_index < config_.seq_length_multipliers.size()) {
    const double mult = config_.seq_length_multipliers[state_.seq_mult_index];
    const unsigned frames = std::max(
        1u,
        static_cast<unsigned>(std::lround(mult * static_cast<double>(depth_))));
    if (result_.sequence_lengths_tried.size() <= state_.seq_mult_index)
      result_.sequence_lengths_tried.push_back(frames);

    while (state_.seq_consecutive_failures < config_.seq_fail_limit &&
           faults_->num_undetected() > 0 &&
           result_.test_set.size() + frames <= config_.max_vectors) {
      note_boundary();
      if (stop_now()) return;
      const TestSequence best = evolve_sequence(frames);
      if (stop_reason_ != StopReason::Completed) return;
      ++result_.sequence_attempts;

      // Commit only sequences that actually detect something against the
      // full fault list; a side-effect-free evaluation makes the decision,
      // so the committed state (and every parallel replica) only ever moves
      // forward (paper §IV's store/restore, realized by scratch evaluation).
      const FaultSimStats probe = sim_->evaluate_sequence(best);
      if (probe.detected == 0) {
        ++state_.seq_consecutive_failures;
        continue;
      }
      FaultSimStats committed;
      for (std::size_t i = 0; i < best.size(); ++i)
        committed.accumulate(commit_vector(
            best[i], static_cast<std::int64_t>(result_.test_set.size() + i)));
      for (const TestVector& v : best) result_.test_set.push_back(v);
      result_.vectors_from_sequences += best.size();
      result_.detected_by_sequences += committed.detected;
      ++result_.sequences_committed;
      state_.seq_consecutive_failures = 0;
      telemetry_commit(result_.test_set.size() - best.size(),
                       committed.detected);
    }

    if (faults_->num_undetected() == 0) break;
    ++state_.seq_mult_index;
    state_.seq_consecutive_failures = 0;
  }
}

TestGenResult GaTestGenerator::run() {
  tracker_.start(ctrl_.budget);
  last_checkpoint_elapsed_ = 0.0;
  stop_reason_ = StopReason::Completed;
  open_phase_ = -1;
  slice_requested_.store(false, std::memory_order_relaxed);
  std::uint64_t run_span = 0;
  if (tracing())
    run_span = telem_->trace.begin_span(
        "run_begin",
        {{"circuit", circuit_->name()},
         {"faults", static_cast<std::uint64_t>(faults_->size())},
         {"seed", static_cast<std::uint64_t>(config_.seed)},
         {"threads", config_.num_threads},
         {"resumed", resumed_}});
  if (!resumed_) {
    result_ = TestGenResult{};
    result_.faults_total = faults_->size();
    state_ = RunState{};
    state_.phase = circuit_->num_dffs() == 0 ? Phase::DetectFaults
                                             : Phase::InitializeFfs;
    boundary_rng_ = rng_.state();
    boundary_evals_ = prior_evals_;
  }
  resumed_ = false;  // a later run() without restore starts fresh again
  slice_start_vectors_ = result_.test_set.size();

  try {
    if (state_.macro == MacroPhase::Vectors) {
      if (config_.enable_vector_phases) generate_vectors();
      if (stop_reason_ == StopReason::Completed)
        state_.macro = MacroPhase::Sequences;
    }
    if (state_.macro == MacroPhase::Sequences &&
        stop_reason_ == StopReason::Completed) {
      if (config_.enable_sequence_phase && faults_->num_undetected() > 0)
        generate_sequences();
      if (stop_reason_ == StopReason::Completed)
        state_.macro = MacroPhase::Done;
    }
  } catch (const std::exception& e) {
    // Exception-safe parallelism: a fitness exception (rethrown from the
    // thread pool) or checkpoint I/O error ends the run with the partial
    // test set intact instead of escaping to std::terminate.
    stop_reason_ = StopReason::Error;
    result_.error_message = e.what();
  }
  telemetry_close_phase();

  result_.faults_detected = faults_->num_detected();
  result_.fault_coverage = faults_->coverage();
  result_.faults_pruned = faults_pruned_;
  const std::size_t effective = result_.faults_total - faults_pruned_;
  result_.fault_efficiency =
      effective == 0 ? 1.0
                     : static_cast<double>(result_.faults_detected) /
                           static_cast<double>(effective);
  result_.fitness_evaluations = total_evaluations();
  result_.seconds = prior_seconds_ + tracker_.elapsed_seconds();
  result_.stop_reason = stop_reason_;

  // A budget/interrupt stop (and even an error) leaves the last commit
  // boundary intact — flush it so the run is resumable.
  if (stop_reason_ != StopReason::Completed && !ctrl_.checkpoint_path.empty()) {
    try {
      make_checkpoint().save(ctrl_.checkpoint_path);
      if (tracing())
        telem_->trace.event(
            "checkpoint_write",
            {{"path", ctrl_.checkpoint_path},
             {"vectors", static_cast<std::uint64_t>(result_.test_set.size())},
             {"evaluations", static_cast<std::uint64_t>(boundary_evals_)},
             {"final", true}});
    } catch (const std::exception& e) {
      if (!result_.error_message.empty()) result_.error_message += "; ";
      result_.error_message += e.what();
    }
  }

  if (telem_) {
    telemetry_finalize_metrics();
    if (telem_->trace.enabled()) {
      if (stop_reason_ == StopReason::SliceStop)
        telem_->trace.event(
            "slice_stop",
            {{"vectors", static_cast<std::uint64_t>(result_.test_set.size())},
             {"committed_this_slice",
              static_cast<std::uint64_t>(result_.test_set.size() -
                                         slice_start_vectors_)},
             {"evaluations", static_cast<std::uint64_t>(boundary_evals_)},
             {"coverage", result_.fault_coverage}});
      if (stop_reason_ != StopReason::Completed)
        telem_->trace.event(
            "stop", {{"reason", to_string(stop_reason_)},
                     {"error", result_.error_message}});
      telem_->trace.end_span(
          run_span, "run_end",
          {{"dur_s", tracker_.elapsed_seconds()},
           {"seconds", result_.seconds},
           {"vectors", static_cast<std::uint64_t>(result_.test_set.size())},
           {"detected", static_cast<std::uint64_t>(result_.faults_detected)},
           {"coverage", result_.fault_coverage},
           {"evaluations",
            static_cast<std::uint64_t>(result_.fitness_evaluations)},
           {"cache_hits", cache_stats().hits},
           {"cache_misses", cache_stats().misses},
           {"stop_reason", to_string(stop_reason_)}});
    }
    telem_->progress.finish();
  }
  return result_;
}

void GaTestGenerator::telemetry_finalize_metrics() {
  if (!telem_) return;
  telemetry::MetricsRegistry& m = telem_->metrics;
  // Counters are set to lifetime totals idempotently (add the delta against
  // the counter's current value) so a resumed in-process run() cannot
  // double-count.
  const auto set_total = [&m](const std::string& name, std::uint64_t total) {
    telemetry::Counter& c = m.counter(name);
    if (total > c.value()) c.add(total - c.value());
  };

  FsimCounters fc = sim_->counters();
  for (const auto& ws : worker_sims_) fc.accumulate(ws->counters());
  set_total("fsim.vectors_committed", fc.vectors_committed);
  set_total("fsim.candidate_evaluations", fc.candidate_evaluations);
  set_total("fsim.frames_simulated", fc.frames_simulated);
  set_total("fsim.good_events", fc.good_events);
  set_total("fsim.faulty_events", fc.faulty_events);
  set_total("fsim.faults_dropped", fc.faults_dropped);
  set_total("fsim.fault_groups", fc.fault_groups);
  set_total("fsim.fault_group_lanes", fc.fault_group_lanes);
  m.gauge("fsim.packed_utilization").set(fc.packed_utilization());
  m.gauge("fsim.lane_width").set(kFaultSimLanes);

  const FitnessCacheStats cs = cache_stats();
  set_total("fitness.cache.hits", cs.hits);
  set_total("fitness.cache.misses", cs.misses);
  set_total("fitness.cache.evictions", cs.evictions);
  set_total("fitness.cache.invalidations", cs.invalidations);
  std::size_t sim_evals = fitness_.sim_evaluations();
  for (const auto& wf : worker_fitness_) sim_evals += wf->sim_evaluations();
  set_total("fitness.sim_evaluations", sim_evals);

  for (Phase p : {Phase::InitializeFfs, Phase::DetectFaults,
                  Phase::DetectWithActivity, Phase::Sequences}) {
    std::size_t evals = fitness_.evaluations_in(p);
    for (const auto& wf : worker_fitness_) evals += wf->evaluations_in(p);
    set_total(std::string("fitness.evals.") + phase_name(p), evals);
  }

  set_total("gatest.vectors", result_.test_set.size());
  set_total("gatest.sequences_committed", result_.sequences_committed);
  set_total("gatest.sequence_attempts", result_.sequence_attempts);
  set_total("gatest.evaluations", result_.fitness_evaluations);
  m.gauge("gatest.coverage").set(result_.fault_coverage);
  m.gauge("gatest.fault_efficiency").set(result_.fault_efficiency);
  m.gauge("gatest.seconds").set(result_.seconds);
}

}  // namespace gatest
