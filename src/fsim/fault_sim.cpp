#include "fsim/fault_sim.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <unordered_map>

namespace gatest {

namespace {
/// Constant nets hold their value from the start: settle loops skip
/// combinational sources, so an all-X reset would otherwise leave CONST0 /
/// CONST1 nodes at X forever and every reader would see spurious weak
/// (X-vs-binary) deviations.
void seed_const_nets(const Circuit& c, std::vector<Logic>& val) {
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const GateType t = c.gate(id).type;
    if (t == GateType::Const0) val[id] = Logic::Zero;
    else if (t == GateType::Const1) val[id] = Logic::One;
  }
}
}  // namespace

SequentialFaultSimulator::SequentialFaultSimulator(const Circuit& c,
                                                   FaultList& faults)
    : circuit_(&c), faults_(&faults) {
  if (!c.finalized())
    throw std::runtime_error("SequentialFaultSimulator: circuit not finalized");
  if (&faults.circuit() != &c)
    throw std::runtime_error(
        "SequentialFaultSimulator: fault list belongs to another circuit");
  good_val_.assign(c.num_gates(), Logic::X);
  seed_const_nets(c, good_val_);
  prev_val_.assign(c.num_gates(), Logic::X);
  seed_const_nets(c, prev_val_);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults.fault(i).model != FaultModel::StuckAt &&
        faults.fault(i).pin != Fault::kOutputPin)
      throw std::runtime_error(
          "SequentialFaultSimulator: transition faults are modeled on stems "
          "only");
  diffs_.resize(faults.size());
  ff_ordinal_.assign(c.num_gates(), ~0u);
  for (std::uint32_t i = 0; i < c.dffs().size(); ++i)
    ff_ordinal_[c.dffs()[i]] = i;
  fval_.assign(c.num_gates(), PackedVal{});
  ftouched_.assign(c.num_gates(), 0);
  fqueued_.assign(c.num_gates(), 0);
  flevel_queue_.resize(c.num_levels());
  scratch_diffs_.resize(faults.size());
  scratch_dirty_.assign(faults.size(), 0);
  eval_detected_.assign(faults.size(), 0);
}

void SequentialFaultSimulator::reset() {
  good_val_.assign(circuit_->num_gates(), Logic::X);
  seed_const_nets(*circuit_, good_val_);
  prev_val_.assign(circuit_->num_gates(), Logic::X);
  seed_const_nets(*circuit_, prev_val_);
  for (auto& d : diffs_) d.clear();
  started_ = false;
  ++state_epoch_;
}

std::vector<Logic> SequentialFaultSimulator::good_ff_state() const {
  std::vector<Logic> out;
  out.reserve(circuit_->dffs().size());
  for (GateId ff : circuit_->dffs()) out.push_back(good_val_[ff]);
  return out;
}

unsigned SequentialFaultSimulator::good_ffs_set() const {
  unsigned n = 0;
  for (GateId ff : circuit_->dffs())
    if (is_binary(good_val_[ff])) ++n;
  return n;
}

FaultSimSnapshot SequentialFaultSimulator::snapshot() const {
  FaultSimSnapshot s;
  s.good_values = good_val_;
  s.prev_values = prev_val_;
  s.diffs = diffs_;
  faults_->export_status(s.status, s.detected_by);
  s.started = started_;
  return s;
}

void SequentialFaultSimulator::restore(const FaultSimSnapshot& s) {
  if (s.good_values.size() != good_val_.size() ||
      s.status.size() != faults_->size() ||
      s.detected_by.size() != faults_->size())
    throw std::runtime_error("restore: snapshot shape mismatch");
  good_val_ = s.good_values;
  prev_val_ = s.prev_values;
  diffs_ = s.diffs;
  faults_->import_status(s.status, s.detected_by);
  started_ = s.started;
  ++state_epoch_;
}

const std::vector<SequentialFaultSimulator::FfDiff>&
SequentialFaultSimulator::diff_of(std::uint32_t fi, bool commit) const {
  if (!commit && scratch_dirty_[fi]) return scratch_diffs_[fi];
  return diffs_[fi];
}

void SequentialFaultSimulator::write_diff(std::uint32_t fi,
                                          std::vector<FfDiff> d, bool commit) {
  if (commit) {
    diffs_[fi] = std::move(d);
  } else {
    scratch_diffs_[fi] = std::move(d);
    if (!scratch_dirty_[fi]) {
      scratch_dirty_[fi] = 1;
      scratch_dirty_list_.push_back(fi);
    }
  }
}

void SequentialFaultSimulator::begin_eval() {
  for (std::uint32_t fi : scratch_dirty_list_) scratch_dirty_[fi] = 0;
  scratch_dirty_list_.clear();
  for (std::uint32_t fi : eval_detected_list_) eval_detected_[fi] = 0;
  eval_detected_list_.clear();
}

/// Value the faulty machine sees on the faulted line this frame, given the
/// fault-free current and previous-frame values of that line.
///   stuck-at:      the stuck constant;
///   slow-to-rise:  the line shows 1 only if it was already 1 (AND);
///   slow-to-fall:  the line shows 0 only if it was already 0 (OR).
Logic SequentialFaultSimulator::injected_value(const Fault& f, Logic cur,
                                               Logic prev) {
  switch (f.model) {
    case FaultModel::StuckAt:    return f.stuck ? Logic::One : Logic::Zero;
    case FaultModel::SlowToRise: return logic_and(cur, prev);
    case FaultModel::SlowToFall: return logic_or(cur, prev);
  }
  return Logic::X;
}

bool SequentialFaultSimulator::fault_is_active(std::uint32_t fi,
                                               const EvalContext& ctx) const {
  if (!diff_of(fi, ctx.commit).empty()) return true;
  const Fault& f = faults_->fault(fi);
  const GateId site = f.pin == Fault::kOutputPin
                          ? f.gate
                          : circuit_->gate(f.gate).fanins[f.pin];
  const Logic good = (*ctx.val)[site];
  const Logic forced = injected_value(f, good, (*ctx.prev)[site]);
  // No deviation possible when the forced value provably equals the good
  // value; X on either side might deviate, so simulate.
  return !(is_binary(good) && forced == good);
}

FaultSimStats SequentialFaultSimulator::apply_vector(const TestVector& v,
                                                     std::int64_t test_index) {
  EvalContext ctx;
  ctx.val = &good_val_;
  ctx.prev = &prev_val_;
  ctx.commit = true;
  ctx.test_index = test_index;
  ++counters_.vectors_committed;
  ++state_epoch_;
  std::vector<std::uint32_t> active = faults_->undetected_indices();
  return simulate_frame(v, active, ctx);
}

FaultSimStats SequentialFaultSimulator::apply_sequence(
    const TestSequence& seq, std::int64_t test_index) {
  FaultSimStats total;
  for (std::size_t i = 0; i < seq.size(); ++i)
    total.accumulate(
        apply_vector(seq[i], test_index + static_cast<std::int64_t>(i)));
  return total;
}

FaultSimStats SequentialFaultSimulator::replay_committed(
    const TestSequence& tests) {
  faults_->reset();
  reset();
  return apply_sequence(tests, 0);
}

void SequentialFaultSimulator::export_fault_status(
    std::vector<FaultStatus>& status,
    std::vector<std::int64_t>& detected_by) const {
  faults_->export_status(status, detected_by);
}

void SequentialFaultSimulator::import_fault_status(
    const std::vector<FaultStatus>& status,
    const std::vector<std::int64_t>& detected_by) {
  faults_->import_status(status, detected_by);
  ++state_epoch_;
}

FaultSimStats SequentialFaultSimulator::evaluate_vector(
    const TestVector& v, std::span<const std::uint32_t> fault_subset) {
  TestSequence seq(1, v);
  return evaluate_sequence(seq, fault_subset);
}

FaultSimStats SequentialFaultSimulator::evaluate_sequence(
    const TestSequence& seq, std::span<const std::uint32_t> fault_subset) {
  ++counters_.candidate_evaluations;
  begin_eval();
  eval_val_ = good_val_;
  eval_prev_val_ = prev_val_;
  EvalContext ctx;
  ctx.val = &eval_val_;
  ctx.prev = &eval_prev_val_;
  ctx.commit = false;

  std::vector<std::uint32_t> active;
  if (fault_subset.empty()) {
    active = faults_->undetected_indices();
  } else {
    ctx.full_universe = false;
    active.reserve(fault_subset.size());
    for (std::uint32_t fi : fault_subset)
      if (faults_->status(fi) == FaultStatus::Undetected) active.push_back(fi);
  }

  FaultSimStats total;
  for (const TestVector& v : seq) total.accumulate(simulate_frame(v, active, ctx));
  return total;
}

FaultSimStats SequentialFaultSimulator::evaluate_vector_good_only(
    const TestVector& v) {
  if (v.size() != circuit_->num_inputs())
    throw std::runtime_error("evaluate_vector_good_only: wrong input count");
  ++counters_.candidate_evaluations;
  ++counters_.frames_simulated;
  eval_val_ = good_val_;
  EvalContext ctx;
  ctx.val = &eval_val_;
  ctx.commit = false;
  FaultSimStats stats;
  settle_good(v, ctx, stats);
  latch_good(ctx, stats);
  return stats;
}

FaultSimStats SequentialFaultSimulator::simulate_frame(
    const TestVector& v, std::vector<std::uint32_t>& active,
    EvalContext& ctx) {
  if (v.size() != circuit_->num_inputs())
    throw std::runtime_error("simulate_frame: wrong input count");
  FaultSimStats stats;
  // Faults pruned from the universe (proven inert) contribute nothing to any
  // observable, so counting them keeps every fitness denominator — and hence
  // the GA trajectory — bit-identical with pruning on or off.
  stats.faults_simulated =
      static_cast<unsigned>(active.size()) +
      (ctx.full_universe ? static_cast<unsigned>(faults_->num_pruned()) : 0u);
  settle_good(v, ctx, stats);
  simulate_fault_groups(active, ctx, stats);
  // Keep this frame's pre-latch values as the next frame's transition-fault
  // launch reference (flip-flop entries = the state seen DURING this frame,
  // so clock-edge transitions on flop outputs count as transitions).
  *ctx.prev = *ctx.val;
  latch_good(ctx, stats);
  started_ = started_ || ctx.commit;
  ++counters_.frames_simulated;
  counters_.good_events += stats.good_events;
  counters_.faulty_events += stats.faulty_events;
  if (ctx.commit) counters_.faults_dropped += stats.detected;
  return stats;
}

void SequentialFaultSimulator::settle_good(const TestVector& v,
                                           EvalContext& ctx,
                                           FaultSimStats& stats) {
  const Circuit& c = *circuit_;
  std::vector<Logic>& val = *ctx.val;
  const auto& inputs = c.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (val[inputs[i]] != v[i]) ++stats.good_events;
    val[inputs[i]] = v[i];
  }
  for (GateId id : c.topo_order()) {
    const Gate& g = c.gate(id);
    if (is_combinational_source(g.type)) continue;
    const Logic nv = eval_logic_gate(
        g.type, g.fanins.size(),
        [&](std::size_t i) { return val[g.fanins[i]]; });
    if (val[id] != nv) {
      ++stats.good_events;
      val[id] = nv;
    }
  }
}

void SequentialFaultSimulator::latch_good(EvalContext& ctx,
                                          FaultSimStats& stats) {
  const Circuit& c = *circuit_;
  std::vector<Logic>& val = *ctx.val;
  latch_scratch_.clear();
  for (GateId ff : c.dffs()) latch_scratch_.push_back(val[c.gate(ff).fanins[0]]);
  for (std::size_t i = 0; i < c.dffs().size(); ++i) {
    const GateId ff = c.dffs()[i];
    const Logic next = latch_scratch_[i];
    if (val[ff] != next) {
      ++stats.good_events;
      if (is_binary(next)) ++stats.ffs_changed;
    }
    val[ff] = next;
    if (is_binary(next)) ++stats.ffs_set;
  }
}

void SequentialFaultSimulator::simulate_fault_groups(
    std::vector<std::uint32_t>& active, EvalContext& ctx,
    FaultSimStats& stats) {
  const Circuit& c = *circuit_;
  const std::vector<Logic>& val = *ctx.val;  // settled good frame, pre-latch

  // Partition active faults into groups of kFaultSimLanes, skipping faults
  // that cannot deviate this frame (PROOFS' activity check).
  std::vector<std::uint32_t> group;
  group.reserve(kFaultSimLanes);
  std::vector<std::uint32_t> detected_now;

  // Injections for the current group.  Transition faults may force X (an
  // uncertain late transition), so three masks are needed.
  struct OutInj { std::uint64_t force0 = 0, force1 = 0, forceX = 0; };
  std::unordered_map<GateId, OutInj> out_inj;
  struct PinInj { std::int16_t pin; std::uint8_t lane; std::uint8_t stuck; };
  std::unordered_map<GateId, std::vector<PinInj>> pin_inj;
  std::vector<std::uint32_t> dff_pin_ords;  // FF ordinals with faulted D pins

  auto fv = [&](GateId g) -> PackedVal {
    return ftouched_[g] ? fval_[g] : PackedVal::broadcast(val[g]);
  };

  auto schedule = [&](GateId g) {
    if (fqueued_[g]) return;
    fqueued_[g] = 1;
    flevel_queue_[c.gate(g).level].push_back(g);
  };

  auto touch_write = [&](GateId g, PackedVal nv, bool count) {
    const PackedVal old = fv(g);
    const std::uint64_t changed = old.mismatch(nv);
    if (!changed) return;
    if (count)
      stats.faulty_events += static_cast<std::uint64_t>(std::popcount(changed));
    fval_[g] = nv;
    ftouched_[g] = 1;
    touched_list_.push_back(g);
    for (GateId out : c.gate(g).fanouts)
      if (!is_combinational_source(c.gate(out).type)) schedule(out);
  };

  auto run_group = [&]() {
    ++counters_.fault_groups;
    counters_.fault_group_lanes += group.size();
    // 1. Seed faulty machines: state diffs, then injections.
    for (unsigned lane = 0; lane < group.size(); ++lane) {
      const std::uint32_t fi = group[lane];
      for (const FfDiff& d : diff_of(fi, ctx.commit)) {
        const GateId ffnode = c.dffs()[d.first];
        PackedVal pv = fv(ffnode);
        pv.set_lane(lane, d.second);
        touch_write(ffnode, pv, /*count=*/false);
      }
    }
    for (unsigned lane = 0; lane < group.size(); ++lane) {
      const std::uint32_t fi = group[lane];
      const Fault& f = faults_->fault(fi);
      if (f.pin == Fault::kOutputPin) {
        const Logic forced =
            injected_value(f, val[f.gate], (*ctx.prev)[f.gate]);
        OutInj& oi = out_inj[f.gate];
        switch (forced) {
          case Logic::Zero: oi.force0 |= 1ull << lane; break;
          case Logic::One:  oi.force1 |= 1ull << lane; break;
          case Logic::X:    oi.forceX |= 1ull << lane; break;
        }
        PackedVal pv = fv(f.gate);
        pv.set_lane(lane, forced);
        touch_write(f.gate, pv, /*count=*/false);
      } else if (c.gate(f.gate).type == GateType::Dff) {
        // Stuck data pin of a flip-flop: acts at the latch only.
        pin_inj[f.gate].push_back(
            PinInj{f.pin, static_cast<std::uint8_t>(lane), f.stuck});
        dff_pin_ords.push_back(ff_ordinal_[f.gate]);
      } else {
        pin_inj[f.gate].push_back(
            PinInj{f.pin, static_cast<std::uint8_t>(lane), f.stuck});
        schedule(f.gate);
      }
    }

    // 2. Event-driven settle by level.
    for (std::size_t lvl = 0; lvl < flevel_queue_.size(); ++lvl) {
      auto& q = flevel_queue_[lvl];
      for (std::size_t qi = 0; qi < q.size(); ++qi) {
        const GateId id = q[qi];
        fqueued_[id] = 0;
        const Gate& g = c.gate(id);
        const auto pit = pin_inj.find(id);
        PackedVal nv = eval_packed_gate(
            g.type, g.fanins.size(), [&](std::size_t i) {
              PackedVal pv = fv(g.fanins[i]);
              if (pit != pin_inj.end())
                for (const PinInj& pj : pit->second)
                  if (static_cast<std::size_t>(pj.pin) == i)
                    pv.set_lane(pj.lane,
                                pj.stuck ? Logic::One : Logic::Zero);
              return pv;
            });
        const auto oit = out_inj.find(id);
        if (oit != out_inj.end()) {
          const OutInj& oi = oit->second;
          nv.zero = (nv.zero & ~(oi.force1 | oi.forceX)) | oi.force0;
          nv.one = (nv.one & ~(oi.force0 | oi.forceX)) | oi.force1;
        }
        touch_write(id, nv, /*count=*/true);
      }
      q.clear();
    }

    // 3. Detection at primary outputs (definite binary differences only).
    std::uint64_t det_mask = 0;
    for (GateId po : c.outputs()) {
      if (!ftouched_[po]) continue;
      det_mask |= fval_[po].diff(PackedVal::broadcast(val[po]));
    }

    for (unsigned lane = 0; lane < group.size(); ++lane) {
      if (!(det_mask & (1ull << lane))) continue;
      const std::uint32_t fi = group[lane];
      ++stats.detected;
      detected_now.push_back(fi);
      if (ctx.commit) {
        faults_->mark_detected(fi, ctx.test_index);
        diffs_[fi].clear();
      } else if (!eval_detected_[fi]) {
        eval_detected_[fi] = 1;
        eval_detected_list_.push_back(fi);
      }
    }

    // 4. Capture faulty next-states at flip-flops; update diff lists and
    //    count definite fault effects at flip-flops.
    //    Candidate flip-flops: those whose data cone was touched, those in
    //    any member's old diff (so stale diffs get cleared), and those with
    //    a faulted data pin.
    std::vector<std::uint32_t> cand;
    for (std::uint32_t ord = 0; ord < c.dffs().size(); ++ord)
      if (ftouched_[c.gate(c.dffs()[ord]).fanins[0]]) cand.push_back(ord);
    for (unsigned lane = 0; lane < group.size(); ++lane)
      for (const FfDiff& d : diff_of(group[lane], ctx.commit))
        cand.push_back(d.first);
    for (std::uint32_t ord : dff_pin_ords) cand.push_back(ord);
    std::sort(cand.begin(), cand.end());
    cand.erase(std::unique(cand.begin(), cand.end()), cand.end());

    // New diff lists assembled per member.
    std::vector<std::vector<FfDiff>> new_diffs(group.size());
    for (std::uint32_t ord : cand) {
      const GateId ffnode = c.dffs()[ord];
      const GateId din = c.gate(ffnode).fanins[0];
      PackedVal next = fv(din);
      const auto pit = pin_inj.find(ffnode);
      if (pit != pin_inj.end())
        for (const PinInj& pj : pit->second)
          next.set_lane(pj.lane, pj.stuck ? Logic::One : Logic::Zero);
      const Logic good_next = val[din];
      const PackedVal goodb = PackedVal::broadcast(good_next);
      const std::uint64_t mism = next.mismatch(goodb);
      if (!mism) continue;
      const std::uint64_t strong = next.diff(goodb);
      for (unsigned lane = 0; lane < group.size(); ++lane) {
        const std::uint64_t m = 1ull << lane;
        if (!(mism & m)) continue;
        const bool detected_lane = (ctx.commit &&
                                    faults_->status(group[lane]) ==
                                        FaultStatus::Detected) ||
                                   (!ctx.commit && eval_detected_[group[lane]]);
        if (detected_lane) continue;  // fault dropped: state irrelevant
        new_diffs[lane].emplace_back(ord, next.lane(lane));
        if (strong & m) ++stats.fault_effects_at_ffs;
      }
    }
    for (unsigned lane = 0; lane < group.size(); ++lane) {
      const std::uint32_t fi = group[lane];
      const bool detected_lane =
          (ctx.commit && faults_->status(fi) == FaultStatus::Detected) ||
          (!ctx.commit && eval_detected_[fi]);
      if (detected_lane) continue;
      // Write even when empty: a previously-diverged machine may have
      // re-converged to the good machine.
      if (!diff_of(fi, ctx.commit).empty() || !new_diffs[lane].empty())
        write_diff(fi, std::move(new_diffs[lane]), ctx.commit);
    }

    // 5. Reset scratch for the next group.
    for (GateId g : touched_list_) ftouched_[g] = 0;
    touched_list_.clear();
    out_inj.clear();
    pin_inj.clear();
    dff_pin_ords.clear();
  };

  for (std::uint32_t fi : active) {
    if (ctx.commit && faults_->status(fi) != FaultStatus::Undetected) continue;
    if (!ctx.commit && eval_detected_[fi]) continue;
    if (!fault_is_active(fi, ctx)) continue;
    group.push_back(fi);
    if (group.size() == kFaultSimLanes) {
      run_group();
      group.clear();
    }
  }
  if (!group.empty()) {
    run_group();
    group.clear();
  }

  // Drop newly detected faults from the caller's active list so later frames
  // of a sequence skip them.
  if (!detected_now.empty()) {
    std::sort(detected_now.begin(), detected_now.end());
    std::erase_if(active, [&](std::uint32_t fi) {
      return std::binary_search(detected_now.begin(), detected_now.end(), fi);
    });
  }
}

}  // namespace gatest
