#include "fsim/fault_sim.h"

#include <algorithm>
#include <array>
#include <bit>
#include <stdexcept>

namespace gatest {

SequentialFaultSimulator::SequentialFaultSimulator(const Circuit& c,
                                                   FaultList& faults)
    : circuit_(&c), faults_(&faults), ops_(c.num_gates()) {
  if (!c.finalized())
    throw std::runtime_error("SequentialFaultSimulator: circuit not finalized");
  if (&faults.circuit() != &c)
    throw std::runtime_error(
        "SequentialFaultSimulator: fault list belongs to another circuit");

  std::size_t edges = 0;
  for (const Gate& g : c.gates()) edges += g.fanins.size();
  readers_.reserve(edges);
  comb_order_.reserve(c.num_gates());
  ff_din_.reserve(c.num_dffs());
  gates_.resize(c.num_gates());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    FlatGate& fg = gates_[id];
    fg.type = g.type;
    fg.level = g.level;
    ops_.add(g.type, g.fanins);
    fg.reader_begin = static_cast<std::uint32_t>(readers_.size());
    for (GateId out : g.fanouts)
      if (!is_combinational_source(c.gate(out).type)) readers_.push_back(out);
    fg.num_readers =
        static_cast<std::uint32_t>(readers_.size()) - fg.reader_begin;
    // Constant nets hold their value from the start: the settle loops skip
    // combinational sources, so an all-X reset would otherwise leave them at
    // X forever and every reader would see spurious (X-vs-binary) deviations.
    if (g.type == GateType::Const0 || g.type == GateType::Const1)
      const_nets_.push_back(id);
  }
  for (GateId id : c.topo_order())
    if (!is_combinational_source(gates_[id].type)) comb_order_.push_back(id);
  ff_ordinal_.assign(c.num_gates(), ~0u);
  for (std::uint32_t i = 0; i < c.dffs().size(); ++i) {
    ff_ordinal_[c.dffs()[i]] = i;
    ff_din_.push_back(c.gate(c.dffs()[i]).fanins[0]);
  }

  fault_site_.reserve(faults.size());
  fault_kind_.reserve(faults.size());
  for (const Fault& f : faults.faults()) {
    if (f.pin == Fault::kOutputPin) {
      fault_site_.push_back(f.gate);
    } else if (f.model != FaultModel::StuckAt) {
      throw std::runtime_error(
          "SequentialFaultSimulator: transition faults are modeled on stems "
          "only");
    } else {
      fault_site_.push_back(c.gate(f.gate).fanins[f.pin]);
    }
    switch (f.model) {
      case FaultModel::StuckAt:
        fault_kind_.push_back(f.stuck ? Injection::Stuck1 : Injection::Stuck0);
        break;
      case FaultModel::SlowToRise:
        fault_kind_.push_back(Injection::SlowToRise);
        break;
      case FaultModel::SlowToFall:
        fault_kind_.push_back(Injection::SlowToFall);
        break;
    }
  }
  diffs_.resize(faults.size());
  diverged_.assign(faults.size(), 0);
  good_val_.assign(c.num_gates(), Logic::X);
  seed_const_nets(good_val_);
  prev_val_ = good_val_;
}

void SequentialFaultSimulator::seed_const_nets(std::vector<Logic>& val) const {
  for (GateId id : const_nets_)
    val[id] = gates_[id].type == GateType::Const0 ? Logic::Zero : Logic::One;
}

void SequentialFaultSimulator::reset() {
  good_val_.assign(circuit_->num_gates(), Logic::X);
  seed_const_nets(good_val_);
  prev_val_ = good_val_;
  for (auto& d : diffs_) d.clear();
  std::fill(diverged_.begin(), diverged_.end(), 0);
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
  return s;
}

void SequentialFaultSimulator::restore(const FaultSimSnapshot& s) {
  if (s.good_values.size() != good_val_.size() ||
      s.prev_values.size() != prev_val_.size() ||
      s.diffs.size() != diffs_.size() ||
      s.status.size() != faults_->size() ||
      s.detected_by.size() != faults_->size())
    throw std::runtime_error("restore: snapshot shape mismatch");
  good_val_ = s.good_values;
  prev_val_ = s.prev_values;
  diffs_ = s.diffs;
  for (std::size_t i = 0; i < diffs_.size(); ++i)
    diverged_[i] = !diffs_[i].empty();
  faults_->import_status(s.status, s.detected_by);
}

const std::vector<SequentialFaultSimulator::FfDiff>&
SequentialFaultSimulator::diff_of(std::uint32_t fi,
                                  const EvalContext& ctx) const {
  if (!ctx.commit() && ctx.s->scratch_dirty_[fi])
    return ctx.s->scratch_diffs_[fi];
  return diffs_[fi];
}

void SequentialFaultSimulator::write_diff(std::uint32_t fi,
                                          const std::vector<FfDiff>& d,
                                          const EvalContext& ctx) {
  // Copy-assignment reuses the destination's capacity.
  if (ctx.commit()) {
    (*ctx.committed_diffs)[fi] = d;
  } else {
    ctx.s->scratch_diffs_[fi] = d;
    if (!ctx.s->scratch_dirty_[fi]) {
      ctx.s->scratch_dirty_[fi] = 1;
      ctx.s->scratch_dirty_list_.push_back(fi);
    }
  }
  ctx.diverged[fi] = !d.empty();
}

void SequentialFaultSimulator::fit_frame_buffers(FaultSimScratch& s) const {
  const std::size_t n = gates_.size();
  if (s.fval_.size() == ops_.num_words() &&
      s.ff_mark_.size() == ff_din_.size() &&
      s.flevel_queue_.size() == circuit_->num_levels())
    return;
  s.gval_.assign(ops_.num_words(), PackedVal{});
  ops_.seed_identity_words(s.gval_);
  s.fval_ = s.gval_;
  s.ftouched_.assign(n, 0);
  s.fqueued_.assign(n, 0);
  s.flevel_queue_.assign(circuit_->num_levels(), {});
  s.inj_flags_.assign(n, 0);
  s.out_inj_.assign(n, {});
  s.pin_head_.assign(n, FaultSimScratch::kNoPinInj);
  s.ff_mark_.assign(ff_din_.size(), 0);
  s.new_diffs_.assign(kFaultSimLanes, {});
}

void SequentialFaultSimulator::prepare(FaultSimScratch& s) const {
  for (std::uint32_t fi : s.scratch_dirty_list_) s.scratch_dirty_[fi] = 0;
  s.scratch_dirty_list_.clear();
  for (std::uint32_t fi : s.eval_detected_list_) s.eval_detected_[fi] = 0;
  s.eval_detected_list_.clear();
  fit_frame_buffers(s);
  const std::size_t nf = faults_->size();
  if (s.scratch_dirty_.size() != nf) {
    s.scratch_diffs_.assign(nf, {});
    s.scratch_dirty_.assign(nf, 0);
    s.eval_detected_.assign(nf, 0);
  }
  s.diverged_ = diverged_;
}

/// Value the faulty machine sees on the faulted line this frame, given the
/// fault-free current and previous-frame values of that line.
///   stuck-at:      the stuck constant;
///   slow-to-rise:  the line shows 1 only if it was already 1 (AND);
///   slow-to-fall:  the line shows 0 only if it was already 0 (OR).
constexpr Logic SequentialFaultSimulator::forced_value(Injection kind,
                                                       Logic cur, Logic prev) {
  switch (kind) {
    case Injection::Stuck0:     return Logic::Zero;
    case Injection::Stuck1:     return Logic::One;
    case Injection::SlowToRise: return logic_and(cur, prev);
    case Injection::SlowToFall: return logic_or(cur, prev);
  }
  return Logic::X;
}

FaultSimStats SequentialFaultSimulator::apply_vector(const TestVector& v,
                                                     std::int64_t test_index) {
  fit_frame_buffers(commit_scratch_);
  const EvalContext ctx{.s = &commit_scratch_, .val = &good_val_,
                        .prev = &prev_val_, .committed_diffs = &diffs_,
                        .diverged = diverged_.data(),
                        .test_index = test_index};
  ++commit_scratch_.counters_.vectors_committed;
  faults_->undetected_indices(commit_scratch_.active_);
  const FaultSimStats stats = simulate_frame(v, ctx);
  commit_scratch_.counters_.faults_dropped += stats.detected;
  return stats;
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
}

FaultSimStats SequentialFaultSimulator::evaluate_vector(
    const TestVector& v, FaultSimScratch& scratch,
    std::span<const std::uint32_t> fault_subset) const {
  return evaluate_sequence(std::span<const TestVector>(&v, 1), scratch,
                           fault_subset);
}

FaultSimStats SequentialFaultSimulator::evaluate_sequence(
    std::span<const TestVector> seq, FaultSimScratch& scratch,
    std::span<const std::uint32_t> fault_subset) const {
  ++scratch.counters_.candidate_evaluations;
  prepare(scratch);
  scratch.eval_val_ = good_val_;
  scratch.eval_prev_val_ = prev_val_;
  EvalContext ctx{.s = &scratch, .val = &scratch.eval_val_,
                  .prev = &scratch.eval_prev_val_,
                  .diverged = scratch.diverged_.data()};

  std::vector<std::uint32_t>& active = scratch.active_;
  if (fault_subset.empty()) {
    faults_->undetected_indices(active);
  } else {
    ctx.full_universe = false;
    active.clear();
    for (std::uint32_t fi : fault_subset)
      if (faults_->status(fi) == FaultStatus::Undetected) active.push_back(fi);
  }

  FaultSimStats total;
  for (const TestVector& v : seq) total.accumulate(simulate_frame(v, ctx));
  return total;
}

FaultSimStats SequentialFaultSimulator::evaluate_vector_good_only(
    const TestVector& v, FaultSimScratch& scratch) const {
  if (v.size() != circuit_->num_inputs())
    throw std::runtime_error("evaluate_vector_good_only: wrong input count");
  ++scratch.counters_.candidate_evaluations;
  ++scratch.counters_.frames_simulated;
  fit_frame_buffers(scratch);
  scratch.eval_val_ = good_val_;
  const EvalContext ctx{.s = &scratch, .val = &scratch.eval_val_};
  FaultSimStats stats;
  settle_good(v, ctx, stats);
  latch_good(ctx, stats);
  return stats;
}

FaultSimStats SequentialFaultSimulator::simulate_frame(
    const TestVector& v, const EvalContext& ctx) const {
  if (v.size() != circuit_->num_inputs())
    throw std::runtime_error("simulate_frame: wrong input count");
  FaultSimStats stats;
  // Faults pruned from the universe (proven inert) contribute nothing to any
  // observable, so counting them keeps every fitness denominator — and hence
  // the GA trajectory — bit-identical with pruning on or off.
  stats.faults_simulated =
      static_cast<unsigned>(ctx.s->active_.size()) +
      (ctx.full_universe ? static_cast<unsigned>(faults_->num_pruned()) : 0u);
  settle_good(v, ctx, stats);
  simulate_fault_groups(ctx, stats);
  // Keep this frame's pre-latch values as the next frame's transition-fault
  // launch reference (flip-flop entries = the state seen DURING this frame,
  // so clock-edge transitions on flop outputs count as transitions).
  *ctx.prev = *ctx.val;
  latch_good(ctx, stats);
  ++ctx.s->counters_.frames_simulated;
  ctx.s->counters_.good_events += stats.good_events;
  ctx.s->counters_.faulty_events += stats.faulty_events;
  return stats;
}

void SequentialFaultSimulator::settle_good(const TestVector& v,
                                           const EvalContext& ctx,
                                           FaultSimStats& stats) const {
  const Circuit& c = *circuit_;
  Logic* val = ctx.val->data();
  PackedVal* gval = ctx.s->gval_.data();
  std::uint64_t events = 0;
  const auto& inputs = c.inputs();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    events += val[inputs[i]] != v[i];
    val[inputs[i]] = v[i];
    gval[inputs[i]] = PackedVal::broadcast(v[i]);
  }
  for (GateId ff : c.dffs()) gval[ff] = PackedVal::broadcast(val[ff]);
  for (GateId id : const_nets_) gval[id] = PackedVal::broadcast(val[id]);
  // Every gate, every frame, with no branch: every lane of a broadcast word
  // evaluates the same scalar gate, so lane 0 of the result is the scalar
  // value, and an event is a scalar value that changed.
  for (GateId id : comb_order_) {
    const PackedVal nv = ops_.eval(id, gval);
    gval[id] = nv;
    const Logic lv = nv.lane(0);
    events += val[id] != lv;
    val[id] = lv;
  }
  stats.good_events += events;
}

void SequentialFaultSimulator::latch_good(const EvalContext& ctx,
                                          FaultSimStats& stats) const {
  const Circuit& c = *circuit_;
  std::vector<Logic>& val = *ctx.val;
  std::vector<Logic>& next_state = ctx.s->latch_scratch_;
  next_state.clear();
  for (GateId din : ff_din_) next_state.push_back(val[din]);
  for (std::size_t i = 0; i < c.dffs().size(); ++i) {
    const GateId ff = c.dffs()[i];
    const Logic next = next_state[i];
    if (val[ff] != next) {
      ++stats.good_events;
      if (is_binary(next)) ++stats.ffs_changed;
    }
    val[ff] = next;
    if (is_binary(next)) ++stats.ffs_set;
  }
}

void SequentialFaultSimulator::simulate_fault_groups(
    const EvalContext& ctx, FaultSimStats& stats) const {
  // PROOFS' activity check as a table: 1 where a fault whose machine has
  // not diverged can still deviate this frame, indexed by (injection kind,
  // good value, previous good value) of its line.  No deviation is possible
  // when the forced value provably equals a binary good value; X on either
  // side might deviate.
  static constexpr std::array<std::uint8_t, 64> kExcites = [] {
    std::array<std::uint8_t, 64> t{};
    for (unsigned kind = 0; kind < 4; ++kind)
      for (unsigned good = 0; good < 3; ++good)
        for (unsigned prev = 0; prev < 3; ++prev) {
          const Logic g = static_cast<Logic>(good);
          t[kind << 4 | good << 2 | prev] =
              !(is_binary(g) && forced_value(static_cast<Injection>(kind), g,
                                             static_cast<Logic>(prev)) == g);
        }
    return t;
  }();
  FaultSimScratch& s = *ctx.s;
  const Logic* val = ctx.val->data();
  const Logic* prev = ctx.prev->data();

  // Every group starts from the good frame.
  std::copy(s.gval_.begin(), s.gval_.end(), s.fval_.begin());

  // Compact the faults that can deviate into the frame list without a
  // branch (each is written, and kept if active), then settle them in
  // groups of kFaultSimLanes in active-list order.  active_ holds no
  // detected fault: each frame erases its detections below.
  s.frame_.resize(s.active_.size());
  std::uint32_t* frame = s.frame_.data();
  std::size_t n = 0;
  for (const std::uint32_t fi : s.active_) {
    const GateId site = fault_site_[fi];
    const unsigned key = static_cast<unsigned>(fault_kind_[fi]) << 4 |
                         static_cast<unsigned>(val[site]) << 2 |
                         static_cast<unsigned>(prev[site]);
    frame[n] = fi;
    n += ctx.diverged[fi] | kExcites[key];
  }
  std::uint64_t detected = 0;
  for (std::size_t b = 0; b < n; b += kFaultSimLanes)
    detected |= settle_group(
        {frame + b, std::min<std::size_t>(kFaultSimLanes, n - b)}, ctx, stats);

  // Drop newly detected faults from the active list so later frames of a
  // sequence skip them.
  if (detected)
    std::erase_if(s.active_, [&](std::uint32_t fi) {
      return ctx.commit() ? faults_->status(fi) != FaultStatus::Undetected
                          : s.eval_detected_[fi] != 0;
    });
}

std::uint64_t SequentialFaultSimulator::settle_group(
    std::span<const std::uint32_t> group, const EvalContext& ctx,
    FaultSimStats& stats) const {
  const Circuit& c = *circuit_;
  const std::vector<Logic>& val = *ctx.val;  // settled good frame, pre-latch
  const std::vector<Logic>& prev = *ctx.prev;
  FaultSimScratch& s = *ctx.s;
  constexpr std::uint8_t kOut = FaultSimScratch::kOutInjFlag;
  constexpr std::uint8_t kPin = FaultSimScratch::kPinInjFlag;
  ++s.counters_.fault_groups;
  s.counters_.fault_group_lanes += group.size();

  // Faulty value of a net: equal to the good word until a faulty machine
  // touches it.
  auto fv = [&](GateId g) { return s.fval_[g]; };

  auto schedule = [&](GateId g) {
    if (s.fqueued_[g]) return;
    s.fqueued_[g] = 1;
    s.flevel_queue_[gates_[g].level].push_back(g);
  };

  auto touch_write = [&](GateId g, PackedVal nv, bool count) {
    const std::uint64_t changed = fv(g).mismatch(nv);
    if (!changed) return;
    if (count)
      stats.faulty_events += static_cast<std::uint64_t>(std::popcount(changed));
    s.fval_[g] = nv;
    if (!s.ftouched_[g]) {
      s.ftouched_[g] = 1;
      s.touched_list_.push_back(g);
    }
    const FlatGate& fg = gates_[g];
    for (std::uint32_t k = 0; k < fg.num_readers; ++k)
      schedule(readers_[fg.reader_begin + k]);
  };

  auto mark_injected = [&](GateId g, std::uint8_t flag) {
    if (!s.inj_flags_[g]) s.inj_gates_.push_back(g);
    s.inj_flags_[g] |= flag;
  };

  // `pv`, the value input `pin` of gate g reads, with this group's stuck
  // lanes on that pin forced (only for gates whose kPin flag is set).
  auto inject_pins = [&](GateId g, std::size_t pin, PackedVal pv) {
    for (std::uint32_t k = s.pin_head_[g]; k != FaultSimScratch::kNoPinInj;
         k = s.pin_inj_[k].next) {
      const FaultSimScratch::PinInj& pj = s.pin_inj_[k];
      if (static_cast<std::size_t>(pj.pin) == pin)
        pv.set_lane(pj.lane, pj.stuck ? Logic::One : Logic::Zero);
    }
    return pv;
  };

  // 1. Seed faulty machines: state diffs, then injections.  Flip-flops in a
  //    member's diff are capture candidates, so stale diffs get cleared.
  for (unsigned lane = 0; lane < group.size(); ++lane) {
    for (const FfDiff& d : diff_of(group[lane], ctx)) {
      const GateId ffnode = c.dffs()[d.first];
      PackedVal pv = fv(ffnode);
      pv.set_lane(lane, d.second);
      touch_write(ffnode, pv, /*count=*/false);
      s.ff_mark_[d.first] = 1;
    }
  }
  for (unsigned lane = 0; lane < group.size(); ++lane) {
    const std::uint32_t fi = group[lane];
    const Fault& f = faults_->fault(fi);
    if (f.pin == Fault::kOutputPin) {
      const Logic forced =
          forced_value(fault_kind_[fi], val[f.gate], prev[f.gate]);
      if (!(s.inj_flags_[f.gate] & kOut)) s.out_inj_[f.gate] = {};
      mark_injected(f.gate, kOut);
      FaultSimScratch::OutInj& oi = s.out_inj_[f.gate];
      switch (forced) {
        case Logic::Zero: oi.force0 |= 1ull << lane; break;
        case Logic::One:  oi.force1 |= 1ull << lane; break;
        case Logic::X:    oi.forceX |= 1ull << lane; break;
      }
      PackedVal pv = fv(f.gate);
      pv.set_lane(lane, forced);
      touch_write(f.gate, pv, /*count=*/false);
    } else {
      const std::uint32_t next = (s.inj_flags_[f.gate] & kPin)
                                     ? s.pin_head_[f.gate]
                                     : FaultSimScratch::kNoPinInj;
      s.pin_head_[f.gate] = static_cast<std::uint32_t>(s.pin_inj_.size());
      s.pin_inj_.push_back({f.pin, static_cast<std::uint8_t>(lane), f.stuck,
                            next});
      mark_injected(f.gate, kPin);
      // A flip-flop's stuck data pin acts at the latch only.
      if (gates_[f.gate].type == GateType::Dff)
        s.ff_mark_[ff_ordinal_[f.gate]] = 1;
      else
        schedule(f.gate);
    }
  }

  // 2. Event-driven settle by level.
  for (std::vector<GateId>& q : s.flevel_queue_) {
    for (std::size_t qi = 0; qi < q.size(); ++qi) {
      const GateId id = q[qi];
      s.fqueued_[id] = 0;
      const std::uint8_t flags = s.inj_flags_[id];
      PackedVal nv =
          (flags & kPin)
              ? ops_.eval(id,
                          [&](std::size_t pin, std::uint32_t w) {
                            return inject_pins(id, pin, s.fval_[w]);
                          })
              : ops_.eval(id, s.fval_.data());
      if (flags & kOut) {
        const FaultSimScratch::OutInj& oi = s.out_inj_[id];
        nv.zero = (nv.zero & ~(oi.force1 | oi.forceX)) | oi.force0;
        nv.one = (nv.one & ~(oi.force0 | oi.forceX)) | oi.force1;
      }
      touch_write(id, nv, /*count=*/true);
    }
    q.clear();
  }

  // 3. Detection at primary outputs (definite binary differences only).
  std::uint64_t det_mask = 0;
  for (GateId po : c.outputs()) det_mask |= s.fval_[po].diff(s.gval_[po]);

  for (unsigned lane = 0; lane < group.size(); ++lane) {
    if (!(det_mask & (1ull << lane))) continue;
    const std::uint32_t fi = group[lane];
    ++stats.detected;
    if (ctx.commit()) {
      faults_->mark_detected(fi, ctx.test_index);
      (*ctx.committed_diffs)[fi].clear();
      ctx.diverged[fi] = 0;
    } else if (!s.eval_detected_[fi]) {
      s.eval_detected_[fi] = 1;
      s.eval_detected_list_.push_back(fi);
    }
  }

  // 4. Capture faulty next-states at flip-flops, in ordinal order, and count
  //    definite fault effects there.  Candidates: flip-flops whose data cone
  //    was touched, and those marked in step 1.  Detected lanes are dropped:
  //    their state no longer matters.
  for (std::uint32_t ord = 0; ord < ff_din_.size(); ++ord) {
    const GateId din = ff_din_[ord];
    if (!s.ff_mark_[ord] && !s.ftouched_[din]) continue;
    s.ff_mark_[ord] = 0;
    const GateId ffnode = c.dffs()[ord];
    PackedVal next = fv(din);
    if (s.inj_flags_[ffnode] & kPin) next = inject_pins(ffnode, 0, next);
    const PackedVal good = s.gval_[din];
    const std::uint64_t strong = next.diff(good);
    for (std::uint64_t m = next.mismatch(good) & ~det_mask; m; m &= m - 1) {
      const unsigned lane = static_cast<unsigned>(std::countr_zero(m));
      s.new_diffs_[lane].emplace_back(ord, next.lane(lane));
      if (strong & (1ull << lane)) ++stats.fault_effects_at_ffs;
    }
  }
  for (unsigned lane = 0; lane < group.size(); ++lane) {
    if (det_mask & (1ull << lane)) continue;
    const std::uint32_t fi = group[lane];
    std::vector<FfDiff>& nd = s.new_diffs_[lane];
    // Write even when empty: a previously-diverged machine may have
    // re-converged to the good machine.
    if (ctx.diverged[fi] || !nd.empty()) write_diff(fi, nd, ctx);
    nd.clear();
  }

  // 5. Reset scratch for the next group.
  for (GateId g : s.touched_list_) {
    s.ftouched_[g] = 0;
    s.fval_[g] = s.gval_[g];
  }
  s.touched_list_.clear();
  for (GateId g : s.inj_gates_) s.inj_flags_[g] = 0;
  s.inj_gates_.clear();
  s.pin_inj_.clear();
  return det_mask;
}

}  // namespace gatest
