#include "sim/parallel_sim.h"

#include <bit>
#include <stdexcept>

namespace gatest {

ParallelLogicSim::ParallelLogicSim(const Circuit& c)
    : circuit_(&c), ops_(c.num_gates()) {
  if (!c.finalized())
    throw std::runtime_error("ParallelLogicSim: circuit not finalized");
  for (const Gate& g : c.gates()) ops_.add(g.type, g.fanins);
  level_queue_.resize(c.num_levels());
  lane_events_.assign(64, 0);
  reset();
}

void ParallelLogicSim::reset() {
  values_.assign(ops_.num_words(), PackedVal{});
  ops_.seed_identity_words(values_);
  // Constant nets hold their value from the start: the settle loop skips
  // combinational sources, so an all-X reset would otherwise leave CONST0 /
  // CONST1 nodes at X forever.
  for (GateId id = 0; id < circuit_->num_gates(); ++id)
    if (circuit_->gate(id).type == GateType::Const0 ||
        circuit_->gate(id).type == GateType::Const1)
      values_[id] = ops_.eval(id, values_.data());
  for (auto& q : level_queue_) q.clear();
  queued_.assign(circuit_->num_gates(), false);
  first_step_ = true;
}

void ParallelLogicSim::reset_event_counts() {
  lane_events_.assign(64, 0);
}

void ParallelLogicSim::set_ff_state_all(const std::vector<Logic>& ffs) {
  const auto& dffs = circuit_->dffs();
  if (ffs.size() != dffs.size())
    throw std::runtime_error("set_ff_state_all: wrong flip-flop count");
  for (std::size_t i = 0; i < dffs.size(); ++i)
    write_value(dffs[i], PackedVal::broadcast(ffs[i]), /*count_events=*/false);
}

void ParallelLogicSim::set_ff_state_lane(unsigned lane,
                                         const std::vector<Logic>& ffs) {
  const auto& dffs = circuit_->dffs();
  if (ffs.size() != dffs.size())
    throw std::runtime_error("set_ff_state_lane: wrong flip-flop count");
  for (std::size_t i = 0; i < dffs.size(); ++i) {
    PackedVal v = values_[dffs[i]];
    v.set_lane(lane, ffs[i]);
    write_value(dffs[i], v, /*count_events=*/false);
  }
}

std::vector<Logic> ParallelLogicSim::ff_state_lane(unsigned lane) const {
  const auto& dffs = circuit_->dffs();
  std::vector<Logic> out(dffs.size());
  for (std::size_t i = 0; i < dffs.size(); ++i)
    out[i] = values_[dffs[i]].lane(lane);
  return out;
}

LogicSimStats ParallelLogicSim::step_broadcast(const TestVector& pis) {
  const auto& inputs = circuit_->inputs();
  if (pis.size() != inputs.size())
    throw std::runtime_error("step_broadcast: wrong input count");
  step_events_ = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    write_value(inputs[i], PackedVal::broadcast(pis[i]), true);
  return settle_and_latch();
}

LogicSimStats ParallelLogicSim::step_per_lane(
    const std::vector<TestVector>& vectors) {
  const auto& inputs = circuit_->inputs();
  if (vectors.size() > 64)
    throw std::runtime_error("step_per_lane: more than 64 lanes");
  step_events_ = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    PackedVal v{};
    for (unsigned lane = 0; lane < vectors.size(); ++lane) {
      if (vectors[lane].size() != inputs.size())
        throw std::runtime_error("step_per_lane: wrong input count");
      v.set_lane(lane, vectors[lane][i]);
    }
    write_value(inputs[i], v, true);
  }
  return settle_and_latch();
}

LogicSimStats ParallelLogicSim::step_packed(
    const std::vector<PackedVal>& pi_vals) {
  const auto& inputs = circuit_->inputs();
  if (pi_vals.size() != inputs.size())
    throw std::runtime_error("step_packed: wrong input count");
  step_events_ = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    write_value(inputs[i], pi_vals[i], true);
  return settle_and_latch();
}

std::vector<Logic> ParallelLogicSim::outputs_lane(unsigned lane) const {
  const auto& pos = circuit_->outputs();
  std::vector<Logic> out(pos.size());
  for (std::size_t i = 0; i < pos.size(); ++i)
    out[i] = values_[pos[i]].lane(lane);
  return out;
}

unsigned ParallelLogicSim::ffs_set_lane(unsigned lane) const {
  unsigned n = 0;
  const std::uint64_t m = 1ull << lane;
  for (GateId ff : circuit_->dffs())
    if (values_[ff].known() & m) ++n;
  return n;
}

void ParallelLogicSim::schedule(GateId id) {
  if (queued_[id]) return;
  queued_[id] = true;
  level_queue_[circuit_->gate(id).level].push_back(id);
}

void ParallelLogicSim::write_value(GateId id, PackedVal v, bool count_events) {
  const std::uint64_t changed = values_[id].mismatch(v);
  if (changed == 0) return;
  values_[id] = v;
  if (count_events) {
    const auto n = static_cast<std::uint64_t>(std::popcount(changed));
    step_events_ += n;
    std::uint64_t m = changed;
    while (m) {
      lane_events_[std::countr_zero(m)] += 1;
      m &= m - 1;
    }
  }
  for (GateId out : circuit_->gate(id).fanouts)
    if (!is_combinational_source(circuit_->gate(out).type)) schedule(out);
}

LogicSimStats ParallelLogicSim::settle_and_latch() {
  const Circuit& c = *circuit_;

  if (first_step_) {
    // Everything is uninitialized: evaluate the whole combinational network.
    for (GateId id : c.topo_order())
      if (!is_combinational_source(c.gate(id).type)) schedule(id);
    first_step_ = false;
  }

  // Settle: levels ascending; newly scheduled gates always land at higher
  // levels than the one being processed.
  for (std::size_t lvl = 0; lvl < level_queue_.size(); ++lvl) {
    auto& q = level_queue_[lvl];
    for (std::size_t qi = 0; qi < q.size(); ++qi) {
      const GateId id = q[qi];
      queued_[id] = false;
      write_value(id, ops_.eval(id, values_.data()), true);
    }
    q.clear();
  }

  // Latch: flip-flop outputs take their data-input values; fanouts of any
  // flop that changed are scheduled for the next frame's settle.  All next
  // values are read before any is written so that flop-to-flop chains latch
  // simultaneously.
  latch_scratch_.clear();
  for (GateId ff : c.dffs())
    latch_scratch_.push_back(values_[c.gate(ff).fanins[0]]);
  for (std::size_t i = 0; i < c.dffs().size(); ++i)
    write_value(c.dffs()[i], latch_scratch_[i], true);

  return LogicSimStats{step_events_};
}

}  // namespace gatest
