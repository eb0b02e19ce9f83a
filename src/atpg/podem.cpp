#include "atpg/podem.h"

#include <algorithm>
#include <stdexcept>

#include "sim/packed.h"

namespace gatest {

TimeFramePodem::TimeFramePodem(const Circuit& c, unsigned max_frames,
                               unsigned backtrack_limit)
    : circuit_(&c),
      frames_(std::max(1u, max_frames)),
      backtrack_limit_(backtrack_limit) {
  if (!c.finalized())
    throw std::runtime_error("TimeFramePodem: circuit not finalized");
  scoap_ = compute_scoap(c);
  val_.resize(static_cast<std::size_t>(frames_) * c.num_gates());
  pi_assign_.resize(static_cast<std::size_t>(frames_) * c.num_inputs());
}

Logic TimeFramePodem::site_good(const Fault& f, std::uint32_t frame) const {
  const GateId site = f.pin == Fault::kOutputPin
                          ? f.gate
                          : circuit_->gate(f.gate).fanins[f.pin];
  return val_[idx(frame, site)].good;
}

DVal TimeFramePodem::eval_gate(const Fault& f, std::uint32_t frame,
                               GateId g) const {
  const Gate& gate = circuit_->gate(g);
  // A pin fault on this gate is injected into the faulty side of its view.
  const bool pin_fault = f.pin != Fault::kOutputPin && f.gate == g;
  const auto good = [&](std::size_t i) {
    return val_[idx(frame, gate.fanins[i])].good;
  };
  const auto faulty = [&](std::size_t i) {
    if (pin_fault && static_cast<std::size_t>(f.pin) == i)
      return f.stuck ? Logic::One : Logic::Zero;
    return val_[idx(frame, gate.fanins[i])].faulty;
  };
  DVal out{eval_logic_gate(gate.type, gate.fanins.size(), good),
           eval_logic_gate(gate.type, gate.fanins.size(), faulty)};
  // An output fault forces the faulty side of this net in every frame.
  if (f.pin == Fault::kOutputPin && f.gate == g)
    out.faulty = f.stuck ? Logic::One : Logic::Zero;
  return out;
}

void TimeFramePodem::resimulate(const Fault& f, std::uint32_t from_frame) {
  const Circuit& c = *circuit_;
  // A primary-input assignment in frame t can only influence frames >= t,
  // so the window is resimulated incrementally from the dirty frame.
  for (std::uint32_t t = from_frame; t < frames_; ++t) {
    // Sources: primary inputs and flip-flop outputs.
    for (std::size_t i = 0; i < c.num_inputs(); ++i) {
      const Logic a = pi_assign_[t * c.num_inputs() + i];
      DVal v{a, a};
      const GateId pi = c.inputs()[i];
      if (f.pin == Fault::kOutputPin && f.gate == pi)
        v.faulty = f.stuck ? Logic::One : Logic::Zero;
      val_[idx(t, pi)] = v;
    }
    for (GateId g = 0; g < c.num_gates(); ++g) {
      const GateType ty = c.gate(g).type;
      if (ty != GateType::Const0 && ty != GateType::Const1) continue;
      const Logic cv = ty == GateType::Const0 ? Logic::Zero : Logic::One;
      DVal v{cv, cv};
      if (f.pin == Fault::kOutputPin && f.gate == g)
        v.faulty = f.stuck ? Logic::One : Logic::Zero;
      val_[idx(t, g)] = v;
    }
    for (GateId ff : c.dffs()) {
      DVal v;
      if (t == 0) {
        v = DVal{Logic::X, Logic::X};
      } else {
        v = val_[idx(t - 1, c.gate(ff).fanins[0])];
        // A stuck data pin is latched every frame.
        if (f.pin != Fault::kOutputPin && f.gate == ff)
          v.faulty = f.stuck ? Logic::One : Logic::Zero;
      }
      // A stuck flip-flop output forces the state in every frame.
      if (f.pin == Fault::kOutputPin && f.gate == ff)
        v.faulty = f.stuck ? Logic::One : Logic::Zero;
      val_[idx(t, ff)] = v;
    }
    for (GateId g : c.topo_order()) {
      if (is_combinational_source(c.gate(g).type)) continue;
      val_[idx(t, g)] = eval_gate(f, t, g);
    }
  }
}

bool TimeFramePodem::detected() const {
  for (std::uint32_t t = 0; t < frames_; ++t)
    for (GateId po : circuit_->outputs())
      if (val_[idx(t, po)].is_d()) {
        detect_frame_ = t;
        return true;
      }
  return false;
}

bool TimeFramePodem::any_d() const {
  for (std::uint32_t t = 0; t < frames_; ++t)
    for (GateId g = 0; g < circuit_->num_gates(); ++g)
      if (val_[idx(t, g)].is_d()) return true;
  return false;
}

bool TimeFramePodem::has_x_path() const {
  const Circuit& c = *circuit_;
  xpath_visited_.assign(val_.size(), 0);
  xpath_queue_.clear();

  auto passable = [&](std::uint32_t t, GateId g) {
    const DVal v = val_[idx(t, g)];
    if (v.is_d()) return true;  // effect already here
    // Blocked: both machines settled to the same binary value.
    return !(is_binary(v.good) && is_binary(v.faulty) && v.good == v.faulty);
  };

  for (std::uint32_t t = 0; t < frames_; ++t)
    for (GateId g = 0; g < c.num_gates(); ++g)
      if (val_[idx(t, g)].is_d()) {
        xpath_visited_[idx(t, g)] = 1;
        xpath_queue_.emplace_back(t, g);
      }

  const auto& outs = c.outputs();
  while (!xpath_queue_.empty()) {
    const auto [t, g] = xpath_queue_.back();
    xpath_queue_.pop_back();
    if (std::find(outs.begin(), outs.end(), g) != outs.end()) return true;
    for (GateId o : c.gate(g).fanouts) {
      if (c.gate(o).type == GateType::Dff) {
        // The effect crosses into the next frame through the flop.
        if (t + 1 < frames_ && !xpath_visited_[idx(t + 1, o)] &&
            passable(t + 1, o)) {
          xpath_visited_[idx(t + 1, o)] = 1;
          xpath_queue_.emplace_back(t + 1, o);
        }
        continue;
      }
      if (!xpath_visited_[idx(t, o)] && passable(t, o)) {
        xpath_visited_[idx(t, o)] = 1;
        xpath_queue_.emplace_back(t, o);
      }
    }
  }
  return false;
}

void TimeFramePodem::collect_objectives(const Fault& f,
                                        std::vector<Objective>& out) const {
  const Circuit& c = *circuit_;
  const Logic activate = f.stuck ? Logic::Zero : Logic::One;
  const GateId site = f.pin == Fault::kOutputPin
                          ? f.gate
                          : c.gate(f.gate).fanins[f.pin];
  out.clear();

  if (!any_d()) {
    for (std::uint32_t t = 0; t < frames_; ++t) {
      const Logic g = site_good(f, t);
      if (g == Logic::X) {
        // Activation objective: drive the faulted line to the non-stuck
        // value (every frame where it is still X is a candidate; later
        // frames matter when the early ones cannot be justified).
        out.push_back(Objective{site, t, activate});
        continue;
      }
      if (g == activate && f.pin != Fault::kOutputPin) {
        // A pin fault is activated but blocked inside its gate (an output
        // fault would already show a D): request a non-controlling value on
        // an X side-input of the faulted gate.
        const Gate& gate = c.gate(f.gate);
        if (gate.type == GateType::Dff) continue;  // latched next frame
        const int cv = controlling_value(gate.type);
        for (std::size_t p = 0; p < gate.fanins.size(); ++p) {
          if (static_cast<std::int16_t>(p) == f.pin) continue;
          if (val_[idx(t, gate.fanins[p])].good != Logic::X) continue;
          const Logic want = cv >= 0 ? (cv == 0 ? Logic::One : Logic::Zero)
                                     : Logic::Zero;
          out.push_back(Objective{gate.fanins[p], t, want});
        }
      }
    }
    return;
  }

  // Propagation: every (D-frontier gate, X input) pair is a candidate,
  // earliest frame / topological order first.
  for (std::uint32_t t = 0; t < frames_; ++t) {
    for (GateId g : c.topo_order()) {
      const Gate& gate = c.gate(g);
      if (is_combinational_source(gate.type)) continue;
      const DVal o = val_[idx(t, g)];
      if (o.is_d()) continue;
      if (is_binary(o.good) && is_binary(o.faulty) && o.good == o.faulty)
        continue;  // blocked
      bool has_d = false;
      for (GateId fi : gate.fanins)
        if (val_[idx(t, fi)].is_d()) { has_d = true; break; }
      if (!has_d) continue;
      const int cv = controlling_value(gate.type);
      for (GateId fi : gate.fanins) {
        const DVal v = val_[idx(t, fi)];
        if (v.good == Logic::X || v.faulty == Logic::X) {
          const Logic want = cv >= 0 ? (cv == 0 ? Logic::One : Logic::Zero)
                                     : Logic::Zero;
          out.push_back(Objective{fi, t, want});
        }
      }
    }
  }
}

bool TimeFramePodem::backtrace(const Objective& obj, std::uint32_t& frame,
                               std::uint32_t& pi_ordinal, Logic& value) const {
  const Circuit& c = *circuit_;
  GateId g = obj.gate;
  std::uint32_t t = obj.frame;
  Logic v = obj.value;

  for (std::size_t guard = 0;
       guard < static_cast<std::size_t>(frames_) * c.num_gates() + 8;
       ++guard) {
    const Gate& gate = c.gate(g);
    if (gate.type == GateType::Input) {
      // Found a controllable input; only report it if still unassigned.
      if (pi_assign_[t * c.num_inputs() +
                     static_cast<std::size_t>(
                         std::find(c.inputs().begin(), c.inputs().end(), g) -
                         c.inputs().begin())] != Logic::X)
        return false;
      frame = t;
      pi_ordinal = static_cast<std::uint32_t>(
          std::find(c.inputs().begin(), c.inputs().end(), g) -
          c.inputs().begin());
      value = v;
      return true;
    }
    if (gate.type == GateType::Dff) {
      if (t == 0) return false;  // initial state is uncontrollable
      g = gate.fanins[0];
      --t;
      continue;
    }
    if (gate.type == GateType::Const0 || gate.type == GateType::Const1)
      return false;

    // Account for output inversion.
    if (is_inverting(gate.type)) v = logic_not(v);

    // Choose an X input to pursue, SCOAP-guided: when one input suffices
    // (target is the gate's controlled output value) take the EASIEST to
    // control; when every input must be set take the HARDEST first, so
    // infeasible objectives fail before cheap assignments pile up.
    // For AND (cv=0): v==1 needs all inputs at 1; v==0 needs any input at 0.
    const int cv = controlling_value(gate.type);
    const bool need_all =
        cv >= 0 &&
        ((cv == 0 && v == Logic::One) || (cv == 1 && v == Logic::Zero));
    GateId next = kNoGate;
    std::uint32_t best_cost = need_all ? 0 : ScoapMeasures::kInfinity;
    for (GateId fi : gate.fanins) {
      if (val_[idx(t, fi)].good != Logic::X) continue;
      // Skip frame-0 flip-flops: they can never be justified.
      if (c.gate(fi).type == GateType::Dff && t == 0) continue;
      std::uint32_t cost;
      if (cv < 0)
        cost = std::min(scoap_.cc0[fi], scoap_.cc1[fi]);
      else
        cost = v == Logic::One ? scoap_.cc1[fi] : scoap_.cc0[fi];
      const bool better =
          next == kNoGate || (need_all ? cost > best_cost : cost < best_cost);
      if (better) {
        best_cost = cost;
        next = fi;
      }
    }
    if (next == kNoGate) return false;

    if (gate.type == GateType::Xor || gate.type == GateType::Xnor) {
      // Parity: aim the chosen input at the value consistent with the known
      // inputs; with unknowns remaining, any binary choice is a valid try.
      Logic acc = Logic::Zero;
      bool all_known = true;
      for (GateId fi : gate.fanins) {
        if (fi == next) continue;
        const Logic fv = val_[idx(t, fi)].good;
        if (!is_binary(fv)) { all_known = false; break; }
        acc = logic_xor(acc, fv);
      }
      v = all_known ? logic_xor(v, acc) : v;
    }
    g = next;
  }
  return false;
}

TimeFramePodem::Result TimeFramePodem::generate(const Fault& f) {
  const Circuit& c = *circuit_;
  Result result;
  if (f.model != FaultModel::StuckAt)
    throw std::runtime_error(
        "TimeFramePodem handles stuck-at faults only (use the GA-based "
        "generator for transition faults)");

  std::fill(pi_assign_.begin(), pi_assign_.end(), Logic::X);
  stack_.clear();
  resimulate(f);

  while (true) {
    if (detected()) {
      result.outcome = Outcome::TestFound;
      // Emit frames 0..detect_frame_; unassigned PIs default to 0 (any value
      // would do — derivation holds for every completion).
      result.sequence.clear();
      for (std::uint32_t t = 0; t <= detect_frame_; ++t) {
        TestVector v(c.num_inputs());
        for (std::size_t i = 0; i < c.num_inputs(); ++i) {
          const Logic a = pi_assign_[t * c.num_inputs() + i];
          v[i] = is_binary(a) ? a : Logic::Zero;
        }
        result.sequence.push_back(std::move(v));
      }
      return result;
    }

    std::uint32_t frame = 0, pi = 0;
    Logic value = Logic::X;
    bool have_move = false;
    // X-path prune: an activated fault whose every effect is boxed in can
    // never be observed under the current assignments.
    if (!any_d() || has_x_path()) {
      collect_objectives(f, objective_scratch_);
      for (const Objective& obj : objective_scratch_) {
        if (backtrace(obj, frame, pi, value)) {
          have_move = true;
          break;
        }
      }
    }

    if (have_move) {
      pi_assign_[frame * c.num_inputs() + pi] = value;
      stack_.push_back(Decision{frame, pi, value, false});
      resimulate(f, frame);
      continue;
    }

    // Dead end: backtrack.
    bool recovered = false;
    std::uint32_t dirty = frames_;
    while (!stack_.empty()) {
      Decision& d = stack_.back();
      dirty = std::min(dirty, d.frame);
      if (!d.flipped) {
        d.flipped = true;
        d.value = logic_not(d.value);
        pi_assign_[d.frame * c.num_inputs() + d.pi_ordinal] = d.value;
        ++result.backtracks;
        if (result.backtracks > backtrack_limit_) {
          result.outcome = Outcome::Aborted;
          return result;
        }
        resimulate(f, dirty);
        recovered = true;
        break;
      }
      pi_assign_[d.frame * c.num_inputs() + d.pi_ordinal] = Logic::X;
      stack_.pop_back();
    }
    if (!recovered && stack_.empty()) {
      result.outcome = Outcome::NoTestInWindow;
      return result;
    }
  }
}

}  // namespace gatest
