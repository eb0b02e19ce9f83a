#include "diagnosis/diagnosis.h"

#include <algorithm>
#include <map>

#include "sim/packed.h"

namespace gatest {
namespace {

/// Constant nets hold their value from the start: the settle loops skip
/// combinational sources, so an all-X frame would otherwise leave CONST0 /
/// CONST1 nodes at X forever.
void seed_const_nets(const Circuit& c, std::vector<Logic>& val) {
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const GateType t = c.gate(id).type;
    if (t == GateType::Const0) val[id] = Logic::Zero;
    else if (t == GateType::Const1) val[id] = Logic::One;
  }
}

}  // namespace

FaultDictionary::FaultDictionary(const Circuit& c, std::vector<Fault> faults,
                                 std::vector<TestVector> tests)
    : circuit_(&c), faults_(std::move(faults)), tests_(std::move(tests)) {
  // Fault-free reference: full net values per frame (kept for observe()).
  good_pos_.reserve(tests_.size());
  std::vector<Logic> gval(c.num_gates(), Logic::X);
  seed_const_nets(c, gval);
  good_vals_frames_.reserve(tests_.size());
  for (const TestVector& v : tests_) {
    for (std::size_t i = 0; i < c.num_inputs(); ++i) gval[c.inputs()[i]] = v[i];
    for (GateId id : c.topo_order()) {
      const Gate& g = c.gate(id);
      if (is_combinational_source(g.type)) continue;
      gval[id] = eval_logic_gate(
          g.type, g.fanins.size(),
          [&](std::size_t i) { return gval[g.fanins[i]]; });
    }
    good_vals_frames_.push_back(gval);  // pre-latch snapshot
    std::vector<Logic> pos;
    pos.reserve(c.num_outputs());
    for (GateId po : c.outputs()) pos.push_back(gval[po]);
    good_pos_.push_back(std::move(pos));
    // Latch.
    std::vector<Logic> next;
    next.reserve(c.num_dffs());
    for (GateId ff : c.dffs()) next.push_back(gval[c.gate(ff).fanins[0]]);
    for (std::size_t i = 0; i < c.dffs().size(); ++i)
      gval[c.dffs()[i]] = next[i];
  }

  signatures_.reserve(faults_.size());
  for (const Fault& f : faults_) signatures_.push_back(observe(f));
}

Signature FaultDictionary::observe(const Fault& f) const {
  const Circuit& c = *circuit_;
  Signature sig;
  std::vector<Logic> val(c.num_gates(), Logic::X);
  seed_const_nets(c, val);

  // Value readers see on a net (output faults force the line per frame; the
  // transition models hold the previous fault-free value through a missed
  // edge, matching the fault simulator's semantics).
  auto forced_value = [&](std::uint32_t frame, GateId site) -> Logic {
    const Logic cur = good_vals_frames_[frame][site];
    const Logic prev = frame == 0 ? Logic::X
                                  : good_vals_frames_[frame - 1][site];
    switch (f.model) {
      case FaultModel::StuckAt:    return f.stuck ? Logic::One : Logic::Zero;
      case FaultModel::SlowToRise: return logic_and(cur, prev);
      case FaultModel::SlowToFall: return logic_or(cur, prev);
    }
    return Logic::X;
  };

  for (std::uint32_t t = 0; t < tests_.size(); ++t) {
    auto read = [&](GateId id) -> Logic {
      if (f.pin == Fault::kOutputPin && f.gate == id) return forced_value(t, id);
      return val[id];
    };
    for (std::size_t i = 0; i < c.num_inputs(); ++i)
      val[c.inputs()[i]] = tests_[t][i];
    for (GateId id : c.topo_order()) {
      const Gate& g = c.gate(id);
      if (is_combinational_source(g.type)) continue;
      val[id] = eval_logic_gate(g.type, g.fanins.size(), [&](std::size_t i) {
        if (f.pin == static_cast<std::int16_t>(i) && f.gate == id &&
            f.model == FaultModel::StuckAt)
          return f.stuck ? Logic::One : Logic::Zero;
        return read(g.fanins[i]);
      });
    }
    // Compare primary outputs against the fault-free reference.
    for (std::uint32_t k = 0; k < c.num_outputs(); ++k) {
      const Logic good = good_pos_[t][k];
      const Logic bad = read(c.outputs()[k]);
      if (is_binary(good) && is_binary(bad) && good != bad)
        sig.emplace_back(t, k);
    }
    // Latch (D-pin stuck faults latch the stuck value).
    std::vector<Logic> next;
    next.reserve(c.num_dffs());
    for (GateId ff : c.dffs()) {
      Logic d = read(c.gate(ff).fanins[0]);
      if (f.gate == ff && f.pin == 0 && f.model == FaultModel::StuckAt)
        d = f.stuck ? Logic::One : Logic::Zero;
      next.push_back(d);
    }
    for (std::size_t i = 0; i < c.dffs().size(); ++i)
      val[c.dffs()[i]] = next[i];
  }
  return sig;
}

std::size_t FaultDictionary::num_distinguishable_classes() const {
  std::map<Signature, std::size_t> classes;
  for (const Signature& s : signatures_)
    if (!s.empty()) ++classes[s];
  return classes.size();
}

double FaultDictionary::diagnostic_resolution() const {
  std::map<Signature, std::size_t> classes;
  std::size_t detected = 0;
  for (const Signature& s : signatures_)
    if (!s.empty()) {
      ++classes[s];
      ++detected;
    }
  if (detected == 0) return 0.0;
  std::size_t unique = 0;
  for (const auto& [sig, n] : classes)
    if (n == 1) ++unique;
  return static_cast<double>(unique) / static_cast<double>(detected);
}

std::vector<FaultDictionary::Candidate> FaultDictionary::diagnose(
    const Signature& observed, std::size_t top_k) const {
  std::vector<Candidate> out;
  if (observed.empty()) return out;
  for (std::uint32_t i = 0; i < signatures_.size(); ++i) {
    const Signature& s = signatures_[i];
    if (s.empty()) continue;
    // Jaccard similarity over sorted position lists.
    std::size_t inter = 0, ai = 0, bi = 0;
    while (ai < s.size() && bi < observed.size()) {
      if (s[ai] == observed[bi]) { ++inter; ++ai; ++bi; }
      else if (s[ai] < observed[bi]) ++ai;
      else ++bi;
    }
    const std::size_t uni = s.size() + observed.size() - inter;
    if (inter == 0) continue;
    out.push_back(Candidate{i, static_cast<double>(inter) /
                                   static_cast<double>(uni)});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    return a.score > b.score || (a.score == b.score && a.fault_index < b.fault_index);
  });
  if (out.size() > top_k) out.resize(top_k);
  return out;
}

}  // namespace gatest
