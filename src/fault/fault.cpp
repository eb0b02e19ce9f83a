#include "fault/fault.h"

#include <numeric>
#include <stdexcept>
#include <unordered_map>

namespace gatest {
namespace {

struct FaultKey {
  std::uint64_t v;
  bool operator==(const FaultKey&) const = default;
};

FaultKey key_of(const Fault& f) {
  return FaultKey{(static_cast<std::uint64_t>(f.gate) << 18) |
                  (static_cast<std::uint64_t>(static_cast<std::uint16_t>(f.pin))
                   << 2) |
                  f.stuck};
}

struct FaultKeyHash {
  std::size_t operator()(const FaultKey& k) const {
    return std::hash<std::uint64_t>()(k.v);
  }
};

bool is_fault_site(GateType t) {
  return t != GateType::Const0 && t != GateType::Const1;
}

/// Disjoint-set union where union(a, b) keeps a's root as the class
/// representative.
class Dsu {
 public:
  explicit Dsu(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  void unite_into(std::uint32_t rep, std::uint32_t other) {
    parent_[find(other)] = find(rep);
  }

 private:
  std::vector<std::uint32_t> parent_;
};

}  // namespace

std::string fault_name(const Circuit& c, const Fault& f) {
  std::string s = c.gate(f.gate).name;
  if (f.pin != Fault::kOutputPin) s += ".in" + std::to_string(f.pin);
  switch (f.model) {
    case FaultModel::StuckAt:    s += f.stuck ? " s-a-1" : " s-a-0"; break;
    case FaultModel::SlowToRise: s += " slow-to-rise"; break;
    case FaultModel::SlowToFall: s += " slow-to-fall"; break;
  }
  return s;
}

std::vector<Fault> enumerate_transition_faults(const Circuit& c) {
  std::vector<Fault> out;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (!is_fault_site(g.type)) continue;
    out.push_back(Fault{id, Fault::kOutputPin, 0, FaultModel::SlowToRise});
    out.push_back(Fault{id, Fault::kOutputPin, 1, FaultModel::SlowToFall});
  }
  return out;
}

std::vector<Fault> enumerate_all_faults(const Circuit& c) {
  std::vector<Fault> out;
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (!is_fault_site(g.type)) continue;
    for (std::uint8_t v : {0, 1})
      out.push_back(Fault{id, Fault::kOutputPin, v});
    for (std::size_t p = 0; p < g.fanins.size(); ++p) {
      // A pin fault is a distinct site where the driving net branches — and
      // also where the driver itself is not a fault site (constants): the
      // pin is then the only place this physical line can be faulted.
      const Gate& drv = c.gate(g.fanins[p]);
      if (drv.fanouts.size() > 1 || !is_fault_site(drv.type))
        for (std::uint8_t v : {0, 1})
          out.push_back(Fault{id, static_cast<std::int16_t>(p), v});
    }
  }
  return out;
}

std::vector<Fault> collapse_faults(const Circuit& c,
                                   std::vector<std::uint32_t>* class_of,
                                   std::vector<Fault>* universe_out) {
  const std::vector<Fault> universe = enumerate_all_faults(c);
  std::unordered_map<FaultKey, std::uint32_t, FaultKeyHash> index;
  index.reserve(universe.size() * 2);
  for (std::uint32_t i = 0; i < universe.size(); ++i)
    index.emplace(key_of(universe[i]), i);

  auto lookup = [&](const Fault& f) -> std::uint32_t {
    auto it = index.find(key_of(f));
    if (it == index.end())
      throw std::logic_error("collapse_faults: fault not in universe");
    return it->second;
  };

  // The physical line feeding pin p of gate g: the pin fault if the driver
  // branches, otherwise the driver's output fault (same wire).
  auto line_fault = [&](GateId g, std::size_t p, std::uint8_t v) -> Fault {
    const GateId drv = c.gate(g).fanins[p];
    if (c.gate(drv).fanouts.size() > 1 || !is_fault_site(c.gate(drv).type))
      return Fault{g, static_cast<std::int16_t>(p), v};
    return Fault{drv, Fault::kOutputPin, v};
  };

  Dsu dsu(universe.size());
  for (GateId id = 0; id < c.num_gates(); ++id) {
    const Gate& g = c.gate(id);
    if (!is_fault_site(g.type)) continue;
    switch (g.type) {
      case GateType::And:
      case GateType::Nand:
      case GateType::Or:
      case GateType::Nor: {
        const auto cv = static_cast<std::uint8_t>(controlling_value(g.type));
        const std::uint8_t out_v =
            is_inverting(g.type) ? static_cast<std::uint8_t>(1 - cv) : cv;
        // Input stuck at the controlling value forces the output: all such
        // input faults and the forced output fault are one class.  Keep an
        // input-side fault as representative (activation stays local).
        const std::uint32_t rep = lookup(line_fault(id, 0, cv));
        dsu.unite_into(rep, lookup(Fault{id, Fault::kOutputPin, out_v}));
        for (std::size_t p = 1; p < g.fanins.size(); ++p)
          dsu.unite_into(rep, lookup(line_fault(id, p, cv)));
        break;
      }
      case GateType::Buf: {
        for (std::uint8_t v : {0, 1})
          dsu.unite_into(lookup(line_fault(id, 0, v)),
                         lookup(Fault{id, Fault::kOutputPin, v}));
        break;
      }
      case GateType::Not: {
        for (std::uint8_t v : {0, 1})
          dsu.unite_into(
              lookup(line_fault(id, 0, v)),
              lookup(Fault{id, Fault::kOutputPin,
                           static_cast<std::uint8_t>(1 - v)}));
        break;
      }
      default:
        // XOR/XNOR, DFF, Input: no structural equivalences collapsed.
        // (DFF input/output faults are time-shifted, not strictly
        // equivalent in a finite test, so we keep both.)
        break;
    }
  }

  // Gather one representative per class, preserving universe order.
  std::vector<Fault> collapsed;
  std::vector<std::uint32_t> rep_to_collapsed(universe.size(), 0xffffffffu);
  std::vector<std::uint32_t> classes(universe.size());
  for (std::uint32_t i = 0; i < universe.size(); ++i) {
    const std::uint32_t r = dsu.find(i);
    if (rep_to_collapsed[r] == 0xffffffffu) {
      rep_to_collapsed[r] = static_cast<std::uint32_t>(collapsed.size());
      collapsed.push_back(universe[r]);
    }
    classes[i] = rep_to_collapsed[r];
  }
  if (class_of) *class_of = std::move(classes);
  if (universe_out) *universe_out = universe;
  return collapsed;
}

FaultList::FaultList(const Circuit& c)
    : FaultList(c, collapse_faults(c)) {}

FaultList::FaultList(const Circuit& c, std::vector<Fault> faults)
    : circuit_(&c),
      faults_(std::move(faults)),
      status_(faults_.size(), FaultStatus::Undetected),
      tags_(faults_.size(), UntestableTag::None),
      detected_by_(faults_.size(), -1),
      pruned_(faults_.size(), 0) {}

std::size_t FaultList::num_detected() const {
  std::size_t n = 0;
  for (FaultStatus s : status_)
    if (s == FaultStatus::Detected) ++n;
  return n;
}

std::size_t FaultList::num_untestable() const {
  std::size_t n = 0;
  for (FaultStatus s : status_)
    if (s == FaultStatus::Untestable) ++n;
  return n;
}

std::size_t FaultList::num_undetected() const {
  std::size_t n = 0;
  for (FaultStatus s : status_)
    if (s == FaultStatus::Undetected) ++n;
  return n;
}

std::vector<std::uint32_t> FaultList::undetected_indices() const {
  std::vector<std::uint32_t> out;
  out.reserve(faults_.size());
  undetected_indices(out);
  return out;
}

void FaultList::undetected_indices(std::vector<std::uint32_t>& out) const {
  out.clear();
  for (std::uint32_t i = 0; i < faults_.size(); ++i)
    if (status_[i] == FaultStatus::Undetected) out.push_back(i);
}

double FaultList::coverage() const {
  if (faults_.empty()) return 0.0;
  return static_cast<double>(num_detected()) /
         static_cast<double>(faults_.size());
}

void FaultList::set_pruned(std::size_t i) {
  if (pruned_[i]) return;
  pruned_[i] = 1;
  ++num_pruned_;
  status_[i] = FaultStatus::Untestable;
}

void FaultList::reset() {
  status_.assign(faults_.size(), FaultStatus::Undetected);
  detected_by_.assign(faults_.size(), -1);
  // Pruning is a property of the universe, not of one run's bookkeeping:
  // checkpoint replay must rebuild the same (pruned) active set.
  for (std::size_t i = 0; i < faults_.size(); ++i)
    if (pruned_[i]) status_[i] = FaultStatus::Untestable;
}

void FaultList::export_status(std::vector<FaultStatus>& status,
                              std::vector<std::int64_t>& detected_by) const {
  status = status_;
  detected_by = detected_by_;
}

void FaultList::import_status(const std::vector<FaultStatus>& status,
                              const std::vector<std::int64_t>& detected_by) {
  if (status.size() != faults_.size() || detected_by.size() != faults_.size())
    throw std::invalid_argument(
        "FaultList::import_status: size mismatch (checkpoint from a "
        "different fault universe?)");
  status_ = status;
  detected_by_ = detected_by;
}

}  // namespace gatest
