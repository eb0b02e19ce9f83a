// 64-lane packed three-valued logic, and the two gate evaluators:
// eval_packed_gate over packed words, which the parallel logic simulator and
// both machines of the fault simulator use (its good machine as words with
// all lanes equal), and eval_logic_gate over scalar values, which PODEM and
// the diagnosis dictionary use.
//
// Each signal carries two 64-bit words: bit i of `zero` means lane i is 0,
// bit i of `one` means lane i is 1, neither bit means X.  Both bits set is
// an invalid encoding that never arises from the operations below.
//
// Lanes mean different things to different engines: the parallel logic
// simulator maps one candidate test per lane; the PROOFS-style fault
// simulator maps one faulty machine per lane.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

#include "netlist/gate.h"
#include "sim/logic.h"

namespace gatest {

/// Two-word packed ternary value for 64 parallel lanes.
struct PackedVal {
  std::uint64_t zero = 0;  ///< lanes at logic 0
  std::uint64_t one = 0;   ///< lanes at logic 1

  friend bool operator==(const PackedVal&, const PackedVal&) = default;

  /// Lanes holding a binary (non-X) value.
  std::uint64_t known() const { return zero | one; }

  /// Lanes where this and other hold definitely different binary values.
  std::uint64_t diff(const PackedVal& o) const {
    return (zero & o.one) | (one & o.zero);
  }

  /// Lanes whose ternary value differs in any way (0/1/X mismatch).
  std::uint64_t mismatch(const PackedVal& o) const {
    return (zero ^ o.zero) | (one ^ o.one);
  }

  Logic lane(unsigned i) const {
    const std::uint64_t m = 1ull << i;
    if (zero & m) return Logic::Zero;
    if (one & m) return Logic::One;
    return Logic::X;
  }

  void set_lane(unsigned i, Logic v) {
    const std::uint64_t m = 1ull << i;
    zero &= ~m;
    one &= ~m;
    if (v == Logic::Zero) zero |= m;
    else if (v == Logic::One) one |= m;
  }

  /// All 64 lanes at the same scalar value.
  static PackedVal broadcast(Logic v) {
    switch (v) {
      case Logic::Zero: return {~0ull, 0ull};
      case Logic::One:  return {0ull, ~0ull};
      case Logic::X:    return {0ull, 0ull};
    }
    return {};
  }
};

inline PackedVal pv_not(PackedVal a) { return {a.one, a.zero}; }

inline PackedVal pv_and(PackedVal a, PackedVal b) {
  return {a.zero | b.zero, a.one & b.one};
}

inline PackedVal pv_or(PackedVal a, PackedVal b) {
  return {a.zero & b.zero, a.one | b.one};
}

inline PackedVal pv_xor(PackedVal a, PackedVal b) {
  const std::uint64_t known = a.known() & b.known();
  const std::uint64_t ones = (a.one & b.zero) | (a.zero & b.one);
  return {known & ~ones, known & ones};
}

/// Evaluate one gate over packed fanin values.  `fanin(i)` must return the
/// packed value of the gate's i-th fanin; callers that inject faults on
/// input pins do so inside that accessor.
template <typename FaninAccessor>
PackedVal eval_packed_gate(GateType type, std::size_t num_fanins,
                           FaninAccessor&& fanin) {
  switch (type) {
    case GateType::Const0: return PackedVal::broadcast(Logic::Zero);
    case GateType::Const1: return PackedVal::broadcast(Logic::One);
    case GateType::Buf:
    case GateType::Dff:    return fanin(0);
    case GateType::Not:    return pv_not(fanin(0));
    case GateType::And:
    case GateType::Nand: {
      PackedVal acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i) acc = pv_and(acc, fanin(i));
      return type == GateType::Nand ? pv_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      PackedVal acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i) acc = pv_or(acc, fanin(i));
      return type == GateType::Nor ? pv_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      PackedVal acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i) acc = pv_xor(acc, fanin(i));
      return type == GateType::Xnor ? pv_not(acc) : acc;
    }
    case GateType::Input:
      // Inputs are written directly by the simulator, never evaluated.
      return {};
  }
  return {};
}

/// Scalar counterpart of eval_packed_gate: one gate in three-valued logic.
/// `fanin(i)` returns the Logic value of the gate's i-th fanin (callers
/// inject pin faults inside it).  Inputs are never evaluated and yield X.
template <typename FaninAccessor>
Logic eval_logic_gate(GateType type, std::size_t num_fanins,
                      FaninAccessor&& fanin) {
  switch (type) {
    case GateType::Const0: return Logic::Zero;
    case GateType::Const1: return Logic::One;
    case GateType::Buf:
    case GateType::Dff:    return fanin(0);
    case GateType::Not:    return logic_not(fanin(0));
    case GateType::And:
    case GateType::Nand: {
      Logic acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i)
        acc = logic_and(acc, fanin(i));
      return type == GateType::Nand ? logic_not(acc) : acc;
    }
    case GateType::Or:
    case GateType::Nor: {
      Logic acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i)
        acc = logic_or(acc, fanin(i));
      return type == GateType::Nor ? logic_not(acc) : acc;
    }
    case GateType::Xor:
    case GateType::Xnor: {
      Logic acc = fanin(0);
      for (std::size_t i = 1; i < num_fanins; ++i)
        acc = logic_xor(acc, fanin(i));
      return type == GateType::Xnor ? logic_not(acc) : acc;
    }
    case GateType::Input: return Logic::X;
  }
  return Logic::X;
}

}  // namespace gatest
