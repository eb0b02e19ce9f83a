// 64-lane packed three-valued logic, and the two gate evaluators:
// PackedGateOps, a netlist's gates compiled into branch-free ops over packed
// words, which the parallel logic simulator and both machines of the fault
// simulator use (its good machine as words with all lanes equal), and
// eval_logic_gate over scalar values, which PODEM and the diagnosis
// dictionary use.
//
// Each signal carries two 64-bit words: bit i of `zero` means lane i is 0,
// bit i of `one` means lane i is 1, neither bit means X.  Both bits set is
// an invalid encoding that never arises from the operations below.
//
// Lanes mean different things to different engines: the parallel logic
// simulator maps one candidate test per lane; the PROOFS-style fault
// simulator maps one faulty machine per lane.
#pragma once

#include <algorithm>
#include <array>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

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

  /// Lane i's scalar value, by arithmetic: 2 - 2*zero_i - one_i maps the
  /// three encodings onto Logic::Zero, One and X.
  Logic lane(unsigned i) const {
    return static_cast<Logic>(2 - 2 * ((zero >> i) & 1) - ((one >> i) & 1));
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
    return {0 - std::uint64_t{v == Logic::Zero},
            0 - std::uint64_t{v == Logic::One}};
  }
};

/// A netlist's gates compiled for branch-free evaluation over one array of
/// packed words: word i holds net i, and two identity words (constant 1,
/// then constant 0) follow the last net.  Size an array with num_words()
/// and write the identity words with seed_identity_words() before the
/// first evaluation; nothing else writes them.
///
/// Each gate becomes an op with four fanin word indices; a gate with fewer
/// fanins reads the identity word of its function on the rest (1 for the
/// AND family, 0 for the OR and XOR families), so no op loops over its
/// fanin count or switches on its type.  Three flags select the function:
///   swap_in    fold the complemented fanins (OR and NOR via De Morgan);
///   swap_out   complement the result (NAND, OR, NOT, XNOR, CONST0);
///   xor_family take {known & ~parity, known & parity} instead of the AND
///              word {OR of the zeros, AND of the ones}.
/// BUF, DFF and CONST1 are ANDs of their fanins and identity words.  An
/// INPUT reads its own word: inputs are written, never evaluated.  Fanins
/// past the fourth fold in an overflow loop that only wider gates enter.
class PackedGateOps {
 public:
  /// Ready to compile the gates of a netlist of `num_nets` nets.
  explicit PackedGateOps(std::size_t num_nets) : num_nets_(num_nets) {
    ops_.reserve(num_nets);
  }

  /// Words an array needs: one per net, then the two identity words.
  std::size_t num_words() const { return num_nets_ + 2; }

  /// Write the identity words of an array of num_words() words.
  void seed_identity_words(std::span<PackedVal> words) const {
    words[one_word()] = {0, ~0ull};
    words[zero_word()] = {~0ull, 0};
  }

  /// Compile the next gate; ops are numbered in the order they are added,
  /// so adding a netlist's gates in id order makes op i gate i.  `fanins`
  /// are word indices below num_nets.
  void add(GateType type, std::span<const std::uint32_t> fanins) {
    Op op;
    op.swap_in = type == GateType::Or || type == GateType::Nor;
    op.swap_out = type == GateType::Nand || type == GateType::Or ||
                  type == GateType::Not || type == GateType::Xnor ||
                  type == GateType::Const0;
    op.xor_family = type == GateType::Xor || type == GateType::Xnor;
    op.in.fill((op.swap_in || op.xor_family) ? zero_word() : one_word());
    const std::size_t direct = std::min<std::size_t>(fanins.size(), 4);
    std::copy_n(fanins.begin(), direct, op.in.begin());
    if (type == GateType::Input)
      op.in[0] = static_cast<std::uint32_t>(ops_.size());
    op.more_begin = static_cast<std::uint32_t>(more_.size());
    op.num_more = static_cast<std::uint32_t>(fanins.size() - direct);
    more_.insert(more_.end(), fanins.begin() + direct, fanins.end());
    ops_.push_back(op);
  }

  /// Evaluate op `i` over `words`.
  PackedVal eval(std::size_t i, const PackedVal* words) const {
    return eval(i, [words](std::size_t, std::uint32_t w) { return words[w]; });
  }

  /// Evaluate op `i`, reading its fanin on pin `p` from word `w` as
  /// `word_at(p, w)`; callers that inject faults on input pins do so there.
  /// Pins past the gate's fanins read identity words.  Always inlined: the
  /// default -O2 build would otherwise call it once per gate.
  template <typename WordAt>
    requires std::invocable<WordAt&, std::size_t, std::uint32_t>
  [[gnu::always_inline]] PackedVal eval(std::size_t i,
                                        WordAt&& word_at) const {
    const Op& op = ops_[i];
    const std::uint64_t swap_in = 0 - std::uint64_t{op.swap_in};
    std::uint64_t zeros = 0, ones = ~0ull, known = ~0ull, parity = 0;
    const auto fold = [&](PackedVal a) {
      const std::uint64_t t = (a.zero ^ a.one) & swap_in;
      const std::uint64_t z = a.zero ^ t, o = a.one ^ t;
      zeros |= z;
      ones &= o;
      known &= z | o;
      parity ^= o;
    };
    fold(word_at(0, op.in[0]));
    fold(word_at(1, op.in[1]));
    fold(word_at(2, op.in[2]));
    fold(word_at(3, op.in[3]));
    if (op.num_more != 0) [[unlikely]] {
      for (std::uint32_t k = 0; k < op.num_more; ++k)
        fold(word_at(4 + k, more_[op.more_begin + k]));
    }
    const std::uint64_t x = 0 - std::uint64_t{op.xor_family};
    const std::uint64_t z = (zeros & ~x) | (known & ~parity & x);
    const std::uint64_t o = (ones & ~x) | (known & parity & x);
    const std::uint64_t t = (z ^ o) & (0 - std::uint64_t{op.swap_out});
    return {z ^ t, o ^ t};
  }

 private:
  struct Op {
    std::array<std::uint32_t, 4> in{};  ///< fanin words, padded
    std::uint32_t more_begin = 0;       ///< fanins past the fourth, in more_
    std::uint32_t num_more = 0;
    std::uint8_t swap_in = 0, swap_out = 0, xor_family = 0;
  };

  std::uint32_t one_word() const {
    return static_cast<std::uint32_t>(num_nets_);
  }
  std::uint32_t zero_word() const {
    return static_cast<std::uint32_t>(num_nets_ + 1);
  }

  std::size_t num_nets_;
  std::vector<Op> ops_;
  std::vector<std::uint32_t> more_;
};

/// Scalar counterpart of PackedGateOps: one gate in three-valued logic.
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
