#include "circuitgen/circuitgen.h"

#include <algorithm>
#include <stdexcept>

#include "netlist/bench_io.h"
#include "util/rng.h"

namespace gatest {

const std::vector<CircuitProfile>& iscas89_profiles() {
  static const std::vector<CircuitProfile> profiles = {
      //  name      PIs  POs  FFs  gates  depth
      {"s27",      4,   1,    3,    10,   2},
      {"s298",     3,   6,   14,   119,   8},
      {"s344",     9,  11,   15,   160,   6},
      {"s349",     9,  11,   15,   161,   6},
      {"s382",     3,   6,   21,   158,  11},
      {"s386",     7,   7,    6,   159,   5},
      {"s400",     3,   6,   21,   162,  11},
      {"s444",     3,   6,   21,   181,  11},
      {"s526",     3,   6,   21,   193,  11},
      {"s641",    35,  24,   19,   379,   6},
      {"s713",    35,  23,   19,   393,   6},
      {"s820",    18,  19,    5,   289,   4},
      {"s832",    18,  19,    5,   287,   4},
      {"s1196",   14,  14,   18,   529,   4},
      {"s1238",   14,  14,   18,   508,   4},
      {"s1423",   17,   5,   74,   657,  10},
      {"s1488",    8,  19,    6,   653,   5},
      {"s1494",    8,  19,    6,   647,   5},
      {"s5378",   35,  49,  179,  2779,  36},
      {"s35932",  35, 320, 1728, 16065,  35},
  };
  return profiles;
}

const CircuitProfile& profile_by_name(const std::string& name) {
  for (const CircuitProfile& p : iscas89_profiles())
    if (p.name == name) return p;
  throw std::runtime_error("unknown circuit profile: " + name);
}

Circuit make_s27() {
  // Published ISCAS89 s27 listing.
  static const char* kS27 = R"(
# s27 (ISCAS89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NOR(G2, G12)
)";
  return parse_bench_string(kS27, "s27");
}

namespace {

// Intermediate netlist under construction: signals are dense ids.
//   [0, num_pis)                      primary inputs
//   [num_pis, num_pis + num_ffs)      flip-flop outputs
//   [num_pis + num_ffs, ...)          logic gates in creation order
struct Proto {
  unsigned num_pis = 0;
  unsigned num_ffs = 0;
  struct PGate {
    GateType type;
    std::vector<unsigned> fanins;
    bool touches_prev = false;  // cone reaches the previous stage's pool
    bool clean = true;          // cone avoids same/later-stage state
    bool narrow = false;        // cone uses ONLY previous-stage signals
  };
  std::vector<PGate> gates;            // logic gates only
  std::vector<unsigned> ff_data;       // data input signal per FF
  std::vector<unsigned> pos;           // observed signals
  std::vector<unsigned> reader_count;  // per signal

  unsigned gate_signal(unsigned gate_index) const {
    return num_pis + num_ffs + gate_index;
  }
  unsigned num_signals() const {
    return num_pis + num_ffs + static_cast<unsigned>(gates.size());
  }
  bool is_gate_signal(unsigned s) const { return s >= num_pis + num_ffs; }

  unsigned add_gate(GateType t, std::vector<unsigned> fanins,
                    bool touches_prev) {
    for (unsigned f : fanins) ++reader_count[f];
    gates.push_back(PGate{t, std::move(fanins), touches_prev});
    reader_count.push_back(0);
    return gate_signal(static_cast<unsigned>(gates.size()) - 1);
  }
};

GateType random_gate_type(Rng& rng, unsigned fanin_count,
                          bool allow_parity) {
  if (fanin_count == 1)
    return rng.chance(0.85) ? GateType::Not : GateType::Buf;
  static const GateType two_plus[] = {GateType::And, GateType::Nand,
                                      GateType::Or, GateType::Nor};
  // Parity gates keep random logic from collapsing to constants: the XOR of
  // a constant and a toggling signal toggles.  (They are safe for
  // initialization: flip-flop synchronization depends only on the reset
  // chain and the dedicated data gates, never on general logic cones.)
  if (allow_parity && rng.chance(0.22))
    return rng.coin() ? GateType::Xor : GateType::Xnor;
  return two_plus[rng.below(4)];
}

unsigned random_fanin_count(Rng& rng) {
  const double r = rng.uniform();
  if (r < 0.10) return 1;
  if (r < 0.75) return 2;
  if (r < 0.92) return 3;
  return 4;
}

}  // namespace

Circuit generate_circuit(const CircuitProfile& profile, std::uint64_t seed) {
  if (profile.num_pis == 0)
    throw std::runtime_error("generate_circuit: profile needs >= 1 PI");
  if (profile.seq_depth > 0 && profile.num_ffs < profile.seq_depth)
    throw std::runtime_error(
        "generate_circuit: need at least seq_depth flip-flops");

  Rng rng(seed ^ 0x5eedc1c0u);
  const unsigned depth = profile.seq_depth;

  Proto proto;
  proto.num_pis = profile.num_pis;
  proto.num_ffs = profile.num_ffs;
  proto.reader_count.assign(proto.num_pis + proto.num_ffs, 0);
  proto.ff_data.assign(proto.num_ffs, 0);

  // Assign each flip-flop a stage in [1, depth]; stage s means its output is
  // exactly s flops away from the primary inputs.  Flip-flops 0..depth-1
  // form the pipelined reset chain R_1..R_depth (one per stage); the rest
  // are regular state flops spread randomly over stages.
  std::vector<unsigned> ff_stage(proto.num_ffs, 1);
  std::vector<std::vector<unsigned>> stage_ffs(depth + 1);  // stage -> FF idx
  for (unsigned s = 1; s <= depth; ++s) ff_stage[s - 1] = s;
  for (unsigned i = depth; i < proto.num_ffs; ++i)
    ff_stage[i] = depth == 0 ? 0 : 1 + static_cast<unsigned>(rng.below(depth));
  for (unsigned i = 0; i < proto.num_ffs; ++i)
    stage_ffs[ff_stage[i]].push_back(i);
  auto is_chain_ff = [&](unsigned ff) { return ff < depth; };
  // Each stage's data gates share one controlling-value family (AND/NAND or
  // OR/NOR) so a single reset-chain value forces the whole stage binary in
  // the same frame — the synchronization argument in circuitgen.h.
  std::vector<bool> stage_ctl1(depth + 1);
  for (unsigned s = 1; s <= depth; ++s) stage_ctl1[s] = rng.coin();
  unsigned reset_root = ~0u;  // block-1 gate feeding R_1

  const unsigned ff_signal_base = proto.num_pis;
  auto ff_signal = [&](unsigned ff) { return ff_signal_base + ff; };

  // Distribute logic gates over depth+1 blocks.  Block s (1..depth) feeds
  // the stage-s flip-flops; block depth+1 feeds the primary outputs.
  const unsigned num_blocks = depth + 1;
  std::vector<unsigned> block_size(num_blocks + 1, 0);
  {
    // Weight block 1 (input logic) and the PO block more heavily, as real
    // circuits do.
    std::vector<double> w(num_blocks + 1, 0.0);
    double total = 0;
    for (unsigned b = 1; b <= num_blocks; ++b) {
      w[b] = b == num_blocks ? 3.0 : (b == 1 ? 2.0 : 1.0);
      // Blocks feeding more flops need more logic.
      if (b <= depth) w[b] += 0.15 * static_cast<double>(stage_ffs[b].size());
      total += w[b];
    }
    unsigned assigned = 0;
    for (unsigned b = 1; b <= num_blocks; ++b) {
      block_size[b] = std::max<unsigned>(
          static_cast<unsigned>(profile.num_gates * w[b] / total), 2);
      assigned += block_size[b];
    }
    // Put any rounding slack in block 1.
    if (assigned < profile.num_gates) block_size[1] += profile.num_gates - assigned;
  }

  // Per-signal "clean" flag: a clean signal is guaranteed binary once the
  // previous stage's flip-flops hold binary values (its cone avoids
  // same/later-stage state).  Flip-flop data inputs are driven from clean
  // cones through dedicated 2-input controlling gates so every flip-flop is
  // initializable by random vectors; feedback enters only through those
  // gates' second pins.
  std::vector<unsigned> block_gates;  // signals created in the current block
  std::vector<unsigned> aux_pool;     // unread leftovers carried forward
  // All signals binary by the time stage b-1 synchronizes: PIs, flops of
  // earlier stages, and every clean gate built so far.  Clean cones may draw
  // from this whole set — only the reset chain and the PO-block anchor carry
  // the exact sequential-depth guarantee, so wide mixing is safe and mirrors
  // how real netlists let primary inputs feed logic everywhere.
  std::vector<unsigned> global_clean;
  for (unsigned p = 0; p < proto.num_pis; ++p) global_clean.push_back(p);
  for (unsigned b = 1; b <= num_blocks; ++b) {
    if (b >= 2)
      for (unsigned ff : stage_ffs[b - 1]) global_clean.push_back(ff_signal(ff));
    const bool po_block = b == num_blocks;
    // must_pool: the previous stage's signals; a block-b cone that touches
    // one of these has minimum flop distance exactly b-1.
    std::vector<unsigned> must_pool;
    if (b == 1) {
      for (unsigned p = 0; p < proto.num_pis; ++p) must_pool.push_back(p);
    } else {
      for (unsigned ff : stage_ffs[b - 1]) must_pool.push_back(ff_signal(ff));
    }
    // extra_pool: flop outputs at stage >= b-1; using them cannot lower a
    // cone's flop distance below b-1, so the depth guarantee is preserved.
    // (The PO block may observe every flop.)
    std::vector<unsigned> extra_pool;
    for (unsigned i = 0; i < proto.num_ffs; ++i)
      if (po_block || (ff_stage[i] >= b - 1 && ff_stage[i] >= 1))
        extra_pool.push_back(ff_signal(i));

    block_gates.clear();
    std::vector<unsigned> clean_gates;   // block gates with clean cones
    std::vector<unsigned> narrow_gates;  // gates over prev-stage signals only

    auto gate_flags = [&](unsigned sig) -> const Proto::PGate* {
      if (!proto.is_gate_signal(sig)) return nullptr;
      return &proto.gates[sig - proto.num_pis - proto.num_ffs];
    };
    auto touches = [&](unsigned sig) {
      if (const Proto::PGate* g = gate_flags(sig)) return g->touches_prev;
      return std::find(must_pool.begin(), must_pool.end(), sig) !=
             must_pool.end();
    };
    auto is_clean = [&](unsigned sig) {
      if (const Proto::PGate* g = gate_flags(sig)) return g->clean;
      if (sig < proto.num_pis) return true;  // primary inputs: always binary
      // Flop outputs: binary before this stage synchronizes iff their stage
      // is earlier.
      return ff_stage[sig - ff_signal_base] <= b - 1;
    };

    // Unused-first queue keeps every pool signal and block gate connected.
    std::vector<unsigned> unused = must_pool;

    auto pick_clean = [&]() -> unsigned {
      // Half the picks drain the unconsumed queue (connectivity); the rest
      // go uniformly to the wide pool.  Always-unused-first would chain each
      // gate onto the previous one, producing needle-deep logic whose
      // faults are unobservable through dozens of masking levels.
      if (!unused.empty() && rng.coin()) {
        const auto k = rng.below(unused.size());
        const unsigned s = unused[k];
        unused.erase(unused.begin() + static_cast<std::ptrdiff_t>(k));
        return s;
      }
      // Uniform over every binary-by-now signal — the whole global clean set
      // plus this block's clean gates.  Wide, shallow logic: deep narrow
      // chains of monotone gates over tiny pools collapse to constants.
      const std::size_t n_all = global_clean.size() + clean_gates.size();
      const std::size_t k = rng.below(n_all);
      return k < global_clean.size() ? global_clean[k]
                                     : clean_gates[k - global_clean.size()];
    };

    // Each regular flop of this stage adds two dedicated gates (MIX + OP).
    const unsigned dedicated =
        b <= depth ? 2 * static_cast<unsigned>(stage_ffs[b].size() -
                                               (b <= depth ? 1 : 0))
                   : 0;
    const unsigned n_general =
        std::max(2u, block_size[b] > dedicated ? block_size[b] - dedicated : 2u);

    for (unsigned gi = 0; gi < n_general; ++gi) {
      unsigned n_in = random_fanin_count(rng);
      n_in = std::min<unsigned>(
          n_in, static_cast<unsigned>(must_pool.size() + block_gates.size()));
      n_in = std::max(n_in, 1u);

      std::vector<unsigned> fanins;
      bool tainted = false;
      bool tp = false;
      if (gi == 0 && b == 1 && depth > 0) {
        // Block 1's anchor doubles as the reset root: a NAND of primary
        // inputs feeding the reset pipeline.  It is binary in every frame
        // and both of its values are directly controllable.
        fanins.push_back(0);
        std::erase(unused, 0u);
        if (proto.num_pis > 1) {
          fanins.push_back(1);
          std::erase(unused, 1u);
        }
        const GateType t =
            fanins.size() == 1 ? GateType::Not : GateType::Nand;
        const unsigned sig = proto.add_gate(t, std::move(fanins), true);
        reset_root = sig;
        block_gates.push_back(sig);
        clean_gates.push_back(sig);
        unused.push_back(sig);
        continue;
      }
      if (gi == 0 && po_block && depth > 0) {
        // The PO-block anchor observes the end of the reset chain alone:
        // R_depth is the one signal whose minimum flop distance is exactly
        // `depth` by construction, so this gate realizes the profile's
        // structural sequential depth.
        const unsigned sig = proto.add_gate(
            GateType::Not, {ff_signal(depth - 1)}, true);
        std::erase(unused, ff_signal(depth - 1));
        block_gates.push_back(sig);
        clean_gates.push_back(sig);
        unused.push_back(sig);
        continue;
      }
      // The first ~30% of each state-feeding block is its "narrow kernel":
      // cones built exclusively over the previous stage's flip-flops (and
      // earlier kernel gates).  Values inside a stage-s kernel can only be
      // justified by driving the machine through s-1 states, so kernel
      // faults are the sequentially-hard-but-testable population that
      // distinguishes directed search from random vectors.  The anchor
      // (gi == 0) is the kernel's root and also pins the depth metric.
      const bool narrow_gate =
          !po_block && gi < std::max<unsigned>(1, n_general * 3 / 10);
      if (gi == 0 || narrow_gate) {
        const std::size_t pool_n = must_pool.size() + narrow_gates.size();
        n_in = std::min<unsigned>(std::max(n_in, 1u),
                                  static_cast<unsigned>(pool_n));
        for (unsigned i = 0; i < n_in; ++i) {
          unsigned s = 0;
          for (int attempt = 0; attempt < 4; ++attempt) {
            const std::size_t k =
                rng.below(gi == 0 ? must_pool.size() : pool_n);
            s = k < must_pool.size() ? must_pool[k]
                                     : narrow_gates[k - must_pool.size()];
            if (std::find(fanins.begin(), fanins.end(), s) == fanins.end())
              break;
          }
          if (std::find(fanins.begin(), fanins.end(), s) != fanins.end())
            continue;
          fanins.push_back(s);
          std::erase(unused, s);
        }
        if (fanins.empty()) fanins.push_back(must_pool[0]);
        const GateType t = random_gate_type(
            rng, static_cast<unsigned>(fanins.size()), /*allow_parity=*/true);
        const unsigned sig = proto.add_gate(t, std::move(fanins), true);
        proto.gates.back().narrow = true;
        block_gates.push_back(sig);
        clean_gates.push_back(sig);
        narrow_gates.push_back(sig);
        unused.push_back(sig);
        continue;
      }
      {
        // Mix in state signals (flop outputs, carried-forward leftovers) for
        // functional diversity; such gates are "tainted" and never feed
        // flip-flop data cones, so initialization and the depth guarantee
        // are unaffected.
        const double taint_p = po_block ? 0.35 : 0.25;
        for (unsigned i = 0; i < n_in; ++i) {
          unsigned s = 0;
          // Duplicate fanins make gates degenerate (AND(a,a) = a); retry.
          for (int attempt = 0; attempt < 4; ++attempt) {
            const std::size_t n_state = extra_pool.size() + aux_pool.size();
            if (i > 0 && n_state > 0 && rng.chance(taint_p)) {
              const std::size_t k = rng.below(n_state);
              s = k < extra_pool.size() ? extra_pool[k]
                                        : aux_pool[k - extra_pool.size()];
              tainted = true;
            } else {
              s = pick_clean();
            }
            if (std::find(fanins.begin(), fanins.end(), s) == fanins.end())
              break;
          }
          if (std::find(fanins.begin(), fanins.end(), s) != fanins.end())
            continue;
          tainted = tainted || !is_clean(s);
          tp = tp || touches(s);
          fanins.push_back(s);
        }
        if (fanins.empty()) {
          fanins.push_back(pick_clean());
          tp = touches(fanins[0]);
          tainted = !is_clean(fanins[0]);
        }
      }
      const GateType t = random_gate_type(
          rng, static_cast<unsigned>(fanins.size()), /*allow_parity=*/true);
      const unsigned sig = proto.add_gate(t, std::move(fanins), tp);
      proto.gates.back().clean = !tainted;
      block_gates.push_back(sig);
      if (!tainted) clean_gates.push_back(sig);
      unused.push_back(sig);
    }

    if (b <= depth) {
      // Dedicated flip-flop data gates.  Flip-flop cones are the block's
      // observation funnels (the only way a block-s fault effect reaches
      // later stages), so they are made wide and they consume unread clean
      // gates first.
      std::vector<unsigned> clean_tp;
      for (unsigned s : clean_gates)
        if (touches(s)) clean_tp.push_back(s);
      if (clean_tp.empty())
        for (unsigned s : block_gates)
          if (touches(s)) clean_tp.push_back(s);
      if (clean_tp.empty()) clean_tp = block_gates;

      // The reset-chain flop of this stage latches the previous chain value
      // (the reset root for stage 1): a pure feedforward pipeline that is
      // binary from frame `s` onward, unconditionally.
      {
        const unsigned chain = b - 1;  // flop index of R_b
        const unsigned m0 = b == 1 ? reset_root : ff_signal(b - 2);
        proto.ff_data[chain] = m0;
        ++proto.reader_count[m0];
      }

      // Regular flops: next = OP(R_{s-1}, MIX(clean cone..., feedback)).
      // OP's controlling value is shared across the stage (stage_ctl1), so
      // one reset value forces every flop of the stage binary in the same
      // frame; afterwards the previous stage and this stage are all binary,
      // so the state can never revert to X — yet it keeps evolving through
      // MIX whenever the reset side is non-controlling.
      // Feedback pins draw from flops of stage s-1 or s only (distance >=
      // s-1, and binary by this stage's synchronization frame).
      std::vector<unsigned> fb_pool;
      for (unsigned ff : stage_ffs[b]) fb_pool.push_back(ff_signal(ff));
      if (b >= 2)
        for (unsigned ff : stage_ffs[b - 1]) fb_pool.push_back(ff_signal(ff));
      const unsigned m = b == 1 ? reset_root : ff_signal(b - 2);

      // Flip-flop data funnels draw from the narrow kernel, so stage-s state
      // is a function of stage-(s-1) state alone (plus feedback): deep-stage
      // values require genuine multi-frame justification.  Unread kernel
      // gates go first so kernel logic stays observable through the state.
      const std::vector<unsigned>& mix_pool =
          narrow_gates.empty() ? clean_tp : narrow_gates;
      auto pick_mix_input = [&](std::vector<unsigned>& fin) -> unsigned {
        for (int attempt = 0; attempt < 4; ++attempt) {
          unsigned s;
          std::vector<unsigned> unread;
          for (unsigned u : mix_pool)
            if (proto.reader_count[u] == 0) unread.push_back(u);
          if (!unread.empty())
            s = unread[rng.below(unread.size())];
          else
            s = mix_pool[rng.below(mix_pool.size())];
          if (std::find(fin.begin(), fin.end(), s) == fin.end()) return s;
        }
        return mix_pool[rng.below(mix_pool.size())];
      };

      static const GateType kMix[] = {GateType::And, GateType::Or,
                                      GateType::Nand, GateType::Nor,
                                      GateType::Xor, GateType::Xnor};
      for (unsigned ff : stage_ffs[b]) {
        if (is_chain_ff(ff)) continue;  // wired above
        std::vector<unsigned> fin;
        const unsigned width = 2 + static_cast<unsigned>(rng.below(3));
        bool tp = false;
        for (unsigned i = 0; i + 1 < width; ++i) {
          const unsigned s = pick_mix_input(fin);
          tp = tp || touches(s);
          fin.push_back(s);
        }
        const unsigned fb = rng.chance(0.8) && !fb_pool.empty()
                                ? fb_pool[rng.below(fb_pool.size())]
                                : pick_mix_input(fin);
        fin.push_back(fb);
        const unsigned mix =
            proto.add_gate(kMix[rng.below(6)], std::move(fin), tp);
        proto.gates.back().clean = false;
        block_gates.push_back(mix);
        const GateType op = stage_ctl1[b]
                                ? (rng.coin() ? GateType::Or : GateType::Nor)
                                : (rng.coin() ? GateType::And : GateType::Nand);
        const unsigned ded = proto.add_gate(op, {m, mix}, true);
        proto.gates.back().clean = false;
        block_gates.push_back(ded);
        proto.ff_data[ff] = ded;
        ++proto.reader_count[ded];
      }
    }

    // Consume leftover unconsumed signals so nothing dangles: fold them
    // pairwise into collector gates.
    std::erase_if(unused, [&](unsigned s) { return proto.reader_count[s] > 0; });
    while (unused.size() > 1) {
      std::vector<unsigned> fin;
      const unsigned take = std::min<std::size_t>(
          unused.size(), 1 + random_fanin_count(rng));
      bool tp = false;
      bool tainted = false;
      // FIFO folding builds a balanced tree; LIFO would chain every
      // collector gate through the previous one.
      for (unsigned i = 0; i < take; ++i) {
        tp = tp || touches(unused.front());
        tainted = tainted || !is_clean(unused.front());
        fin.push_back(unused.front());
        unused.erase(unused.begin());
      }
      // Collectors lean on parity gates: XOR never masks, so the logic they
      // fold stays observable instead of vanishing behind AND/OR chains.
      static const GateType kFoldTypes[] = {GateType::Xor, GateType::Xnor,
                                            GateType::And, GateType::Or,
                                            GateType::Nand, GateType::Nor};
      const GateType t = fin.size() == 1
                             ? GateType::Not
                             : kFoldTypes[rng.below(rng.chance(0.5) ? 2 : 6)];
      const unsigned sig = proto.add_gate(t, std::move(fin), tp);
      proto.gates.back().clean = !tainted;
      block_gates.push_back(sig);
      if (!tainted) clean_gates.push_back(sig);
      unused.push_back(sig);
    }
    // Carry the surviving unread signal into later blocks rather than
    // leaving dead logic (or sprouting extra primary outputs).
    if (!po_block) {
      for (unsigned s : unused)
        if (proto.reader_count[s] == 0) aux_pool.push_back(s);
    }

    if (po_block) {
      // PO block: observe a sample of block gates.
      std::vector<unsigned> candidates = block_gates;
      std::shuffle(candidates.begin(), candidates.end(), rng);
      for (unsigned s : candidates) {
        if (proto.pos.size() >= profile.num_pos) break;
        if (std::find(proto.pos.begin(), proto.pos.end(), s) ==
            proto.pos.end())
          proto.pos.push_back(s);
      }
      // Need more POs than the block has gates: observe earlier signals too
      // (flop outputs and interior gates, as real benchmarks do).
      unsigned sig = proto.num_signals();
      while (proto.pos.size() < profile.num_pos && sig-- > proto.num_pis) {
        if (std::find(proto.pos.begin(), proto.pos.end(), sig) ==
            proto.pos.end())
          proto.pos.push_back(sig);
      }
    }
  }

  // Any signal that still has no reader and is not observed would be dead
  // logic with undetectable faults (mostly leftovers parked in aux_pool and
  // never picked).  Fold them, together with one existing primary output,
  // into a collector tree whose root replaces that output — observability
  // without disturbing the profile's PO count.
  {
    std::vector<unsigned> dead;
    for (unsigned s = 0; s < proto.num_signals(); ++s)
      if (proto.reader_count[s] == 0 &&
          std::find(proto.pos.begin(), proto.pos.end(), s) == proto.pos.end())
        dead.push_back(s);
    if (!dead.empty()) {
      unsigned acc = proto.pos.back();
      proto.pos.pop_back();
      while (!dead.empty()) {
        std::vector<unsigned> fin{acc};
        const unsigned take =
            std::min<std::size_t>(dead.size(), 1 + rng.below(3));
        for (unsigned i = 0; i < take; ++i) {
          fin.push_back(dead.back());
          dead.pop_back();
        }
        // Parity-heavy folding keeps the folded cones observable (an XOR
        // chain propagates any single change to the root).
        static const GateType kFold[] = {GateType::Xor, GateType::Xnor,
                                         GateType::And, GateType::Or};
        acc = proto.add_gate(kFold[rng.below(rng.chance(0.6) ? 2 : 4)],
                             std::move(fin), false);
      }
      proto.pos.push_back(acc);
    }
  }

  // Emit the final circuit.  Gates were created in topological order.
  Circuit c(profile.name);
  std::vector<GateId> sig_to_id(proto.num_signals());
  for (unsigned p = 0; p < proto.num_pis; ++p)
    sig_to_id[p] = c.add_input("pi" + std::to_string(p));
  for (unsigned f = 0; f < proto.num_ffs; ++f)
    sig_to_id[ff_signal_base + f] = c.add_dff("ff" + std::to_string(f));
  for (unsigned g = 0; g < proto.gates.size(); ++g) {
    const Proto::PGate& pg = proto.gates[g];
    std::vector<GateId> fin;
    fin.reserve(pg.fanins.size());
    for (unsigned s : pg.fanins) fin.push_back(sig_to_id[s]);
    sig_to_id[proto.gate_signal(g)] =
        c.add_gate(pg.type, std::string("g").append(std::to_string(g)),
                   std::move(fin));
  }
  for (unsigned f = 0; f < proto.num_ffs; ++f)
    c.set_dff_input(sig_to_id[ff_signal_base + f], sig_to_id[proto.ff_data[f]]);
  for (unsigned s : proto.pos) c.add_output(sig_to_id[s]);
  c.finalize();
  return c;
}

Circuit benchmark_circuit(const std::string& name, std::uint64_t seed) {
  if (name == "s27") return make_s27();
  return generate_circuit(profile_by_name(name), seed);
}

}  // namespace gatest
