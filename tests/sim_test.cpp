#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "circuitgen/circuitgen.h"
#include "netlist/circuit.h"
#include "sim/logic.h"
#include "sim/packed.h"
#include "sim/parallel_sim.h"
#include "sim/responses.h"
#include "sim/vcd.h"
#include "util/rng.h"

namespace gatest {
namespace {

// ---- scalar logic ----------------------------------------------------------

TEST(Logic, CharConversions) {
  EXPECT_EQ(logic_char(Logic::Zero), '0');
  EXPECT_EQ(logic_char(Logic::One), '1');
  EXPECT_EQ(logic_char(Logic::X), 'x');
  EXPECT_EQ(logic_from_char('0'), Logic::Zero);
  EXPECT_EQ(logic_from_char('1'), Logic::One);
  EXPECT_EQ(logic_from_char('x'), Logic::X);
  EXPECT_EQ(logic_from_char('?'), Logic::X);
}

TEST(Logic, StringRoundTrip) {
  const TestVector v = logic_vector("01x10");
  EXPECT_EQ(logic_string(v), "01x10");
}

TEST(Logic, TruthTables) {
  EXPECT_EQ(logic_and(Logic::One, Logic::One), Logic::One);
  EXPECT_EQ(logic_and(Logic::Zero, Logic::X), Logic::Zero);
  EXPECT_EQ(logic_and(Logic::One, Logic::X), Logic::X);
  EXPECT_EQ(logic_or(Logic::One, Logic::X), Logic::One);
  EXPECT_EQ(logic_or(Logic::Zero, Logic::X), Logic::X);
  EXPECT_EQ(logic_not(Logic::X), Logic::X);
  EXPECT_EQ(logic_xor(Logic::One, Logic::Zero), Logic::One);
  EXPECT_EQ(logic_xor(Logic::One, Logic::X), Logic::X);
}

// ---- packed values ----------------------------------------------------------

Logic ref_and(Logic a, Logic b) { return logic_and(a, b); }
Logic ref_or(Logic a, Logic b) { return logic_or(a, b); }
Logic ref_xor(Logic a, Logic b) { return logic_xor(a, b); }

class PackedOpTest
    : public ::testing::TestWithParam<std::tuple<Logic, Logic>> {};

TEST_P(PackedOpTest, MatchesScalarSemantics) {
  const auto [a, b] = GetParam();
  PackedVal pa{}, pb{};
  pa.set_lane(0, a);
  pa.set_lane(17, a);
  pb.set_lane(0, b);
  pb.set_lane(17, b);
  EXPECT_EQ(pv_and(pa, pb).lane(0), ref_and(a, b));
  EXPECT_EQ(pv_or(pa, pb).lane(0), ref_or(a, b));
  EXPECT_EQ(pv_xor(pa, pb).lane(0), ref_xor(a, b));
  EXPECT_EQ(pv_not(pa).lane(0), logic_not(a));
  EXPECT_EQ(pv_and(pa, pb).lane(17), ref_and(a, b));
  // Untouched lanes stay X.
  EXPECT_EQ(pv_and(pa, pb).lane(5), ref_and(Logic::X, Logic::X));
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, PackedOpTest,
    ::testing::Combine(::testing::Values(Logic::Zero, Logic::One, Logic::X),
                       ::testing::Values(Logic::Zero, Logic::One, Logic::X)));

TEST(PackedVal, Broadcast) {
  EXPECT_EQ(PackedVal::broadcast(Logic::Zero).lane(63), Logic::Zero);
  EXPECT_EQ(PackedVal::broadcast(Logic::One).lane(0), Logic::One);
  EXPECT_EQ(PackedVal::broadcast(Logic::X).lane(31), Logic::X);
}

TEST(PackedVal, DiffDetectsOnlyBinaryDifferences) {
  PackedVal a{}, b{};
  a.set_lane(0, Logic::One);
  b.set_lane(0, Logic::Zero);  // definite difference
  a.set_lane(1, Logic::One);
  b.set_lane(1, Logic::X);     // potential only
  a.set_lane(2, Logic::One);
  b.set_lane(2, Logic::One);   // equal
  EXPECT_EQ(a.diff(b), 1ull);
  EXPECT_EQ(a.mismatch(b) & 7ull, 3ull);
}

TEST(PackedVal, SetLaneOverwrites) {
  PackedVal v{};
  v.set_lane(3, Logic::One);
  v.set_lane(3, Logic::Zero);
  EXPECT_EQ(v.lane(3), Logic::Zero);
  v.set_lane(3, Logic::X);
  EXPECT_EQ(v.lane(3), Logic::X);
}

TEST(PackedGateEval, NaryGates) {
  const PackedVal one = PackedVal::broadcast(Logic::One);
  const PackedVal zero = PackedVal::broadcast(Logic::Zero);
  std::vector<PackedVal> ins{one, one, zero};
  auto at = [&](std::size_t i) { return ins[i]; };
  EXPECT_EQ(eval_packed_gate(GateType::And, 3, at).lane(0), Logic::Zero);
  EXPECT_EQ(eval_packed_gate(GateType::Nand, 3, at).lane(0), Logic::One);
  EXPECT_EQ(eval_packed_gate(GateType::Or, 3, at).lane(0), Logic::One);
  EXPECT_EQ(eval_packed_gate(GateType::Nor, 3, at).lane(0), Logic::Zero);
  EXPECT_EQ(eval_packed_gate(GateType::Xor, 3, at).lane(0), Logic::Zero);
  EXPECT_EQ(eval_packed_gate(GateType::Xnor, 3, at).lane(0), Logic::One);
  EXPECT_EQ(eval_packed_gate(GateType::Const1, 0, at).lane(7), Logic::One);
}

// ---- scalar gate evaluator ----------------------------------------------------
//
// eval_logic_gate is the scalar evaluator the fault simulator and PODEM
// share.  Every ternary input combination of every fanin count is checked
// against eval_packed_gate (one combination per lane) and against an
// independent oracle: a single gate's ternary output is binary exactly when
// every binary completion of its X inputs gives the same value.

bool binary_gate_function(GateType type, const std::vector<bool>& in) {
  bool acc = in.empty() ? false : in[0];
  switch (type) {
    case GateType::Const0: return false;
    case GateType::Const1: return true;
    case GateType::Buf:
    case GateType::Dff:    return in[0];
    case GateType::Not:    return !in[0];
    case GateType::And:
    case GateType::Nand:
      for (std::size_t i = 1; i < in.size(); ++i) acc = acc && in[i];
      return type == GateType::Nand ? !acc : acc;
    case GateType::Or:
    case GateType::Nor:
      for (std::size_t i = 1; i < in.size(); ++i) acc = acc || in[i];
      return type == GateType::Nor ? !acc : acc;
    case GateType::Xor:
    case GateType::Xnor:
      for (std::size_t i = 1; i < in.size(); ++i) acc = acc != in[i];
      return type == GateType::Xnor ? !acc : acc;
    case GateType::Input: break;
  }
  return false;
}

Logic completion_oracle(GateType type, const std::vector<Logic>& in) {
  std::vector<std::size_t> xs;
  for (std::size_t i = 0; i < in.size(); ++i)
    if (in[i] == Logic::X) xs.push_back(i);
  std::set<bool> outs;
  for (std::uint32_t m = 0; m < (1u << xs.size()); ++m) {
    std::vector<bool> bin(in.size());
    for (std::size_t i = 0; i < in.size(); ++i) bin[i] = in[i] == Logic::One;
    for (std::size_t j = 0; j < xs.size(); ++j) bin[xs[j]] = (m >> j) & 1u;
    outs.insert(binary_gate_function(type, bin));
  }
  if (outs.size() != 1) return Logic::X;
  return *outs.begin() ? Logic::One : Logic::Zero;
}

class LogicGateEvalTest : public ::testing::TestWithParam<GateType> {};

TEST_P(LogicGateEvalTest, MatchesPackedEvaluatorAndBinaryCompletions) {
  const GateType type = GetParam();
  const Logic kValues[] = {Logic::Zero, Logic::One, Logic::X};
  std::vector<std::size_t> arities;
  switch (type) {
    case GateType::Input:
    case GateType::Const0:
    case GateType::Const1: arities = {0}; break;
    case GateType::Dff:
    case GateType::Buf:
    case GateType::Not:    arities = {1}; break;
    default:               arities = {2, 3, 4}; break;
  }
  for (const std::size_t k : arities) {
    std::size_t combos = 1;
    for (std::size_t i = 0; i < k; ++i) combos *= 3;
    // Pack combinations into 64-lane words, one combination per lane.
    for (std::size_t base = 0; base < combos; base += 64) {
      const std::size_t lanes = std::min<std::size_t>(64, combos - base);
      std::vector<PackedVal> packed(k);
      std::vector<std::vector<Logic>> scalar(lanes, std::vector<Logic>(k));
      for (std::size_t l = 0; l < lanes; ++l) {
        std::size_t code = base + l;
        for (std::size_t i = 0; i < k; ++i, code /= 3) {
          scalar[l][i] = kValues[code % 3];
          packed[i].set_lane(static_cast<unsigned>(l), scalar[l][i]);
        }
      }
      const PackedVal pout = eval_packed_gate(
          type, k, [&](std::size_t i) { return packed[i]; });
      for (std::size_t l = 0; l < lanes; ++l) {
        const std::vector<Logic>& in = scalar[l];
        const Logic got =
            eval_logic_gate(type, k, [&](std::size_t i) { return in[i]; });
        const std::string ctx = std::string(gate_type_name(type)) + "(" +
                                logic_string(in) + ")";
        EXPECT_EQ(got, pout.lane(static_cast<unsigned>(l))) << ctx;
        if (type == GateType::Input) {
          EXPECT_EQ(got, Logic::X) << ctx;  // inputs are never evaluated
        } else {
          EXPECT_EQ(got, completion_oracle(type, in)) << ctx;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllGateTypes, LogicGateEvalTest,
    ::testing::Values(GateType::Input, GateType::Dff, GateType::Buf,
                      GateType::Not, GateType::And, GateType::Nand,
                      GateType::Or, GateType::Nor, GateType::Xor,
                      GateType::Xnor, GateType::Const0, GateType::Const1),
    [](const ::testing::TestParamInfo<GateType>& info) {
      return std::string(gate_type_name(info.param));
    });

// ---- parallel logic simulator ------------------------------------------------

TEST(ParallelLogicSim, CombinationalEvaluation) {
  Circuit c("comb");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId g = c.add_gate(GateType::Xor, "g", {a, b});
  c.add_output(g);
  c.finalize();

  ParallelLogicSim sim(c);
  sim.step_broadcast(logic_vector("10"));
  EXPECT_EQ(sim.outputs_lane(0)[0], Logic::One);
  sim.step_broadcast(logic_vector("11"));
  EXPECT_EQ(sim.outputs_lane(0)[0], Logic::Zero);
}

TEST(ParallelLogicSim, ShiftRegisterLatchesSimultaneously) {
  // ff0 <- pi, ff1 <- ff0: after two steps ff1 must hold the FIRST input,
  // not the second (flop-to-flop chains latch simultaneously).
  Circuit c("shift");
  const GateId pi = c.add_input("pi");
  const GateId ff0 = c.add_dff("ff0", pi);
  const GateId ff1 = c.add_dff("ff1", ff0);
  c.add_output(ff1);
  c.finalize();

  ParallelLogicSim sim(c);
  sim.step_broadcast(logic_vector("1"));
  sim.step_broadcast(logic_vector("0"));
  EXPECT_EQ(sim.value(ff1).lane(0), Logic::One);
  EXPECT_EQ(sim.value(ff0).lane(0), Logic::Zero);
}

TEST(ParallelLogicSim, InitialStateIsX) {
  const Circuit c = make_s27();
  ParallelLogicSim sim(c);
  EXPECT_EQ(sim.ffs_set_lane(0), 0u);
  for (Logic v : sim.ff_state_lane(0)) EXPECT_EQ(v, Logic::X);
}

TEST(ParallelLogicSim, SetStateBroadcastAndLane) {
  const Circuit c = make_s27();
  ParallelLogicSim sim(c);
  sim.set_ff_state_all({Logic::Zero, Logic::One, Logic::Zero});
  EXPECT_EQ(sim.ff_state_lane(0), (std::vector<Logic>{Logic::Zero, Logic::One,
                                                      Logic::Zero}));
  sim.set_ff_state_lane(5, {Logic::One, Logic::One, Logic::One});
  EXPECT_EQ(sim.ff_state_lane(5),
            (std::vector<Logic>{Logic::One, Logic::One, Logic::One}));
  // Other lanes unaffected.
  EXPECT_EQ(sim.ff_state_lane(0)[0], Logic::Zero);
}

TEST(ParallelLogicSim, PerLaneVectorsAreIndependent) {
  Circuit c("inv");
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate(GateType::Not, "g", {a});
  c.add_output(g);
  c.finalize();

  ParallelLogicSim sim(c);
  std::vector<TestVector> lanes = {logic_vector("0"), logic_vector("1"),
                                   logic_vector("x")};
  sim.step_per_lane(lanes);
  EXPECT_EQ(sim.outputs_lane(0)[0], Logic::One);
  EXPECT_EQ(sim.outputs_lane(1)[0], Logic::Zero);
  EXPECT_EQ(sim.outputs_lane(2)[0], Logic::X);
  EXPECT_EQ(sim.outputs_lane(63)[0], Logic::X);  // unused lane saw X inputs
}

/// Property: simulating K vectors in parallel lanes equals K single-lane
/// simulations, over random circuits and stimuli.
class LaneEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LaneEquivalenceTest, ParallelEqualsSerial) {
  const std::uint64_t seed = GetParam();
  const Circuit c = benchmark_circuit("s298", seed);
  Rng rng(seed * 77 + 1);
  constexpr unsigned kLanes = 8;
  constexpr unsigned kFrames = 6;

  // Random per-lane stimulus.
  std::vector<std::vector<TestVector>> stim(kFrames);
  for (auto& frame : stim) {
    frame.resize(kLanes);
    for (auto& v : frame) {
      v.resize(c.num_inputs());
      for (auto& bit : v) bit = rng.coin() ? Logic::One : Logic::Zero;
    }
  }

  ParallelLogicSim par(c);
  for (const auto& frame : stim) par.step_per_lane(frame);

  for (unsigned lane = 0; lane < kLanes; ++lane) {
    ParallelLogicSim ser(c);
    for (const auto& frame : stim) ser.step_broadcast(frame[lane]);
    EXPECT_EQ(par.outputs_lane(lane), ser.outputs_lane(0))
        << "lane " << lane;
    EXPECT_EQ(par.ff_state_lane(lane), ser.ff_state_lane(0));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaneEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5));

TEST(ParallelLogicSim, EventCountsAccumulate) {
  Circuit c("inv");
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate(GateType::Not, "g", {a});
  c.add_output(g);
  c.finalize();

  ParallelLogicSim sim(c);
  sim.step_broadcast(logic_vector("0"));
  sim.reset_event_counts();
  const LogicSimStats s1 = sim.step_broadcast(logic_vector("1"));
  EXPECT_EQ(s1.events, 2u * 64u);  // both nets flip in all 64 lanes
  const LogicSimStats s2 = sim.step_broadcast(logic_vector("1"));
  EXPECT_EQ(s2.events, 0u);  // steady state: no events
  EXPECT_EQ(sim.lane_events()[0], 2u);
}

TEST(ParallelLogicSim, ResetForgetsState) {
  const Circuit c = make_s27();
  ParallelLogicSim sim(c);
  sim.step_broadcast(logic_vector("1010"));
  sim.reset();
  for (Logic v : sim.ff_state_lane(0)) EXPECT_EQ(v, Logic::X);
}

TEST(ParallelLogicSim, RejectsWrongInputCount) {
  const Circuit c = make_s27();
  ParallelLogicSim sim(c);
  EXPECT_THROW(sim.step_broadcast(logic_vector("10")), std::runtime_error);
  EXPECT_THROW(sim.set_ff_state_all({Logic::X}), std::runtime_error);
}

TEST(Responses, CaptureMatchesStepByStepSimulation) {
  const Circuit c = make_s27();
  const std::vector<TestVector> tests = {
      logic_vector("0000"), logic_vector("1010"), logic_vector("0111")};
  const auto responses = capture_responses(c, tests);
  ASSERT_EQ(responses.size(), tests.size());

  ParallelLogicSim sim(c);
  for (std::size_t t = 0; t < tests.size(); ++t) {
    sim.step_broadcast(tests[t]);
    EXPECT_EQ(responses[t], sim.outputs_lane(0)) << "frame " << t;
  }
}

TEST(Responses, FirstFramesMayBeMasked) {
  // Uninitialized state shows up as X (tester mask) in early responses.
  const Circuit c = make_s27();
  const auto responses = capture_responses(c, {logic_vector("0000")});
  ASSERT_EQ(responses.size(), 1u);
  ASSERT_EQ(responses[0].size(), 1u);
  // With all flops X and all inputs 0, every path to G17 runs through an
  // uninitialized flop: G9 = NAND(X, X) = X, G11 = NOR(X, X) = X -> masked.
  EXPECT_EQ(responses[0][0], Logic::X);
}

TEST(Vcd, HeaderAndStructure) {
  const Circuit c = make_s27();
  const std::string vcd =
      vcd_string(c, {logic_vector("0000"), logic_vector("1111")});
  EXPECT_NE(vcd.find("$timescale 1ns $end"), std::string::npos);
  EXPECT_NE(vcd.find("$scope module dut $end"), std::string::npos);
  EXPECT_NE(vcd.find("$enddefinitions $end"), std::string::npos);
  // PIs + FFs + PO traced: G0..G3, G5..G7, G17 = 8 $var lines.
  std::size_t vars = 0, pos = 0;
  while ((pos = vcd.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, 8u);
  EXPECT_NE(vcd.find("G17"), std::string::npos);
  EXPECT_NE(vcd.find("#10"), std::string::npos);
  EXPECT_NE(vcd.find("#20"), std::string::npos);
}

TEST(Vcd, EmitsOnlyChanges) {
  // Constant input: after the first timestep no further changes for it.
  Circuit c("buf");
  const GateId a = c.add_input("a");
  const GateId g = c.add_gate(GateType::Buf, "g", {a});
  c.add_output(g);
  c.finalize();
  const std::string vcd = vcd_string(
      c, {logic_vector("1"), logic_vector("1"), logic_vector("1")});
  // The value '1' for identifier '!' must appear exactly once after dumpvars.
  const std::size_t dump_end = vcd.find("$end\n#");
  ASSERT_NE(dump_end, std::string::npos);
  std::size_t count = 0, pos = dump_end;
  while ((pos = vcd.find("\n1!", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 1u);
}

TEST(Vcd, AllNetsModeTracesEverything) {
  const Circuit c = make_s27();
  VcdOptions opt;
  opt.interface_only = false;
  const std::string vcd = vcd_string(c, {logic_vector("0000")}, opt);
  std::size_t vars = 0, pos = 0;
  while ((pos = vcd.find("$var wire 1 ", pos)) != std::string::npos) {
    ++vars;
    ++pos;
  }
  EXPECT_EQ(vars, c.num_gates());
}

TEST(Vcd, IdentifiersStayUniqueBeyondBase94) {
  // s1423 in all-nets mode has > 94 signals: identifiers must extend to two
  // characters without collisions.
  const Circuit c = benchmark_circuit("s1423", 3);
  VcdOptions opt;
  opt.interface_only = false;
  const std::string vcd = vcd_string(c, {}, opt);
  std::set<std::string> ids;
  std::size_t pos = 0;
  while ((pos = vcd.find("$var wire 1 ", pos)) != std::string::npos) {
    pos += 12;
    const std::size_t sp = vcd.find(' ', pos);
    ids.insert(vcd.substr(pos, sp - pos));
  }
  EXPECT_EQ(ids.size(), c.num_gates());
}

TEST(ParallelLogicSim, S27KnownResponse) {
  // With all flops at 0 and inputs G0..G3 = 0,0,0,0:
  //   G14 = NOT(G0) = 1; G8 = AND(G14, G6=0) = 0; G12 = NOR(G1, G7=0) = 1;
  //   G15 = OR(G12, G8) = 1; G16 = OR(G3, G8) = 0; G9 = NAND(G16, G15) = 1;
  //   G11 = NOR(G5=0, G9=1) = 0; G17 = NOT(G11) = 1.
  const Circuit c = make_s27();
  ParallelLogicSim sim(c);
  sim.set_ff_state_all({Logic::Zero, Logic::Zero, Logic::Zero});
  sim.step_broadcast(logic_vector("0000"));
  EXPECT_EQ(sim.outputs_lane(0)[0], Logic::One);
}

}  // namespace
}  // namespace gatest
