#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "netlist/bench_io.h"

namespace gatest {
namespace {

Circuit single_gate(GateType t, unsigned inputs) {
  Circuit c("g");
  std::vector<GateId> pis;
  for (unsigned i = 0; i < inputs; ++i)
    pis.push_back(c.add_input(std::string("i").append(std::to_string(i))));
  const GateId g = c.add_gate(t, "g", pis);
  c.add_output(g);
  c.finalize();
  return c;
}

TEST(FaultModel, FaultNameFormat) {
  const Circuit c = single_gate(GateType::And, 2);
  EXPECT_EQ(fault_name(c, Fault{c.find("g"), Fault::kOutputPin, 1}),
            "g s-a-1");
  EXPECT_EQ(fault_name(c, Fault{c.find("g"), 1, 0}), "g.in1 s-a-0");
}

TEST(FaultModel, UniverseSingleAndGate) {
  // Fanout-free nets: only output faults exist (3 nets x 2 polarities).
  const Circuit c = single_gate(GateType::And, 2);
  const std::vector<Fault> u = enumerate_all_faults(c);
  EXPECT_EQ(u.size(), 6u);
}

TEST(FaultModel, UniverseIncludesBranchFaults) {
  // One PI fanning out to two gates: 2 (PI stem) + 2+2 (branch pins)
  // + 2+2 (gate outputs) = 10 faults.
  Circuit c("fan");
  const GateId a = c.add_input("a");
  const GateId g1 = c.add_gate(GateType::Not, "g1", {a});
  const GateId g2 = c.add_gate(GateType::Buf, "g2", {a});
  c.add_output(g1);
  c.add_output(g2);
  c.finalize();
  const std::vector<Fault> u = enumerate_all_faults(c);
  EXPECT_EQ(u.size(), 10u);
}

TEST(FaultCollapse, AndGateClassSizes) {
  // AND: in0 s-a-0 == in1 s-a-0 == out s-a-0 collapse into one class, so
  // 6 universe faults (fanout-free: 2 per net on 3 nets... here pins don't
  // branch, giving 6 output faults) collapse as: a0,b0,g0 one class; a1,
  // b1, g1 separate -> 4.
  const Circuit c = single_gate(GateType::And, 2);
  const std::vector<Fault> collapsed = collapse_faults(c);
  EXPECT_EQ(collapsed.size(), 4u);
}

TEST(FaultCollapse, OrGateClassSizes) {
  const Circuit c = single_gate(GateType::Or, 2);
  EXPECT_EQ(collapse_faults(c).size(), 4u);
}

TEST(FaultCollapse, NandCollapsesInputZeroWithOutputOne) {
  const Circuit c = single_gate(GateType::Nand, 2);
  std::vector<std::uint32_t> class_of;
  std::vector<Fault> universe;
  const std::vector<Fault> collapsed =
      collapse_faults(c, &class_of, &universe);
  EXPECT_EQ(collapsed.size(), 4u);
  // Find universe indices of i0 s-a-0 and g s-a-1; they must share a class.
  auto idx = [&](const Fault& f) {
    return static_cast<std::size_t>(
        std::find(universe.begin(), universe.end(), f) - universe.begin());
  };
  const Fault in0_sa0{c.find("i0"), Fault::kOutputPin, 0};
  const Fault out_sa1{c.find("g"), Fault::kOutputPin, 1};
  EXPECT_EQ(class_of[idx(in0_sa0)], class_of[idx(out_sa1)]);
}

TEST(FaultCollapse, XorGateDoesNotCollapse) {
  const Circuit c = single_gate(GateType::Xor, 2);
  EXPECT_EQ(collapse_faults(c).size(), 6u);
}

TEST(FaultCollapse, InverterChainCollapsesToTwo) {
  // a -> NOT -> NOT -> out: all faults along the chain collapse into two
  // classes (one per polarity at the head line).
  Circuit c("invchain");
  const GateId a = c.add_input("a");
  const GateId n1 = c.add_gate(GateType::Not, "n1", {a});
  const GateId n2 = c.add_gate(GateType::Not, "n2", {n1});
  c.add_output(n2);
  c.finalize();
  EXPECT_EQ(collapse_faults(c).size(), 2u);
}

TEST(FaultCollapse, S27MatchesPublishedCount) {
  // The classic equivalence-collapsed fault list for s27 has 32 faults.
  const Circuit c = make_s27();
  EXPECT_EQ(collapse_faults(c).size(), 32u);
}

TEST(FaultCollapse, EveryUniverseFaultHasRepresentative) {
  const Circuit c = benchmark_circuit("s298", 9);
  std::vector<std::uint32_t> class_of;
  std::vector<Fault> universe;
  const std::vector<Fault> collapsed =
      collapse_faults(c, &class_of, &universe);
  ASSERT_EQ(class_of.size(), universe.size());
  for (std::uint32_t cls : class_of) EXPECT_LT(cls, collapsed.size());
  // Representatives map to themselves.
  std::set<std::uint32_t> used(class_of.begin(), class_of.end());
  EXPECT_EQ(used.size(), collapsed.size());
}

TEST(FaultList, LifecycleBookkeeping) {
  const Circuit c = make_s27();
  FaultList fl(c);
  EXPECT_EQ(fl.size(), 32u);
  EXPECT_EQ(fl.num_detected(), 0u);
  EXPECT_EQ(fl.num_undetected(), 32u);
  EXPECT_EQ(fl.coverage(), 0.0);

  fl.mark_detected(0, 7);
  EXPECT_EQ(fl.num_detected(), 1u);
  EXPECT_EQ(fl.detected_by(0), 7);
  EXPECT_EQ(fl.status(0), FaultStatus::Detected);

  fl.set_status(1, FaultStatus::Untestable);
  EXPECT_EQ(fl.num_untestable(), 1u);
  EXPECT_EQ(fl.num_undetected(), 30u);

  const auto undet = fl.undetected_indices();
  EXPECT_EQ(undet.size(), 30u);
  EXPECT_EQ(std::count(undet.begin(), undet.end(), 0u), 0);
  EXPECT_EQ(std::count(undet.begin(), undet.end(), 1u), 0);

  fl.reset();
  EXPECT_EQ(fl.num_undetected(), 32u);
  EXPECT_EQ(fl.detected_by(0), -1);
}

TEST(FaultList, ExplicitFaultSet) {
  const Circuit c = make_s27();
  FaultList fl(c, {Fault{0, Fault::kOutputPin, 0}});
  EXPECT_EQ(fl.size(), 1u);
}

TEST(FaultList, CoverageRatio) {
  const Circuit c = make_s27();
  FaultList fl(c);
  for (std::size_t i = 0; i < 16; ++i) fl.mark_detected(i, 0);
  EXPECT_DOUBLE_EQ(fl.coverage(), 0.5);
}

/// Collapsing must never *increase* the fault count and must keep at least
/// the two single-output faults per primary output cone.
class CollapseInvariantTest : public ::testing::TestWithParam<const char*> {};

TEST_P(CollapseInvariantTest, CollapsedSubsetOfUniverse) {
  const Circuit c = benchmark_circuit(GetParam(), 5);
  std::vector<Fault> universe;
  const std::vector<Fault> collapsed = collapse_faults(c, nullptr, &universe);
  EXPECT_LE(collapsed.size(), universe.size());
  EXPECT_GT(collapsed.size(), 0u);
  for (const Fault& f : collapsed)
    EXPECT_NE(std::find(universe.begin(), universe.end(), f), universe.end());
}

INSTANTIATE_TEST_SUITE_P(Circuits, CollapseInvariantTest,
                         ::testing::Values("s27", "s298", "s386", "s526"));

}  // namespace
}  // namespace gatest
