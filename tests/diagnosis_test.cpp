#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "circuitgen/circuitgen.h"
#include "diagnosis/diagnosis.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "util/rng.h"

namespace gatest {
namespace {

std::vector<TestVector> random_tests(const Circuit& c, int n, std::uint64_t s) {
  Rng rng(s);
  std::vector<TestVector> out;
  for (int i = 0; i < n; ++i) {
    TestVector v(c.num_inputs());
    for (Logic& b : v) b = rng.coin() ? Logic::One : Logic::Zero;
    out.push_back(std::move(v));
  }
  return out;
}

TEST(Diagnosis, SignatureMatchesFaultSimulatorDetections) {
  // A fault's dictionary signature is nonempty exactly when the fault
  // simulator detects it on the same test set, and the first failing vector
  // agrees with detected_by.
  const Circuit c = make_s27();
  FaultList fl(c);
  const auto tests = random_tests(c, 30, 5);
  FaultDictionary dict(c, fl.faults(), tests);

  SequentialFaultSimulator sim(c, fl);
  for (std::size_t i = 0; i < tests.size(); ++i)
    sim.apply_vector(tests[i], static_cast<std::int64_t>(i));

  for (std::size_t i = 0; i < fl.size(); ++i) {
    const bool detected = fl.status(i) == FaultStatus::Detected;
    EXPECT_EQ(!dict.signature(i).empty(), detected)
        << fault_name(c, fl.fault(i));
    if (detected) {
      EXPECT_EQ(static_cast<std::int64_t>(dict.signature(i).front().first),
                fl.detected_by(i))
          << fault_name(c, fl.fault(i));
    }
  }
}

TEST(Diagnosis, ObservedFaultRanksFirst) {
  // Injecting a dictionary fault and diagnosing its own signature must rank
  // it (or an indistinguishable equivalent) at the top with score 1.
  const Circuit c = make_s27();
  FaultList fl(c);
  const auto tests = random_tests(c, 40, 7);
  FaultDictionary dict(c, fl.faults(), tests);

  unsigned diagnosed = 0;
  for (std::uint32_t i = 0; i < dict.num_faults(); ++i) {
    if (dict.signature(i).empty()) continue;
    const auto candidates = dict.diagnose(dict.signature(i), 5);
    ASSERT_FALSE(candidates.empty());
    EXPECT_DOUBLE_EQ(candidates.front().score, 1.0);
    // The top-scoring group must contain fault i.
    bool found = false;
    for (const auto& cand : candidates)
      if (cand.score == 1.0 && cand.fault_index == i) found = true;
    // i might be ranked below top_k if many faults share the signature;
    // check signature equality instead in that case.
    if (!found) {
      EXPECT_EQ(dict.signature(candidates.front().fault_index),
                dict.signature(i));
    }
    ++diagnosed;
  }
  EXPECT_GT(diagnosed, 20u);
}

TEST(Diagnosis, EmptyObservationYieldsNoCandidates) {
  const Circuit c = make_s27();
  FaultList fl(c);
  FaultDictionary dict(c, fl.faults(), random_tests(c, 10, 9));
  EXPECT_TRUE(dict.diagnose({}).empty());
}

TEST(Diagnosis, ResolutionMetricsAreConsistent) {
  const Circuit c = make_s27();
  FaultList fl(c);
  FaultDictionary dict(c, fl.faults(), random_tests(c, 50, 11));
  const std::size_t classes = dict.num_distinguishable_classes();
  EXPECT_GT(classes, 0u);
  EXPECT_LE(classes, dict.num_faults());
  const double res = dict.diagnostic_resolution();
  EXPECT_GE(res, 0.0);
  EXPECT_LE(res, 1.0);
}

TEST(Diagnosis, BetterTestSetsImproveResolution) {
  // A longer test set can only refine signatures (prefix signatures are
  // subsets), so the class count must not drop.
  const Circuit c = make_s27();
  FaultList fl(c);
  const auto tests50 = random_tests(c, 50, 13);
  auto tests10 = tests50;
  tests10.resize(10);
  FaultDictionary small(c, fl.faults(), tests10);
  FaultDictionary big(c, fl.faults(), tests50);
  EXPECT_GE(big.num_distinguishable_classes(),
            small.num_distinguishable_classes());
}

TEST(Diagnosis, NoisyObservationStillFindsNeighborhood) {
  // Drop one failing position from an observed signature: the injected
  // fault should still appear among the candidates (score < 1).
  const Circuit c = make_s27();
  FaultList fl(c);
  FaultDictionary dict(c, fl.faults(), random_tests(c, 40, 17));
  for (std::uint32_t i = 0; i < dict.num_faults(); ++i) {
    Signature sig = dict.signature(i);
    if (sig.size() < 3) continue;
    sig.pop_back();
    const auto candidates = dict.diagnose(sig, dict.num_faults());
    const bool present =
        std::any_of(candidates.begin(), candidates.end(),
                    [&](const auto& cand) { return cand.fault_index == i; });
    EXPECT_TRUE(present);
    break;
  }
}

TEST(Diagnosis, WorksWithGatestTestSets) {
  const Circuit c = benchmark_circuit("s298", 3);
  FaultList fl(c);
  TestGenConfig cfg;
  cfg.seed = 19;
  GaTestGenerator gen(c, fl, cfg);
  const TestGenResult res = gen.run();

  FaultList fresh(c);
  FaultDictionary dict(c, fresh.faults(), res.test_set);
  // Every fault GATEST detected has a nonempty signature.
  std::size_t nonempty = 0;
  for (std::uint32_t i = 0; i < dict.num_faults(); ++i)
    if (!dict.signature(i).empty()) ++nonempty;
  EXPECT_EQ(nonempty, res.faults_detected);
  EXPECT_GT(dict.diagnostic_resolution(), 0.3);
}

TEST(Diagnosis, TransitionSignaturesMatchFaultSimulator) {
  // The dictionary's scalar per-fault simulation and the PROOFS-style
  // packed simulator are independent implementations of the transition
  // model; their detection verdicts and first-failing vectors must agree.
  for (const char* name : {"s27", "s298"}) {
    const Circuit c = benchmark_circuit(name);
    const std::vector<Fault> tf = enumerate_transition_faults(c);
    const auto tests = random_tests(c, 30, 29);
    FaultDictionary dict(c, tf, tests);

    FaultList fl(c, tf);
    SequentialFaultSimulator sim(c, fl);
    for (std::size_t i = 0; i < tests.size(); ++i)
      sim.apply_vector(tests[i], static_cast<std::int64_t>(i));

    for (std::size_t i = 0; i < fl.size(); ++i) {
      const bool detected = fl.status(i) == FaultStatus::Detected;
      ASSERT_EQ(!dict.signature(i).empty(), detected)
          << name << ": " << fault_name(c, fl.fault(i));
      if (detected) {
        EXPECT_EQ(static_cast<std::int64_t>(dict.signature(i).front().first),
                  fl.detected_by(i))
            << name << ": " << fault_name(c, fl.fault(i));
      }
    }
  }
}

TEST(Diagnosis, TransitionFaultSignatures) {
  const Circuit c = make_s27();
  const std::vector<Fault> tf = enumerate_transition_faults(c);
  FaultDictionary dict(c, tf, random_tests(c, 60, 23));
  std::size_t nonempty = 0;
  for (std::uint32_t i = 0; i < dict.num_faults(); ++i)
    if (!dict.signature(i).empty()) ++nonempty;
  EXPECT_GT(nonempty, tf.size() / 4);
}

// ---- every gate type ---------------------------------------------------------

/// A small sequential circuit of one gate type: a three- and a two-input
/// instance (one-input instances for BUF and NOT), each reading a primary
/// input and a flip-flop that holds the previous frame's `a`.
Circuit gate_circuit(GateType t) {
  const std::string k(gate_type_name(t));
  if (t == GateType::Buf || t == GateType::Not)
    return parse_bench_string("INPUT(a)\nOUTPUT(g)\nOUTPUT(h)\nq = DFF(a)\n"
                              "g = " + k + "(a)\nh = " + k + "(q)\n",
                              k);
  return parse_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(g)\nOUTPUT(h)\n"
                            "q = DFF(a)\ng = " + k + "(a, b, q)\nh = " + k +
                                "(b, q)\n",
                            k);
}

class DictionaryGateTest : public ::testing::TestWithParam<GateType> {};

TEST_P(DictionaryGateTest, SignaturesMatchFaultSimulator) {
  // The dictionary evaluates gates with the scalar eval_logic_gate, the
  // fault simulator with its compiled PackedGateOps: on a circuit of one
  // gate type their verdicts and first failing vectors agree for every
  // stuck-at (pin faults included) and every transition fault.
  const Circuit c = gate_circuit(GetParam());
  const auto tests = random_tests(c, 24, 31);
  for (const bool transition : {false, true}) {
    const char* model = transition ? "transition" : "stuck-at";
    const std::vector<Fault> universe = transition
                                            ? enumerate_transition_faults(c)
                                            : enumerate_all_faults(c);
    FaultDictionary dict(c, universe, tests);
    FaultList fl(c, universe);
    SequentialFaultSimulator sim(c, fl);
    for (std::size_t i = 0; i < tests.size(); ++i)
      sim.apply_vector(tests[i], static_cast<std::int64_t>(i));

    EXPECT_GT(fl.num_detected(), fl.size() / 2) << model;
    for (std::size_t i = 0; i < fl.size(); ++i) {
      const bool detected = fl.status(i) == FaultStatus::Detected;
      ASSERT_EQ(!dict.signature(i).empty(), detected)
          << model << ": " << fault_name(c, fl.fault(i));
      if (detected) {
        EXPECT_EQ(static_cast<std::int64_t>(dict.signature(i).front().first),
                  fl.detected_by(i))
            << model << ": " << fault_name(c, fl.fault(i));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    GateTypes, DictionaryGateTest,
    ::testing::Values(GateType::Buf, GateType::Not, GateType::And,
                      GateType::Nand, GateType::Or, GateType::Nor,
                      GateType::Xor, GateType::Xnor),
    [](const ::testing::TestParamInfo<GateType>& info) {
      return std::string(gate_type_name(info.param));
    });

}  // namespace
}  // namespace gatest
