// Tests for the netlist static-analysis layer (gatest-lint): every
// diagnostic has a positive test (a crafted netlist that triggers it) and a
// negative test (a clean netlist stays silent), and the fault-pruning
// classifier is checked for soundness against the fault simulator — it must
// never prune a fault the simulator can detect.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "analysis/diagnostic.h"
#include "analysis/implication.h"
#include "analysis/lint.h"
#include "analysis/prune.h"
#include "analysis/untestable.h"
#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "util/rng.h"

namespace gatest {
namespace {

using analysis::AnalysisReport;
using analysis::Severity;

bool has_code(const AnalysisReport& r, const std::string& code) {
  return std::any_of(r.diagnostics.begin(), r.diagnostics.end(),
                     [&](const analysis::Diagnostic& d) { return d.code == code; });
}

std::size_t count_code(const AnalysisReport& r, const std::string& code) {
  return static_cast<std::size_t>(
      std::count_if(r.diagnostics.begin(), r.diagnostics.end(),
                    [&](const analysis::Diagnostic& d) { return d.code == code; }));
}

const analysis::Diagnostic& first_with_code(const AnalysisReport& r,
                                            const std::string& code) {
  for (const analysis::Diagnostic& d : r.diagnostics)
    if (d.code == code) return d;
  throw std::runtime_error("no diagnostic with code " + code);
}

TestVector random_vector(std::size_t n, Rng& rng) {
  TestVector v(n);
  for (Logic& l : v) l = rng.next() & 1 ? Logic::One : Logic::Zero;
  return v;
}

// ---- report plumbing ---------------------------------------------------------

TEST(Diagnostics, SeverityCountsAndExitCodes) {
  AnalysisReport r;
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(analysis::exit_code(r), 0);
  r.add(Severity::Info, "deep-cone", "g", "hard");
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(analysis::exit_code(r), 0);
  r.add(Severity::Warning, "dead-gate", "g2", "dead");
  EXPECT_FALSE(r.clean());
  EXPECT_EQ(analysis::exit_code(r), 1);
  r.add(Severity::Error, "parse-error", "f.bench", "bad");
  EXPECT_EQ(analysis::exit_code(r), 2);
  EXPECT_EQ(r.count(Severity::Info), 1u);
  EXPECT_EQ(r.count(Severity::Warning), 1u);
  EXPECT_EQ(r.count(Severity::Error), 1u);
}

TEST(Diagnostics, TextRenderingShowsCodeAndLocation) {
  AnalysisReport r;
  r.circuit_name = "c17";
  r.add(Severity::Warning, "dead-gate", "g5", "no path to an output");
  std::ostringstream out;
  analysis::write_text(r, out);
  EXPECT_NE(out.str().find("c17: warning: [dead-gate] g5:"), std::string::npos);
  EXPECT_NE(out.str().find("1 warning(s)"), std::string::npos);
}

TEST(Diagnostics, JsonRenderingEscapesStrings) {
  AnalysisReport r;
  r.circuit_name = "we\"ird";
  r.add(Severity::Error, "parse-error", "line 1", "tab\there\nnewline");
  std::ostringstream out;
  analysis::write_json(r, out);
  const std::string s = out.str();
  EXPECT_NE(s.find("\"we\\\"ird\""), std::string::npos);
  EXPECT_NE(s.find("\\t"), std::string::npos);
  EXPECT_NE(s.find("\\n"), std::string::npos);
  EXPECT_NE(s.find("\"errors\":1"), std::string::npos);
}

// ---- lint passes: positive + negative per code -------------------------------

TEST(Lint, CleanBenchmarkCircuitHasNoWarnings) {
  for (const char* name : {"s27", "s298", "s344"}) {
    const AnalysisReport r = analysis::lint_circuit(benchmark_circuit(name));
    EXPECT_TRUE(r.clean()) << name;
    EXPECT_EQ(r.count(Severity::Warning), 0u) << name;
    EXPECT_EQ(r.stats.dead_gates, 0u) << name;
  }
}

TEST(Lint, DeadGateFlagged) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n",
      "deadckt");
  const AnalysisReport r = analysis::lint_circuit(c);
  ASSERT_TRUE(has_code(r, "dead-gate"));
  EXPECT_EQ(first_with_code(r, "dead-gate").location, "dead");
  EXPECT_EQ(r.stats.dead_gates, 1u);
  EXPECT_EQ(analysis::exit_code(r), 1);
}

TEST(Lint, DeadPrimaryInputFlaggedAsDead) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(unused)\nOUTPUT(o)\nsink = BUF(unused)\no = BUF(a)\n");
  const AnalysisReport r = analysis::lint_circuit(c);
  // Both the input and its sink are outside the output cone.
  EXPECT_EQ(count_code(r, "dead-gate"), 2u);
}

TEST(Lint, UndrivenOutputFlagged) {
  // A PO fed only by an isolated flip-flop pair has no PI/constant support.
  Circuit c("undriven");
  const GateId a = c.add_input("a");
  const GateId keep = c.add_gate(GateType::Buf, "keep", {a});
  const GateId f1 = c.add_dff("f1");
  const GateId f2 = c.add_dff("f2", f1);
  c.set_dff_input(f1, f2);
  c.add_output(keep);
  c.add_output(f2);
  c.finalize();
  const AnalysisReport r = analysis::lint_circuit(c);
  ASSERT_TRUE(has_code(r, "undriven-output"));
  EXPECT_EQ(first_with_code(r, "undriven-output").location, "f2");
}

TEST(Lint, NoUndrivenOutputOnDrivenCircuit) {
  const AnalysisReport r =
      analysis::lint_circuit(parse_bench_string("INPUT(a)\nOUTPUT(o)\no = NOT(a)\n"));
  EXPECT_FALSE(has_code(r, "undriven-output"));
  EXPECT_TRUE(r.clean());
}

TEST(Lint, UninitializableDffFlagged) {
  // ff = DFF(AND(ff, a)): settable to 0 but never to 1 -> constant-net, not
  // uninitializable.  ff2 = DFF(XOR(ff2, x&~x))... keep it simple: a flop fed
  // only by an isolated feedback loop can never leave X.
  Circuit c("noinit");
  const GateId a = c.add_input("a");
  const GateId f1 = c.add_dff("f1");
  const GateId f2 = c.add_dff("f2", f1);
  c.set_dff_input(f1, f2);
  const GateId g = c.add_gate(GateType::And, "g", {a, f2});
  c.add_output(g);
  c.finalize();
  const AnalysisReport r = analysis::lint_circuit(c);
  EXPECT_EQ(count_code(r, "uninitializable-dff"), 2u);
  EXPECT_EQ(r.stats.uninitializable_dffs, 2u);
}

TEST(Lint, InitializableDffNotFlagged) {
  const AnalysisReport r =
      analysis::lint_circuit(parse_bench_string(
          "INPUT(a)\nOUTPUT(f)\nf = DFF(a)\n"));
  EXPECT_FALSE(has_code(r, "uninitializable-dff"));
}

TEST(Lint, UninitializableDffCrossCheckedAgainstSimulator) {
  // Whatever the lint pass flags must agree with brute-force simulation:
  // flagged flops stay X under many random vectors; unflagged flops in this
  // circuit do get set.
  Circuit c("mix");
  const GateId a = c.add_input("a");
  const GateId good = c.add_dff("good", a);
  const GateId f1 = c.add_dff("f1");
  const GateId f2 = c.add_dff("f2", f1);
  c.set_dff_input(f1, f2);
  const GateId g = c.add_gate(GateType::Or, "g", {good, f2});
  c.add_output(g);
  c.finalize();

  const AnalysisReport r = analysis::lint_circuit(c);
  std::set<std::string> flagged;
  for (const analysis::Diagnostic& d : r.diagnostics)
    if (d.code == "uninitializable-dff") flagged.insert(d.location);
  EXPECT_EQ(flagged, (std::set<std::string>{"f1", "f2"}));

  FaultList faults(c);
  SequentialFaultSimulator sim(c, faults);
  Rng rng(42);
  for (int i = 0; i < 64; ++i)
    sim.apply_vector(random_vector(c.num_inputs(), rng), i);
  const std::vector<Logic> ffs = sim.good_ff_state();
  for (std::size_t i = 0; i < c.dffs().size(); ++i) {
    const std::string& name = c.gate(c.dffs()[i]).name;
    if (flagged.count(name))
      EXPECT_EQ(ffs[i], Logic::X) << name;
    else
      EXPECT_NE(ffs[i], Logic::X) << name;
  }
}

TEST(Lint, UnobservableStemFlagged) {
  // g is alive (its gate chain reaches the PO structurally) but its value is
  // masked by a constant 0 on the AND — sequential observability infinite.
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\n"
      "k = AND(a, na)\nna = NOT(a)\n"  // k == 0 always? no: SCOAP can't know.
      "g = OR(a, b)\no = AND(g, z)\nz = DFF(z2)\nz2 = DFF(z)\n",
      "masked");
  // z is an uninitializable flop: side input of the AND never controllable
  // to 1, so g (and a, b behind it) cannot be observed.
  const AnalysisReport r = analysis::lint_circuit(c);
  ASSERT_TRUE(has_code(r, "unobservable-stem"));
  std::set<std::string> stems;
  for (const analysis::Diagnostic& d : r.diagnostics)
    if (d.code == "unobservable-stem") stems.insert(d.location);
  EXPECT_TRUE(stems.count("g"));
}

TEST(Lint, ObservableStemsSilent) {
  const AnalysisReport r = analysis::lint_circuit(benchmark_circuit("s27"));
  EXPECT_FALSE(has_code(r, "unobservable-stem"));
}

TEST(Lint, ConstantNetFlagged) {
  // n = AND(a, NOT(a)) is structurally fine but SCOAP-wise can never be 1
  // only when the reconvergence is invisible... use a real constant instead.
  Circuit c("const");
  const GateId a = c.add_input("a");
  const GateId k = c.add_gate(GateType::Const0, "k", {});
  const GateId g = c.add_gate(GateType::And, "g", {a, k});
  const GateId o = c.add_gate(GateType::Or, "o", {g, a});
  c.add_output(o);
  c.finalize();
  const AnalysisReport r = analysis::lint_circuit(c);
  ASSERT_TRUE(has_code(r, "constant-net"));
  EXPECT_EQ(first_with_code(r, "constant-net").location, "g");
  // The explicit Const0 node itself is not reported (constant by design).
  for (const analysis::Diagnostic& d : r.diagnostics)
    EXPECT_NE(d.location, "k");
}

TEST(Lint, NonConstantNetsSilent) {
  const AnalysisReport r = analysis::lint_circuit(benchmark_circuit("s298"));
  EXPECT_FALSE(has_code(r, "constant-net"));
}

TEST(Lint, ExcessiveFanoutFlaggedAtThreshold) {
  Circuit c("fan");
  const GateId a = c.add_input("a");
  std::vector<GateId> bufs;
  for (int i = 0; i < 5; ++i)
    bufs.push_back(c.add_gate(
        GateType::Buf, std::string("b").append(std::to_string(i)), {a}));
  for (GateId b : bufs) c.add_output(b);
  c.finalize();
  analysis::LintOptions opts;
  opts.max_fanout = 4;
  const AnalysisReport r = analysis::lint_circuit(c, opts);
  ASSERT_TRUE(has_code(r, "excessive-fanout"));
  EXPECT_EQ(first_with_code(r, "excessive-fanout").location, "a");
  opts.max_fanout = 5;
  EXPECT_FALSE(has_code(analysis::lint_circuit(c, opts), "excessive-fanout"));
}

TEST(Lint, DeepConeInfoDoesNotAffectExitCode) {
  analysis::LintOptions opts;
  opts.deep_cone_threshold = 1;  // everything qualifies
  const AnalysisReport r =
      analysis::lint_circuit(benchmark_circuit("s27"), opts);
  EXPECT_TRUE(has_code(r, "deep-cone"));
  EXPECT_TRUE(r.clean());
  EXPECT_EQ(analysis::exit_code(r), 0);
  // Reports are capped; the truncation note carries the remainder.
  EXPECT_LE(count_code(r, "deep-cone"), opts.max_deep_cone_reports + 1);
}

TEST(Lint, StatsMatchCircuitTopology) {
  const Circuit c = benchmark_circuit("s298");
  const AnalysisReport r = analysis::lint_circuit(c);
  EXPECT_EQ(r.stats.num_gates, c.num_gates());
  EXPECT_EQ(r.stats.num_inputs, c.num_inputs());
  EXPECT_EQ(r.stats.num_outputs, c.num_outputs());
  EXPECT_EQ(r.stats.num_dffs, c.num_dffs());
  EXPECT_EQ(r.stats.num_levels, c.num_levels());
  EXPECT_EQ(r.stats.sequential_depth, c.sequential_depth());
  EXPECT_GT(r.stats.num_ffrs, 0u);
  EXPECT_GE(r.stats.max_ffr_size, 1u);
  EXPECT_GT(r.stats.max_fanout, 1u);
  // FFR regions partition the nodes.
  EXPECT_LE(r.stats.num_ffrs, c.num_gates());
}

TEST(Lint, RejectsUnfinalizedCircuit) {
  Circuit c("raw");
  c.add_input("a");
  EXPECT_THROW(analysis::lint_circuit(c), std::runtime_error);
}

TEST(Lint, BenchWarningsSurfaceAheadOfCircuitFindings) {
  std::vector<BenchWarning> warnings;
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\nspare = OR(a, b)\n",
      "w", &warnings);
  AnalysisReport r = analysis::lint_circuit(c);
  analysis::add_bench_warnings(r, warnings);
  ASSERT_TRUE(has_code(r, "unused-signal"));
  EXPECT_EQ(r.diagnostics.front().code, "unused-signal");
  EXPECT_EQ(r.diagnostics.front().location, "line 5");
  // The same net also trips the circuit-level dead-gate pass.
  EXPECT_TRUE(has_code(r, "dead-gate"));
}

// ---- fault pruning: classification -------------------------------------------

TEST(Prune, CleanCircuitPrunesNothing) {
  const Circuit c = benchmark_circuit("s298");
  const FaultList faults(c);
  const auto tags = analysis::classify_untestable(c, faults.faults());
  EXPECT_EQ(analysis::summarize_tags(tags).pruned, 0u);
}

TEST(Prune, DeadGateFaultsAreUnobservable) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n");
  FaultList faults(c);
  const auto tags = analysis::classify_untestable(c, faults.faults());
  const analysis::PruneSummary s = analysis::summarize_tags(tags);
  EXPECT_GT(s.pruned, 0u);
  EXPECT_GT(s.unobservable, 0u);
  // Specifically: both polarities on the dead OR's output.
  const GateId dead = c.find("dead");
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (faults.fault(i).gate == dead &&
        faults.fault(i).pin == Fault::kOutputPin) {
      EXPECT_EQ(tags[i], UntestableTag::Unobservable);
    }
}

TEST(Prune, ConstantMaskedFaultsAreUnactivatable) {
  Circuit c("const");
  const GateId a = c.add_input("a");
  const GateId k = c.add_gate(GateType::Const0, "k", {});
  const GateId g = c.add_gate(GateType::And, "g", {a, k});
  const GateId o = c.add_gate(GateType::Or, "o", {g, a});
  c.add_output(o);
  c.finalize();
  // g is stuck at 0 by construction: s-a-0 on g can never be activated
  // (needs g == 1), while s-a-1 flips o whenever a == 0 and stays testable.
  const std::vector<Fault> targeted = {Fault{g, Fault::kOutputPin, 0},
                                       Fault{g, Fault::kOutputPin, 1}};
  const auto tags = analysis::classify_untestable(c, targeted);
  EXPECT_EQ(tags[0], UntestableTag::Unactivatable);
  EXPECT_EQ(tags[1], UntestableTag::None);

  // The same masking shows up in the collapsed universe as an unobservable
  // representative on g's live input pin (side input can never be 1).
  FaultList faults(c);
  const auto all = analysis::classify_untestable(c, faults.faults());
  EXPECT_GT(analysis::summarize_tags(all).pruned, 0u);
}

TEST(Prune, TransitionFaultsNeverClassified) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n");
  const FaultList faults(c, enumerate_transition_faults(c));
  const auto tags = analysis::classify_untestable(c, faults.faults());
  for (UntestableTag t : tags) EXPECT_EQ(t, UntestableTag::None);
}

// ---- fault pruning: soundness against the simulator --------------------------

// The classifier must never prune a fault the simulator can detect: apply
// many random vectors to the full universe, then check that no detected
// fault carries an untestable tag.
TEST(Prune, NeverPrunesASimulatorDetectableFault) {
  for (const char* name : {"s27", "s298", "s344"}) {
    const Circuit c = benchmark_circuit(name);
    FaultList faults(c);
    const auto tags = analysis::classify_untestable(c, faults.faults());
    SequentialFaultSimulator sim(c, faults);
    Rng rng(7);
    for (int i = 0; i < 256; ++i)
      sim.apply_vector(random_vector(c.num_inputs(), rng), i);
    for (std::size_t i = 0; i < faults.size(); ++i) {
      if (faults.status(i) == FaultStatus::Detected) {
        EXPECT_EQ(tags[i], UntestableTag::None)
            << name << ": " << fault_name(c, faults.fault(i));
      }
    }
  }
}

TEST(Prune, SoundOnPathologicalCircuit) {
  // Crafted circuit mixing dead logic, constants, and an uninitializable
  // flop — prunable faults exist, detectable faults must survive untouched.
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(p)\n"
      "dead = OR(a, b)\n"
      "z = DFF(z2)\nz2 = DFF(z)\n"
      "m = AND(a, z)\n"
      "o = OR(m, b)\np = NAND(a, b)\n",
      "patho");
  FaultList faults(c);
  const auto tags = analysis::classify_untestable(c, faults.faults());
  const analysis::PruneSummary s = analysis::summarize_tags(tags);
  EXPECT_GT(s.pruned, 0u);
  EXPECT_LT(s.pruned, faults.size());

  SequentialFaultSimulator sim(c, faults);
  Rng rng(99);
  for (int i = 0; i < 256; ++i)
    sim.apply_vector(random_vector(c.num_inputs(), rng), i);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults.status(i) == FaultStatus::Detected) {
      EXPECT_EQ(tags[i], UntestableTag::None) << fault_name(c, faults.fault(i));
    }
  }
}

TEST(Prune, MarkSkipsDetectedFaults) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n");
  FaultList faults(c);
  // Artificially mark a prunable fault detected; the accounting pass must
  // leave it Detected and count the conflict instead of downgrading it.
  const auto tags = analysis::classify_untestable(c, faults.faults());
  std::size_t prunable = faults.size();
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (tags[i] != UntestableTag::None) { prunable = i; break; }
  ASSERT_LT(prunable, faults.size());
  faults.mark_detected(prunable, 0);

  const analysis::PruneSummary s = analysis::mark_untestable_faults(faults, tags);
  EXPECT_EQ(faults.status(prunable), FaultStatus::Detected);
  EXPECT_EQ(s.already_detected, 1u);
  // Every other prunable fault became Untestable and keeps its tag.
  for (std::size_t i = 0; i < faults.size(); ++i) {
    EXPECT_EQ(faults.tag(i), tags[i]);
    if (tags[i] != UntestableTag::None && i != prunable) {
      EXPECT_EQ(faults.status(i), FaultStatus::Untestable);
    }
  }
  EXPECT_EQ(faults.num_untestable(), s.pruned - 1);
}

TEST(Prune, UntestableFaultsLeaveSamplingPool) {
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\ndead = OR(a, b)\n");
  FaultList faults(c);
  const std::size_t before = faults.undetected_indices().size();
  const analysis::PruneSummary s = analysis::mark_untestable_faults(faults);
  EXPECT_EQ(faults.undetected_indices().size(), before - s.pruned);
}

// ---- generator accounting ----------------------------------------------------

TEST(Prune, GeneratorRunIsIdenticalWithPruningEnabled) {
  // The whole point of accounting-only pruning: same seed, same tests, same
  // detected set — only the efficiency denominator moves.
  const Circuit c = parse_bench_string(
      "INPUT(a)\nINPUT(b)\nOUTPUT(o)\nOUTPUT(p)\n"
      "dead = OR(a, b)\n"
      "f = DFF(g)\ng = AND(a, f)\n"
      "o = OR(g, b)\np = NAND(a, b)\n",
      "prune_identity");
  TestGenConfig cfg;
  cfg.seed = 5;

  FaultList plain_faults(c);
  GaTestGenerator plain(c, plain_faults, cfg);
  const TestGenResult base = plain.run();

  cfg.prune_untestable = true;
  FaultList pruned_faults(c);
  GaTestGenerator pruned(c, pruned_faults, cfg);
  const TestGenResult with = pruned.run();

  EXPECT_EQ(base.test_set, with.test_set);
  EXPECT_EQ(base.faults_detected, with.faults_detected);
  EXPECT_EQ(base.fitness_evaluations, with.fitness_evaluations);
  for (std::size_t i = 0; i < plain_faults.size(); ++i)
    EXPECT_EQ(plain_faults.status(i) == FaultStatus::Detected,
              pruned_faults.status(i) == FaultStatus::Detected);

  EXPECT_GT(with.faults_pruned, 0u);
  EXPECT_EQ(base.faults_pruned, 0u);
  EXPECT_GE(with.fault_efficiency, with.fault_coverage);
  const double expect_eff =
      static_cast<double>(with.faults_detected) /
      static_cast<double>(with.faults_total - with.faults_pruned);
  EXPECT_DOUBLE_EQ(with.fault_efficiency, expect_eff);
  // Without pruning, efficiency degenerates to coverage.
  EXPECT_DOUBLE_EQ(base.fault_efficiency, base.fault_coverage);
}

// ---- implication engine ------------------------------------------------------

using analysis::ValueSet;

// The classic redundancy the value-set layer cannot see: s == a and
// ns == NOT(a) reconverge at g = AND(s, ns), so g is constant 0 even though
// S(g) = {0,1}.  Only the literal implication closure proves it.
Circuit redundant_cone_circuit() {
  Circuit c("redundant");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId k = c.add_gate(GateType::Const0, "k", {});
  const GateId s = c.add_gate(GateType::Xor, "s", {a, k});
  const GateId ns = c.add_gate(GateType::Not, "ns", {a});
  const GateId g = c.add_gate(GateType::And, "g", {s, ns});
  const GateId o = c.add_gate(GateType::Or, "o", {b, g});
  c.add_output(o);
  c.finalize();
  return c;
}

// Redundant cone plus an uninitializable flop feeding a live gate: m can be
// proven stuck-at-0 untestable (m = 1 needs z = 1, unreachable) but m is not
// always binary, so the proof is non-inert.
Circuit mixed_proof_circuit() {
  Circuit c("mixedproof");
  const GateId a = c.add_input("a");
  const GateId b = c.add_input("b");
  const GateId k = c.add_gate(GateType::Const0, "k", {});
  const GateId s = c.add_gate(GateType::Xor, "s", {a, k});
  const GateId ns = c.add_gate(GateType::Not, "ns", {a});
  const GateId g = c.add_gate(GateType::And, "g", {s, ns});
  const GateId o = c.add_gate(GateType::Or, "o", {b, g});
  c.add_output(o);
  const GateId z = c.add_dff("z");
  const GateId z2 = c.add_dff("z2", z);
  c.set_dff_input(z, z2);
  const GateId m = c.add_gate(GateType::And, "m", {a, z});
  c.add_output(m);
  c.finalize();
  return c;
}

TEST(Implication, ValueSetAlgebra) {
  const ValueSet zero = ValueSet::of(Logic::Zero);
  EXPECT_TRUE(zero.can(Logic::Zero));
  EXPECT_FALSE(zero.can(Logic::One));
  EXPECT_TRUE(zero.singleton_binary());
  EXPECT_EQ(zero.singleton_value(), Logic::Zero);
  const ValueSet both = zero | ValueSet::of(Logic::One);
  EXPECT_TRUE(both.can_binary());
  EXPECT_FALSE(both.singleton_binary());
  EXPECT_FALSE(both.can(Logic::X));
  EXPECT_TRUE(ValueSet().empty());
  EXPECT_FALSE((both | ValueSet::of(Logic::X)).singleton_binary());
}

TEST(Implication, ValueSetsOverApproximateReachableValues) {
  const Circuit c = redundant_cone_circuit();
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  // Constants are pinned; primary inputs are free but never X.
  EXPECT_TRUE(sets[c.find("k")].singleton_binary());
  EXPECT_EQ(sets[c.find("k")].singleton_value(), Logic::Zero);
  EXPECT_TRUE(sets[c.find("a")].can(Logic::Zero));
  EXPECT_TRUE(sets[c.find("a")].can(Logic::One));
  EXPECT_FALSE(sets[c.find("a")].can(Logic::X));
  // Reconvergence is invisible to the abstraction: g is constant 0 in
  // reality, but its set still admits 1 (a sound over-approximation).
  EXPECT_TRUE(sets[c.find("g")].can(Logic::One));
  EXPECT_FALSE(sets[c.find("g")].can(Logic::X));
}

TEST(Implication, ValueSetsIncludeFlipFlopResetX) {
  const Circuit c = parse_bench_string("INPUT(a)\nOUTPUT(f)\nf = DFF(a)\n");
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  // S(FF) = {X} ∪ S(data-in): the reset state never leaves the set.
  EXPECT_TRUE(sets[c.find("f")].can(Logic::X));
  EXPECT_TRUE(sets[c.find("f")].can(Logic::Zero));
  EXPECT_TRUE(sets[c.find("f")].can(Logic::One));
}

TEST(Implication, ForwardAndBackwardClosure) {
  const Circuit c =
      parse_bench_string("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = AND(a, b)\n");
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  analysis::ImplicationEngine eng(c, sets);
  // Forward: a controlling 0 determines the AND output.
  ASSERT_TRUE(eng.assume(c.find("a"), Logic::Zero));
  EXPECT_EQ(eng.value(c.find("o")), Logic::Zero);
  EXPECT_EQ(eng.value(c.find("b")), Logic::X);
  // Backward: AND = 1 forces every input to 1.
  ASSERT_TRUE(eng.assume(c.find("o"), Logic::One));
  EXPECT_EQ(eng.value(c.find("a")), Logic::One);
  EXPECT_EQ(eng.value(c.find("b")), Logic::One);
  // A non-controlling input alone implies nothing about the output.
  ASSERT_TRUE(eng.assume(c.find("b"), Logic::One));
  EXPECT_EQ(eng.value(c.find("o")), Logic::X);
}

TEST(Implication, LastRemainingInputRuleUsesConstantSeeds) {
  // o = AND(a, k1) with k1 constant 1: o = 0 forces the only free input.
  Circuit c("lastinput");
  const GateId a = c.add_input("a");
  const GateId k1 = c.add_gate(GateType::Const1, "k1", {});
  const GateId o = c.add_gate(GateType::And, "o", {a, k1});
  c.add_output(o);
  c.finalize();
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  analysis::ImplicationEngine eng(c, sets);
  ASSERT_TRUE(eng.assume(o, Logic::Zero));
  EXPECT_EQ(eng.value(k1), Logic::One);  // constant seed
  EXPECT_EQ(eng.value(a), Logic::Zero);  // last remaining input
}

TEST(Implication, ReconvergenceConflictAndEngineReuse) {
  const Circuit c = redundant_cone_circuit();
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  analysis::ImplicationEngine eng(c, sets);
  // g = 1 needs s = 1 (so a = 1 via XOR parity) and ns = 1 (so a = 0).
  EXPECT_FALSE(eng.assume(c.find("g"), Logic::One));
  EXPECT_EQ(eng.conflict(), analysis::ConflictKind::DoubleAssignment);
  EXPECT_NE(eng.conflict_net(), kNoGate);  // surfaces somewhere in the cone
  EXPECT_FALSE(eng.conflict_reason().empty());
  // The trail rolls back: the same engine answers fresh queries afterwards.
  EXPECT_TRUE(eng.assume(c.find("g"), Logic::Zero));
  EXPECT_EQ(eng.conflict(), analysis::ConflictKind::None);
}

TEST(Implication, ValueSetConflictOnUnreachableFlopState) {
  const Circuit c = mixed_proof_circuit();
  const std::vector<ValueSet> sets = analysis::compute_value_sets(c);
  analysis::ImplicationEngine eng(c, sets);
  // m = 1 forces z = 1, but the isolated flop pair can only ever hold X.
  EXPECT_FALSE(eng.assume(c.find("m"), Logic::One));
  EXPECT_EQ(eng.conflict(), analysis::ConflictKind::ValueSetConflict);
}

// ---- untestability prover ----------------------------------------------------

using analysis::FaultProof;
using analysis::ProofKind;

TEST(Untestable, ProofKindsOnRedundantCone) {
  const Circuit c = redundant_cone_circuit();
  analysis::UntestabilityProver prover(c);
  // g is constant 0 by reconvergence: s-a-0 can never be activated, and the
  // site is always binary, so the proof is inert (safe to prune).
  const FaultProof g0 = prover.prove({c.find("g"), Fault::kOutputPin, 0});
  EXPECT_EQ(g0.kind, ProofKind::ActivationConflict);
  EXPECT_TRUE(g0.inert);
  EXPECT_FALSE(g0.witness.empty());
  // g s-a-1 is testable (o flips whenever b = 0): no proof.
  EXPECT_FALSE(prover.prove({c.find("g"), Fault::kOutputPin, 1}).proven());
  // The Const0 node itself can never settle to 1: constant-site proof.
  const FaultProof k0 = prover.prove({c.find("k"), Fault::kOutputPin, 0});
  EXPECT_EQ(k0.kind, ProofKind::ConstantSite);
  EXPECT_TRUE(k0.inert);
  // s s-a-0: activation (s = 1) pins the single reader's side input ns to
  // the AND's controlling value — the effect never leaves the site.
  const FaultProof s0 = prover.prove({c.find("s"), Fault::kOutputPin, 0});
  EXPECT_EQ(s0.kind, ProofKind::BlockedPropagation);
  EXPECT_TRUE(s0.inert);
}

TEST(Untestable, UnreachableFlopStateProofIsNotInert) {
  const Circuit c = mixed_proof_circuit();
  analysis::UntestabilityProver prover(c);
  // m = AND(a, z) with z pinned at X: S(m) = {0, X}, so m s-a-0 (activation
  // m = 1) is refuted by the value-set layer alone.  But m is not always
  // binary — pruning it would change the activity observables — so the
  // proof is proven yet not inert.
  const FaultProof m0 = prover.prove({c.find("m"), Fault::kOutputPin, 0});
  EXPECT_EQ(m0.kind, ProofKind::ConstantSite);
  EXPECT_FALSE(m0.inert);
}

TEST(Untestable, TransitionFaultsNeverProven) {
  const Circuit c = mixed_proof_circuit();
  const std::vector<FaultProof> proofs =
      analysis::prove_untestable(c, enumerate_transition_faults(c));
  for (const FaultProof& p : proofs) EXPECT_FALSE(p.proven());
}

TEST(Untestable, SoundAgainstSimulatorOnProofRichCircuit) {
  const Circuit c = mixed_proof_circuit();
  FaultList faults(c);
  const std::vector<FaultProof> proofs =
      analysis::prove_untestable(c, faults.faults());
  EXPECT_GT(analysis::summarize_proofs(proofs).proven, 0u);
  SequentialFaultSimulator sim(c, faults);
  Rng rng(11);
  for (int i = 0; i < 256; ++i)
    sim.apply_vector(random_vector(c.num_inputs(), rng), i);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (faults.status(i) != FaultStatus::Detected) continue;
    EXPECT_FALSE(proofs[i].proven())
        << fault_name(c, faults.fault(i)) << ": " << proofs[i].witness;
  }
}

// Collapse classes group *equivalent* faults, so a proof about a class
// representative is a proof about every member: simulate the full
// uncollapsed universe and check no member of a proven class is detected.
TEST(Untestable, CollapseNeverMergesProvenClassOntoTestableFault) {
  const Circuit c = mixed_proof_circuit();
  std::vector<std::uint32_t> class_of;
  std::vector<Fault> universe;
  const std::vector<Fault> reps = collapse_faults(c, &class_of, &universe);
  const std::vector<FaultProof> proofs = analysis::prove_untestable(c, reps);
  ASSERT_EQ(class_of.size(), universe.size());

  FaultList full(c, universe);
  SequentialFaultSimulator sim(c, full);
  Rng rng(23);
  for (int i = 0; i < 256; ++i)
    sim.apply_vector(random_vector(c.num_inputs(), rng), i);
  std::size_t proven_members = 0;
  for (std::size_t i = 0; i < universe.size(); ++i) {
    const FaultProof& rep_proof = proofs[class_of[i]];
    if (rep_proof.proven()) ++proven_members;
    if (full.status(i) == FaultStatus::Detected) {
      EXPECT_FALSE(rep_proof.proven())
          << fault_name(c, universe[i]) << " detected but its representative "
          << fault_name(c, reps[class_of[i]])
          << " is proven: " << rep_proof.witness;
    }
  }
  // The redundant cone contributes whole proven classes.
  EXPECT_GT(proven_members, 0u);
  EXPECT_LT(proven_members, universe.size());
}

TEST(Untestable, ApplyPruningTagsProvenAndPrunesInertOnly) {
  const Circuit c = mixed_proof_circuit();
  FaultList faults(c);
  const std::vector<FaultProof> proofs =
      analysis::prove_untestable(c, faults.faults());
  const analysis::ProvenSummary s =
      analysis::apply_proven_pruning(faults, proofs);
  EXPECT_GT(s.proven, 0u);
  EXPECT_GT(s.inert, 0u);
  EXPECT_LT(s.inert, s.proven);  // the flop-state proof is non-inert
  EXPECT_EQ(s.already_detected, 0u);
  EXPECT_EQ(faults.num_pruned(), s.inert);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (!proofs[i].proven()) {
      EXPECT_NE(faults.tag(i), UntestableTag::Proven);
      EXPECT_FALSE(faults.pruned(i));
      continue;
    }
    EXPECT_EQ(faults.tag(i), UntestableTag::Proven);
    if (proofs[i].inert) {
      EXPECT_TRUE(faults.pruned(i));
      EXPECT_EQ(faults.status(i), FaultStatus::Untestable);
    } else {
      // Non-inert proven faults stay simulated: their X-vs-binary activity
      // feeds the event-count observables.
      EXPECT_FALSE(faults.pruned(i));
      EXPECT_EQ(faults.status(i), FaultStatus::Undetected);
    }
  }
  // Pruning survives reset(): checkpoint restore and serve slices must see
  // the same universe the run started with.
  faults.reset();
  EXPECT_EQ(faults.num_pruned(), s.inert);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (proofs[i].proven() && proofs[i].inert) {
      EXPECT_TRUE(faults.pruned(i));
      EXPECT_EQ(faults.status(i), FaultStatus::Untestable);
    }
}

TEST(Untestable, ApplyPruningNeverDowngradesDetected) {
  const Circuit c = mixed_proof_circuit();
  FaultList faults(c);
  const std::vector<FaultProof> proofs =
      analysis::prove_untestable(c, faults.faults());
  std::size_t inert_idx = faults.size();
  for (std::size_t i = 0; i < proofs.size(); ++i)
    if (proofs[i].proven() && proofs[i].inert) { inert_idx = i; break; }
  ASSERT_LT(inert_idx, faults.size());
  // A (hypothetically) detected fault must keep its detection even when a
  // proof exists — the conflict is surfaced via already_detected instead.
  faults.mark_detected(inert_idx, 3);
  const analysis::ProvenSummary s =
      analysis::apply_proven_pruning(faults, proofs);
  EXPECT_EQ(s.already_detected, 1u);
  EXPECT_EQ(faults.status(inert_idx), FaultStatus::Detected);
  EXPECT_FALSE(faults.pruned(inert_idx));
}

TEST(Untestable, MarkProvenFaultsRetiresNonInertToo) {
  const Circuit c = mixed_proof_circuit();
  FaultList faults(c);
  const std::vector<FaultProof> proofs =
      analysis::prove_untestable(c, faults.faults());
  analysis::mark_proven_faults(faults, proofs);
  // Post-run accounting: every proven fault (inert or not) leaves the
  // efficiency denominator, but nothing is removed from the universe.
  EXPECT_EQ(faults.num_pruned(), 0u);
  for (std::size_t i = 0; i < faults.size(); ++i)
    if (proofs[i].proven()) {
      EXPECT_EQ(faults.tag(i), UntestableTag::Proven);
      EXPECT_EQ(faults.status(i), FaultStatus::Untestable);
    }
}

}  // namespace
}  // namespace gatest
