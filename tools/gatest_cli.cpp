// gatest_atpg — command-line sequential ATPG.
//
// Runs any of the library's engines on a .bench netlist (or a built-in
// benchmark profile), optionally compacts the test set, and writes the
// vectors plus a per-fault report.
//
// Examples:
//   gatest_atpg --profile s298 --engine ga --seed 3 --out tests.txt
//   gatest_atpg --circuit mydesign.bench --engine two-pass --report
//   gatest_atpg --profile s1423 --engine ga --sample 200 --threads 4 --compact
//   gatest_atpg --profile s386 --engine ga --scan        # full-scan version
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>

#include <iostream>

#include "analysis/lint.h"
#include "analysis/prune.h"
#include "analysis/untestable.h"
#include "atpg/cris_lite.h"
#include "atpg/hitec_lite.h"
#include "atpg/random_tpg.h"
#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "gatest/checkpoint.h"
#include "gatest/compaction.h"
#include "gatest/test_generator.h"
#include "netlist/bench_io.h"
#include "netlist/scan.h"
#include "sim/responses.h"
#include "sim/vcd.h"
#include "telemetry/telemetry.h"
#include "util/run_control.h"

using namespace gatest;

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::fprintf(
      stderr,
      "usage: %s (--circuit FILE.bench | --profile NAME) [options]\n"
      "\n"
      "engines:\n"
      "  --engine ga         GA-based generator (GATEST, default)\n"
      "  --engine random     fault-simulated random vectors\n"
      "  --engine cris       CRIS-style logic-simulation GA baseline\n"
      "  --engine hitec      deterministic time-frame PODEM baseline\n"
      "  --engine two-pass   GATEST first, then PODEM on the survivors\n"
      "\n"
      "options:\n"
      "  --seed N            RNG seed, non-negative (default 1)\n"
      "  --sample N          fault-sample size for GA fitness (0 = full)\n"
      "  --threads N         parallel fitness evaluation threads (>= 1)\n"
      "  --gap G             generation gap in (0,1] (default 1 = "
      "non-overlapping)\n"
      "  --coding binary|nonbinary\n"
      "  --selection roulette|sus|tournament|tournament-r\n"
      "  --crossover 1point|2point|uniform\n"
      "  --model stuck|transition   fault model (GA engines only for "
      "transition)\n"
      "  --scan              run on the full-scan version of the circuit\n"
      "  --compact           compact the final test set\n"
      "  --out FILE          write test vectors (one per line)\n"
      "  --responses FILE    write fault-free output responses ('x' = mask)\n"
      "  --vcd FILE          write a fault-free waveform trace of the tests\n"
      "  --write-bench FILE  dump the (possibly generated) netlist\n"
      "  --report            list undetected faults\n"
      "\n"
      "static analysis (gatest-lint; see also the gatest_lint tool):\n"
      "  --lint              print structural diagnostics before generation\n"
      "  --lint-only         print diagnostics and exit (0 clean, 1 warnings)\n"
      "  --prune-untestable  classify structurally untestable faults and\n"
      "                      report fault efficiency next to coverage\n"
      "                      (accounting only: generated tests and detected\n"
      "                      faults are identical to an unpruned run)\n"
      "  --prune-proven      prove faults untestable with the static\n"
      "                      implication engine and remove the provably\n"
      "                      inert subset from the simulated universe\n"
      "                      (generated tests and detected faults stay\n"
      "                      bit-identical to an unpruned run)\n"
      "\n"
      "run control (GA engines; SIGINT/SIGTERM stop cooperatively and flush):\n"
      "  --time-limit SEC    stop after SEC seconds of wall clock\n"
      "  --max-evals N       stop after N fitness evaluations\n"
      "  --max-vectors N     stop once N vectors are committed\n"
      "  --checkpoint FILE   write periodic + on-stop checkpoints to FILE\n"
      "  --checkpoint-interval SEC   periodic save cadence (default 30)\n"
      "  --resume FILE       continue a run from a checkpoint (same circuit;\n"
      "                      the checkpoint's seed is used)\n"
      "\n"
      "telemetry (GA engines; observation-only — the generated test set is\n"
      "bit-identical with or without these, at any thread count):\n"
      "  --metrics-out FILE  write a metrics snapshot (counters, gauges,\n"
      "                      latency histograms) as JSON after the run\n"
      "  --trace-out FILE    write structured JSONL run-trace events (phases,\n"
      "                      GA runs, generations, commits, checkpoints);\n"
      "                      summarize with the gatest_report tool\n"
      "  --progress          live one-line status on stderr\n"
      "  --quiet             suppress informational stderr messages\n"
      "  --verbose           debug-level stderr messages + metrics table\n",
      prog);
  std::exit(code);
}

/// One-line diagnostic naming the rejected flag — and, for a bad value,
/// what it expects — then exit 2.  Without `expected` the flag is unknown.
[[noreturn]] void flag_error(const char* flag, const char* expected = nullptr,
                             const char* got = "") {
  if (expected)
    std::fprintf(stderr, "gatest_atpg: %s expects %s, got '%s'\n", flag,
                 expected, got);
  else
    std::fprintf(stderr, "gatest_atpg: unknown flag '%s' (see --help)\n",
                 flag);
  std::exit(2);
}

/// The value after flag argv[i] (advancing i past it); a flag given last,
/// without its value, gets the same one-line diagnostic as a bad value.
const char* arg_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    std::fprintf(stderr, "gatest_atpg: %s requires a value\n", argv[i]);
    std::exit(2);
  }
  return argv[++i];
}

/// Strict unsigned integer parse: the whole token must be digits (an
/// explicit rejection of the old atoi-style "accept any prefix" behavior).
unsigned long long parse_uint(const char* flag, const char* s,
                              unsigned long long min_value = 0) {
  if (*s == '\0' || *s == '-' || *s == '+')
    flag_error(flag, "a non-negative integer", s);
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno == ERANGE || end == s || *end != '\0')
    flag_error(flag, "a non-negative integer", s);
  if (v < min_value) {
    char what[64];
    std::snprintf(what, sizeof what, "an integer >= %llu", min_value);
    flag_error(flag, what, s);
  }
  return v;
}

/// Strict double parse; the caller constrains the range.
double parse_double(const char* flag, const char* s, const char* expected) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno == ERANGE || end == s || *end != '\0') flag_error(flag, expected, s);
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit_file, profile, engine = "ga", out_file, bench_out;
  std::string model = "stuck", resp_file, vcd_file;
  std::string checkpoint_file, resume_file;
  std::string metrics_file, trace_file;
  bool do_compact = false, do_report = false, do_scan = false;
  bool do_lint = false, lint_only = false;
  bool show_progress = false;
  TestGenConfig cfg;
  RunControl rc;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--circuit") circuit_file = arg_value(argc, argv, i);
    else if (a == "--profile") profile = arg_value(argc, argv, i);
    else if (a == "--engine") {
      engine = arg_value(argc, argv, i);
      if (engine != "ga" && engine != "random" && engine != "cris" &&
          engine != "hitec" && engine != "two-pass")
        flag_error("--engine", "ga|random|cris|hitec|two-pass", engine.c_str());
    }
    else if (a == "--seed") cfg.seed = parse_uint("--seed", arg_value(argc, argv, i));
    else if (a == "--sample") cfg.fault_sample_size = static_cast<unsigned>(parse_uint("--sample", arg_value(argc, argv, i)));
    else if (a == "--threads") cfg.num_threads = static_cast<unsigned>(parse_uint("--threads", arg_value(argc, argv, i), 1));
    else if (a == "--gap") {
      const char* v = arg_value(argc, argv, i);
      cfg.generation_gap = parse_double("--gap", v, "a number in (0,1]");
      if (!(cfg.generation_gap > 0.0 && cfg.generation_gap <= 1.0))
        flag_error("--gap", "a number in (0,1]", v);
    }
    else if (a == "--time-limit") {
      const char* v = arg_value(argc, argv, i);
      rc.budget.time_limit_seconds = parse_double("--time-limit", v, "a positive number of seconds");
      if (rc.budget.time_limit_seconds <= 0.0)
        flag_error("--time-limit", "a positive number of seconds", v);
    }
    else if (a == "--max-evals") rc.budget.max_evaluations = parse_uint("--max-evals", arg_value(argc, argv, i), 1);
    else if (a == "--max-vectors") rc.budget.max_vectors = parse_uint("--max-vectors", arg_value(argc, argv, i), 1);
    else if (a == "--checkpoint") checkpoint_file = arg_value(argc, argv, i);
    else if (a == "--checkpoint-interval") {
      const char* v = arg_value(argc, argv, i);
      rc.checkpoint_interval_seconds = parse_double("--checkpoint-interval", v, "a positive number of seconds");
      if (rc.checkpoint_interval_seconds <= 0.0)
        flag_error("--checkpoint-interval", "a positive number of seconds", v);
    }
    else if (a == "--resume") resume_file = arg_value(argc, argv, i);
    else if (a == "--metrics-out") metrics_file = arg_value(argc, argv, i);
    else if (a == "--trace-out") trace_file = arg_value(argc, argv, i);
    else if (a == "--progress") show_progress = true;
    else if (a == "--quiet") telemetry::global_logger().set_level(telemetry::LogLevel::Quiet);
    else if (a == "--verbose") telemetry::global_logger().set_level(telemetry::LogLevel::Debug);
    else if (a == "--coding") {
      const std::string v = arg_value(argc, argv, i);
      if (v == "binary") cfg.sequence_coding = Coding::Binary;
      else if (v == "nonbinary") cfg.sequence_coding = Coding::NonBinary;
      else flag_error("--coding", "binary|nonbinary", v.c_str());
    } else if (a == "--selection") {
      const std::string v = arg_value(argc, argv, i);
      if (v == "roulette") cfg.selection = SelectionScheme::RouletteWheel;
      else if (v == "sus") cfg.selection = SelectionScheme::StochasticUniversal;
      else if (v == "tournament") cfg.selection = SelectionScheme::TournamentNoReplacement;
      else if (v == "tournament-r") cfg.selection = SelectionScheme::TournamentWithReplacement;
      else flag_error("--selection", "roulette|sus|tournament|tournament-r", v.c_str());
    } else if (a == "--crossover") {
      const std::string v = arg_value(argc, argv, i);
      if (v == "1point") cfg.crossover = CrossoverScheme::OnePoint;
      else if (v == "2point") cfg.crossover = CrossoverScheme::TwoPoint;
      else if (v == "uniform") cfg.crossover = CrossoverScheme::Uniform;
      else flag_error("--crossover", "1point|2point|uniform", v.c_str());
    }
    else if (a == "--model") {
      model = arg_value(argc, argv, i);
      if (model != "stuck" && model != "transition")
        flag_error("--model", "stuck|transition", model.c_str());
    }
    else if (a == "--scan") do_scan = true;
    else if (a == "--lint") do_lint = true;
    else if (a == "--lint-only") lint_only = true;
    else if (a == "--prune-untestable") cfg.prune_untestable = true;
    else if (a == "--prune-proven") cfg.prune_proven = true;
    else if (a == "--compact") do_compact = true;
    else if (a == "--report") do_report = true;
    else if (a == "--out") out_file = arg_value(argc, argv, i);
    else if (a == "--responses") resp_file = arg_value(argc, argv, i);
    else if (a == "--vcd") vcd_file = arg_value(argc, argv, i);
    else if (a == "--write-bench") bench_out = arg_value(argc, argv, i);
    else if (a == "--help" || a == "-h") usage(argv[0], 0);
    else flag_error(argv[i]);
  }
  if (circuit_file.empty() == profile.empty()) usage(argv[0], 2);

  const bool ga_engine = engine == "ga" || engine == "two-pass";
  const bool want_telemetry =
      !metrics_file.empty() || !trace_file.empty() || show_progress;
  if (want_telemetry && !ga_engine)
    telemetry::global_logger().warn(
        "telemetry flags only apply to the GA engines; ignored for '%s'",
        engine.c_str());
  if (!resume_file.empty() && !ga_engine) {
    std::fprintf(stderr, "gatest_atpg: --resume only applies to the GA "
                         "engines (ga, two-pass)\n");
    return 2;
  }
  if ((!checkpoint_file.empty() || !rc.budget.unlimited()) && !ga_engine)
    telemetry::global_logger().warn(
        "budgets and checkpoints only apply to the GA engines; ignored "
        "for '%s'",
        engine.c_str());
  rc.checkpoint_path = checkpoint_file;
  // Ctrl-C / SIGTERM stop the run at the next commit boundary; the partial
  // test set, report, and checkpoint are flushed below as usual.
  rc.stop = &global_stop_token();
  install_signal_stop_handlers();

  Circuit circuit("uninitialized");
  std::vector<BenchWarning> bench_warnings;
  try {
    circuit = circuit_file.empty()
                  ? benchmark_circuit(profile)
                  : load_bench_file(circuit_file, &bench_warnings);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gatest_atpg: %s\n", e.what());
    return 1;
  }
  if (do_scan) circuit = full_scan_version(circuit);

  std::printf("%s: %zu PIs, %zu POs, %zu FFs, %zu gates, depth %u\n",
              circuit.name().c_str(), circuit.num_inputs(),
              circuit.num_outputs(), circuit.num_dffs(),
              circuit.num_logic_gates(), circuit.sequential_depth());

  if (do_lint || lint_only) {
    analysis::AnalysisReport lint = analysis::lint_circuit(circuit);
    analysis::add_bench_warnings(lint, bench_warnings);
    std::printf("\n");
    analysis::write_text(lint, std::cout);
    std::cout.flush();
    if (lint_only) return analysis::exit_code(lint);
    std::printf("\n");
  }

  if (!bench_out.empty()) {
    std::ofstream f(bench_out);
    write_bench(circuit, f);
    std::printf("netlist written to %s\n", bench_out.c_str());
  }

  FaultList faults = model == "transition"
                         ? FaultList(circuit, enumerate_transition_faults(circuit))
                         : FaultList(circuit);
  std::printf("%zu %s faults\n\n", faults.size(),
              model == "transition" ? "transition" : "collapsed stuck-at");

  TestGenResult result;
  telemetry::RunTelemetry telem;
  if (ga_engine) {
    GaTestGenerator gen(circuit, faults, cfg);
    gen.set_run_control(rc);
    if (want_telemetry) {
      if (!trace_file.empty()) {
        try {
          telem.trace.open(trace_file);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "gatest_atpg: %s\n", e.what());
          return 1;
        }
      }
      telem.progress.enable(show_progress);
      // Attach before a possible restore so the resume event is traced.
      gen.set_telemetry(&telem);
    }
    if (!resume_file.empty()) {
      try {
        const Checkpoint cp = Checkpoint::load(resume_file);
        gen.restore_from_checkpoint(cp);
        std::printf("resumed from %s: %zu vectors, %zu faults detected, "
                    "%.2fs prior\n",
                    resume_file.c_str(), cp.test_set.size(),
                    faults.num_detected(), cp.seconds);
      } catch (const std::exception& e) {
        // A missing, truncated, or mismatched checkpoint is an operator
        // error, same class as a bad flag value: exit 2 with the offending
        // path in the diagnostic.
        std::fprintf(stderr, "gatest_atpg: --resume %s: %s\n",
                     resume_file.c_str(), e.what());
        return 2;
      }
    }
    result = gen.run();
    std::printf("GATEST: %zu detected, %zu vectors, %.2fs, %zu evaluations\n",
                result.faults_detected, result.test_set.size(), result.seconds,
                result.fitness_evaluations);
    if (result.stop_reason != StopReason::Completed) {
      std::printf("run stopped early: %s%s%s\n", to_string(result.stop_reason),
                  result.error_message.empty() ? "" : " — ",
                  result.error_message.c_str());
      if (!checkpoint_file.empty())
        std::printf("checkpoint written to %s (resume with --resume %s)\n",
                    checkpoint_file.c_str(), checkpoint_file.c_str());
    }
    if (engine == "two-pass") {
      if (result.stop_reason != StopReason::Completed) {
        std::printf("PODEM pass skipped (GA run did not complete)\n");
      } else {
        HitecLiteConfig hcfg;
        const HitecLiteResult det = run_hitec_lite(circuit, faults, hcfg);
        std::printf("PODEM pass: +%zu tests, %zu aborted, %zu "
                    "untestable-in-window, %.2fs\n",
                    det.test_found, det.aborted, det.no_test_in_window,
                    det.gen.seconds);
        for (const TestVector& v : det.gen.test_set)
          result.test_set.push_back(v);
        result.faults_detected = faults.num_detected();
      }
    }
    if (want_telemetry) {
      telem.trace.close();
      if (!trace_file.empty())
        telemetry::global_logger().info("trace written to %s",
                                        trace_file.c_str());
      if (!metrics_file.empty()) {
        std::ofstream f(metrics_file);
        if (!f) {
          std::fprintf(stderr, "gatest_atpg: cannot write %s\n",
                       metrics_file.c_str());
          return 1;
        }
        telem.metrics.write_json(f);
        telemetry::global_logger().info("metrics written to %s",
                                        metrics_file.c_str());
      }
      if (telemetry::global_logger().enabled(telemetry::LogLevel::Debug)) {
        telem.metrics.write_text(std::cerr);
        std::cerr.flush();
      }
    }
  } else if (engine == "random") {
    RandomTpgConfig rcfg;
    rcfg.seed = cfg.seed;
    result = run_random_tpg(circuit, faults, rcfg);
    std::printf("random: %zu detected, %zu vectors, %.2fs\n",
                result.faults_detected, result.test_set.size(), result.seconds);
  } else if (engine == "cris") {
    CrisLiteConfig ccfg;
    ccfg.seed = cfg.seed;
    result = run_cris_lite(circuit, faults, ccfg);
    std::printf("CRIS-like: %zu detected, %zu vectors, %.2fs\n",
                result.faults_detected, result.test_set.size(), result.seconds);
  } else {  // "hitec"; --engine is validated while parsing
    HitecLiteConfig hcfg;
    const HitecLiteResult det = run_hitec_lite(circuit, faults, hcfg);
    result = det.gen;
    std::printf("PODEM: %zu detected, %zu vectors, %zu aborted, %zu "
                "untestable-in-window, %.2fs\n",
                result.faults_detected, result.test_set.size(), det.aborted,
                det.no_test_in_window, result.seconds);
  }

  if (do_compact && !result.test_set.empty()) {
    const CompactionResult comp = compact_test_set(circuit, result.test_set);
    std::printf("compaction: %zu -> %zu vectors (%zu simulation passes)\n",
                comp.original_length, comp.compacted_length,
                comp.simulation_passes);
    result.test_set = comp.test_set;
  }

  if (cfg.prune_untestable) {
    // Accounting-only pass at the very end of the pipeline: classified
    // faults the run left undetected become Untestable (detected faults are
    // never downgraded), and efficiency reports the pruned denominator.
    const analysis::PruneSummary ps = analysis::mark_untestable_faults(faults);
    const std::size_t testable = ps.testable();
    std::printf("\nstatic pruning: %zu/%zu faults structurally untestable "
                "(%zu unactivatable, %zu unobservable)\n",
                ps.pruned, faults.size(), ps.unactivatable, ps.unobservable);
    std::printf("fault efficiency: %.2f%% (%zu/%zu testable faults)\n",
                testable == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(faults.num_detected()) /
                          static_cast<double>(testable),
                faults.num_detected(), testable);
  }

  if (cfg.prune_proven) {
    // End-of-run accounting over the implication-engine proofs: proven
    // faults the run left undetected become Untestable (the inert subset
    // never entered the universe; the rest could only have created
    // undetectable activity).  A proven-but-detected fault would falsify
    // the engine's soundness.
    const auto proofs = analysis::prove_untestable(circuit, faults.faults());
    const analysis::ProvenSummary ps =
        analysis::mark_proven_faults(faults, proofs);
    std::printf("\nimplication proofs: %zu/%zu faults proven untestable "
                "(%zu constant-site, %zu unreachable-value, "
                "%zu activation-conflict, %zu blocked-propagation); "
                "%zu inert faults pruned from the simulated universe\n",
                ps.proven, faults.size(), ps.constant_site,
                ps.unreachable_value, ps.activation_conflict,
                ps.blocked_propagation, faults.num_pruned());
    if (ps.already_detected != 0)
      std::fprintf(stderr,
                   "ERROR: %zu proven-untestable faults were detected — "
                   "implication engine soundness violation\n",
                   ps.already_detected);
    const std::size_t testable = ps.total_faults - ps.proven;
    std::printf("fault efficiency: %.2f%% (%zu/%zu provably-testable "
                "faults)\n",
                testable == 0
                    ? 100.0
                    : 100.0 * static_cast<double>(faults.num_detected()) /
                          static_cast<double>(testable),
                faults.num_detected(), testable);
  }

  std::printf("\nfinal: %zu/%zu detected (%.2f%% coverage), %zu untestable, "
              "test length %zu\n",
              faults.num_detected(), faults.size(), 100.0 * faults.coverage(),
              faults.num_untestable(), result.test_set.size());

  if (!out_file.empty()) {
    std::ofstream f(out_file);
    f << "# " << circuit.name() << " — " << result.test_set.size()
      << " vectors, inputs:";
    for (GateId pi : circuit.inputs()) f << ' ' << circuit.gate(pi).name;
    f << '\n';
    for (const TestVector& v : result.test_set) f << logic_string(v) << '\n';
    std::printf("test set written to %s\n", out_file.c_str());
  }

  if (!resp_file.empty()) {
    const auto responses = capture_responses(circuit, result.test_set);
    std::ofstream f(resp_file);
    f << "# " << circuit.name() << " fault-free responses, outputs:";
    for (GateId po : circuit.outputs()) f << ' ' << circuit.gate(po).name;
    f << '\n';
    for (const auto& r : responses) f << logic_string(r) << '\n';
    std::printf("responses written to %s\n", resp_file.c_str());
  }

  if (!vcd_file.empty()) {
    std::ofstream f(vcd_file);
    write_vcd(circuit, result.test_set, f);
    std::printf("waveform written to %s\n", vcd_file.c_str());
  }

  if (do_report) {
    std::printf("\nundetected faults:\n");
    for (std::size_t i = 0; i < faults.size(); ++i)
      if (faults.status(i) == FaultStatus::Undetected)
        std::printf("  %s\n", fault_name(circuit, faults.fault(i)).c_str());
  }
  return 0;
}
