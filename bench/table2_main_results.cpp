// Reproduces Table 2: per-circuit test-generation results for GATEST
// (tournament selection without replacement, uniform crossover, binary
// coding) against the deterministic HITEC-style baseline.
//
// The paper reports faults detected, vectors generated, and execution time,
// with GATEST averaged over ten runs (standard deviation in parentheses).
// Defaults here use the small synthetic circuit set and 3 runs so the whole
// bench suite stays fast; pass --full for the paper-scale sweep.
#include <cstdio>
#include <iostream>

#include "analysis/untestable.h"
#include "atpg/hitec_lite.h"
#include "experiments/harness.h"
#include "fault/fault.h"
#include "util/stats.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const auto circuits =
      args.pick_circuits(default_circuit_set(), full_circuit_set());

  std::printf(
      "Table 2 — Sequential circuit results: GATEST vs deterministic "
      "(HITEC-style) baseline\n"
      "GA config: tournament selection w/o replacement, uniform crossover, "
      "binary coding, %u runs/circuit\n\n",
      args.runs);

  std::vector<std::string> headers = {"Circuit", "PIs",    "Depth",  "Faults",
                                      "HT-Det",  "HT-Vec", "HT-Time", "GA-Det",
                                      "GA-Vec",  "GA-Time"};
  if (args.prune_untestable || args.prune_proven) {
    headers.push_back("Pruned");
    headers.push_back("GA-Eff");
  }
  if (args.prune_proven) {
    headers.push_back("Proven");
    headers.push_back("Inert");
  }
  AsciiTable table(headers);
  bench::RecordWriter rec("table2_main_results");

  for (const std::string& name : circuits) {
    const Circuit& c = cached_circuit(name);

    // Deterministic baseline (single run; it is deterministic).
    FaultList hfaults(c);
    HitecLiteConfig hcfg;
    hcfg.backtrack_limit = args.full ? 400 : 50;
    const HitecLiteResult hitec = run_hitec_lite(c, hfaults, hcfg);

    // GATEST, averaged over runs with fresh seeds.
    TestGenConfig cfg = paper_config_for(name);
    cfg.prune_untestable = args.prune_untestable;
    cfg.prune_proven = args.prune_proven;
    const RunSummary ga = run_gatest_repeated(name, cfg, args.runs, args.seed);

    record_summary(rec, name, "ga", ga);
    rec.exact("hitec_detected", static_cast<double>(hitec.gen.faults_detected));
    rec.exact("hitec_vectors", static_cast<double>(hitec.gen.test_set.size()));
    rec.perf("hitec_seconds", hitec.gen.seconds);

    std::vector<std::string> row = {
        name,
        strprintf("%zu", c.num_inputs()),
        strprintf("%u", c.sequential_depth()),
        strprintf("%zu", ga.faults_total),
        strprintf("%zu", hitec.gen.faults_detected),
        strprintf("%zu", hitec.gen.test_set.size()),
        format_duration(hitec.gen.seconds),
        format_mean_stddev(ga.detected),
        strprintf("%.0f(%.0f)", ga.vectors.mean(), ga.vectors.stddev()),
        format_duration_quantiles(ga.seconds),
    };
    if (args.prune_untestable || args.prune_proven) {
      row.push_back(strprintf("%zu", ga.faults_pruned));
      row.push_back(strprintf("%.1f%%", 100.0 * ga.efficiency.mean()));
    }
    if (args.prune_proven) {
      // Deterministic per-circuit proof counts (independent of runs/seeds):
      // Proven = implication-engine untestability proofs over the collapsed
      // universe, Inert = the zero-footprint subset actually removed from
      // the simulated universe by --prune-proven.
      FaultList pf(c);
      const analysis::ProvenSummary ps = analysis::summarize_proofs(
          analysis::prove_untestable(c, pf.faults()));
      row.push_back(strprintf("%zu", ps.proven));
      row.push_back(strprintf("%zu", ps.inert));
    }
    table.add_row(row);
  }

  table.print(std::cout);
  std::printf(
      "\nHT = HITEC-style time-frame PODEM baseline (det counts include "
      "collateral detections;\nits untestable-in-window claims are bounded "
      "by the unrolling depth).\nShape check vs paper: GATEST reaches "
      "comparable-or-better coverage than the deterministic\nbaseline in a "
      "fraction of its time on most circuits, with compact test sets.\n");
  finish_record(args, rec);
  return 0;
}
