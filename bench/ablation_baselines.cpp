// Ablation / baseline comparison (supports the §V textual claims and the
// design choices called out in DESIGN.md):
//   - GATEST (full)                      — the paper's configuration
//   - GATEST without the phase-3 activity term
//   - GATEST vectors-only (no phase 4)
//   - GATEST sequences-only (no phases 1-3)
//   - random vectors                     — undirected baseline
//   - CRIS-style logic-simulation GA     — inaccurate-fitness baseline
//   - HITEC-style deterministic PODEM    — fault-oriented baseline
#include <cstdio>
#include <iostream>

#include "atpg/cris_lite.h"
#include "atpg/hitec_lite.h"
#include "atpg/random_tpg.h"
#include "experiments/harness.h"
#include "fault/fault.h"
#include "gatest/test_generator.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s298", "s386", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  std::printf(
      "Ablation — GATEST variants vs baselines (mean of %u runs; Det/Vec)\n\n",
      args.runs);

  AsciiTable table({"Circuit", "Faults", "GATEST", "no-activity", "vec-only",
                    "seq-only", "random", "CRIS-like", "HITEC-like"});

  bench::RecordWriter rec("ablation_baselines");
  static const char* kVariantName[] = {"gatest", "no-activity", "vec-only",
                                       "seq-only"};
  for (const std::string& name : circuits) {
    const Circuit& c = cached_circuit(name);
    std::vector<std::string> row{name};
    bool first = true;

    auto fmt = [](const RunSummary& s) {
      return strprintf("%.0f/%.0f", s.detected.mean(), s.vectors.mean());
    };

    // GATEST variants via the repeated-run harness.
    for (int variant = 0; variant < 4; ++variant) {
      TestGenConfig cfg = paper_config_for(name);
      cfg.prune_untestable = args.prune_untestable;
      switch (variant) {
        case 1: cfg.use_activity_fitness = false; break;
        case 2: cfg.enable_sequence_phase = false; break;
        case 3: cfg.enable_vector_phases = false; break;
        default: break;
      }
      const RunSummary s = run_gatest_repeated(name, cfg, args.runs, args.seed);
      record_summary(rec, name, kVariantName[variant], s);
      if (first) {
        row.push_back(strprintf("%zu", s.faults_total));
        first = false;
      }
      row.push_back(fmt(s));
    }

    // Random baseline (averaged over the same number of seeds).
    {
      RunSummary s;
      for (unsigned r = 0; r < args.runs; ++r) {
        FaultList faults(c);
        RandomTpgConfig rcfg;
        rcfg.seed = args.seed + r + 1;
        const TestGenResult res = run_random_tpg(c, faults, rcfg);
        s.detected.add(static_cast<double>(res.faults_detected));
        s.vectors.add(static_cast<double>(res.test_set.size()));
        s.seconds.add(res.seconds);
      }
      record_summary(rec, name, "random", s);
      row.push_back(fmt(s));
    }

    // CRIS-like baseline.
    {
      RunSummary s;
      for (unsigned r = 0; r < args.runs; ++r) {
        FaultList faults(c);
        CrisLiteConfig ccfg;
        ccfg.seed = args.seed + r + 1;
        const TestGenResult res = run_cris_lite(c, faults, ccfg);
        s.detected.add(static_cast<double>(res.faults_detected));
        s.vectors.add(static_cast<double>(res.test_set.size()));
        s.seconds.add(res.seconds);
      }
      record_summary(rec, name, "cris", s);
      row.push_back(fmt(s));
    }

    // Deterministic baseline (single run, deterministic).
    {
      FaultList faults(c);
      HitecLiteConfig hcfg;
      hcfg.backtrack_limit = args.full ? 400 : 50;
      const HitecLiteResult res = run_hitec_lite(c, faults, hcfg);
      rec.begin_entry(name, "hitec");
      rec.exact("detected", static_cast<double>(res.gen.faults_detected));
      rec.exact("vectors", static_cast<double>(res.gen.test_set.size()));
      rec.perf("seconds", res.gen.seconds);
      row.push_back(strprintf("%zu/%zu", res.gen.faults_detected,
                              res.gen.test_set.size()));
    }

    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: full GATEST should lead or tie every ablation; "
      "the CRIS-like\nlogic-sim fitness and undirected random vectors should "
      "trail it, with random needing\nfar more vectors for its coverage "
      "(GATEST test sets were 1/3 of CRIS's, 42%% of HITEC's).\n");
  finish_record(args, rec);
  return 0;
}
