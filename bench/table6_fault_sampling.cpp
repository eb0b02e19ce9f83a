// Reproduces Table 6: fault sampling in the fitness evaluation.  Samples of
// 100/200/300 undetected faults are compared against the full-fault-list
// reference; detections, vectors, and the execution-time speedup are
// reported (Spdup = full-list time / sampled time, as in the paper).
//
// Expected shape: small coverage loss, speedups above 1 that grow with
// circuit size and shrink with sample size.
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s298", "s386", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  std::printf(
      "Table 6 — Fault sampling in fitness evaluation (mean of %u runs)\n"
      "Spdup = execution time with the full fault list / time with the "
      "sample\n\n",
      args.runs);

  AsciiTable table({"Circuit", "Full-Det", "Full-Vec", "S100-Det", "S100-Vec",
                    "S100-Spdup", "S200-Det", "S200-Vec", "S200-Spdup",
                    "S300-Det", "S300-Vec", "S300-Spdup"});

  bench::RecordWriter rec("table6_fault_sampling");
  for (const std::string& name : circuits) {
    TestGenConfig base = paper_config_for(name);
    base.prune_untestable = args.prune_untestable;
    const RunSummary full =
        run_gatest_repeated(name, base, args.runs, args.seed);
    record_summary(rec, name, "full", full);

    std::vector<std::string> row{
        name, strprintf("%.1f", full.detected.mean()),
        strprintf("%.0f", full.vectors.mean())};
    for (unsigned sample : {100u, 200u, 300u}) {
      TestGenConfig cfg = base;
      cfg.fault_sample_size = sample;
      const RunSummary s = run_gatest_repeated(name, cfg, args.runs, args.seed);
      record_summary(rec, name, strprintf("sample%u", sample), s);
      row.push_back(strprintf("%.1f", s.detected.mean()));
      row.push_back(strprintf("%.0f", s.vectors.mean()));
      const double spdup =
          s.seconds.mean() > 0 ? full.seconds.mean() / s.seconds.mean() : 0.0;
      row.push_back(strprintf("%.2f", spdup));
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: highest coverage with the full list; speedup "
      "> 1 for samples,\nlargest on the bigger circuits and at the smallest "
      "sample size.\n");
  finish_record(args, rec);
  return 0;
}
