// Reproduces Table 4: detected faults as a function of the mutation rate
// used during test-sequence generation (1/16 .. 1/256); Table-1 rates are
// kept for the vector phases, exactly as in the paper.
//
// Expected shape: mutation matters far less than selection/crossover — rows
// should be nearly flat.
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s386", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  const double rates[] = {1.0 / 16, 1.0 / 32, 1.0 / 64, 1.0 / 128, 1.0 / 256};

  std::printf(
      "Table 4 — Mutation rate comparison (sequence phase): detected faults "
      "(mean of %u runs)\n\n",
      args.runs);

  AsciiTable table({"Circuit", "1/16", "1/32", "1/64", "1/128", "1/256",
                    "spread"});
  bench::RecordWriter rec("table4_mutation");
  for (const std::string& name : circuits) {
    std::vector<std::string> row{name};
    double lo = 1e18, hi = -1e18;
    for (double rate : rates) {
      TestGenConfig cfg = paper_config_for(name);
      cfg.prune_untestable = args.prune_untestable;
      cfg.seq_mutation = rate;
      const RunSummary s = run_gatest_repeated(name, cfg, args.runs, args.seed);
      record_summary(rec, name, strprintf("1/%.0f", 1.0 / rate), s);
      row.push_back(strprintf("%.1f", s.detected.mean()));
      lo = std::min(lo, s.detected.mean());
      hi = std::max(hi, s.detected.mean());
    }
    row.push_back(strprintf("%.1f", hi - lo));
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: the spread across mutation rates should be "
      "small relative to the\nselection/crossover differences of Table 3.\n");
  finish_record(args, rec);
  return 0;
}
