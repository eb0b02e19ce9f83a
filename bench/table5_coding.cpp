// Reproduces Table 5: binary vs nonbinary sequence coding at population
// sizes 16, 32, and 64 (sequence phase; vector phases keep Table-1 sizes).
//
// Expected shape: coverage grows with population size; binary coding tends
// to win at the small sizes, nonbinary catches up at 64.
#include <cstdio>
#include <iostream>

#include "experiments/harness.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s386", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  std::printf(
      "Table 5 — Binary vs nonbinary sequence coding: detected faults "
      "(mean of %u runs)\n\n",
      args.runs);

  AsciiTable table({"Circuit", "P16-Bin", "P16-Non", "P32-Bin", "P32-Non",
                    "P64-Bin", "P64-Non"});
  bench::RecordWriter rec("table5_coding");
  for (const std::string& name : circuits) {
    std::vector<std::string> row{name};
    for (unsigned pop : {16u, 32u, 64u}) {
      for (Coding coding : {Coding::Binary, Coding::NonBinary}) {
        TestGenConfig cfg = paper_config_for(name);
      cfg.prune_untestable = args.prune_untestable;
        cfg.seq_population = pop;
        cfg.sequence_coding = coding;
        const RunSummary s =
            run_gatest_repeated(name, cfg, args.runs, args.seed);
        record_summary(
            rec, name,
            strprintf("p%u-%s", pop,
                      coding == Coding::Binary ? "binary" : "nonbinary"),
            s);
        row.push_back(strprintf("%.1f", s.detected.mean()));
      }
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: columns should improve with population size; "
      "binary coding\nusually leads at populations 16/32.\n");
  finish_record(args, rec);
  return 0;
}
