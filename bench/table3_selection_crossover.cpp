// Reproduces Table 3: detected faults for every selection scheme (roulette
// wheel, stochastic universal, tournament with/without replacement) crossed
// with every crossover operator (1-point, 2-point, uniform).
//
// The paper's finding to check for: tournament selection (especially without
// replacement) beats the proportionate schemes, and uniform crossover is
// consistently the best operator.
#include <cstdio>
#include <iostream>
#include <iterator>

#include "experiments/harness.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s386", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  static const SelectionScheme kSel[] = {
      SelectionScheme::RouletteWheel,
      SelectionScheme::StochasticUniversal,
      SelectionScheme::TournamentNoReplacement,
      SelectionScheme::TournamentWithReplacement,
  };
  static const CrossoverScheme kXov[] = {
      CrossoverScheme::OnePoint,
      CrossoverScheme::TwoPoint,
      CrossoverScheme::Uniform,
  };

  std::printf(
      "Table 3 — Selection and crossover scheme comparison: detected faults "
      "(mean of %u runs)\nColumns: RW = roulette wheel, SU = stochastic "
      "universal, TN = tournament no-replacement, TR = tournament "
      "w/replacement; 1/2/U = 1-point/2-point/uniform crossover\n\n",
      args.runs);

  std::vector<std::string> header{"Circuit"};
  for (const char* s : {"RW", "SU", "TN", "TR"})
    for (const char* x : {"1", "2", "U"})
      header.push_back(std::string(s) + "-" + x);
  AsciiTable table(header);
  bench::RecordWriter rec("table3_selection_crossover");
  static const char* kSelName[] = {"RW", "SU", "TN", "TR"};
  static const char* kXovName[] = {"1", "2", "U"};

  for (const std::string& name : circuits) {
    std::vector<std::string> row{name};
    double best = -1, tn_uniform = -1;
    for (std::size_t si = 0; si < std::size(kSel); ++si) {
      const SelectionScheme sel = kSel[si];
      for (std::size_t xi = 0; xi < std::size(kXov); ++xi) {
        const CrossoverScheme xov = kXov[xi];
        TestGenConfig cfg = paper_config_for(name);
      cfg.prune_untestable = args.prune_untestable;
        cfg.selection = sel;
        cfg.crossover = xov;
        const RunSummary s =
            run_gatest_repeated(name, cfg, args.runs, args.seed);
        record_summary(rec, name,
                       std::string(kSelName[si]) + "-" + kXovName[xi], s);
        row.push_back(strprintf("%.1f", s.detected.mean()));
        best = std::max(best, s.detected.mean());
        if (sel == SelectionScheme::TournamentNoReplacement &&
            xov == CrossoverScheme::Uniform)
          tn_uniform = s.detected.mean();
      }
    }
    table.add_row(std::move(row));
    std::printf("  [%s] paper-default (TN-U) = %.1f, best cell = %.1f\n",
                name.c_str(), tn_uniform, best);
  }

  std::printf("\n");
  table.print(std::cout);
  std::printf(
      "\nShape check vs paper: tournament columns should match or beat the "
      "proportionate\nschemes, and uniform crossover should be the strongest "
      "operator overall.\n");
  finish_record(args, rec);
  return 0;
}
