// Parallel GA-based test generation (the paper's §VI outlook: "genetic
// algorithms are particularly amenable to parallel implementations, so very
// good speedups are expected for a parallel GA-based test generator").
//
// Fitness evaluation — the dominant cost — is fanned out over N threads,
// each scoring against the one committed fault simulator with its own
// scratch; results are bit-identical to the serial run, so only wall-clock
// changes.
#include <cstdio>
#include <iostream>
#include <thread>

#include "experiments/harness.h"
#include "util/stats.h"
#include "util/table.h"

using namespace gatest;

int main(int argc, char** argv) {
  const BenchArgs args = parse_bench_args(argc, argv);
  const std::vector<std::string> dflt = {"s526", "s820"};
  const auto circuits = args.pick_circuits(dflt, compact_circuit_set());

  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> thread_counts{1, 2, 4};
  if (hw >= 8) thread_counts.push_back(8);
  if (hw == 1)
    std::printf(
        "NOTE: this machine exposes a single hardware thread; expect "
        "speedups <= 1 here.\nThe experiment still verifies that parallel "
        "evaluation is result-identical.\n\n");

  std::printf(
      "Parallel GA speedup (mean of %u runs; %u hardware threads)\n"
      "Spdup = serial time / parallel time; detections must be identical\n\n",
      args.runs, hw);

  std::vector<std::string> header{"Circuit", "T1-Det", "T1-Time"};
  for (std::size_t i = 1; i < thread_counts.size(); ++i) {
    header.push_back(strprintf("T%u-Det", thread_counts[i]));
    header.push_back(strprintf("T%u-Spdup", thread_counts[i]));
  }
  AsciiTable table(header);
  bench::RecordWriter rec("parallel_speedup");

  for (const std::string& name : circuits) {
    std::vector<std::string> row{name};
    double serial_time = 0.0;
    for (std::size_t i = 0; i < thread_counts.size(); ++i) {
      TestGenConfig cfg = paper_config_for(name);
      cfg.prune_untestable = args.prune_untestable;
      cfg.num_threads = thread_counts[i];
      const RunSummary s = run_gatest_repeated(name, cfg, args.runs, args.seed);
      record_summary(rec, name, strprintf("threads%u", thread_counts[i]), s);
      if (i == 0) {
        serial_time = s.seconds.mean();
        row.push_back(strprintf("%.1f", s.detected.mean()));
        row.push_back(format_duration_quantiles(s.seconds));
      } else {
        row.push_back(strprintf("%.1f", s.detected.mean()));
        row.push_back(strprintf(
            "%.2f", s.seconds.mean() > 0 ? serial_time / s.seconds.mean() : 0));
      }
    }
    table.add_row(std::move(row));
  }

  table.print(std::cout);
  std::printf(
      "\nShape check vs paper outlook: detections identical across thread "
      "counts, speedup\ngrowing with threads (sub-linear: the GA loop and "
      "commits stay serial).\n");
  finish_record(args, rec);
  return 0;
}
