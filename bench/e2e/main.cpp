// gatest_e2e: end-to-end GATEST benchmark, one workload per process.
//
//   gatest_e2e --workload=NAME --seed=S [--trace=FILE] [--json=FILE]
//              [--goldens=FILE] [--workdir=DIR]
//   gatest_e2e --smoke --benchmark=BENCHMARK.json [--workdir=DIR]
//
// Workloads: atpg_seq, atpg_vec, atpg_t4, serve_mixed (see README.md), plus
// the calibration-only serve_burst (burst capacity of the serve job mix) and
// serve_direct (serve_mixed's jobs run uninterrupted, for its goldens).
//
// Every workload does a fixed amount of work, so there is no run-length
// option.  Every metric is printed as "name value unit".  --trace makes this
// a traced run: per-layer metrics are computed and the harness spans are
// written to FILE at exit.  Exit status: 0 when every output checked out, 1
// when any check failed, 2 on bad usage.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>

#include "e2e.h"

namespace {

using namespace e2e;

void usage() {
  std::fprintf(stderr,
               "usage: gatest_e2e --workload=NAME --seed=S [--trace=FILE] "
               "[--json=FILE]\n"
               "                  [--goldens=FILE] [--workdir=DIR]\n"
               "       gatest_e2e --smoke --benchmark=BENCHMARK.json "
               "[--workdir=DIR]\n"
               "workloads: atpg_seq atpg_vec atpg_t4 serve_mixed "
               "(calibration: serve_burst serve_direct)\n");
}

bool known_workload(const std::string& w) {
  return is_atpg_workload(w) || w == "serve_mixed" || w == "serve_burst" ||
         w == "serve_direct";
}

void run_workload(const std::string& workload, const RunOptions& opt,
                  Report& report, SpanRecorder& spans) {
  try {
    if (is_atpg_workload(workload)) {
      run_atpg_workload(workload, opt, report, spans);
    } else if (workload == "serve_mixed") {
      run_serve_workload(opt, report, spans);
    } else if (workload == "serve_burst") {
      run_serve_burst(opt, report);
    } else {
      run_serve_direct(opt, report);
    }
  } catch (const std::exception& e) {
    report.fail(workload + ": " + e.what());
  }
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text << "\n";
  return static_cast<bool>(out);
}

/// Every metric BENCHMARK.json names for this mode must have been printed
/// with the declared unit.
void check_metric_names(const std::string& benchmark_path, bool traced,
                        const std::string& workload, Report& report,
                        std::size_t& checked) {
  std::ifstream in(benchmark_path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto root = gatest::telemetry::parse_json(ss.str());
  const auto* list = root.find(traced ? "per_layer" : "end_to_end");
  if (!list || list->array.empty())
    throw std::runtime_error(benchmark_path + " lists no metrics");
  for (const auto& m : list->array) {
    const std::string name = m.string_or("name", "");
    const std::string unit = m.string_or("unit", "");
    bool found = false;
    for (const Report::Metric& got : report.metrics())
      if (got.name == name) {
        found = true;
        if (got.unit != unit)
          report.fail(workload + ": " + name + " printed with unit " +
                      got.unit + ", BENCHMARK.json says " + unit);
      }
    if (!found) report.fail(workload + ": metric " + name + " not printed");
    ++checked;
  }
}

int smoke(const std::string& benchmark_path, const std::string& workdir) {
  const auto t0 = Clock::now();
  int failures = 0;
  std::size_t checked = 0;
  for (const char* w : {"atpg_seq", "atpg_vec", "atpg_t4", "serve_mixed"}) {
    for (bool traced : {false, true}) {
      RunOptions opt;
      opt.smoke = true;
      opt.traced = traced;
      opt.workdir = workdir + "/" + w + (traced ? "-traced" : "");
      std::filesystem::create_directories(opt.workdir);
      Report report;
      SpanRecorder spans;
      if (traced) spans.enable();
      run_workload(w, opt, report, spans);
      check_metric_names(benchmark_path, traced, w, report, checked);
      std::printf("== smoke %s (%s)\n", w, traced ? "traced" : "untraced");
      report.print();
      failures += static_cast<int>(report.failed());
    }
  }
  const double secs = seconds_between(t0, Clock::now());
  std::printf("smoke: %zu metric checks, %d failure(s), %.1f s\n", checked,
              failures, secs);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, trace_out, json_out, goldens, benchmark_path;
  std::string workdir = ".bench_build/e2e/work";
  RunOptions opt;
  bool smoke_mode = false;
  const auto value = [](const char* arg, const char* flag) -> const char* {
    const std::size_t n = std::strlen(flag);
    return std::strncmp(arg, flag, n) == 0 ? arg + n : nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (const char* v = value(a, "--workload=")) {
      workload = v;
    } else if (const char* v = value(a, "--seed=")) {
      char* end = nullptr;
      opt.seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0' || *v == '-') {
        usage();
        return 2;
      }
    } else if (const char* v = value(a, "--trace=")) {
      trace_out = v;
    } else if (const char* v = value(a, "--json=")) {
      json_out = v;
    } else if (const char* v = value(a, "--goldens=")) {
      goldens = v;
    } else if (const char* v = value(a, "--workdir=")) {
      workdir = v;
    } else if (const char* v = value(a, "--benchmark=")) {
      benchmark_path = v;
    } else if (std::strcmp(a, "--smoke") == 0) {
      smoke_mode = true;
    } else {
      usage();
      return 2;
    }
  }

  // Scratch space private to this process, removed at exit.
  const std::filesystem::path work =
      std::filesystem::path(workdir) / ("run-" + std::to_string(getpid()));
  std::filesystem::create_directories(work);
  opt.workdir = work.string();

  int rc = 0;
  if (smoke_mode) {
    if (benchmark_path.empty()) {
      usage();
      rc = 2;
    } else {
      try {
        rc = smoke(benchmark_path, opt.workdir);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gatest_e2e: %s\n", e.what());
        rc = 1;
      }
    }
  } else if (!known_workload(workload)) {
    usage();
    rc = 2;
  } else {
    opt.traced = !trace_out.empty();
    Report report;
    SpanRecorder spans;
    if (opt.traced) spans.enable();
    run_workload(workload, opt, report, spans);
    if (opt.seed == 1) check_goldens(goldens, workload, report);
    report.print();
    const std::string record =
        report.json(workload, opt.seed, opt.traced);
    if (!json_out.empty() && !write_file(json_out, record)) {
      std::fprintf(stderr, "gatest_e2e: cannot write %s\n", json_out.c_str());
      rc = 1;
    }
    if (opt.traced &&
        !write_file(trace_out, "{\"workload\":\"" + workload +
                                   "\",\"record\":" + record +
                                   ",\"spans\":" + spans.json() + "}")) {
      std::fprintf(stderr, "gatest_e2e: cannot write %s\n", trace_out.c_str());
      rc = 1;
    }
    if (!report.correct()) rc = 1;
  }
  std::error_code ec;
  std::filesystem::remove_all(work, ec);
  return rc;
}
