#include "experiments/harness.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "circuitgen/circuitgen.h"
#include "fault/fault.h"
#include "telemetry/log.h"

namespace gatest {

const std::vector<std::string>& default_circuit_set() {
  static const std::vector<std::string> set = {"s27", "s298", "s386", "s526",
                                               "s820"};
  return set;
}

const std::vector<std::string>& compact_circuit_set() {
  static const std::vector<std::string> set = {
      "s298", "s386", "s526", "s820", "s832", "s1196", "s1488"};
  return set;
}

const std::vector<std::string>& full_circuit_set() {
  static const std::vector<std::string> set = [] {
    std::vector<std::string> names;
    for (const CircuitProfile& p : iscas89_profiles())
      if (p.name != "s27") names.push_back(p.name);
    return names;
  }();
  return set;
}

TestGenConfig paper_config_for(const std::string& circuit_name) {
  TestGenConfig cfg;
  if (circuit_name == "s5378" || circuit_name == "s35932") {
    cfg.progress_limit_multiplier = 1.0;
    cfg.seq_length_multipliers = {0.25, 0.5, 1.0};
  } else {
    cfg.progress_limit_multiplier = 4.0;
    cfg.seq_length_multipliers = {1.0, 2.0, 4.0};
  }
  return cfg;
}

const Circuit& cached_circuit(const std::string& name) {
  static std::map<std::string, Circuit> cache;
  static std::mutex mu;
  std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(name);
  if (it == cache.end())
    it = cache.emplace(name, benchmark_circuit(name)).first;
  return it->second;
}

RunSummary run_gatest_repeated(const std::string& circuit_name,
                               const TestGenConfig& config, unsigned runs,
                               std::uint64_t seed_base) {
  const Circuit& c = cached_circuit(circuit_name);
  telemetry::Logger& log = telemetry::global_logger();
  log.info("%s: %u run%s from seed %llu", circuit_name.c_str(), runs,
           runs == 1 ? "" : "s",
           static_cast<unsigned long long>(seed_base + 1));
  RunSummary summary;
  for (unsigned r = 0; r < runs; ++r) {
    FaultList faults(c);
    summary.faults_total = faults.size();
    TestGenConfig cfg = config;
    cfg.seed = seed_base + r + 1;
    GaTestGenerator gen(c, faults, cfg);
    const TestGenResult res = gen.run();
    log.debug("%s: seed %llu -> %zu detected, %zu vectors, %.2fs",
              circuit_name.c_str(), static_cast<unsigned long long>(cfg.seed),
              res.faults_detected, res.test_set.size(), res.seconds);
    summary.detected.add(static_cast<double>(res.faults_detected));
    summary.vectors.add(static_cast<double>(res.test_set.size()));
    summary.seconds.add(res.seconds);
    summary.evaluations.add(static_cast<double>(res.fitness_evaluations));
    summary.efficiency.add(res.fault_efficiency);
    summary.faults_pruned = res.faults_pruned;
  }
  return summary;
}

std::vector<std::string> BenchArgs::pick_circuits(
    const std::vector<std::string>& dflt,
    const std::vector<std::string>& full_set) const {
  if (!circuits.empty()) return circuits;
  return full ? full_set : dflt;
}

void record_summary(bench::RecordWriter& rec, const std::string& circuit,
                    const std::string& config, const RunSummary& s) {
  rec.begin_entry(circuit, config);
  rec.exact("faults_total", static_cast<double>(s.faults_total));
  rec.exact("faults_pruned", static_cast<double>(s.faults_pruned));
  rec.exact("detected_mean", s.detected.mean());
  rec.exact("detected_stddev", s.detected.stddev());
  rec.exact("vectors_mean", s.vectors.mean());
  rec.exact("evaluations_mean", s.evaluations.mean());
  rec.perf("seconds_mean", s.seconds.mean());
}

void finish_record(const BenchArgs& args, bench::RecordWriter& rec) {
  if (args.json_out.empty()) return;
  rec.param("runs", static_cast<double>(args.runs));
  rec.param("seed", static_cast<double>(args.seed));
  std::string err;
  if (!rec.write(args.json_out, err)) {
    std::fprintf(stderr, "bench record: %s\n", err.c_str());
    std::exit(1);
  }
}

BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") {
      args.full = true;
      args.runs = 10;  // the paper averages over ten runs
    } else if (a.rfind("--runs=", 0) == 0) {
      args.runs = static_cast<unsigned>(std::strtoul(a.c_str() + 7, nullptr, 10));
      if (args.runs == 0) args.runs = 1;
    } else if (a.rfind("--seed=", 0) == 0) {
      args.seed = std::strtoull(a.c_str() + 7, nullptr, 10);
    } else if (a.rfind("--circuits=", 0) == 0) {
      std::string list = a.substr(11);
      std::size_t pos = 0;
      while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string name =
            list.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos);
        if (!name.empty()) args.circuits.push_back(name);
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    } else if (a.rfind("--json=", 0) == 0) {
      args.json_out = a.substr(7);
    } else if (a == "--prune-untestable") {
      args.prune_untestable = true;
    } else if (a == "--prune-proven") {
      args.prune_proven = true;
    } else if (a == "--quiet") {
      telemetry::global_logger().set_level(telemetry::LogLevel::Quiet);
    } else if (a == "--verbose") {
      telemetry::global_logger().set_level(telemetry::LogLevel::Debug);
    } else if (a == "--help" || a == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--runs=N] [--circuits=a,b,c] [--full] "
                   "[--seed=S] [--prune-untestable] [--prune-proven] "
                   "[--json=FILE] [--quiet] [--verbose]\n",
                   argv[0]);
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag '%s' (try --help)\n", a.c_str());
      std::exit(2);
    }
  }
  return args;
}

}  // namespace gatest
