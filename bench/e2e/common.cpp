#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "e2e.h"
#include "e2e_git_rev.h"
#include "serve/protocol.h"

namespace e2e {

using gatest::telemetry::JsonValue;
using gatest::telemetry::parse_json;

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

namespace {

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void fnv_add(std::uint64_t& h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= kFnvPrime;
  }
}

std::string hex64(std::uint64_t h) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

std::string json_string(std::string_view s) {
  gatest::serve::JsonWriter w;
  w.value(s);
  std::string out = w.take();
  out.pop_back();  // take() appends '\n'
  return out;
}

/// Shortest text that reads back as the same double.
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::string test_set_digest(const std::vector<gatest::TestVector>& tests) {
  std::uint64_t h = kFnvBasis;
  for (const gatest::TestVector& v : tests) {
    fnv_add(h, gatest::logic_string(v));
    fnv_add(h, "\n");
  }
  return hex64(h);
}

std::string test_set_digest(const std::vector<std::string>& vector_strings) {
  std::uint64_t h = kFnvBasis;
  for (const std::string& v : vector_strings) {
    fnv_add(h, v);
    fnv_add(h, "\n");
  }
  return hex64(h);
}

void warm_up(unsigned threads, double seconds) {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::atomic<std::uint64_t> sink{0};
  std::vector<std::thread> spinners;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    spinners.emplace_back([&sink, deadline, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ull + t;
      while (Clock::now() < deadline)
        for (int i = 0; i < 4096; ++i) x ^= (x << 13) ^ (x >> 7) ^ (x << 17);
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& s : spinners) s.join();
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so it would report the launching process's RSS whenever that was larger.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the value is in kB
  return 0.0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

Fingerprint fingerprint() {
  Fingerprint f;
  f.nproc = std::thread::hardware_concurrency();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos)
        f.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  f.avx2 = __builtin_cpu_supports("avx2");
#if defined(__clang__)
  f.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  f.compiler = std::string("gcc ") + __VERSION__;
#else
  f.compiler = "unknown";
#endif
  f.build_type = E2E_BUILD_TYPE;
  f.git_rev = E2E_GIT_REV;
  return f;
}

std::string Fingerprint::json() const {
  std::ostringstream os;
  os << "{\"nproc\":" << nproc << ",\"cpu_model\":" << json_string(cpu_model)
     << ",\"avx2\":" << (avx2 ? "true" : "false")
     << ",\"compiler\":" << json_string(compiler)
     << ",\"build_type\":" << json_string(build_type)
     << ",\"git_rev\":" << json_string(git_rev) << "}";
  return os.str();
}

// ---- Report ----------------------------------------------------------------

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

void Report::fail(const std::string& why) { failures_.push_back(why); }

void Report::print() const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const Metric& m : metrics_)
    std::printf("%s %.9g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& f : failures_) std::printf("FAIL %s\n", f.c_str());
  std::fflush(stdout);
}

std::string Report::json(const std::string& workload, std::uint64_t seed,
                         bool traced) const {
  std::ostringstream os;
  os << "{\"schema\":\"gatest-e2e v1\",\"workload\":" << json_string(workload)
     << ",\"seed\":" << seed
     << ",\"traced\":" << (traced ? "true" : "false")
     << ",\"fingerprint\":" << fingerprint().json()
     << ",\"correct\":" << (correct() ? "true" : "false")
     << ",\"attempted\":" << attempted << ",\"failed\":" << failed()
     << ",\"failures\":[";
  for (std::size_t i = 0; i < failures_.size(); ++i)
    os << (i ? "," : "") << json_string(failures_[i]);
  os << "],\"units\":[";
  for (std::size_t i = 0; i < units.size(); ++i) {
    const UnitResult& u = units[i];
    os << (i ? "," : "") << "{\"name\":" << json_string(u.name)
       << ",\"seed\":" << u.seed << ",\"digest\":" << json_string(u.digest)
       << ",\"faults\":" << u.faults << ",\"detected\":" << u.detected
       << ",\"vectors\":" << u.vectors << ",\"evaluations\":" << u.evaluations
       << ",\"latency_s\":" << json_number(u.latency_s) << "}";
  }
  os << "],\"metrics\":{";
  for (std::size_t i = 0; i < metrics_.size(); ++i)
    os << (i ? "," : "") << json_string(metrics_[i].name)
       << ":{\"value\":" << json_number(metrics_[i].value)
       << ",\"unit\":" << json_string(metrics_[i].unit) << "}";
  os << "}}";
  return os.str();
}

void check_goldens(const std::string& goldens_path, const std::string& key,
                   Report& report) {
  if (goldens_path.empty()) return;
  std::ifstream in(goldens_path);
  if (!in) {
    report.fail("cannot read goldens file " + goldens_path);
    return;
  }
  std::stringstream ss;
  ss << in.rdbuf();
  JsonValue root;
  try {
    root = parse_json(ss.str());
  } catch (const std::exception& e) {
    report.fail("goldens file " + goldens_path + ": " + e.what());
    return;
  }
  const JsonValue* table = root.find(key);
  if (!table) return;
  std::size_t matched = 0;
  for (const UnitResult& u : report.units) {
    const JsonValue* g = table->find(u.name);
    if (!g) {
      report.fail("no golden for " + u.name);
      continue;
    }
    const std::string digest = g->string_or("digest", "");
    const auto detected = static_cast<std::size_t>(g->number_or("detected", -1));
    const auto vectors = static_cast<std::size_t>(g->number_or("vectors", -1));
    if (digest != u.digest || detected != u.detected || vectors != u.vectors) {
      report.fail(u.name + ": digest/detected/vectors " + u.digest + "/" +
                  std::to_string(u.detected) + "/" + std::to_string(u.vectors) +
                  " != golden " + digest + "/" + std::to_string(detected) +
                  "/" + std::to_string(vectors));
      continue;
    }
    ++matched;
  }
  report.note("goldens[" + key + "]: " + std::to_string(matched) + "/" +
              std::to_string(report.units.size()) + " units match");
}

// ---- spans -----------------------------------------------------------------

int SpanRecorder::begin(std::string name, std::uint64_t trace) {
  if (!enabled_) return -1;
  Span s;
  s.name = std::move(name);
  s.trace = trace;
  s.start = seconds_between(epoch_, Clock::now());
  s.parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size() - 1));
  return stack_.back();
}

void SpanRecorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end =
      seconds_between(epoch_, Clock::now());
  const auto it = std::find(stack_.rbegin(), stack_.rend(), index);
  if (it != stack_.rend()) stack_.erase(std::next(it).base());
}

std::string SpanRecorder::json() const {
  std::ostringstream os;
  os << "[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"id\":" << i
       << ",\"name\":" << json_string(s.name) << ",\"trace\":" << s.trace
       << ",\"start\":" << json_number(s.start)
       << ",\"end\":" << json_number(s.end) << ",\"parent\":" << s.parent
       << "}";
  }
  os << "\n]";
  return os.str();
}

// ---- generator trace events ------------------------------------------------

void LayerTotals::add_line(std::string_view line) {
  const JsonValue e = parse_json(line);
  const std::string type = e.string_or("type", "");
  const auto job = static_cast<std::uint64_t>(e.number_or("trace", 0));
  const double ts = e.number_or("ts", 0.0);
  const auto count = [&e](std::string_view key) {
    return static_cast<std::uint64_t>(e.number_or(key, 0));
  };

  if (type == "generation") {
    const double eval = e.number_or("eval_s", 0.0);
    const double select = e.number_or("select_s", 0.0);
    ga_eval_s += eval;
    ga_select_s += select;
    ga_breed_s += e.number_or("breed_s", 0.0) - select;
    ++generations;
    if (e.string_or("phase", "") == "sequences") {
      seq_eval_s += eval;
      seq_evals += count("evals");
    } else {
      vec_eval_s += eval;
      vec_evals += count("evals");
    }
  } else if (type == "ga_run_end") {
    ga_run_s += e.number_or("dur_s", 0.0);
    ++ga_runs;
  } else if (type == "fsim_commit_begin") {
    open_commits_[count("span")] = ts;
  } else if (type == "fsim_commit_end") {
    const auto it = open_commits_.find(count("span"));
    if (it != open_commits_.end()) {
      commit_s += ts - it->second;
      open_commits_.erase(it);
    }
  } else if (type == "phase_end") {
    phase_s[e.string_or("phase", "?")] += e.number_or("dur_s", 0.0);
  } else if (type == "resume") {
    JobState& js = jobs_[job];
    js.prior = count("evaluations");
    replayed_vectors += count("vectors");
    replayed_by_job[job] += count("vectors");
  } else if (type == "slice_stop" && e.find("committed_this_slice")) {
    // The generator's own slice_stop (the scheduler's carries "slice").
    JobState& js = jobs_[job];
    js.boundary = count("evaluations");
    js.sliced = true;
  } else if (type == "run_end") {
    JobState& js = jobs_[job];
    const std::uint64_t total = count("evaluations");
    run_s += e.number_or("dur_s", 0.0);
    job_run_s[job] += e.number_or("dur_s", 0.0);
    cache_hits += count("cache_hits");
    cache_misses += count("cache_misses");
    if (total >= js.prior) performed_evals += total - js.prior;
    if (js.sliced && total >= js.boundary) discarded_evals += total - js.boundary;
    js = JobState{};
  } else if (type == "job_done") {
    job_total_s[job] = e.number_or("seconds", 0.0);
  }
}

}  // namespace e2e
