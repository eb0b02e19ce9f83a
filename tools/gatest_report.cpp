// gatest_report — summarize a gatest_atpg --trace-out JSONL run trace.
//
// Reads the structured events the telemetry layer emits (run/phase/GA-run/
// generation/commit/checkpoint spans) and prints a per-phase time and
// coverage breakdown, plus overall run facts.  Optionally lists every commit
// with its coverage delta.
//
// Examples:
//   gatest_atpg --profile s344 --engine ga --trace-out run.jsonl
//   gatest_report run.jsonl
//   gatest_report run.jsonl --commits
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "telemetry/json.h"
#include "util/stats.h"
#include "util/table.h"

using namespace gatest;
using telemetry::JsonValue;

namespace {

[[noreturn]] void usage(const char* prog, int code) {
  std::fprintf(stderr,
               "usage: %s TRACE.jsonl [--commits | --spans]\n"
               "\n"
               "  TRACE.jsonl   run trace written by gatest_atpg --trace-out\n"
               "                (or a gatest_serve server trace, for --spans)\n"
               "  --commits     also list every commit with its coverage\n"
               "  --spans       reconstruct the causal span tree and print\n"
               "                each job's critical path instead of the\n"
               "                phase report\n",
               prog);
  std::exit(code);
}

/// Aggregated view of one phase across its (possibly repeated) spans.
struct PhaseTotals {
  double seconds = 0.0;
  std::uint64_t vectors = 0;
  std::uint64_t detected = 0;
  std::uint64_t ga_runs = 0;
  std::uint64_t generations = 0;
  std::size_t first_seen = 0;  // for stable ordering by first appearance
};

struct CommitRow {
  double ts = 0.0;
  std::string phase;
  std::uint64_t index = 0;
  std::uint64_t detected_delta = 0;
  double coverage = 0.0;
};

/// One causal span reconstructed from its open/close trace events.
struct SpanNode {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  double open_ts = 0.0;
  double close_ts = -1.0;  ///< -1 = never closed (interrupted trace)
  std::string type;        ///< type of the opening event
  std::string label;       ///< phase / circuit, when the event names one
  std::uint64_t job = 0;   ///< job id, on job root spans
  std::vector<std::uint64_t> children;

  double seconds() const { return close_ts < 0.0 ? 0.0 : close_ts - open_ts; }
};

/// Spans of one trace id (one job, or the whole run for gatest_atpg traces).
struct SpanTrace {
  std::map<std::uint64_t, SpanNode> spans;
  std::uint64_t root = 0;
};

/// Walk from the root, always descending into the longest child: the chain
/// of spans that bounds the job's wall clock.
void print_critical_path(const SpanTrace& tr) {
  const SpanNode* node = nullptr;
  auto it = tr.spans.find(tr.root);
  if (it == tr.spans.end()) return;
  node = &it->second;
  int depth = 0;
  while (node != nullptr) {
    std::string name = node->type;
    if (!node->label.empty()) name += " [" + node->label + "]";
    std::printf("  %*s%-*s %10.6fs\n", 2 * depth, "",
                std::max(2, 44 - 2 * depth), name.c_str(), node->seconds());
    const SpanNode* widest = nullptr;
    for (std::uint64_t child_id : node->children) {
      const auto cit = tr.spans.find(child_id);
      if (cit == tr.spans.end()) continue;
      if (widest == nullptr || cit->second.seconds() > widest->seconds())
        widest = &cit->second;
    }
    node = widest;
    ++depth;
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_file;
  bool list_commits = false, spans_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--commits") list_commits = true;
    else if (a == "--spans") spans_mode = true;
    else if (a == "--help" || a == "-h") usage(argv[0], 0);
    else if (!a.empty() && a[0] == '-') usage(argv[0], 2);
    else if (trace_file.empty()) trace_file = a;
    else usage(argv[0], 2);
  }
  if (trace_file.empty()) usage(argv[0], 2);

  std::ifstream in(trace_file);
  if (!in) {
    std::fprintf(stderr, "gatest_report: cannot open %s\n", trace_file.c_str());
    return 1;
  }

  std::map<std::string, PhaseTotals> phases;
  std::map<std::uint64_t, SpanTrace> traces;  // trace id -> span tree
  std::vector<CommitRow> commits;
  std::string circuit = "?", stop_reason;
  double run_seconds = 0.0, final_coverage = 0.0;
  std::uint64_t final_vectors = 0, final_detected = 0, evaluations = 0;
  std::uint64_t cache_hits = 0, cache_misses = 0;
  std::uint64_t checkpoints = 0;
  bool saw_run_begin = false, saw_run_end = false, resumed = false;

  std::string line;
  std::size_t lineno = 0, events = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    JsonValue ev;
    try {
      ev = telemetry::parse_json(line);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gatest_report: %s:%zu: %s\n", trace_file.c_str(),
                   lineno, e.what());
      return 1;
    }
    const std::string type = ev.string_or("type", "");
    if (!ev.is_object() || type.empty() || !ev.find("ts") || !ev.find("tid")) {
      std::fprintf(stderr,
                   "gatest_report: %s:%zu: not a trace event (need ts, tid, "
                   "type)\n",
                   trace_file.c_str(), lineno);
      return 1;
    }
    ++events;

    // Causal span bookkeeping: an open event carries span+parent, a close
    // carries span+span_end (annotations carry span alone — not needed for
    // the critical path).
    if (const JsonValue* span = ev.find("span"); span && span->is_number()) {
      const auto span_id = static_cast<std::uint64_t>(span->number);
      const auto trace_id =
          static_cast<std::uint64_t>(ev.number_or("trace", 0.0));
      SpanTrace& tr = traces[trace_id];
      const JsonValue* end = ev.find("span_end");
      if (end && end->boolean) {
        auto it = tr.spans.find(span_id);
        if (it != tr.spans.end()) it->second.close_ts = ev.number_or("ts", 0.0);
      } else if (const JsonValue* parent = ev.find("parent")) {
        SpanNode& node = tr.spans[span_id];
        node.id = span_id;
        node.parent = static_cast<std::uint64_t>(parent->number);
        node.open_ts = ev.number_or("ts", 0.0);
        node.type = type;
        node.label = ev.string_or("phase", ev.string_or("circuit", ""));
        node.job = static_cast<std::uint64_t>(ev.number_or("job", 0.0));
        if (node.parent == 0) {
          tr.root = span_id;
        } else {
          tr.spans[node.parent].children.push_back(span_id);
        }
      }
    }

    auto phase_slot = [&](const std::string& name) -> PhaseTotals& {
      auto [it, inserted] = phases.try_emplace(name);
      if (inserted) it->second.first_seen = events;
      return it->second;
    };

    if (type == "run_begin") {
      saw_run_begin = true;
      circuit = ev.string_or("circuit", "?");
      resumed = resumed || (ev.find("resumed") && ev.find("resumed")->boolean);
    } else if (type == "run_end") {
      saw_run_end = true;
      run_seconds = ev.number_or("dur_s", 0.0);
      final_coverage = ev.number_or("coverage", 0.0);
      final_vectors = static_cast<std::uint64_t>(ev.number_or("vectors", 0.0));
      final_detected =
          static_cast<std::uint64_t>(ev.number_or("detected", 0.0));
      evaluations =
          static_cast<std::uint64_t>(ev.number_or("evaluations", 0.0));
      cache_hits =
          static_cast<std::uint64_t>(ev.number_or("cache_hits", 0.0));
      cache_misses =
          static_cast<std::uint64_t>(ev.number_or("cache_misses", 0.0));
      stop_reason = ev.string_or("stop_reason", "");
    } else if (type == "phase_end") {
      PhaseTotals& p = phase_slot(ev.string_or("phase", "?"));
      p.seconds += ev.number_or("dur_s", 0.0);
      p.vectors +=
          static_cast<std::uint64_t>(ev.number_or("vectors_delta", 0.0));
      p.detected +=
          static_cast<std::uint64_t>(ev.number_or("detected_delta", 0.0));
    } else if (type == "ga_run_end") {
      ++phase_slot(ev.string_or("phase", "?")).ga_runs;
    } else if (type == "generation") {
      ++phase_slot(ev.string_or("phase", "?")).generations;
    } else if (type == "checkpoint_write") {
      ++checkpoints;
    } else if (type == "resume") {
      resumed = true;
    } else if (type == "commit") {
      CommitRow row;
      row.ts = ev.number_or("ts", 0.0);
      row.phase = ev.string_or("phase", "?");
      row.index = static_cast<std::uint64_t>(ev.number_or("index", 0.0));
      row.detected_delta =
          static_cast<std::uint64_t>(ev.number_or("detected_delta", 0.0));
      row.coverage = ev.number_or("coverage", 0.0);
      commits.push_back(row);
    }
  }

  if (events == 0) {
    std::fprintf(stderr, "gatest_report: %s: no trace events\n",
                 trace_file.c_str());
    return 1;
  }

  if (spans_mode) {
    if (traces.empty()) {
      std::fprintf(stderr,
                   "gatest_report: %s: no causal spans in trace (written by "
                   "an older build?)\n",
                   trace_file.c_str());
      return 1;
    }
    for (const auto& [trace_id, tr] : traces) {
      const auto rit = tr.spans.find(tr.root);
      if (rit == tr.spans.end()) {
        std::printf("trace %llu: %zu span(s), no root — truncated trace?\n",
                    static_cast<unsigned long long>(trace_id),
                    tr.spans.size());
        continue;
      }
      const SpanNode& root = rit->second;
      std::printf("trace %llu", static_cast<unsigned long long>(trace_id));
      if (root.job != 0)
        std::printf(" (job %llu%s%s)",
                    static_cast<unsigned long long>(root.job),
                    root.label.empty() ? "" : ", ",
                    root.label.c_str());
      std::printf(": %zu span(s), %.6fs — critical path:\n", tr.spans.size(),
                  root.seconds());
      print_critical_path(tr);
    }
    return 0;
  }

  if (!saw_run_begin)
    std::fprintf(stderr, "gatest_report: warning: no run_begin event "
                         "(truncated trace?)\n");
  if (!saw_run_end)
    std::fprintf(stderr, "gatest_report: warning: no run_end event — the run "
                         "was interrupted before the trace closed\n");

  std::printf("run: %s — %llu vectors, %llu detected (%.2f%% coverage), "
              "%llu evaluations, %s%s\n",
              circuit.c_str(),
              static_cast<unsigned long long>(final_vectors),
              static_cast<unsigned long long>(final_detected),
              100.0 * final_coverage,
              static_cast<unsigned long long>(evaluations),
              format_duration(run_seconds).c_str(),
              resumed ? " (resumed)" : "");
  if (!stop_reason.empty() && stop_reason != "completed")
    std::printf("stopped early: %s\n", stop_reason.c_str());
  if (cache_hits + cache_misses > 0)
    std::printf("fitness memo: %llu hits / %llu misses (%.1f%% hit rate)\n",
                static_cast<unsigned long long>(cache_hits),
                static_cast<unsigned long long>(cache_misses),
                100.0 * static_cast<double>(cache_hits) /
                    static_cast<double>(cache_hits + cache_misses));
  if (checkpoints)
    std::printf("checkpoints written: %llu\n",
                static_cast<unsigned long long>(checkpoints));
  std::printf("\n");

  // Order phases by first appearance in the trace, not alphabetically.
  std::vector<std::pair<std::string, PhaseTotals>> ordered(phases.begin(),
                                                           phases.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.second.first_seen < b.second.first_seen;
            });

  AsciiTable table({"Phase", "Time", "%Run", "Vectors", "Detected", "GA runs",
                    "Generations"});
  double phase_total = 0.0;
  for (const auto& [name, p] : ordered) {
    phase_total += p.seconds;
    table.add_row(
        {name, format_duration(p.seconds),
         run_seconds > 0.0
             ? strprintf("%.1f%%", 100.0 * p.seconds / run_seconds)
             : "-",
         strprintf("%llu", static_cast<unsigned long long>(p.vectors)),
         strprintf("%llu", static_cast<unsigned long long>(p.detected)),
         strprintf("%llu", static_cast<unsigned long long>(p.ga_runs)),
         strprintf("%llu", static_cast<unsigned long long>(p.generations))});
  }
  if (table.row_count() == 0) {
    std::printf("no phase spans in trace\n");
  } else {
    table.print(std::cout);
    if (run_seconds > 0.0)
      std::printf("\nphase spans cover %s of %s run time (%.1f%%)\n",
                  format_duration(phase_total).c_str(),
                  format_duration(run_seconds).c_str(),
                  100.0 * phase_total / run_seconds);
  }

  if (list_commits && !commits.empty()) {
    std::printf("\n");
    AsciiTable ct({"Commit", "t", "Phase", "+Detected", "Coverage"});
    for (const CommitRow& row : commits)
      ct.add_row({strprintf("%llu", static_cast<unsigned long long>(row.index)),
                  format_duration(row.ts), row.phase,
                  strprintf("%llu",
                            static_cast<unsigned long long>(row.detected_delta)),
                  strprintf("%.2f%%", 100.0 * row.coverage)});
    ct.print(std::cout);
  }
  return 0;
}
