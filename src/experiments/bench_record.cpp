#include "experiments/bench_record.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace gatest::bench {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // records should never contain these
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void write_metric_map(std::ofstream& os, const char* name,
                      const std::vector<std::pair<std::string, double>>& m) {
  os << "      \"" << name << "\": {";
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json_escape(m[i].first) << "\": " << json_number(m[i].second);
  }
  os << '}';
}

}  // namespace

const char* build_git_rev() {
#ifdef GATEST_GIT_REV
  return GATEST_GIT_REV;
#else
  return "unknown";
#endif
}

RecordWriter::RecordWriter(std::string harness)
    : harness_(std::move(harness)) {}

void RecordWriter::param(const std::string& key, double value) {
  params_.emplace_back(key, json_number(value));
}

void RecordWriter::param(const std::string& key, const std::string& value) {
  params_.emplace_back(
      key, std::string("\"").append(json_escape(value)).append("\""));
}

void RecordWriter::begin_entry(const std::string& circuit,
                               const std::string& config) {
  entries_.push_back(Entry{circuit, config, {}, {}});
}

void RecordWriter::exact(const std::string& key, double value) {
  if (entries_.empty())
    throw std::logic_error("RecordWriter::exact() before begin_entry()");
  entries_.back().exact.emplace_back(key, value);
}

void RecordWriter::perf(const std::string& key, double value) {
  if (entries_.empty())
    throw std::logic_error("RecordWriter::perf() before begin_entry()");
  entries_.back().perf.emplace_back(key, value);
}

bool RecordWriter::write(const std::string& path, std::string& err) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os) {
    err = "cannot open '" + path + "' for writing";
    return false;
  }
  os << "{\n";
  os << "  \"schema_version\": " << kRecordSchemaVersion << ",\n";
  os << "  \"harness\": \"" << json_escape(harness_) << "\",\n";
  os << "  \"git_rev\": \"" << json_escape(build_git_rev()) << "\",\n";
  os << "  \"params\": {";
  for (std::size_t i = 0; i < params_.size(); ++i) {
    if (i) os << ", ";
    os << '"' << json_escape(params_[i].first) << "\": " << params_[i].second;
  }
  os << "},\n";
  os << "  \"entries\": [\n";
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    os << "    {\n      \"circuit\": \"" << json_escape(e.circuit)
       << "\", \"config\": \"" << json_escape(e.config) << "\",\n";
    write_metric_map(os, "exact", e.exact);
    os << ",\n";
    write_metric_map(os, "perf", e.perf);
    os << "\n    }" << (i + 1 < entries_.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  os.flush();
  if (!os) {
    err = "write to '" + path + "' failed";
    return false;
  }
  return true;
}

}  // namespace gatest::bench
