#include "gatest/checkpoint.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace gatest {
namespace {

// Plausibility ceilings for size fields read from disk (see Checkpoint::read).
constexpr std::size_t kMaxInputs = 1u << 20;
constexpr std::size_t kMaxFaults = 1u << 28;
constexpr std::size_t kMaxVectors = 1u << 26;
constexpr std::size_t kMaxSequenceLengths = 1u << 16;

[[noreturn]] void corrupt(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

/// Read one line and split off the leading keyword; the rest stays in a
/// stream for the caller.  Enforces the expected keyword so truncated or
/// reordered files fail loudly instead of silently misparsing.
std::istringstream expect(std::istream& in, const std::string& key) {
  std::string line;
  if (!std::getline(in, line)) corrupt("truncated file (expected '" + key + "')");
  std::istringstream ss(line);
  std::string got;
  ss >> got;
  if (got != key) corrupt("expected '" + key + "', got '" + got + "'");
  return ss;
}

template <typename T>
T read_value(std::istream& in, const std::string& key) {
  std::istringstream ss = expect(in, key);
  T v{};
  if (!(ss >> v)) corrupt("bad value for '" + key + "'");
  return v;
}

}  // namespace

void Checkpoint::write(std::ostream& out) const {
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "gatest-checkpoint v" << kFormatVersion << '\n';
  out << "circuit " << circuit_name << '\n';
  out << "inputs " << num_inputs << '\n';
  out << "faults " << num_faults << '\n';
  out << "seed " << seed << '\n';
  out << "rng " << rng_state[0] << ' ' << rng_state[1] << ' ' << rng_state[2]
      << ' ' << rng_state[3] << '\n';
  out << "last_best ";
  if (last_best_genes.empty()) {
    out << '-';
  } else {
    for (std::uint8_t g : last_best_genes) out << (g ? '1' : '0');
  }
  out << '\n';
  out << "macro " << static_cast<unsigned>(macro) << '\n';
  out << "phase " << static_cast<unsigned>(phase) << '\n';
  out << "noncontributing " << noncontributing << '\n';
  out << "phase1_stall " << phase1_stall << '\n';
  out << "best_ffs_set " << best_ffs_set << '\n';
  out << "seq_mult_index " << seq_mult_index << '\n';
  out << "seq_consecutive_failures " << seq_consecutive_failures << '\n';
  out << "evaluations " << fitness_evaluations << '\n';
  out << "seconds " << seconds << '\n';
  out << "vectors_from_vector_phases " << vectors_from_vector_phases << '\n';
  out << "vectors_from_sequences " << vectors_from_sequences << '\n';
  out << "detected_by_vectors " << detected_by_vectors << '\n';
  out << "detected_by_sequences " << detected_by_sequences << '\n';
  out << "sequence_attempts " << sequence_attempts << '\n';
  out << "sequences_committed " << sequences_committed << '\n';
  out << "all_ffs_initialized " << (all_ffs_initialized ? 1 : 0) << '\n';
  out << "progress_limit " << progress_limit << '\n';
  out << "sequence_lengths_tried " << sequence_lengths_tried.size();
  for (unsigned f : sequence_lengths_tried) out << ' ' << f;
  out << '\n';
  out << "vectors " << test_set.size() << '\n';
  for (const TestVector& v : test_set) out << logic_string(v) << '\n';
  // Only non-Undetected faults are listed; everything else defaults.
  std::size_t listed = 0;
  for (FaultStatus s : fault_status)
    if (s != FaultStatus::Undetected) ++listed;
  out << "status " << listed << '\n';
  for (std::size_t i = 0; i < fault_status.size(); ++i)
    if (fault_status[i] != FaultStatus::Undetected)
      out << i << ' ' << static_cast<unsigned>(fault_status[i]) << ' '
          << detected_by[i] << '\n';
  out << "end\n";
}

Checkpoint Checkpoint::read(std::istream& in) {
  std::string header;
  if (!std::getline(in, header)) corrupt("empty file");
  {
    std::istringstream ss(header);
    std::string magic, ver;
    ss >> magic >> ver;
    if (magic != "gatest-checkpoint") corrupt("not a gatest checkpoint file");
    if (ver != std::string("v").append(std::to_string(kFormatVersion)))
      corrupt("unsupported format version '" + ver + "' (this build reads v" +
              std::to_string(kFormatVersion) + ")");
  }

  Checkpoint cp;
  {
    std::istringstream ss = expect(in, "circuit");
    if (!(ss >> cp.circuit_name)) corrupt("bad value for 'circuit'");
  }
  cp.num_inputs = read_value<std::size_t>(in, "inputs");
  cp.num_faults = read_value<std::size_t>(in, "faults");
  // Corrupt size fields (a flipped bit turns 24 into 16777240) must fail as
  // "corrupt", not drive multi-gigabyte allocations below.  The caps are far
  // above anything a real circuit produces.
  if (cp.num_inputs > kMaxInputs) corrupt("implausible input count");
  if (cp.num_faults > kMaxFaults) corrupt("implausible fault count");
  cp.seed = read_value<std::uint64_t>(in, "seed");
  {
    std::istringstream ss = expect(in, "rng");
    for (auto& w : cp.rng_state)
      if (!(ss >> w)) corrupt("bad value for 'rng'");
  }
  {
    std::istringstream ss = expect(in, "last_best");
    std::string bits;
    if (!(ss >> bits)) corrupt("bad value for 'last_best'");
    if (bits != "-") {
      cp.last_best_genes.reserve(bits.size());
      for (char c : bits) {
        if (c != '0' && c != '1') corrupt("bad gene bit in 'last_best'");
        cp.last_best_genes.push_back(c == '1' ? 1 : 0);
      }
    }
  }
  {
    const auto m = read_value<unsigned>(in, "macro");
    if (m > static_cast<unsigned>(MacroPhase::Done)) corrupt("bad macro phase");
    cp.macro = static_cast<MacroPhase>(m);
  }
  {
    const auto p = read_value<unsigned>(in, "phase");
    if (p < 1 || p > 4) corrupt("bad generation phase");
    cp.phase = static_cast<Phase>(p);
  }
  cp.noncontributing = read_value<unsigned>(in, "noncontributing");
  cp.phase1_stall = read_value<unsigned>(in, "phase1_stall");
  cp.best_ffs_set = read_value<unsigned>(in, "best_ffs_set");
  cp.seq_mult_index = read_value<std::size_t>(in, "seq_mult_index");
  cp.seq_consecutive_failures =
      read_value<unsigned>(in, "seq_consecutive_failures");
  cp.fitness_evaluations = read_value<std::size_t>(in, "evaluations");
  cp.seconds = read_value<double>(in, "seconds");
  cp.vectors_from_vector_phases =
      read_value<std::size_t>(in, "vectors_from_vector_phases");
  cp.vectors_from_sequences =
      read_value<std::size_t>(in, "vectors_from_sequences");
  cp.detected_by_vectors = read_value<std::size_t>(in, "detected_by_vectors");
  cp.detected_by_sequences =
      read_value<std::size_t>(in, "detected_by_sequences");
  cp.sequence_attempts = read_value<std::size_t>(in, "sequence_attempts");
  cp.sequences_committed = read_value<std::size_t>(in, "sequences_committed");
  cp.all_ffs_initialized =
      read_value<unsigned>(in, "all_ffs_initialized") != 0;
  cp.progress_limit = read_value<unsigned>(in, "progress_limit");
  {
    std::istringstream ss = expect(in, "sequence_lengths_tried");
    std::size_t k = 0;
    if (!(ss >> k)) corrupt("bad value for 'sequence_lengths_tried'");
    if (k > kMaxSequenceLengths)
      corrupt("implausible 'sequence_lengths_tried' count");
    cp.sequence_lengths_tried.resize(k);
    for (auto& f : cp.sequence_lengths_tried)
      if (!(ss >> f)) corrupt("truncated 'sequence_lengths_tried'");
  }
  {
    const auto n = read_value<std::size_t>(in, "vectors");
    if (n > kMaxVectors) corrupt("implausible test-set size");
    cp.test_set.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::string line;
      if (!std::getline(in, line)) corrupt("truncated test set");
      if (line.size() != cp.num_inputs)
        corrupt("test vector " + std::to_string(i) + " has length " +
                std::to_string(line.size()) + ", circuit has " +
                std::to_string(cp.num_inputs) + " inputs");
      cp.test_set.push_back(logic_vector(line));
    }
  }
  {
    const auto listed = read_value<std::size_t>(in, "status");
    if (listed > cp.num_faults)
      corrupt("more fault-status entries than faults");
    cp.fault_status.assign(cp.num_faults, FaultStatus::Undetected);
    cp.detected_by.assign(cp.num_faults, -1);
    for (std::size_t k = 0; k < listed; ++k) {
      std::size_t i = 0;
      unsigned s = 0;
      std::int64_t by = -1;
      std::string line;
      if (!std::getline(in, line)) corrupt("truncated fault-status section");
      std::istringstream ss(line);
      if (!(ss >> i >> s >> by) || i >= cp.num_faults ||
          s > static_cast<unsigned>(FaultStatus::Untestable))
        corrupt("bad fault-status entry");
      cp.fault_status[i] = static_cast<FaultStatus>(s);
      cp.detected_by[i] = by;
    }
  }
  expect(in, "end");
  return cp;
}

void Checkpoint::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream f(tmp, std::ios::trunc);
    if (!f) corrupt("cannot write '" + tmp + "'");
    write(f);
    f.flush();
    if (!f) corrupt("write to '" + tmp + "' failed");
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0)
    corrupt("cannot rename '" + tmp + "' to '" + path + "'");
}

Checkpoint Checkpoint::load(const std::string& path) {
  std::ifstream f(path);
  if (!f) corrupt("cannot open '" + path + "'");
  return read(f);
}

}  // namespace gatest
