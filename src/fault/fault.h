// Single stuck-at fault model: fault sites, universe enumeration, and
// structural equivalence collapsing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "netlist/circuit.h"

namespace gatest {

/// Fault models handled by the simulators (the paper's conclusion: "other
/// fault models can easily be accommodated with appropriate fitness
/// functions" — the same GA and observables work unchanged).
enum class FaultModel : std::uint8_t {
  StuckAt,     ///< classic single stuck-at (permanent)
  SlowToRise,  ///< gross-delay transition: a 0->1 change arrives a cycle late
  SlowToFall,  ///< gross-delay transition: a 1->0 change arrives a cycle late
};

/// One fault.  `pin == kOutputPin` places the fault on the gate's output
/// stem; otherwise the fault sits on the branch feeding input `pin` of
/// `gate` (pin faults matter only where the driving net fans out; transition
/// faults are modeled on stems only).
///
/// Transition faults behave as a conditional stuck-at: in any frame where
/// the fault-free line completes the targeted transition, the faulty machine
/// still sees the old value (the effect may be observed that frame or latch
/// into flip-flops and propagate later, exactly like a stuck-at effect).
struct Fault {
  static constexpr std::int16_t kOutputPin = -1;

  GateId gate = kNoGate;
  std::int16_t pin = kOutputPin;
  std::uint8_t stuck = 0;  ///< stuck/held value: 0 or 1
  FaultModel model = FaultModel::StuckAt;

  friend bool operator==(const Fault&, const Fault&) = default;
};

/// Human-readable site, e.g. "G10 s-a-1" or "G22.in2 s-a-0".
std::string fault_name(const Circuit& c, const Fault& f);

/// Lifecycle of a fault during test generation.
enum class FaultStatus : std::uint8_t {
  Undetected,
  Detected,
  Untestable,  ///< proven untestable (deterministic engine or static analysis)
};

/// Why static analysis classified a fault structurally untestable (set by
/// analysis/prune; None for every fault the classifier cannot prove out).
enum class UntestableTag : std::uint8_t {
  None = 0,       ///< not proven untestable
  Unactivatable,  ///< site can never take the value opposite the stuck value
  Unobservable,   ///< a difference at the site can never reach an output
  Proven,         ///< sound implication-engine proof (analysis/untestable),
                  ///< distinct from the SCOAP heuristics above
};

/// Enumerate the full (uncollapsed) stuck-at universe: both polarities on
/// every node output and on every gate input pin whose driving net fans out
/// to more than one reader (fanout-free input faults are the same physical
/// line as the driver's output fault).
std::vector<Fault> enumerate_all_faults(const Circuit& c);

/// Enumerate the transition-fault universe: slow-to-rise and slow-to-fall
/// on every node output (transition faults are not structurally collapsed).
/// A slow-to-rise fault holds the line at 0 in frames where it should have
/// risen, i.e. stuck value 0; slow-to-fall holds 1.
std::vector<Fault> enumerate_transition_faults(const Circuit& c);

/// Equivalence-collapse the universe.  Rules applied:
///  - AND/NAND: any input s-a-0 is equivalent to output s-a-0 (NAND: s-a-1);
///  - OR/NOR: any input s-a-1 is equivalent to output s-a-1 (NOR: s-a-0);
///  - NOT/BUF/DFF: input s-a-v is equivalent to output s-a-v̄ (NOT) / s-a-v.
/// One representative per class is returned, chosen closest to the inputs
/// (so activation conditions stay simple).  The mapping from every
/// uncollapsed fault to its representative index is optionally returned.
std::vector<Fault> collapse_faults(const Circuit& c,
                                   std::vector<std::uint32_t>* class_of = nullptr,
                                   std::vector<Fault>* universe = nullptr);

/// Mutable fault bookkeeping shared by the simulators and the ATPG engines.
class FaultList {
 public:
  /// Build the collapsed fault list for a circuit.
  explicit FaultList(const Circuit& c);

  /// Build from an explicit fault set (tests, targeted runs).
  FaultList(const Circuit& c, std::vector<Fault> faults);

  const Circuit& circuit() const { return *circuit_; }
  std::size_t size() const { return faults_.size(); }
  const Fault& fault(std::size_t i) const { return faults_[i]; }
  const std::vector<Fault>& faults() const { return faults_; }

  FaultStatus status(std::size_t i) const { return status_[i]; }
  void set_status(std::size_t i, FaultStatus s) { status_[i] = s; }

  /// Static-analysis classification (see analysis/prune).  Structural, so it
  /// survives reset(); None until a pruning pass stores its tags.
  UntestableTag tag(std::size_t i) const { return tags_[i]; }
  void set_tag(std::size_t i, UntestableTag t) { tags_[i] = t; }

  /// Index of the test-set vector that first detected fault i (or -1).
  std::int64_t detected_by(std::size_t i) const { return detected_by_[i]; }

  void mark_detected(std::size_t i, std::int64_t vector_index) {
    status_[i] = FaultStatus::Detected;
    detected_by_[i] = vector_index;
  }

  std::size_t num_detected() const;
  std::size_t num_untestable() const;
  std::size_t num_undetected() const;

  /// Indices of all currently undetected (and not untestable) faults.
  std::vector<std::uint32_t> undetected_indices() const;
  /// The same indices, written into `out` (reusing its capacity).
  void undetected_indices(std::vector<std::uint32_t>& out) const;

  /// Fault coverage = detected / total, in [0,1].
  double coverage() const;

  // ---- universe pruning (analysis/untestable) ------------------------------

  /// Permanently remove fault i from the simulated universe: status becomes
  /// Untestable and — unlike a plain set_status — the mark survives reset()
  /// and replay_committed(), so checkpoint restore and serve slices see the
  /// same pruned universe the run started with.  Only sound for faults the
  /// implication engine proved *inert* (zero simulation footprint).
  void set_pruned(std::size_t i);
  bool pruned(std::size_t i) const { return pruned_[i] != 0; }

  /// Number of faults pruned from the universe.  The simulator adds this
  /// back into each frame's faults_simulated so fitness denominators (and
  /// hence the GA trajectory) are bit-identical with pruning on or off.
  std::size_t num_pruned() const { return num_pruned_; }

  /// Reset every fault to Undetected (pruned faults stay Untestable).
  void reset();

  // ---- status export/import (run-control checkpointing) -------------------

  /// Copy out the full per-fault detection state.
  void export_status(std::vector<FaultStatus>& status,
                     std::vector<std::int64_t>& detected_by) const;

  /// Restore previously exported state.  Sizes must match the fault list;
  /// throws std::invalid_argument otherwise.
  void import_status(const std::vector<FaultStatus>& status,
                     const std::vector<std::int64_t>& detected_by);

 private:
  const Circuit* circuit_;
  std::vector<Fault> faults_;
  std::vector<FaultStatus> status_;
  std::vector<UntestableTag> tags_;
  std::vector<std::int64_t> detected_by_;
  std::vector<std::uint8_t> pruned_;
  std::size_t num_pruned_ = 0;
};

}  // namespace gatest
