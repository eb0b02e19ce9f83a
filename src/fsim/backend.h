// Construction of the fault simulator by engine name.
//
// The repo has one fault-simulation engine, "event": the PROOFS-style
// SequentialFaultSimulator in fsim/fault_sim.h.  Construction by name stays
// because TestGenConfig::fsim_backend still carries one, and a stale or
// unknown name must fail loudly rather than silently run the default.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "fault/fault.h"
#include "fsim/fault_sim.h"
#include "netlist/circuit.h"

namespace gatest {

/// Construct the simulator for `name`: "event" or "" (the default).  Throws
/// std::invalid_argument for any other name.  The circuit and fault list
/// must outlive the simulator.
inline std::unique_ptr<SequentialFaultSimulator> make_fault_sim_backend(
    const std::string& name, const Circuit& c, FaultList& faults) {
  if (name != "event" && !name.empty())
    throw std::invalid_argument("unknown fault-sim backend: " + name);
  return std::make_unique<SequentialFaultSimulator>(c, faults);
}

}  // namespace gatest
