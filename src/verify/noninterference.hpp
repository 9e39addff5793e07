// Dynamic validation of the security property the type system enforces —
// observational determinism [Zdancewic & Myers 2003], the property
// SecVerilogLC inherits from SecVerilog (paper §4).
//
// Dual-run tester: two simulations of the same design receive identical
// values on inputs the adversary-level observer may depend on, and
// independently random values on inputs above the observer's level. An
// input with a dependent label is classified cycle by cycle: it is shared
// while its label, evaluated in both runs, flows to the observer. Every
// cycle, any net whose (dependent, run-time evaluated) label flows to the
// observer must agree between the runs; a disagreement is an information
// leak. Well-typed designs must pass; the Fig. 3 implicit-downgrading
// design must fail; the same design after dynamic clearing must pass.
#pragma once

#include "sem/hir.hpp"
#include "sim/simulator.hpp"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace svlc::verify {

struct NIConfig {
    /// The observer's level. Nets whose current label flows to this level
    /// are observable; inputs whose label does not flow to it are "high"
    /// and varied between the runs.
    LevelId observer = 0;
    uint64_t cycles = 256;
    uint64_t trials = 8;
    uint64_t seed = 0x5eed;
    /// Inputs that are held identical in both runs regardless of label
    /// (e.g. reset).
    std::vector<hir::NetId> pinned;
    /// Optional per-cycle driver: called before each step with (sim,
    /// cycle) for both runs, for protocol-shaped stimulus.
    std::function<void(sim::Simulator&, uint64_t)> driver;
};

struct NIViolation {
    uint64_t trial;
    uint64_t cycle;
    hir::NetId net;
    std::string description;
};

struct NIResult {
    bool ok = true;
    std::vector<NIViolation> violations;
    uint64_t cycles_run = 0;
};

NIResult test_noninterference(const hir::Design& design, const NIConfig& cfg);

} // namespace svlc::verify
