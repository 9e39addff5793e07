// Bounded multi-cycle leak search (`svlc hunt`): beam search over
// per-cycle input assignments of a TaintSim, looking for a reachable
// state where secret-tainted bits sit on an observer-visible net. Every
// candidate is replayed through the concrete Simulator + TaintTracker
// before it is reported — the trace in a Leak result is an *oracle-
// confirmed* witness, and found traces are minimized with the same
// ddmin machinery `svlc reduce` uses. A search that reaches the depth
// bound without a leak found none among the inputs it tried; that is not
// a certificate (see docs/HUNT.md for what it does and does not claim).
#pragma once

#include "hunt/symexec.hpp"
#include "sem/hir.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace svlc::hunt {

struct HuntOptions {
    /// Leak target: a leak is taint reaching a net whose label flows to
    /// this level. kInvalidLevel = lattice bottom (the least-privileged
    /// observer, the strongest claim).
    LevelId observer = kInvalidLevel;
    /// Cycles to search.
    uint64_t depth = 16;
    /// Search states kept per cycle.
    size_t beam = 8;
    /// Input assignments tried per kept state per cycle.
    size_t branch = 4;
    /// RNG stream for tie-breaking input choices (fuzz::Rng::derive).
    uint64_t seed = 0x5eed;
    /// ddmin the found trace down to a minimal reproducer.
    bool minimize = true;
};

enum class HuntVerdict {
    Leak,        ///< confirmed trace found (replays to a TaintTracker
                 ///< violation)
    NoLeakFound, ///< no leak within depth among the inputs the beam tried
    NoSecrets,   ///< certificate: no input can ever carry a secret w.r.t.
                 ///< the observer
};

const char* hunt_verdict_name(HuntVerdict v);

/// One cycle of primary-input assignments, in net-id order.
struct CycleInputs {
    std::vector<std::pair<hir::NetId, BitVec>> values;
};

struct HuntTrace {
    std::vector<CycleInputs> cycles;
};

/// Replay outcome of a trace on the concrete engines.
struct ReplayWitness {
    bool confirmed = false;
    uint64_t cycle = 0;
    hir::NetId net = hir::kInvalidNet;
    LevelId taint = kInvalidLevel;    ///< tracker's taint on the net
    LevelId declared = kInvalidLevel; ///< label the net carried
};

struct HuntResult {
    HuntVerdict verdict = HuntVerdict::NoLeakFound;
    LevelId observer = kInvalidLevel;
    uint64_t depth = 0;
    uint64_t seed = 0;
    /// Leak only: the (minimized) input trace and its replay witness.
    HuntTrace trace;
    LeakEvent leak;           ///< TaintSim's view (net, cycle, taint bits)
    ReplayWitness replay;     ///< TaintTracker's confirmation
    /// Search telemetry.
    uint64_t states_explored = 0;
    uint64_t assignments_tried = 0;
    /// Candidates TaintSim flagged that did NOT replay to a tracker
    /// violation. The taint domain is a refinement of the tracker's, so
    /// any non-zero count here is a precision bug — the fuzz oracle
    /// asserts it stays zero.
    uint64_t unconfirmed_candidates = 0;
    uint64_t minimize_replays = 0;
};

/// Runs the bounded search. Deterministic in (design, options).
HuntResult hunt(const hir::Design& design, const HuntOptions& opts);

/// Oracle: replays `trace` through Simulator + TaintTracker and reports
/// whether some violation lands on a net whose declared label flows to
/// `observer` — i.e. the observer really sees mislabeled secret data.
ReplayWitness replay_trace(const hir::Design& design, const HuntTrace& trace,
                           LevelId observer);

/// Human-readable report (trace table, replay verdict, telemetry).
std::string render_hunt(const hir::Design& design, const HuntResult& r);

/// Machine-readable report, schema svlc-hunt/v1.
std::string hunt_json(const hir::Design& design, const HuntResult& r);

} // namespace svlc::hunt
