// The fuzzer's oracles: each one states a contract the toolchain must
// uphold on *every* input, so a violation is a bug by definition — no
// golden outputs needed.
//
//   no-crash    parse → elaborate → check → sim never throws or aborts,
//               even on ill-formed input (diagnostics are the only legal
//               failure mode).
//   diff        the cdcl production backend agrees with the enum
//               reference on verdicts, per-obligation records, and
//               counterexample witnesses. Alias: backend-diff.
//   soundness   a checker-accepted program (without downgrades/assumes)
//               passes the dynamic observational-determinism tester at
//               every observer level — the paper's central theorem.
//   roundtrip   ast::print output reparses, and printing the reparse
//               reproduces the same text (print is a fixpoint).
//   xform       dynamic clearing either inserts nothing and preserves
//               cycle-accurate traces or yields a well-formed, simulable
//               design.
//   modular     checking each repeated module once gives the same report
//               (check_report_json) and diagnostics, byte for byte, as
//               the flattened-only reference. The campaign runs it on
//               the index's multi-instance program
//               (generate_modular_program).
#pragma once

#include "check/typecheck.hpp"

#include <optional>
#include <string>
#include <vector>

namespace svlc::fuzz {

enum class Oracle {
    NoCrash,
    BackendDiff,
    Soundness,
    RoundTrip,
    Xform,
    Modular
};

const char* oracle_name(Oracle o);

/// Which oracles to run. Parsed from "all" or a comma-separated subset
/// of {no-crash, diff (alias backend-diff), soundness, roundtrip, xform,
/// modular}.
struct OracleSet {
    bool no_crash = false;
    bool backend_diff = false;
    bool soundness = false;
    bool round_trip = false;
    bool xform = false;
    bool modular = false;

    static OracleSet all();
    [[nodiscard]] bool enabled(Oracle o) const;
};

bool parse_oracle_set(const std::string& text, OracleSet& out);

/// Deterministic budgets shared by every oracle run. No wall-clock
/// deadlines anywhere: verdicts must depend only on (source, seed).
struct OracleConfig {
    /// Stimulus stream for simulation-based oracles.
    uint64_t seed = 0x5eed;
    uint64_t sim_cycles = 24;
    uint64_t ni_cycles = 32;
    uint64_t ni_trials = 2;
    check::CheckOptions check;

    OracleConfig();
};

struct Finding {
    Oracle oracle = Oracle::NoCrash;
    std::string detail;
};

/// Runs one oracle; nullopt = contract held. Structured rejection
/// (diagnostics, refuted obligations) is not a violation.
std::optional<Finding> run_oracle(Oracle o, const std::string& source,
                                  const OracleConfig& cfg);

std::vector<Finding> run_oracles(const OracleSet& set,
                                 const std::string& source,
                                 const OracleConfig& cfg);

} // namespace svlc::fuzz
