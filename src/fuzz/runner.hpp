// Fuzzing campaign driver: derives one program per index from the root
// seed, classifies it (well-formed / mutated / pathological), runs the
// selected oracles, auto-reduces any violation, and persists
// (seed, oracle, reduced case) reports to the crash corpus as
// svlc-fuzz-report/v1 JSON. Fully deterministic: same seed + count +
// oracle set → same programs, same verdicts, same stdout.
#pragma once

#include "fuzz/oracles.hpp"

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace svlc::fuzz {

struct FuzzOptions {
    uint64_t seed = 1;
    uint64_t count = 100;
    OracleSet oracles = OracleSet::all();
    /// Where reduced failing cases and their reports are written; empty
    /// disables persistence.
    std::string corpus_dir = "fuzz-corpus";
    /// Percent of indices that mutate a generated program into ill-formed
    /// bytes (exercises parsing/recovery; no-crash only).
    uint32_t mutate_percent = 20;
    /// Percent of indices that use hand-shaped pathological inputs.
    uint32_t pathological_percent = 10;
    bool reduce_failures = true;
    /// Print each generated program to `out` instead of running oracles.
    /// Repro aid: hangs never get a corpus report, so this is the way to
    /// recover the exact input for a given (seed, index).
    bool dump_only = false;
    OracleConfig oracle_cfg;
    /// Progress line every N programs (0 = none).
    uint64_t progress_every = 500;
};

struct FuzzReportEntry {
    uint64_t index = 0;
    uint64_t program_seed = 0;
    std::string klass;
    Finding finding;
    std::string reduced;
    std::string json_path;
};

struct FuzzStats {
    uint64_t programs = 0;
    uint64_t well_formed = 0;
    uint64_t mutated = 0;
    uint64_t pathological = 0;
    /// Checker-accepted programs (the soundness oracle's actual corpus).
    uint64_t accepted = 0;
    std::vector<FuzzReportEntry> violations;
};

/// Runs the campaign; deterministic progress/summary lines go to `out`.
/// Returns the stats; violations.empty() is the pass/fail signal.
FuzzStats run_fuzz(const FuzzOptions& opts, std::FILE* out);

/// Renders one violation as svlc-fuzz-report/v1 JSON.
std::string fuzz_report_json(const FuzzOptions& opts,
                             const FuzzReportEntry& entry,
                             const std::string& original);

} // namespace svlc::fuzz
