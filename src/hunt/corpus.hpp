// Hunt workload generator: parameterized SoC-scale scenarios (mode-
// gated multi-core rings, secret-holding cache arrays, the src/proc
// evaluation cores) in matched planted-leak / leak-free pairs, so the
// hunter and the batch driver both get a corpus
// far beyond the three hdl/ examples. Deterministic: the same
// parameters always produce byte-identical sources.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace svlc::hunt {

struct Scenario {
    std::string name;
    std::string source;
    std::string top;
    /// The scenario contains a fig3-style stale-mode-guard bug: the
    /// hunter is expected to find a confirmed leak trace.
    bool planted_leak = false;
    /// Search depth appropriate for the scenario's pipeline latency.
    uint64_t depth = 8;
};

/// `cores` mode-gated cores sharing a trusted heartbeat ring. The
/// planted variant guards the dependent-label slot write with the
/// *stale* mode bit (Figure 3's implicit downgrade); the clean variant
/// guards with next(mode).
std::string ring_scenario_source(size_t cores, bool planted);

/// A `words`-entry cache of untrusted data behind a mode-gated readout
/// register with a dependent label; same planted/clean split.
std::string cache_scenario_source(size_t words, bool planted);

/// The deterministic built-in corpus: ring and cache families at
/// several scales (both variants each) plus the labeled and vulnerable
/// evaluation processors from src/proc.
std::vector<Scenario> builtin_scenarios();

/// Writes each scenario to `<dir>/<name>.svlc` plus `<dir>/manifest.txt`
/// with `hunt=<depth>` job attributes, runnable by `svlc batch`.
bool write_corpus(const std::string& dir,
                  const std::vector<Scenario>& scenarios, std::string& error);

} // namespace svlc::hunt
