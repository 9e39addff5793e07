// Seeded inputs of the benchmark: the check-cold scale corpus, the
// edit-serve designs and edit script, and their digests. Every expected
// verdict is derived from how a design was built, never from running the
// checker on it.
#pragma once

#include "bench.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Design {
    std::string name;
    std::string source;
    std::string top; // empty = auto-detect
    /// Known answer: the checker must accept the design.
    bool secure = false;
};

/// N labeled cores on a unidirectional ring, built like
/// proc::quad_core_source(). When `vulnerable_core` < cores, that core
/// instantiates the §3.2 vulnerable cpu (renamed cpu_vuln) instead.
std::string cpu_ring_source(size_t cores, size_t vulnerable_core);
inline constexpr size_t kNoVulnerableCore = ~size_t{0};

/// Replaces the labeled core's pc-update block with the vulnerable one
/// (`to_vulnerable`) or back. The text must contain the source block.
std::string flip_pc_update(const std::string& text, bool to_vulnerable);

/// check-cold, full scale: cpu rings of 1..32 cores in clean, vulnerable
/// and baseline twins; the hdl/ designs; hunt ring/cache scenarios at
/// sizes beyond the hunter's builtin corpus. The seed picks the
/// vulnerable core of each ring.
std::vector<Design> check_corpus(uint64_t seed);
/// The small fixed design set the check flow uses as a probe.
std::vector<Design> check_probe_corpus();

/// A design the edit-serve script works on.
struct EditDesign {
    std::string name;
    std::string source; // as opened
    std::string top;
    bool secure = false; // known answer of `source`
    /// Requests of each kind per round after the open. Flips need the
    /// labeled pc-update block in `source`.
    unsigned hits = 0;
    unsigned trivia = 0;
    unsigned flips = 0;
};

enum class EditKind { Open, Hit, Trivia, Flip };
const char* edit_kind_name(EditKind k);

struct EditOp {
    size_t design;
    EditKind kind;
};

std::vector<EditDesign> edit_designs(Scale scale);
/// One round's requests: every design opened once (seeded order), then a
/// seeded interleaving of each design's hit, trivia and flip requests.
/// The mix is fixed, so every seed costs about the same.
std::vector<EditOp> edit_script(const std::vector<EditDesign>& designs,
                                uint64_t seed);

/// The text a design has after `flipped` flips (mod 2) and with trivia
/// variant `trivia` (a trailing comment block; 0 = none).
std::string edit_text(const EditDesign& d, bool flipped, unsigned trivia);
/// Known answer for that text: a flip toggles the verdict.
inline bool edit_secure(const EditDesign& d, bool flipped) {
    return flipped ? !d.secure : d.secure;
}

/// sha256 over names, tops, sources and expected verdicts.
std::string corpus_digest(const std::vector<Design>& designs);
std::string script_digest(const std::vector<EditDesign>& designs,
                          const std::vector<EditOp>& script);

/// Writes every design, the known-answer table and the edit script
/// under `dir`. False with `error` on I/O failure.
bool dump_inputs(const std::string& dir, uint64_t seed, std::string& error);

} // namespace perfbench
