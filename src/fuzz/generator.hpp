// Grammar-aware program generator: emits SecVerilogLC source that
// exercises the whole language surface (lattices, dependent label
// functions, com/seq nets, next(), downgrades, slices and concats at
// boundary widths) while respecting the elaborator's structural
// invariants, so most outputs reach the type checker and simulator
// instead of dying in parse. Deterministic: one seed, one program.
#pragma once

#include <cstdint>
#include <string>

namespace svlc::fuzz {

struct GenOptions {
    uint64_t seed = 1;
    /// Bias flow choices toward label-respecting assignments so a useful
    /// fraction of programs is checker-*accepted* (the soundness oracle
    /// only fires on accepted programs). Chosen per program when unset
    /// here; see GenProgram::biased.
    int accept_bias_percent = 60;
    /// The multi-instance shape: the generated module becomes `child`,
    /// instantiated 2-3 times under a generated `top` with some input
    /// ports tied to constants. In about one program in three that
    /// wrapper is `mid`, instantiated twice under `top` the same way. The
    /// child may also take an `input seq` port, read through next() and
    /// used as a label-function argument.
    bool modular = false;
};

struct GenProgram {
    std::string source;
    uint64_t seed = 0;
    /// Shape summary ("chain3/f2/nets9/biased") for reports.
    std::string shape;
    /// Program contains endorse/declassify (breaks noninterference by
    /// design; the soundness oracle skips it).
    bool has_downgrade = false;
    /// Program contains assume() (random stimulus may violate it).
    bool has_assume = false;
    bool biased = false;
};

/// Generates one structurally well-formed-ish program from `opts.seed`.
GenProgram generate_program(const GenOptions& opts);

/// The multi-instance program for the fuzz index whose program seed is
/// `program_seed`. It comes from its own seed stream, so adding it leaves
/// every index's single-module program unchanged.
GenProgram generate_modular_program(uint64_t program_seed);

/// Byte-level mutations (truncation, span deletion/duplication, keyword
/// splices, raw byte noise including non-ASCII) for the no-crash oracle's
/// ill-formed corpus.
std::string mutate_source(const std::string& src, uint64_t seed);

/// Hand-shaped parser stress inputs: pathological nesting depth, runs of
/// unary operators, truncated literals, unterminated comments.
std::string pathological_source(uint64_t seed);

} // namespace svlc::fuzz
