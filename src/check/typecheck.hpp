// The SecVerilogLC information-flow type checker (paper §2.2–2.3).
//
// For every assignment site η the checker discharges
//   T-ASGNCOM:  C(•η) ⇒ τ ⊔ pc ⊑ Γ(w)
//   T-ASGNSEQ:  C(•η) ⇒ τ ⊔ pc ⊑ Γ(r){r⃗'/r⃗}
// where C contains the path guards (with `next` reads lowered to primed
// symbols) plus the statically-derived next-value equations, and pc is
// the join of guard labels (implicit flows). The equations are built on
// demand, so the check pays only for the equations its queries and its
// instance grouping read (EquationStats).
//
// In addition the checker emits *hold obligations* for every register
// with a dependent label: when the register is not written, its value is
// carried to the next cycle, so the old label must flow into the new one
//   C_hold ⇒ Γ(r) ⊑ Γ(r){r⃗'/r⃗},   C_hold = C ∧ ¬g₁ ∧ … ∧ ¬gₙ
// over the negated write guards. This is what makes label *upgrades*
// (e.g. the U→T change on SYSCALL) require explicit clearing or
// endorsement while label downgrades (SYSRET) need no code — the
// precision claim of §3.2.
//
// Mode::ClassicSecVerilog reproduces the prior system [Zhang et al. 2015]
// for the paper's comparisons: sequential assignments are checked against
// the *current* label Γ(r) (no substitution), next-cycle reasoning is
// unavailable (`next` is rejected), and no hold obligations are emitted —
// implicit downgrading must instead be patched by the dynamic-clearing
// transform (src/xform).
//
// Modular checking: elaboration flattens every instance, so a module
// instantiated N times would be checked N times. Instead every obligation
// belongs to the innermost instance whose key (module plus parameter
// values) repeats: by its process in the assignment walk, by its net in
// the hold walk. The instances of a key are grouped by the closure
// signature of their input ports (EntailmentEngine::closure_signature),
// where an input port is a net of the instance written from outside it,
// or an undriven input. Instances of a group get isomorphic queries, and
// so equal verdicts. The group's first instance is solved in the
// flattened design like any other obligation; a later instance takes its
// Proven verdict at the same position, with the same kind and target
// offset, and solves everything else itself. So every record, witness and
// diagnostic is the flattened check's own, and each distinct context of
// a module is decided once.
#pragma once

#include "sem/hir.hpp"
#include "sem/updates.hpp"
#include "solver/entail.hpp"
#include "support/diagnostics.hpp"

#include <string>
#include <vector>

namespace svlc::check {

enum class CheckerMode { SecVerilogLC, ClassicSecVerilog };

struct CheckOptions {
    CheckerMode mode = CheckerMode::SecVerilogLC;
    solver::EntailOptions solver;
    /// Emit hold obligations (LC mode only). Exposed for the ablation
    /// benchmark; turning this off re-introduces implicit downgrading.
    bool hold_obligations = true;
    /// Decide each distinct context of a repeated module once and reuse
    /// its proven obligations (see above). Off is the flattened-only
    /// reference the fuzz oracle `modular` compares against; reports are
    /// byte-identical either way.
    bool modular = true;
};

/// Where modular checking decided the obligations of one check.
struct ModularStats {
    /// Groups of instances of a repeated key with isomorphic input-port
    /// closures.
    uint64_t groups = 0;
    /// Obligations proven without a solver call: by the same query in the
    /// first instance of their group.
    uint64_t reused = 0;
    /// Obligations sent to the solver in the flattened design.
    uint64_t solved = 0;
};

/// How much of the design's defining equations one check built. They
/// are built on demand (sem/updates.hpp), so a process whose equations no
/// query read costs nothing.
struct EquationStats {
    /// Processes whose equations were built.
    uint64_t built = 0;
    /// Processes in the design.
    uint64_t processes = 0;
};

enum class ObligationKind { CombAssign, SeqAssign, Hold };

/// Short stable name ("com" / "seq" / "hold"), used in obligation ids and
/// JSON reports.
const char* obligation_kind_name(ObligationKind kind);

struct Obligation {
    ObligationKind kind;
    SourceLoc loc;
    hir::NetId target = hir::kInvalidNet;
    /// Stable deterministic id: `<top>:<net>:<kind>:<site>` where <site>
    /// numbers the obligations of this (net, kind) pair in checker walk
    /// order. Invariant across runs, worker counts, and solver backends,
    /// so reports diff cleanly.
    std::string id;
    std::string lhs_label;
    std::string rhs_label;
    solver::EntailResult result;
    /// Wall time spent deciding this obligation, for per-obligation
    /// latency profiles (bench_solver). Near zero for a reused verdict.
    double solve_ms = 0;
};

struct CheckResult {
    bool ok = false;
    std::vector<Obligation> obligations;
    size_t failed = 0;
    size_t downgrade_count = 0;
    solver::EntailmentEngine::Stats solver_stats;
    ModularStats modular;
    EquationStats equations;
    /// The solver's deadline (CheckOptions::solver.deadline) expired;
    /// remaining obligations were skipped and `ok` is false. The batch
    /// driver reports such a job as timed out rather than rejected.
    bool timed_out = false;
};

/// Type-checks a well-formed design. Flow violations are reported through
/// `diags` (IllegalFlow / IllegalFlowSeq / ImplicitFlow) and recorded in
/// the returned result.
CheckResult check_design(const hir::Design& design, DiagnosticEngine& diags,
                         const CheckOptions& opts = {});

} // namespace svlc::check
