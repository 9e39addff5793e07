// The SecVerilogLC information-flow type checker (paper §2.2–2.3).
//
// For every assignment site η the checker discharges
//   T-ASGNCOM:  C(•η) ⇒ τ ⊔ pc ⊑ Γ(w)
//   T-ASGNSEQ:  C(•η) ⇒ τ ⊔ pc ⊑ Γ(r){r⃗'/r⃗}
// where C contains the path guards (with `next` reads lowered to primed
// symbols) plus the statically-derived next-value equations, and pc is
// the join of guard labels (implicit flows).
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
// instantiated N times would be checked N times. Instead, for every key
// (module plus parameter values) with two or more instances, the first
// instance is checked alone, in place: with equations built only from its
// own processes, and with every net driven from outside it (an input
// port) free in both cycles. The instance context only adds constraints,
// so what that check proves holds in every instance, and those
// obligations are Proven in the flattened walk without deciding them
// again. The solver's enumeration budget is the one catch: the flattened
// query may leave Unknown what the smaller module query proved. So a
// proof carries over only where the flattened query enumerates every
// variable the proof did (EntailmentEngine::enumerates). Instances whose
// input ports see isomorphic closures (closure_signature) have
// isomorphic queries, so the first of them walked answers that for all,
// and its own Proven verdicts serve the rest. Refuted and Unknown
// verdicts, parent-level obligations and modules instantiated once are
// solved in the flattened design as before, so every record, witness and
// diagnostic is the flattened check's own. Keys nest: checking a module
// alone reuses the verdicts of the repeated modules inside it.
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
    /// Check each repeated module once and reuse its proven obligations
    /// (see above). Off is the flattened-only reference the fuzz oracle
    /// `modular` compares against; reports are byte-identical either way.
    bool modular = true;
};

/// Where modular checking decided the obligations of one check.
struct ModularStats {
    /// Repeated modules checked alone.
    uint64_t module_checks = 0;
    /// Obligations proven without a solver call in the flattened design:
    /// by a module check, or by the same query of an isomorphic instance.
    uint64_t reused = 0;
    /// Obligations sent to the solver in the flattened design.
    uint64_t solved = 0;
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
    /// latency profiles (bench_solver). The solve time of a module check
    /// is charged to the matching obligations of the module's first
    /// instance.
    double solve_ms = 0;
};

struct CheckResult {
    bool ok = false;
    std::vector<Obligation> obligations;
    size_t failed = 0;
    size_t downgrade_count = 0;
    /// Over the flattened check and every module check.
    solver::EntailmentEngine::Stats solver_stats;
    ModularStats modular;
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
