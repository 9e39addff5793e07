// Dynamic clearing — the state-of-the-art mitigation for implicit
// downgrading in classic SecVerilog [Zhang et al., TR 2014]: the compiler
// inserts run-time logic that clears every dependently-labeled register
// whenever its security label changes.
//
// The paper (§1, §2.1) criticizes exactly this mechanism:
//   * it adds hardware that is not in the designer's code (simulation and
//     synthesis diverge from the source),
//   * it clears on *any* label change, not just dangerous upgrades,
//   * it erases legitimate cross-level communication (e.g. SYSCALL
//     arguments in the GPRs) and can destroy integrity (in-flight
//     instructions becoming NOPs).
// We implement it faithfully so the comparison experiments (E10) can
// demonstrate those failure modes against explicit downgrading.
#pragma once

#include "sem/hir.hpp"

#include <vector>

namespace svlc::xform {

struct ClearingReport {
    /// Registers that received clearing logic.
    std::vector<hir::NetId> cleared;
    /// Number of clear assignments inserted (arrays count per element).
    size_t inserted_writes = 0;
};

/// Materializes the level of `label` as an integer-valued expression
/// (width = bits needed for the lattice size). When `next_cycle` is set,
/// sequential label arguments are replaced by their *defining equations*
/// (inlined, so the result reads only current-cycle signals). Also used by
/// the synthesis model to account for label-checking muxes.
hir::ExprPtr materialize_label_level(const hir::Design& design,
                                     const hir::Label& label,
                                     bool next_cycle);

/// Applies dynamic clearing in place: a register is cleared whenever its
/// label's materialized level changes between this cycle and the next.
/// The caller must re-run sem::analyze_wellformed afterwards (read/write
/// sets and the schedule change). Returns the report of what was inserted.
ClearingReport apply_dynamic_clearing(hir::Design& design);

} // namespace svlc::xform
