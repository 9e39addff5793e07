// Symbolic defining equations — the paper's key observation 2: "the
// signals which determine both the labels and the values of registers
// during the next clock cycle are available statically."
//
// For every scalar sequential net r this derives the next-value equation
//     r' = g_n ? e_n : ( ... ( g_1 ? e_1 : r ) ... )
// from its always block (later assignments take priority, matching
// non-blocking last-write-wins semantics), and for every combinational net
// w its defining equation in terms of process inputs. The type checker
// feeds these equations to the solver as constraint-context facts; the
// simulator and the Verilog emitter reuse them.
#pragma once

#include "sem/hir.hpp"

#include <vector>

namespace svlc::sem {

struct Equations {
    /// defs[net] is the symbolic defining expression: for a com net its
    /// current-cycle value, for a seq net the next-cycle value r'
    /// (in terms of current-cycle nets and primed reads the process makes).
    /// Null for inputs, arrays, and undriven nets.
    std::vector<hir::ExprPtr> defs;
    /// free[net]: the environment drives the net, so it takes any value
    /// in either cycle. That is an input port no process writes: a
    /// top-level input, or an unconnected input of an instance. A free
    /// net has no defining equation and no hold equation r' == r.
    std::vector<bool> free;

    [[nodiscard]] const hir::Expr* def(hir::NetId n) const {
        return n < defs.size() ? defs[n].get() : nullptr;
    }
    [[nodiscard]] bool is_free(hir::NetId n) const {
        return n < free.size() && free[n];
    }
};

/// Builds defining equations by symbolically executing every process.
/// Requires a well-formed design (run analyze_wellformed first).
Equations build_equations(const hir::Design& design);

/// A single guarded write extracted from a sequential process, in program
/// order (later entries take priority).
struct GuardedWrite {
    hir::ExprPtr guard; // null = unconditional
    hir::ExprPtr index; // non-null for array element writes
    const hir::Expr* rhs = nullptr; // borrowed from the process body
    uint32_t node_id = 0;
    SourceLoc loc;
};

/// Extracts the guarded writes of `net` from its driving process (used by
/// the dynamic-clearing transform and diagnostics). Empty when undriven.
std::vector<GuardedWrite> guarded_writes(const hir::Design& design,
                                         hir::NetId net);

} // namespace svlc::sem
