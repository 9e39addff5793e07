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
// simulator and the Verilog emitter reuse them. The same walk records each
// register write with its path condition, which the checker's hold rule
// and the synthesis write-port model read.
#pragma once

#include "sem/hir.hpp"

#include <deque>
#include <span>
#include <vector>

namespace svlc::sem {

/// One if-cond on the path to a write, as written or negated on the
/// else branch, and the path outside it. The cond is borrowed from the
/// process body.
struct PathCond {
    const hir::Expr* cond = nullptr;
    bool negated = false;
    const PathCond* outer = nullptr; // null at the process top
};

/// One write of a sequential process, borrowed from its body.
struct Write {
    hir::NetId net = hir::kInvalidNet;
    const PathCond* path = nullptr; // innermost if-cond; null = unconditional
    const hir::Expr* index = nullptr; // array element writes
    const hir::Expr* rhs = nullptr;
    SourceLoc loc;
    /// False for a part-select that leaves some bits of the net (or of
    /// the array element) as they were.
    bool whole = true;
};

/// The left-folded conjunction ((g1 && g2) && ...) && gn of a path,
/// outermost cond first, or null (= true) for the empty path. A negation
/// keeps its cond's loc and each LogAnd its left operand's (else the
/// right's), so facts built from guards stay resolvable in diagnostics.
hir::ExprPtr conjoin(const PathCond* path);

struct Equations {
    /// defs[net] is the symbolic defining expression: for a com net its
    /// current-cycle value, for a seq net the next-cycle value r'
    /// (in terms of current-cycle nets and primed reads the process makes).
    /// Null for inputs, arrays, undriven nets and registers with a
    /// part-select write.
    std::vector<hir::ExprPtr> defs;
    /// free[net]: the environment drives the net, so it takes any value
    /// in either cycle. That is an input port no process writes: a
    /// top-level input, or an unconnected input of an instance. A free
    /// net has no defining equation and no hold equation r' == r.
    std::vector<bool> free;
    /// Every write of a seq net, grouped by net in net order, and in
    /// program order within a net (later writes take priority). The writes
    /// of net n are seq_writes[first_write[n], first_write[n + 1]).
    std::vector<Write> seq_writes;
    std::vector<uint32_t> first_write;
    /// The conds of every seq process if, one entry per branch, which the
    /// write paths point into.
    std::deque<PathCond> paths;

    [[nodiscard]] const hir::Expr* def(hir::NetId n) const {
        return n < defs.size() ? defs[n].get() : nullptr;
    }
    [[nodiscard]] bool is_free(hir::NetId n) const {
        return n < free.size() && free[n];
    }
    /// The writes of n; empty for com nets and unwritten registers.
    [[nodiscard]] std::span<const Write> writes(hir::NetId n) const {
        if (size_t{n} + 1 >= first_write.size())
            return {};
        return std::span(seq_writes).subspan(
            first_write[n], first_write[n + 1] - first_write[n]);
    }
    /// Whether a non-free n' has an equation: n' == def(n), or n' == n
    /// when no process writes n. A register with a part-select write has
    /// neither, so its next value is unconstrained.
    [[nodiscard]] bool has_next_equation(hir::NetId n) const {
        return def(n) != nullptr || writes(n).empty();
    }
};

/// Builds defining equations and records every register write by
/// symbolically executing every process once. Requires a well-formed
/// design (run analyze_wellformed first); the result borrows from it.
Equations build_equations(const hir::Design& design);

} // namespace svlc::sem
