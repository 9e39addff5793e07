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
// synthesis model and the clearing transform reuse them.
//
// build_equations makes one cheap pass over the sequential processes: it
// records each register write with its path condition, which the
// checker's hold rule and the synthesis write-port model read, and clones
// nothing. Equations are built on demand, the first time def() asks for
// one: a register's by folding over its recorded writes, a combinational
// net's by symbolically executing its process, which fills the equations
// of every net that process writes. A check whose queries never read a
// process's equations never builds them.
#pragma once

#include "sem/hir.hpp"

#include <algorithm>
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
    /// A part-select target [msb:lsb], even a full-width one. Such a
    /// write leaves its net without a defining equation.
    bool ranged = false;
    uint32_t msb = 0, lsb = 0;
};

/// The left-folded conjunction ((g1 && g2) && ...) && gn of a path,
/// outermost cond first, or null (= true) for the empty path. A negation
/// keeps its cond's loc and each LogAnd its left operand's (else the
/// right's), so facts built from guards stay resolvable in diagnostics.
hir::ExprPtr conjoin(const PathCond* path);

/// The defining equations of a design and the writes of its registers.
/// The writes are recorded up front; each equation is built and memoized
/// the first time def() asks for it. The memo makes a const Equations
/// stateful: use one Equations per thread, and the design must not change
/// while it lives.
class Equations {
public:
    /// The symbolic defining expression: for a com net its current-cycle
    /// value, for a seq net the next-cycle value r' (in terms of
    /// current-cycle nets and primed reads the process makes). Null for
    /// inputs, arrays, undriven nets and registers with a part-select
    /// write. Builds the equation on first use.
    [[nodiscard]] const hir::Expr* def(hir::NetId n) const;
    /// The environment drives the net, so it takes any value in either
    /// cycle. That is an input port no process writes: a top-level input,
    /// or an unconnected input of an instance. A free net has no defining
    /// equation and no hold equation r' == r.
    [[nodiscard]] bool is_free(hir::NetId n) const {
        return n < free_.size() && free_[n];
    }
    /// The writes of seq net n in program order (later writes take
    /// priority); empty for com nets and unwritten registers.
    [[nodiscard]] std::span<const Write> writes(hir::NetId n) const {
        if (size_t{n} + 1 >= first_write_.size())
            return {};
        return std::span(seq_writes_).subspan(
            first_write_[n], first_write_[n + 1] - first_write_[n]);
    }
    /// Whether a non-free n' has an equation: n' == def(n), or n' == n
    /// when no process writes n. A register with a part-select write has
    /// neither, so its next value is unconstrained.
    [[nodiscard]] bool has_next_equation(hir::NetId n) const {
        return def(n) != nullptr || writes(n).empty();
    }

    /// Processes whose equations have been built so far: a comb process
    /// once walked, a seq process once one of its registers' equations
    /// was asked for.
    [[nodiscard]] size_t processes_built() const {
        return std::count(proc_built_.begin(), proc_built_.end(), true);
    }
    [[nodiscard]] size_t process_count() const { return proc_built_.size(); }

private:
    friend Equations build_equations(const hir::Design& design);

    static constexpr uint32_t kNoWriter = ~uint32_t{0};

    hir::ExprPtr fold_writes(hir::NetId n) const;

    const hir::Design* design_ = nullptr;
    std::vector<bool> free_;
    /// The process that writes each net, or kNoWriter.
    std::vector<uint32_t> writer_;
    /// Every write of a seq net, grouped by net in net order. The writes
    /// of net n are seq_writes_[first_write_[n], first_write_[n + 1]).
    std::vector<Write> seq_writes_;
    std::vector<uint32_t> first_write_;
    /// The conds of every seq process if, one entry per branch, which the
    /// write paths point into.
    std::deque<PathCond> paths_;

    // The memo: defs_[n] is final once built_[n] is set.
    mutable std::vector<hir::ExprPtr> defs_;
    mutable std::vector<bool> built_;
    mutable std::vector<bool> proc_built_;
};

/// Records every register write by walking each sequential process once,
/// and prepares the equations to be built on demand. Requires a
/// well-formed design (run analyze_wellformed first); the result borrows
/// from it.
Equations build_equations(const hir::Design& design);

} // namespace svlc::sem
