// HIR: the elaborated, flattened design that the type checkers, simulator,
// transforms, and back ends operate on. Elaboration resolves names to
// NetIds, substitutes parameters, folds constants, computes widths,
// flattens the instance hierarchy, lowers `case` to if-chains, and
// distributes `next` down to primed net references.
#pragma once

#include "ast/ops.hpp"
#include "lattice/label_function.hpp"
#include "support/bitvec.hpp"
#include "support/source_location.hpp"

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace svlc::hir {

using NetId = uint32_t;
constexpr NetId kInvalidNet = ~NetId{0};

enum class NetKind { Com, Seq };

// ---------------------------------------------------------------------------
// Labels (lowered): a join of atoms, each a level constant or a dependent
// label-function application whose arguments are scalar nets.
// ---------------------------------------------------------------------------

struct LabelAtom {
    enum class Kind { Level, Func };
    Kind kind = Kind::Level;
    LevelId level = kInvalidLevel;
    FuncId func = kInvalidFunc;
    std::vector<NetId> args;

    static LabelAtom make_level(LevelId l) {
        LabelAtom a;
        a.kind = Kind::Level;
        a.level = l;
        return a;
    }
    static LabelAtom make_func(FuncId f, std::vector<NetId> args) {
        LabelAtom a;
        a.kind = Kind::Func;
        a.func = f;
        a.args = std::move(args);
        return a;
    }
    friend bool operator==(const LabelAtom&, const LabelAtom&) = default;
};

/// A (possibly dependent) security label: join of atoms. An empty atom
/// list denotes the lattice bottom (public/trusted-most level).
struct Label {
    std::vector<LabelAtom> atoms;

    [[nodiscard]] bool is_static() const {
        for (const auto& a : atoms)
            if (a.kind == LabelAtom::Kind::Func)
                return false;
        return true;
    }
    /// All nets this label depends on.
    [[nodiscard]] std::vector<NetId> dependencies() const;
    friend bool operator==(const Label&, const Label&) = default;
};

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// The HIR shares the AST's operators, spelling and bit-vector semantics
// (ast/ops.hpp).
using ast::BinaryOp;
using ast::UnaryOp;
enum class DowngradeKind { Endorse, Declassify };

enum class ExprKind {
    Const,
    NetRef,    // scalar net; `primed` marks a next-cycle value r'
    ArrayRead, // net[index]
    Slice,     // operand[msb:lsb] with constant bounds
    Unary,
    Binary,
    Cond,
    Concat,
    Downgrade,
};

struct Expr;
using ExprPtr = std::unique_ptr<Expr>;

struct Expr {
    ExprKind kind;
    uint32_t width = 1;
    SourceLoc loc;

    // Const
    BitVec value;
    // NetRef / ArrayRead
    NetId net = kInvalidNet;
    bool primed = false;
    ExprPtr index; // ArrayRead
    // Slice
    uint32_t msb = 0, lsb = 0;
    // Unary / Binary / Cond / Downgrade operands
    UnaryOp un_op{};
    BinaryOp bin_op{};
    ExprPtr a, b, c; // operands: unary->a; binary->a,b; cond->a?b:c
    std::vector<ExprPtr> parts; // Concat (part 0 = most significant)
    // Downgrade
    DowngradeKind dg_kind{};
    Label dg_label;

    static ExprPtr make_const(BitVec v, SourceLoc loc = {});
    static ExprPtr make_net(NetId net, uint32_t width, bool primed = false,
                            SourceLoc loc = {});
    static ExprPtr make_unary(UnaryOp op, ExprPtr operand, SourceLoc loc = {});
    static ExprPtr make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs,
                               SourceLoc loc = {});
    static ExprPtr make_cond(ExprPtr cond, ExprPtr t, ExprPtr f,
                             SourceLoc loc = {});

    [[nodiscard]] ExprPtr clone() const;
    /// Collects every net read by this expression. Primed reads are
    /// reported separately.
    void collect_reads(std::vector<NetId>& plain,
                       std::vector<NetId>& primed_reads) const;
};

struct Design;

/// Structural pretty-print (for diagnostics and tests), naming nets as
/// the design does.
std::string to_string(const Expr& e, const Design& design);

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind { Block, If, Assign, Assume };

struct Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

struct LValue {
    NetId net = kInvalidNet;
    ExprPtr index;        // non-null for array element targets
    bool has_range = false;
    uint32_t msb = 0, lsb = 0;
    SourceLoc loc;

    [[nodiscard]] LValue clone() const;
};

struct Stmt {
    StmtKind kind;
    SourceLoc loc;
    /// Unique CFG-node id (η in the typing rules), assigned by
    /// elaboration; used to index per-site analysis results.
    uint32_t node_id = 0;

    // Block
    std::vector<StmtPtr> stmts;
    // If
    ExprPtr cond;
    StmtPtr then_stmt;
    StmtPtr else_stmt; // may be null
    // Assign
    LValue lhs;
    ExprPtr rhs;
    // Assume
    ExprPtr pred;

    [[nodiscard]] StmtPtr clone() const;
};

// ---------------------------------------------------------------------------
// Design
// ---------------------------------------------------------------------------

struct Net {
    NetId id = kInvalidNet;
    std::string name; // hierarchical, e.g. "core0.pc"
    NetKind kind = NetKind::Com;
    uint32_t width = 1;
    uint32_t array_size = 0; // 0 = scalar
    bool is_input = false;
    bool is_output = false;
    bool has_init = false;
    BitVec init;
    Label label;
    SourceLoc loc;
};

enum class ProcessKind { Comb, Seq };

struct Process {
    ProcessKind kind;
    StmtPtr body;
    SourceLoc loc;
    /// Nets written by this process (filled by well-formedness analysis).
    std::vector<NetId> writes;
    /// Nets read (plain) and next-cycle reads (primed seq nets).
    std::vector<NetId> reads;
    std::vector<NetId> primed_reads;
};

struct DowngradeSite {
    SourceLoc loc;
    DowngradeKind kind;
    std::string description;
};

/// One module instance of the flattened design: the contiguous net and
/// process ranges its subtree occupies, and a key (module name plus every
/// parameter value) that instances elaborating to the same nets and
/// processes share. The port-wiring processes of an instance belong to
/// its parent, so a net in the range driven from outside it is an input
/// port.
struct Instance {
    std::string key;
    NetId net_begin = 0, net_end = 0;
    size_t proc_begin = 0, proc_end = 0;
};

struct Design {
    SecurityPolicy policy;
    std::vector<Net> nets;
    /// All processes: continuous assigns and always@(*) lower to Comb,
    /// always@(seq) to Seq. A Seq process computes the next-cycle values
    /// r' of the registers it writes.
    std::vector<Process> processes;
    std::unordered_map<std::string, NetId> net_by_name;
    std::vector<DowngradeSite> downgrades;
    std::string top_name;
    /// Every instance, children before their parent. A transform that
    /// edits processes after elaboration clears it, since the ranges and
    /// keys no longer describe the processes.
    std::vector<Instance> instances;

    /// Unified evaluation order (indices into `processes`), topologically
    /// sorted over the com-net and primed-read dependency graph; filled by
    /// well-formedness analysis. Plain reads of seq nets (current-cycle
    /// register values) do not order processes — registers break cycles.
    std::vector<size_t> schedule;

    [[nodiscard]] const Net& net(NetId id) const { return nets[id]; }
    [[nodiscard]] Net& net(NetId id) { return nets[id]; }
    [[nodiscard]] NetId find_net(std::string_view name) const;
};

} // namespace svlc::hir
