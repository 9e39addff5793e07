// Parse-level AST for SecVerilogLC. This tree mirrors the concrete syntax
// (identifiers are unresolved names); elaboration (src/sem) lowers it into
// the flat HIR that the checker, simulator, and back ends consume.
#pragma once

#include "ast/ops.hpp"
#include "support/bitvec.hpp"
#include "support/source_location.hpp"

#include <memory>
#include <string>
#include <vector>

namespace svlc::ast {

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// UnaryOp and BinaryOp come from the operator table (ast/ops.hpp).

enum class ExprKind {
    Number,
    Ident,
    Index,     // base[index] — array read or bit select
    Range,     // base[msb:lsb]
    Unary,
    Binary,
    Cond,      // c ? a : b
    Concat,    // {a, b, ...}
    Next,      // next(e)
    Downgrade, // endorse(e, L) / declassify(e, L)
};

struct Label; // forward (labels embed expressions as function arguments)

struct Expr {
    ExprKind kind;
    SourceLoc loc;

    explicit Expr(ExprKind k, SourceLoc l) : kind(k), loc(l) {}
    virtual ~Expr() = default;
};

using ExprPtr = std::unique_ptr<Expr>;

struct NumberExpr final : Expr {
    BitVec value;
    /// True when the literal was written without an explicit width
    /// (plain "42"); such constants adapt to context.
    bool unsized;
    NumberExpr(BitVec v, bool unsz, SourceLoc l)
        : Expr(ExprKind::Number, l), value(v), unsized(unsz) {}
};

struct IdentExpr final : Expr {
    std::string name;
    IdentExpr(std::string n, SourceLoc l)
        : Expr(ExprKind::Ident, l), name(std::move(n)) {}
};

struct IndexExpr final : Expr {
    ExprPtr base;
    ExprPtr index;
    IndexExpr(ExprPtr b, ExprPtr i, SourceLoc l)
        : Expr(ExprKind::Index, l), base(std::move(b)), index(std::move(i)) {}
};

struct RangeExpr final : Expr {
    ExprPtr base;
    ExprPtr msb;
    ExprPtr lsb;
    RangeExpr(ExprPtr b, ExprPtr m, ExprPtr lo, SourceLoc l)
        : Expr(ExprKind::Range, l), base(std::move(b)), msb(std::move(m)),
          lsb(std::move(lo)) {}
};

struct UnaryExpr final : Expr {
    UnaryOp op;
    ExprPtr operand;
    UnaryExpr(UnaryOp o, ExprPtr e, SourceLoc l)
        : Expr(ExprKind::Unary, l), op(o), operand(std::move(e)) {}
};

struct BinaryExpr final : Expr {
    BinaryOp op;
    ExprPtr lhs;
    ExprPtr rhs;
    BinaryExpr(BinaryOp o, ExprPtr a, ExprPtr b, SourceLoc l)
        : Expr(ExprKind::Binary, l), op(o), lhs(std::move(a)),
          rhs(std::move(b)) {}
};

struct CondExpr final : Expr {
    ExprPtr cond;
    ExprPtr then_expr;
    ExprPtr else_expr;
    CondExpr(ExprPtr c, ExprPtr t, ExprPtr e, SourceLoc l)
        : Expr(ExprKind::Cond, l), cond(std::move(c)),
          then_expr(std::move(t)), else_expr(std::move(e)) {}
};

struct ConcatExpr final : Expr {
    std::vector<ExprPtr> parts;
    ConcatExpr(std::vector<ExprPtr> p, SourceLoc l)
        : Expr(ExprKind::Concat, l), parts(std::move(p)) {}
};

struct NextExpr final : Expr {
    ExprPtr operand;
    NextExpr(ExprPtr e, SourceLoc l)
        : Expr(ExprKind::Next, l), operand(std::move(e)) {}
};

enum class DowngradeKind { Endorse, Declassify };

struct DowngradeExpr final : Expr {
    DowngradeKind dkind;
    ExprPtr operand;
    std::unique_ptr<Label> target;
    DowngradeExpr(DowngradeKind k, ExprPtr e, std::unique_ptr<Label> t,
                  SourceLoc l)
        : Expr(ExprKind::Downgrade, l), dkind(k), operand(std::move(e)),
          target(std::move(t)) {}
};

// ---------------------------------------------------------------------------
// Security labels (τ ::= ℓ | f(vars) | τ ⊔ τ)
// ---------------------------------------------------------------------------

enum class LabelKind { Level, Func, Join };

struct Label {
    LabelKind kind;
    SourceLoc loc;
    // Level
    std::string level_name;
    // Func
    std::string func_name;
    std::vector<ExprPtr> args;
    // Join
    std::unique_ptr<Label> lhs;
    std::unique_ptr<Label> rhs;

    static std::unique_ptr<Label> level(std::string name, SourceLoc l);
    static std::unique_ptr<Label> func(std::string name,
                                       std::vector<ExprPtr> args, SourceLoc l);
    static std::unique_ptr<Label> join(std::unique_ptr<Label> a,
                                       std::unique_ptr<Label> b, SourceLoc l);
};

using LabelPtr = std::unique_ptr<Label>;

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

enum class StmtKind { Block, If, Case, Assign, Assume, Skip };

struct Stmt {
    StmtKind kind;
    SourceLoc loc;
    explicit Stmt(StmtKind k, SourceLoc l) : kind(k), loc(l) {}
    virtual ~Stmt() = default;
};

using StmtPtr = std::unique_ptr<Stmt>;

struct BlockStmt final : Stmt {
    std::vector<StmtPtr> stmts;
    BlockStmt(std::vector<StmtPtr> s, SourceLoc l)
        : Stmt(StmtKind::Block, l), stmts(std::move(s)) {}
};

struct IfStmt final : Stmt {
    ExprPtr cond;
    StmtPtr then_stmt;
    StmtPtr else_stmt; // may be null
    IfStmt(ExprPtr c, StmtPtr t, StmtPtr e, SourceLoc l)
        : Stmt(StmtKind::If, l), cond(std::move(c)), then_stmt(std::move(t)),
          else_stmt(std::move(e)) {}
};

struct CaseItem {
    std::vector<ExprPtr> values; // empty = default
    StmtPtr body;
};

struct CaseStmt final : Stmt {
    ExprPtr subject;
    std::vector<CaseItem> items;
    CaseStmt(ExprPtr s, std::vector<CaseItem> it, SourceLoc l)
        : Stmt(StmtKind::Case, l), subject(std::move(s)), items(std::move(it)) {}
};

/// Assignment target: name, optional array index, optional bit range.
struct LValue {
    std::string name;
    ExprPtr index;      // null for scalar targets
    ExprPtr range_msb;  // null unless a part-select target
    ExprPtr range_lsb;
    SourceLoc loc;
};

enum class AssignOp { Blocking, NonBlocking };

struct AssignStmt final : Stmt {
    LValue lhs;
    AssignOp op;
    ExprPtr rhs;
    AssignStmt(LValue lv, AssignOp o, ExprPtr r, SourceLoc l)
        : Stmt(StmtKind::Assign, l), lhs(std::move(lv)), op(o),
          rhs(std::move(r)) {}
};

struct AssumeStmt final : Stmt {
    ExprPtr pred;
    AssumeStmt(ExprPtr p, SourceLoc l)
        : Stmt(StmtKind::Assume, l), pred(std::move(p)) {}
};

struct SkipStmt final : Stmt {
    explicit SkipStmt(SourceLoc l) : Stmt(StmtKind::Skip, l) {}
};

// ---------------------------------------------------------------------------
// Module items & declarations
// ---------------------------------------------------------------------------

enum class NetKind { Com, Seq };
enum class PortDir { None, Input, Output };

struct NetDecl {
    std::string name;
    NetKind kind = NetKind::Com;
    PortDir dir = PortDir::None;
    ExprPtr width_msb;  // null = 1-bit
    ExprPtr width_lsb;
    ExprPtr array_lo;   // null = scalar
    ExprPtr array_hi;
    LabelPtr label;     // null = bottom
    ExprPtr init;       // null = no initializer (seq only)
    SourceLoc loc;
};

struct ParamDecl {
    std::string name;
    ExprPtr value;
    SourceLoc loc;
};

struct ContinuousAssign {
    LValue lhs;
    ExprPtr rhs;
    SourceLoc loc;
};

enum class AlwaysKind { Comb, Seq };

struct AlwaysBlock {
    AlwaysKind kind;
    StmtPtr body;
    SourceLoc loc;
};

struct PortConnection {
    std::string port_name;
    ExprPtr expr;
    SourceLoc loc;
};

struct ParamOverride {
    std::string name;
    ExprPtr value;
    SourceLoc loc;
};

struct Instance {
    std::string module_name;
    std::string instance_name;
    std::vector<ParamOverride> params;
    std::vector<PortConnection> connections;
    SourceLoc loc;
};

struct Module {
    std::string name;
    std::vector<ParamDecl> params;
    std::vector<std::string> port_order;
    std::vector<NetDecl> nets; // ports and internal nets
    std::vector<ContinuousAssign> assigns;
    std::vector<AlwaysBlock> always_blocks;
    std::vector<Instance> instances;
    SourceLoc loc;
};

// ---------------------------------------------------------------------------
// Policy declarations & compilation unit
// ---------------------------------------------------------------------------

struct LatticeDecl {
    std::vector<std::string> levels;
    std::vector<std::pair<std::string, std::string>> flows; // lo -> hi
    SourceLoc loc;
};

struct FunctionEntry {
    std::vector<ExprPtr> args; // constant expressions; empty = default
    std::string level;
    SourceLoc loc;
};

struct FunctionDecl {
    std::string name;
    std::vector<std::string> arg_names;
    std::vector<uint32_t> arg_widths;
    std::vector<FunctionEntry> entries;
    SourceLoc loc;
};

struct CompilationUnit {
    std::vector<LatticeDecl> lattices; // usually one
    std::vector<FunctionDecl> functions;
    std::vector<Module> modules;
};

/// Deep copy helpers (a declaration list copies its shared width and
/// label onto each net).
ExprPtr clone(const Expr& e);
LabelPtr clone(const Label& l);

} // namespace svlc::ast
