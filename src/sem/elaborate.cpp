#include "sem/elaborate.hpp"

#include <algorithm>
#include <cassert>
#include <optional>
#include <unordered_map>
#include <unordered_set>

namespace svlc::sem {

using namespace hir;

namespace {

/// Per-instance elaboration scope: parameter values and local-name → NetId
/// bindings, plus the hierarchical prefix.
struct Scope {
    std::string prefix; // "" for top, "core0." below
    std::unordered_map<std::string, BitVec> params;
    std::unordered_map<std::string, NetId> nets;
};

/// "<module>(<name>=<value>,...)" over every parameter in name order:
/// equal keys elaborate to the same nets and processes.
std::string instance_key(const ast::Module& mod, const Scope& scope) {
    std::vector<std::pair<std::string, std::string>> params;
    for (const auto& [name, value] : scope.params)
        params.emplace_back(name, value.str());
    std::sort(params.begin(), params.end());
    std::string key = mod.name + "(";
    for (const auto& [name, value] : params)
        key += name + "=" + value + ",";
    key += ")";
    return key;
}

class Elaborator {
public:
    Elaborator(const ast::CompilationUnit& unit, DiagnosticEngine& diags,
               const ElaborateOptions& opts)
        : unit_(unit), diags_(diags), opts_(opts) {}

    std::unique_ptr<Design> run();

private:
    // Policy.
    bool build_policy();

    // Hierarchy.
    const ast::Module* find_module(const std::string& name) const;
    const ast::Module* pick_top() const;
    void elaborate_module(const ast::Module& mod, Scope& scope, int depth);

    // Declarations.
    void declare_nets(const ast::Module& mod, Scope& scope);
    hir::Label lower_label(const ast::Label& label, Scope& scope);

    // Expressions.
    ExprPtr lower_expr(const ast::Expr& e, Scope& scope, bool in_next = false);
    ExprPtr fold(ExprPtr e);
    std::optional<BitVec> eval_const(const ast::Expr& e, Scope& scope);
    ExprPtr resize(ExprPtr e, uint32_t width);

    // Statements.
    StmtPtr lower_stmt(const ast::Stmt& s, Scope& scope, ProcessKind ctx);
    hir::LValue lower_lvalue(const ast::LValue& lv, Scope& scope,
                             ProcessKind ctx, uint32_t* target_width);

    const ast::CompilationUnit& unit_;
    DiagnosticEngine& diags_;
    ElaborateOptions opts_;
    std::unique_ptr<Design> design_;
};

std::unique_ptr<Design> Elaborator::run() {
    design_ = std::make_unique<Design>();
    if (!build_policy())
        return nullptr;
    const ast::Module* top = nullptr;
    if (!opts_.top.empty()) {
        top = find_module(opts_.top);
        if (top == nullptr) {
            diags_.error(DiagCode::UnknownModule, {},
                         "top module '" + opts_.top + "' not found");
            return nullptr;
        }
    } else {
        top = pick_top();
        if (top == nullptr) {
            diags_.error(DiagCode::UnknownModule, {},
                         "compilation unit contains no modules");
            return nullptr;
        }
    }
    design_->top_name = top->name;
    Scope scope;
    elaborate_module(*top, scope, 0);
    // Top-level ports: mark direction flags on their nets.
    for (const auto& net : top->nets) {
        if (net.dir == ast::PortDir::None)
            continue;
        auto it = scope.nets.find(net.name);
        if (it == scope.nets.end())
            continue;
        Net& n = design_->net(it->second);
        n.is_input = net.dir == ast::PortDir::Input;
        n.is_output = net.dir == ast::PortDir::Output;
    }
    if (diags_.has_errors())
        return nullptr;
    return std::move(design_);
}

bool Elaborator::build_policy() {
    Lattice lattice;
    if (unit_.lattices.empty()) {
        // Default policy: the paper's two-point integrity lattice.
        lattice = Lattice::two_point_integrity();
    } else {
        for (const auto& decl : unit_.lattices) {
            for (const auto& lv : decl.levels)
                lattice.add_level(lv);
            for (const auto& [lo, hi] : decl.flows) {
                auto l = lattice.find(lo);
                auto h = lattice.find(hi);
                if (!l || !h) {
                    diags_.error(DiagCode::UnknownLevel, decl.loc,
                                 "flow references undeclared level '" +
                                     (!l ? lo : hi) + "'");
                    return false;
                }
                lattice.add_flow(*l, *h);
            }
        }
        std::string err;
        if (!lattice.finalize(&err)) {
            diags_.error(DiagCode::BadLatticeFlow,
                         unit_.lattices.front().loc,
                         "invalid lattice: " + err);
            return false;
        }
    }
    design_->policy = SecurityPolicy(std::move(lattice));

    const Lattice& lat = design_->policy.lattice();
    for (const auto& fn : unit_.functions) {
        if (design_->policy.find_function(fn.name)) {
            diags_.error(DiagCode::DuplicateDefinition, fn.loc,
                         "label function '" + fn.name + "' redefined");
            return false;
        }
        // Find the default entry; it is mandatory (functions are total).
        LevelId dflt = kInvalidLevel;
        for (const auto& e : fn.entries) {
            if (!e.args.empty())
                continue;
            auto lv = lat.find(e.level);
            if (!lv) {
                diags_.error(DiagCode::UnknownLevel, e.loc,
                             "unknown level '" + e.level + "'");
                return false;
            }
            dflt = *lv;
        }
        if (dflt == kInvalidLevel) {
            diags_.error(DiagCode::UnknownFunction, fn.loc,
                         "label function '" + fn.name +
                             "' must have a 'default ->' entry");
            return false;
        }
        LabelFunction lf(fn.name, fn.arg_widths, dflt);
        Scope empty;
        for (const auto& e : fn.entries) {
            if (e.args.empty())
                continue;
            if (e.args.size() != fn.arg_widths.size()) {
                diags_.error(DiagCode::BadLabelFunctionArity, e.loc,
                             "entry arity does not match function '" +
                                 fn.name + "'");
                return false;
            }
            auto lv = lat.find(e.level);
            if (!lv) {
                diags_.error(DiagCode::UnknownLevel, e.loc,
                             "unknown level '" + e.level + "'");
                return false;
            }
            std::vector<uint64_t> vals;
            for (const auto& arg : e.args) {
                auto v = eval_const(*arg, empty);
                if (!v) {
                    diags_.error(DiagCode::NotAConstant, e.loc,
                                 "label function entries must be constant");
                    return false;
                }
                vals.push_back(v->value());
            }
            lf.add_entry(std::move(vals), *lv);
        }
        design_->policy.add_function(std::move(lf));
    }
    return true;
}

const ast::Module* Elaborator::find_module(const std::string& name) const {
    for (const auto& m : unit_.modules)
        if (m.name == name)
            return &m;
    return nullptr;
}

const ast::Module* Elaborator::pick_top() const {
    if (unit_.modules.empty())
        return nullptr;
    std::unordered_set<std::string> instantiated;
    for (const auto& m : unit_.modules)
        for (const auto& inst : m.instances)
            instantiated.insert(inst.module_name);
    for (auto it = unit_.modules.rbegin(); it != unit_.modules.rend(); ++it)
        if (!instantiated.count(it->name))
            return &*it;
    return &unit_.modules.back();
}

// ---------------------------------------------------------------------------
// Declarations
// ---------------------------------------------------------------------------

void Elaborator::declare_nets(const ast::Module& mod, Scope& scope) {
    for (const auto& decl : mod.nets) {
        std::string full = scope.prefix + decl.name;
        if (scope.nets.count(decl.name) || scope.params.count(decl.name)) {
            diags_.error(DiagCode::DuplicateDefinition, decl.loc,
                         "'" + decl.name + "' redeclared");
            continue;
        }
        Net net;
        net.id = static_cast<NetId>(design_->nets.size());
        net.name = full;
        net.kind = decl.kind == ast::NetKind::Seq ? NetKind::Seq
                                                  : NetKind::Com;
        net.loc = decl.loc;
        net.width = 1;
        if (decl.width_msb) {
            auto msb = eval_const(*decl.width_msb, scope);
            auto lsb = eval_const(*decl.width_lsb, scope);
            if (!msb || !lsb) {
                diags_.error(DiagCode::NotAConstant, decl.loc,
                             "net width bounds must be constant");
                continue;
            }
            if (msb->value() < lsb->value() ||
                msb->value() - lsb->value() + 1 > BitVec::kMaxWidth) {
                diags_.error(DiagCode::WidthMismatch, decl.loc,
                             "unsupported width [" +
                                 std::to_string(msb->value()) + ":" +
                                 std::to_string(lsb->value()) + "]");
                continue;
            }
            net.width = static_cast<uint32_t>(msb->value() - lsb->value() + 1);
        }
        if (decl.array_lo) {
            auto lo = eval_const(*decl.array_lo, scope);
            auto hi = eval_const(*decl.array_hi, scope);
            if (!lo || !hi || hi->value() < lo->value()) {
                diags_.error(DiagCode::NotAConstant, decl.loc,
                             "array bounds must be constant with hi >= lo");
                continue;
            }
            if (lo->value() != 0) {
                diags_.error(DiagCode::ArrayMisuse, decl.loc,
                             "array lower bound must be 0");
                continue;
            }
            net.array_size = static_cast<uint32_t>(hi->value() + 1);
            if (net.kind != NetKind::Seq) {
                diags_.error(DiagCode::ArrayMisuse, decl.loc,
                             "arrays must be sequential (reg seq)");
                continue;
            }
        }
        if (decl.init) {
            if (net.kind != NetKind::Seq) {
                diags_.error(DiagCode::Unsupported, decl.loc,
                             "initializers are only allowed on seq nets");
            } else {
                auto v = eval_const(*decl.init, scope);
                if (!v) {
                    diags_.error(DiagCode::NotAConstant, decl.loc,
                                 "initializer must be constant");
                } else {
                    net.has_init = true;
                    net.init = v->resize(net.width);
                }
            }
        }
        design_->nets.push_back(std::move(net));
        scope.nets[decl.name] = design_->nets.back().id;
        design_->net_by_name[full] = design_->nets.back().id;
    }
    // Labels are lowered in a second pass so they may reference nets
    // declared later in the module (common for mode registers).
    for (const auto& decl : mod.nets) {
        auto it = scope.nets.find(decl.name);
        if (it == scope.nets.end())
            continue;
        if (decl.label)
            design_->net(it->second).label = lower_label(*decl.label, scope);
    }
}

hir::Label Elaborator::lower_label(const ast::Label& label, Scope& scope) {
    hir::Label out;
    const Lattice& lat = design_->policy.lattice();
    switch (label.kind) {
    case ast::LabelKind::Level: {
        auto lv = lat.find(label.level_name);
        if (!lv) {
            diags_.error(DiagCode::UnknownLevel, label.loc,
                         "unknown security level '" + label.level_name + "'");
            return out;
        }
        // Bottom is the implicit label of constants; keep it explicit here
        // so printed labels round-trip.
        out.atoms.push_back(LabelAtom::make_level(*lv));
        return out;
    }
    case ast::LabelKind::Func: {
        auto fid = design_->policy.find_function(label.func_name);
        if (!fid) {
            diags_.error(DiagCode::UnknownFunction, label.loc,
                         "unknown label function '" + label.func_name + "'");
            return out;
        }
        const LabelFunction& fn = design_->policy.function(*fid);
        if (label.args.size() != fn.arity()) {
            diags_.error(DiagCode::BadLabelFunctionArity, label.loc,
                         "label function '" + label.func_name + "' expects " +
                             std::to_string(fn.arity()) + " argument(s)");
            return out;
        }
        std::vector<NetId> args;
        for (const auto& argexpr : label.args) {
            if (argexpr->kind != ast::ExprKind::Ident) {
                diags_.error(DiagCode::LabelDependencyNotSeq, argexpr->loc,
                             "dependent label arguments must be net names");
                return out;
            }
            const auto& ident = static_cast<const ast::IdentExpr&>(*argexpr);
            auto it = scope.nets.find(ident.name);
            if (it == scope.nets.end()) {
                diags_.error(DiagCode::UnknownIdentifier, argexpr->loc,
                             "unknown net '" + ident.name +
                                 "' in dependent label");
                return out;
            }
            const Net& argnet = design_->net(it->second);
            if (argnet.array_size != 0) {
                diags_.error(DiagCode::ArrayMisuse, argexpr->loc,
                             "dependent label arguments must be scalar nets");
                return out;
            }
            args.push_back(it->second);
        }
        out.atoms.push_back(LabelAtom::make_func(*fid, std::move(args)));
        return out;
    }
    case ast::LabelKind::Join: {
        hir::Label lhs = lower_label(*label.lhs, scope);
        hir::Label rhs = lower_label(*label.rhs, scope);
        out.atoms = std::move(lhs.atoms);
        for (auto& a : rhs.atoms)
            out.atoms.push_back(std::move(a));
        return out;
    }
    }
    return out;
}

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

std::optional<BitVec> Elaborator::eval_const(const ast::Expr& e, Scope& scope) {
    // Lower with folding; succeed only if the result is a constant.
    // Errors inside lowering are reported normally.
    size_t before = diags_.error_count();
    ExprPtr lowered = lower_expr(e, scope);
    if (diags_.error_count() != before || !lowered ||
        lowered->kind != ExprKind::Const)
        return std::nullopt;
    return lowered->value;
}

ExprPtr Elaborator::fold(ExprPtr e) {
    if (!e)
        return e;
    auto is_const = [](const ExprPtr& p) {
        return p && p->kind == ExprKind::Const;
    };
    switch (e->kind) {
    case ExprKind::Slice:
        if (is_const(e->a)) {
            BitVec v = e->a->value.slice(e->msb, e->lsb);
            return Expr::make_const(v, e->loc);
        }
        return e;
    case ExprKind::Unary:
        if (is_const(e->a))
            return Expr::make_const(eval_unary(e->un_op, e->a->value),
                                    e->loc);
        return e;
    case ExprKind::Binary:
        if (is_const(e->a) && is_const(e->b))
            return Expr::make_const(
                eval_binary(e->bin_op, e->a->value, e->b->value), e->loc);
        return e;
    case ExprKind::Cond:
        if (is_const(e->a))
            return e->a->value.to_bool() ? std::move(e->b) : std::move(e->c);
        return e;
    case ExprKind::Concat: {
        bool all = true;
        for (const auto& p : e->parts)
            all = all && is_const(p);
        if (all && !e->parts.empty()) {
            BitVec acc = e->parts.front()->value;
            for (size_t i = 1; i < e->parts.size(); ++i)
                acc = acc.concat(e->parts[i]->value);
            return Expr::make_const(acc, e->loc);
        }
        return e;
    }
    default:
        return e;
    }
}

ExprPtr Elaborator::resize(ExprPtr e, uint32_t width) {
    if (!e || e->width == width)
        return e;
    if (e->kind == ExprKind::Const)
        return Expr::make_const(e->value.resize(width), e->loc);
    if (e->width > width) {
        auto s = std::make_unique<Expr>();
        s->kind = ExprKind::Slice;
        s->width = width;
        s->msb = width - 1;
        s->lsb = 0;
        s->loc = e->loc;
        s->a = std::move(e);
        return s;
    }
    // Zero-extend via concat with a leading zero constant.
    auto cat = std::make_unique<Expr>();
    cat->kind = ExprKind::Concat;
    cat->width = width;
    cat->loc = e->loc;
    cat->parts.push_back(Expr::make_const(BitVec(width - e->width, 0), e->loc));
    cat->parts.push_back(std::move(e));
    return cat;
}

ExprPtr Elaborator::lower_expr(const ast::Expr& e, Scope& scope, bool in_next) {
    switch (e.kind) {
    case ast::ExprKind::Number: {
        const auto& n = static_cast<const ast::NumberExpr&>(e);
        return Expr::make_const(n.value, n.loc);
    }
    case ast::ExprKind::Ident: {
        const auto& n = static_cast<const ast::IdentExpr&>(e);
        if (auto pit = scope.params.find(n.name); pit != scope.params.end())
            return Expr::make_const(pit->second, n.loc);
        auto it = scope.nets.find(n.name);
        if (it == scope.nets.end()) {
            diags_.error(DiagCode::UnknownIdentifier, n.loc,
                         "unknown identifier '" + n.name + "'");
            return Expr::make_const(BitVec(1, 0), n.loc);
        }
        const Net& net = design_->net(it->second);
        if (net.array_size != 0) {
            diags_.error(DiagCode::ArrayMisuse, n.loc,
                         "array '" + n.name + "' used without an index");
            return Expr::make_const(BitVec(1, 0), n.loc);
        }
        bool primed = in_next && net.kind == NetKind::Seq;
        return Expr::make_net(it->second, net.width, primed, n.loc);
    }
    case ast::ExprKind::Index: {
        const auto& n = static_cast<const ast::IndexExpr&>(e);
        // Array read or bit select, depending on the base net.
        if (n.base->kind == ast::ExprKind::Ident) {
            const auto& ident = static_cast<const ast::IdentExpr&>(*n.base);
            auto it = scope.nets.find(ident.name);
            if (it != scope.nets.end() &&
                design_->net(it->second).array_size != 0) {
                const Net& net = design_->net(it->second);
                auto out = std::make_unique<Expr>();
                out->kind = ExprKind::ArrayRead;
                out->net = it->second;
                out->width = net.width;
                out->primed = in_next && net.kind == NetKind::Seq;
                out->index = lower_expr(*n.index, scope, in_next);
                out->loc = n.loc;
                return out;
            }
        }
        ExprPtr base = lower_expr(*n.base, scope, in_next);
        ExprPtr idx = lower_expr(*n.index, scope, in_next);
        idx = fold(std::move(idx));
        if (idx->kind == ExprKind::Const) {
            uint32_t bit = static_cast<uint32_t>(idx->value.value());
            if (bit >= base->width) {
                diags_.error(DiagCode::BadIndex, n.loc,
                             "bit index " + std::to_string(bit) +
                                 " out of range for width " +
                                 std::to_string(base->width));
                return Expr::make_const(BitVec(1, 0), n.loc);
            }
            auto s = std::make_unique<Expr>();
            s->kind = ExprKind::Slice;
            s->width = 1;
            s->msb = bit;
            s->lsb = bit;
            s->a = std::move(base);
            s->loc = n.loc;
            return fold(std::move(s));
        }
        // Dynamic bit select: (base >> idx) & 1.
        uint32_t base_width = base->width;
        auto shifted = Expr::make_binary(
            BinaryOp::Shr, std::move(base),
            resize(std::move(idx), base_width), n.loc);
        auto one = Expr::make_const(BitVec(base_width, 1), n.loc);
        auto masked = Expr::make_binary(BinaryOp::And, std::move(shifted),
                                        std::move(one), n.loc);
        return resize(std::move(masked), 1);
    }
    case ast::ExprKind::Range: {
        const auto& n = static_cast<const ast::RangeExpr&>(e);
        ExprPtr base = lower_expr(*n.base, scope, in_next);
        auto msb = eval_const(*n.msb, scope);
        auto lsb = eval_const(*n.lsb, scope);
        if (!msb || !lsb) {
            diags_.error(DiagCode::NotAConstant, n.loc,
                         "part-select bounds must be constant");
            return Expr::make_const(BitVec(1, 0), n.loc);
        }
        if (msb->value() < lsb->value() || msb->value() >= base->width) {
            diags_.error(DiagCode::BadIndex, n.loc,
                         "part-select [" + std::to_string(msb->value()) + ":" +
                             std::to_string(lsb->value()) +
                             "] out of range for width " +
                             std::to_string(base->width));
            return Expr::make_const(BitVec(1, 0), n.loc);
        }
        auto s = std::make_unique<Expr>();
        s->kind = ExprKind::Slice;
        s->msb = static_cast<uint32_t>(msb->value());
        s->lsb = static_cast<uint32_t>(lsb->value());
        s->width = s->msb - s->lsb + 1;
        s->a = std::move(base);
        s->loc = n.loc;
        return fold(std::move(s));
    }
    case ast::ExprKind::Unary: {
        const auto& n = static_cast<const ast::UnaryExpr&>(e);
        return fold(Expr::make_unary(
            n.op, lower_expr(*n.operand, scope, in_next), n.loc));
    }
    case ast::ExprKind::Binary: {
        const auto& n = static_cast<const ast::BinaryExpr&>(e);
        ExprPtr lhs = lower_expr(*n.lhs, scope, in_next);
        ExprPtr rhs = lower_expr(*n.rhs, scope, in_next);
        // Harmonize widths for arithmetic/bitwise/comparison ops.
        if (n.op != BinaryOp::Shl && n.op != BinaryOp::Shr) {
            uint32_t w = std::max(lhs->width, rhs->width);
            lhs = resize(std::move(lhs), w);
            rhs = resize(std::move(rhs), w);
        }
        return fold(Expr::make_binary(n.op, std::move(lhs), std::move(rhs),
                                      n.loc));
    }
    case ast::ExprKind::Cond: {
        const auto& n = static_cast<const ast::CondExpr&>(e);
        ExprPtr c = lower_expr(*n.cond, scope, in_next);
        ExprPtr t = lower_expr(*n.then_expr, scope, in_next);
        ExprPtr f = lower_expr(*n.else_expr, scope, in_next);
        uint32_t w = std::max(t->width, f->width);
        t = resize(std::move(t), w);
        f = resize(std::move(f), w);
        return fold(Expr::make_cond(std::move(c), std::move(t), std::move(f),
                                    n.loc));
    }
    case ast::ExprKind::Concat: {
        const auto& n = static_cast<const ast::ConcatExpr&>(e);
        auto out = std::make_unique<Expr>();
        out->kind = ExprKind::Concat;
        out->loc = n.loc;
        uint32_t total = 0;
        for (const auto& p : n.parts) {
            auto lp = lower_expr(*p, scope, in_next);
            total += lp->width;
            out->parts.push_back(std::move(lp));
        }
        if (total > BitVec::kMaxWidth) {
            diags_.error(DiagCode::WidthMismatch, n.loc,
                         "concatenation wider than 64 bits");
            return Expr::make_const(BitVec(1, 0), n.loc);
        }
        out->width = total;
        return fold(std::move(out));
    }
    case ast::ExprKind::Next: {
        const auto& n = static_cast<const ast::NextExpr&>(e);
        // next(e) substitutes r -> r' at the leaves; nesting is idempotent.
        return lower_expr(*n.operand, scope, /*in_next=*/true);
    }
    case ast::ExprKind::Downgrade: {
        const auto& n = static_cast<const ast::DowngradeExpr&>(e);
        auto out = std::make_unique<Expr>();
        out->kind = ExprKind::Downgrade;
        out->loc = n.loc;
        out->dg_kind = n.dkind == ast::DowngradeKind::Endorse
                           ? DowngradeKind::Endorse
                           : DowngradeKind::Declassify;
        out->a = lower_expr(*n.operand, scope, in_next);
        out->width = out->a->width;
        out->dg_label = lower_label(*n.target, scope);
        design_->downgrades.push_back(
            {n.loc, out->dg_kind, to_string(*out->a, *design_)});
        return out;
    }
    }
    assert(false && "unreachable");
    return nullptr;
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

hir::LValue Elaborator::lower_lvalue(const ast::LValue& lv, Scope& scope,
                                     ProcessKind ctx, uint32_t* target_width) {
    hir::LValue out;
    out.loc = lv.loc;
    auto it = scope.nets.find(lv.name);
    if (it == scope.nets.end()) {
        diags_.error(DiagCode::UnknownIdentifier, lv.loc,
                     "unknown net '" + lv.name + "' in assignment");
        *target_width = 1;
        return out;
    }
    out.net = it->second;
    const Net& net = design_->net(out.net);
    if (ctx == ProcessKind::Comb && net.kind == NetKind::Seq)
        diags_.error(DiagCode::SeqAssignToCom, lv.loc,
                     "sequential net '" + lv.name +
                         "' assigned in combinational context");
    if (ctx == ProcessKind::Seq && net.kind == NetKind::Com)
        diags_.error(DiagCode::ComAssignToSeq, lv.loc,
                     "combinational net '" + lv.name +
                         "' assigned in sequential context");
    if (net.is_input)
        diags_.error(DiagCode::MultipleDrivers, lv.loc,
                     "input port '" + lv.name + "' cannot be assigned");
    uint32_t width = net.width;
    if (lv.index) {
        if (net.array_size == 0) {
            // Bit-select target on a scalar: treat as a 1-bit range.
            auto bit = eval_const(*lv.index, scope);
            if (!bit || bit->value() >= net.width) {
                diags_.error(DiagCode::BadIndex, lv.loc,
                             "bad bit-select target on '" + lv.name + "'");
            } else {
                out.has_range = true;
                out.msb = out.lsb = static_cast<uint32_t>(bit->value());
                width = 1;
            }
        } else {
            out.index = lower_expr(*lv.index, scope);
        }
    } else if (net.array_size != 0) {
        diags_.error(DiagCode::ArrayMisuse, lv.loc,
                     "array '" + lv.name + "' assigned without an index");
    }
    if (lv.range_msb) {
        auto msb = eval_const(*lv.range_msb, scope);
        auto lsb = eval_const(*lv.range_lsb, scope);
        if (!msb || !lsb || msb->value() < lsb->value() ||
            msb->value() >= net.width) {
            diags_.error(DiagCode::BadIndex, lv.loc,
                         "bad part-select target on '" + lv.name + "'");
        } else {
            out.has_range = true;
            out.msb = static_cast<uint32_t>(msb->value());
            out.lsb = static_cast<uint32_t>(lsb->value());
            width = out.msb - out.lsb + 1;
        }
    }
    *target_width = width;
    return out;
}

StmtPtr Elaborator::lower_stmt(const ast::Stmt& s, Scope& scope,
                               ProcessKind ctx) {
    switch (s.kind) {
    case ast::StmtKind::Block: {
        const auto& b = static_cast<const ast::BlockStmt&>(s);
        auto out = std::make_unique<Stmt>();
        out->kind = StmtKind::Block;
        out->loc = b.loc;
        for (const auto& st : b.stmts)
            out->stmts.push_back(lower_stmt(*st, scope, ctx));
        return out;
    }
    case ast::StmtKind::If: {
        const auto& i = static_cast<const ast::IfStmt&>(s);
        auto out = std::make_unique<Stmt>();
        out->kind = StmtKind::If;
        out->loc = i.loc;
        out->cond = lower_expr(*i.cond, scope);
        out->then_stmt = lower_stmt(*i.then_stmt, scope, ctx);
        if (i.else_stmt)
            out->else_stmt = lower_stmt(*i.else_stmt, scope, ctx);
        return out;
    }
    case ast::StmtKind::Case: {
        // Lower to an if-else chain: items in order, default last.
        const auto& c = static_cast<const ast::CaseStmt&>(s);
        ExprPtr subject = lower_expr(*c.subject, scope);
        StmtPtr chain; // built back-to-front
        const ast::CaseItem* default_item = nullptr;
        for (const auto& item : c.items)
            if (item.values.empty())
                default_item = &item;
        if (default_item)
            chain = lower_stmt(*default_item->body, scope, ctx);
        for (auto it = c.items.rbegin(); it != c.items.rend(); ++it) {
            if (it->values.empty())
                continue;
            ExprPtr match;
            for (const auto& v : it->values) {
                ExprPtr val = lower_expr(*v, scope);
                val = resize(std::move(val), subject->width);
                auto cmp = Expr::make_binary(BinaryOp::Eq, subject->clone(),
                                             std::move(val), it->body->loc);
                match = match ? Expr::make_binary(BinaryOp::LogOr,
                                                  std::move(match),
                                                  std::move(cmp),
                                                  it->body->loc)
                              : std::move(cmp);
            }
            auto node = std::make_unique<Stmt>();
            node->kind = StmtKind::If;
            node->loc = it->body->loc;
            node->cond = std::move(match);
            node->then_stmt = lower_stmt(*it->body, scope, ctx);
            node->else_stmt = std::move(chain);
            chain = std::move(node);
        }
        if (!chain) {
            auto empty = std::make_unique<Stmt>();
            empty->kind = StmtKind::Block;
            empty->loc = c.loc;
            return empty;
        }
        return chain;
    }
    case ast::StmtKind::Assign: {
        const auto& a = static_cast<const ast::AssignStmt&>(s);
        if (ctx == ProcessKind::Seq && a.op == ast::AssignOp::Blocking)
            diags_.warning(DiagCode::Unsupported, a.loc,
                           "blocking assignment in sequential context; "
                           "treated as non-blocking");
        if (ctx == ProcessKind::Comb && a.op == ast::AssignOp::NonBlocking)
            diags_.warning(DiagCode::Unsupported, a.loc,
                           "non-blocking assignment in combinational "
                           "context; treated as blocking");
        auto out = std::make_unique<Stmt>();
        out->kind = StmtKind::Assign;
        out->loc = a.loc;
        uint32_t target_width = 1;
        out->lhs = lower_lvalue(a.lhs, scope, ctx, &target_width);
        out->rhs = resize(lower_expr(*a.rhs, scope), target_width);
        return out;
    }
    case ast::StmtKind::Assume: {
        const auto& a = static_cast<const ast::AssumeStmt&>(s);
        auto out = std::make_unique<Stmt>();
        out->kind = StmtKind::Assume;
        out->loc = a.loc;
        out->pred = lower_expr(*a.pred, scope);
        return out;
    }
    case ast::StmtKind::Skip: {
        auto out = std::make_unique<Stmt>();
        out->kind = StmtKind::Block;
        out->loc = s.loc;
        return out;
    }
    }
    assert(false && "unreachable");
    return nullptr;
}

// ---------------------------------------------------------------------------
// Modules
// ---------------------------------------------------------------------------

void Elaborator::elaborate_module(const ast::Module& mod, Scope& scope,
                                  int depth) {
    if (depth > opts_.max_depth) {
        diags_.error(DiagCode::Unsupported, mod.loc,
                     "instantiation depth limit exceeded (recursive "
                     "modules?)");
        return;
    }
    // Parameters not already overridden by the instantiation.
    for (const auto& p : mod.params) {
        if (scope.params.count(p.name))
            continue;
        auto v = eval_const(*p.value, scope);
        if (!v) {
            diags_.error(DiagCode::NotAConstant, p.loc,
                         "parameter '" + p.name + "' must be constant");
            return;
        }
        scope.params[p.name] = *v;
    }
    declare_nets(mod, scope);

    for (const auto& ca : mod.assigns) {
        Process proc;
        proc.kind = ProcessKind::Comb;
        proc.loc = ca.loc;
        auto stmt = std::make_unique<Stmt>();
        stmt->kind = StmtKind::Assign;
        stmt->loc = ca.loc;
        uint32_t target_width = 1;
        stmt->lhs = lower_lvalue(ca.lhs, scope, ProcessKind::Comb,
                                 &target_width);
        stmt->rhs = resize(lower_expr(*ca.rhs, scope), target_width);
        proc.body = std::move(stmt);
        design_->processes.push_back(std::move(proc));
    }
    for (const auto& blk : mod.always_blocks) {
        Process proc;
        proc.kind = blk.kind == ast::AlwaysKind::Seq ? ProcessKind::Seq
                                                     : ProcessKind::Comb;
        proc.loc = blk.loc;
        proc.body = lower_stmt(*blk.body, scope, proc.kind);
        design_->processes.push_back(std::move(proc));
    }

    for (const auto& inst : mod.instances) {
        const ast::Module* child = find_module(inst.module_name);
        if (child == nullptr) {
            diags_.error(DiagCode::UnknownModule, inst.loc,
                         "unknown module '" + inst.module_name + "'");
            continue;
        }
        Scope child_scope;
        child_scope.prefix = scope.prefix + inst.instance_name + ".";
        for (const auto& po : inst.params) {
            auto v = eval_const(*po.value, scope);
            if (!v) {
                diags_.error(DiagCode::NotAConstant, po.loc,
                             "parameter override '" + po.name +
                                 "' must be constant");
                continue;
            }
            child_scope.params[po.name] = *v;
        }
        Instance span;
        span.net_begin = static_cast<NetId>(design_->nets.size());
        span.proc_begin = design_->processes.size();
        elaborate_module(*child, child_scope, depth + 1);
        span.net_end = static_cast<NetId>(design_->nets.size());
        span.proc_end = design_->processes.size();
        span.key = instance_key(*child, child_scope);
        design_->instances.push_back(std::move(span));

        // Wire up ports.
        std::unordered_set<std::string> connected;
        for (const auto& conn : inst.connections) {
            const ast::NetDecl* port = nullptr;
            for (const auto& nd : child->nets)
                if (nd.name == conn.port_name &&
                    nd.dir != ast::PortDir::None)
                    port = &nd;
            if (port == nullptr) {
                diags_.error(DiagCode::PortMismatch, conn.loc,
                             "module '" + child->name + "' has no port '" +
                                 conn.port_name + "'");
                continue;
            }
            connected.insert(conn.port_name);
            auto cit = child_scope.nets.find(conn.port_name);
            if (cit == child_scope.nets.end())
                continue; // child elaboration failed; already reported
            NetId port_net = cit->second;
            uint32_t port_width = design_->net(port_net).width;
            if (port->dir == ast::PortDir::Input) {
                Process proc;
                proc.kind = ProcessKind::Comb;
                proc.loc = conn.loc;
                auto stmt = std::make_unique<Stmt>();
                stmt->kind = StmtKind::Assign;
                stmt->loc = conn.loc;
                stmt->lhs.net = port_net;
                stmt->lhs.loc = conn.loc;
                stmt->rhs = resize(lower_expr(*conn.expr, scope), port_width);
                proc.body = std::move(stmt);
                design_->processes.push_back(std::move(proc));
            } else { // Output: connection must name a parent net.
                if (conn.expr->kind != ast::ExprKind::Ident) {
                    diags_.error(DiagCode::PortMismatch, conn.loc,
                                 "output port connections must be simple "
                                 "net names");
                    continue;
                }
                const auto& ident =
                    static_cast<const ast::IdentExpr&>(*conn.expr);
                auto pit = scope.nets.find(ident.name);
                if (pit == scope.nets.end()) {
                    diags_.error(DiagCode::UnknownIdentifier, conn.loc,
                                 "unknown net '" + ident.name +
                                     "' in output connection");
                    continue;
                }
                Process proc;
                proc.kind = ProcessKind::Comb;
                proc.loc = conn.loc;
                auto stmt = std::make_unique<Stmt>();
                stmt->kind = StmtKind::Assign;
                stmt->loc = conn.loc;
                stmt->lhs.net = pit->second;
                stmt->lhs.loc = conn.loc;
                stmt->rhs = resize(
                    Expr::make_net(port_net, port_width, false, conn.loc),
                    design_->net(pit->second).width);
                proc.body = std::move(stmt);
                design_->processes.push_back(std::move(proc));
            }
        }
        for (const auto& nd : child->nets) {
            if (nd.dir == ast::PortDir::Input && !connected.count(nd.name))
                diags_.error(DiagCode::PortMismatch, inst.loc,
                             "input port '" + nd.name + "' of '" +
                                 child->name + "' left unconnected");
        }
    }
}

} // namespace

std::unique_ptr<hir::Design> elaborate(const ast::CompilationUnit& unit,
                                       DiagnosticEngine& diags,
                                       const ElaborateOptions& opts) {
    Elaborator elab(unit, diags, opts);
    return elab.run();
}

} // namespace svlc::sem
