#include "ast/ast.hpp"

#include <cassert>

namespace svlc::ast {

const char* unary_op_text(UnaryOp op) {
    switch (op) {
    case UnaryOp::Neg: return "-";
    case UnaryOp::BitNot: return "~";
    case UnaryOp::LogNot: return "!";
    case UnaryOp::RedAnd: return "&";
    case UnaryOp::RedOr: return "|";
    case UnaryOp::RedXor: return "^";
    }
    return "?";
}

const char* binary_op_text(BinaryOp op) {
    switch (op) {
    case BinaryOp::Add: return "+";
    case BinaryOp::Sub: return "-";
    case BinaryOp::Mul: return "*";
    case BinaryOp::Div: return "/";
    case BinaryOp::Mod: return "%";
    case BinaryOp::And: return "&";
    case BinaryOp::Or: return "|";
    case BinaryOp::Xor: return "^";
    case BinaryOp::Shl: return "<<";
    case BinaryOp::Shr: return ">>";
    case BinaryOp::Eq: return "==";
    case BinaryOp::Ne: return "!=";
    case BinaryOp::Lt: return "<";
    case BinaryOp::Le: return "<=";
    case BinaryOp::Gt: return ">";
    case BinaryOp::Ge: return ">=";
    case BinaryOp::LogAnd: return "&&";
    case BinaryOp::LogOr: return "||";
    }
    return "?";
}

LabelPtr Label::level(std::string name, SourceLoc l) {
    auto lab = std::make_unique<Label>();
    lab->kind = LabelKind::Level;
    lab->loc = l;
    lab->level_name = std::move(name);
    return lab;
}

LabelPtr Label::func(std::string name, std::vector<ExprPtr> args, SourceLoc l) {
    auto lab = std::make_unique<Label>();
    lab->kind = LabelKind::Func;
    lab->loc = l;
    lab->func_name = std::move(name);
    lab->args = std::move(args);
    return lab;
}

LabelPtr Label::join(LabelPtr a, LabelPtr b, SourceLoc l) {
    auto lab = std::make_unique<Label>();
    lab->kind = LabelKind::Join;
    lab->loc = l;
    lab->lhs = std::move(a);
    lab->rhs = std::move(b);
    return lab;
}

ExprPtr clone(const Expr& e) {
    switch (e.kind) {
    case ExprKind::Number: {
        const auto& n = static_cast<const NumberExpr&>(e);
        return std::make_unique<NumberExpr>(n.value, n.unsized, n.loc);
    }
    case ExprKind::Ident: {
        const auto& n = static_cast<const IdentExpr&>(e);
        return std::make_unique<IdentExpr>(n.name, n.loc);
    }
    case ExprKind::Index: {
        const auto& n = static_cast<const IndexExpr&>(e);
        return std::make_unique<IndexExpr>(clone(*n.base), clone(*n.index),
                                           n.loc);
    }
    case ExprKind::Range: {
        const auto& n = static_cast<const RangeExpr&>(e);
        return std::make_unique<RangeExpr>(clone(*n.base), clone(*n.msb),
                                           clone(*n.lsb), n.loc);
    }
    case ExprKind::Unary: {
        const auto& n = static_cast<const UnaryExpr&>(e);
        return std::make_unique<UnaryExpr>(n.op, clone(*n.operand), n.loc);
    }
    case ExprKind::Binary: {
        const auto& n = static_cast<const BinaryExpr&>(e);
        return std::make_unique<BinaryExpr>(n.op, clone(*n.lhs), clone(*n.rhs),
                                            n.loc);
    }
    case ExprKind::Cond: {
        const auto& n = static_cast<const CondExpr&>(e);
        return std::make_unique<CondExpr>(clone(*n.cond), clone(*n.then_expr),
                                          clone(*n.else_expr), n.loc);
    }
    case ExprKind::Concat: {
        const auto& n = static_cast<const ConcatExpr&>(e);
        std::vector<ExprPtr> parts;
        parts.reserve(n.parts.size());
        for (const auto& p : n.parts)
            parts.push_back(clone(*p));
        return std::make_unique<ConcatExpr>(std::move(parts), n.loc);
    }
    case ExprKind::Next: {
        const auto& n = static_cast<const NextExpr&>(e);
        return std::make_unique<NextExpr>(clone(*n.operand), n.loc);
    }
    case ExprKind::Downgrade: {
        const auto& n = static_cast<const DowngradeExpr&>(e);
        return std::make_unique<DowngradeExpr>(n.dkind, clone(*n.operand),
                                               clone(*n.target), n.loc);
    }
    }
    assert(false && "unreachable");
    return nullptr;
}

LabelPtr clone(const Label& l) {
    auto out = std::make_unique<Label>();
    out->kind = l.kind;
    out->loc = l.loc;
    out->level_name = l.level_name;
    out->func_name = l.func_name;
    for (const auto& a : l.args)
        out->args.push_back(clone(*a));
    if (l.lhs)
        out->lhs = clone(*l.lhs);
    if (l.rhs)
        out->rhs = clone(*l.rhs);
    return out;
}

} // namespace svlc::ast
