#include "sem/hir.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace svlc::hir {

std::vector<NetId> Label::dependencies() const {
    std::vector<NetId> deps;
    for (const auto& a : atoms)
        if (a.kind == LabelAtom::Kind::Func)
            for (NetId n : a.args)
                if (std::find(deps.begin(), deps.end(), n) == deps.end())
                    deps.push_back(n);
    return deps;
}

ExprPtr Expr::make_const(BitVec v, SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Const;
    e->value = v;
    e->width = v.width();
    e->loc = loc;
    return e;
}

ExprPtr Expr::make_net(NetId net, uint32_t width, bool primed, SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::NetRef;
    e->net = net;
    e->width = width;
    e->primed = primed;
    e->loc = loc;
    return e;
}

ExprPtr Expr::make_unary(UnaryOp op, ExprPtr operand, SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Unary;
    e->un_op = op;
    e->width = (op == UnaryOp::LogNot || op == UnaryOp::RedAnd ||
                op == UnaryOp::RedOr || op == UnaryOp::RedXor)
                   ? 1
                   : operand->width;
    e->a = std::move(operand);
    e->loc = loc;
    return e;
}

ExprPtr Expr::make_binary(BinaryOp op, ExprPtr lhs, ExprPtr rhs,
                          SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Binary;
    e->bin_op = op;
    switch (op) {
    case BinaryOp::Eq:
    case BinaryOp::Ne:
    case BinaryOp::Lt:
    case BinaryOp::Le:
    case BinaryOp::Gt:
    case BinaryOp::Ge:
    case BinaryOp::LogAnd:
    case BinaryOp::LogOr:
        e->width = 1;
        break;
    case BinaryOp::Shl:
    case BinaryOp::Shr:
        e->width = lhs->width;
        break;
    default:
        e->width = std::max(lhs->width, rhs->width);
        break;
    }
    e->a = std::move(lhs);
    e->b = std::move(rhs);
    e->loc = loc;
    return e;
}

ExprPtr Expr::make_cond(ExprPtr cond, ExprPtr t, ExprPtr f, SourceLoc loc) {
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::Cond;
    e->width = std::max(t->width, f->width);
    e->a = std::move(cond);
    e->b = std::move(t);
    e->c = std::move(f);
    e->loc = loc;
    return e;
}

ExprPtr Expr::clone() const {
    auto e = std::make_unique<Expr>();
    e->kind = kind;
    e->width = width;
    e->loc = loc;
    e->value = value;
    e->net = net;
    e->primed = primed;
    if (index)
        e->index = index->clone();
    e->msb = msb;
    e->lsb = lsb;
    e->un_op = un_op;
    e->bin_op = bin_op;
    if (a)
        e->a = a->clone();
    if (b)
        e->b = b->clone();
    if (c)
        e->c = c->clone();
    for (const auto& p : parts)
        e->parts.push_back(p->clone());
    e->dg_kind = dg_kind;
    e->dg_label = dg_label;
    return e;
}

void Expr::collect_reads(std::vector<NetId>& plain,
                         std::vector<NetId>& primed_reads) const {
    switch (kind) {
    case ExprKind::Const:
        break;
    case ExprKind::NetRef:
    case ExprKind::ArrayRead:
        (primed ? primed_reads : plain).push_back(net);
        if (index)
            index->collect_reads(plain, primed_reads);
        break;
    default:
        if (index)
            index->collect_reads(plain, primed_reads);
        if (a)
            a->collect_reads(plain, primed_reads);
        if (b)
            b->collect_reads(plain, primed_reads);
        if (c)
            c->collect_reads(plain, primed_reads);
        for (const auto& p : parts)
            p->collect_reads(plain, primed_reads);
        break;
    }
}

namespace {
void expr_str(std::ostringstream& os, const Expr& e, const Design& d) {
    switch (e.kind) {
    case ExprKind::Const:
        os << e.value.str();
        break;
    case ExprKind::NetRef:
        os << (e.net < d.nets.size() ? d.nets[e.net].name : "?net");
        if (e.primed)
            os << "'";
        break;
    case ExprKind::ArrayRead:
        os << (e.net < d.nets.size() ? d.nets[e.net].name : "?net");
        if (e.primed)
            os << "'";
        os << "[";
        expr_str(os, *e.index, d);
        os << "]";
        break;
    case ExprKind::Slice:
        expr_str(os, *e.a, d);
        os << "[" << e.msb << ":" << e.lsb << "]";
        break;
    case ExprKind::Unary:
        os << ast::unary_op_text(e.un_op) << "(";
        expr_str(os, *e.a, d);
        os << ")";
        break;
    case ExprKind::Binary:
        os << "(";
        expr_str(os, *e.a, d);
        os << " " << ast::binary_op_text(e.bin_op) << " ";
        expr_str(os, *e.b, d);
        os << ")";
        break;
    case ExprKind::Cond:
        os << "(";
        expr_str(os, *e.a, d);
        os << " ? ";
        expr_str(os, *e.b, d);
        os << " : ";
        expr_str(os, *e.c, d);
        os << ")";
        break;
    case ExprKind::Concat:
        os << "{";
        for (size_t i = 0; i < e.parts.size(); ++i) {
            if (i)
                os << ", ";
            expr_str(os, *e.parts[i], d);
        }
        os << "}";
        break;
    case ExprKind::Downgrade:
        os << (e.dg_kind == DowngradeKind::Endorse ? "endorse("
                                                   : "declassify(");
        expr_str(os, *e.a, d);
        os << ")";
        break;
    }
}
} // namespace

std::string to_string(const Expr& e, const Design& design) {
    std::ostringstream os;
    expr_str(os, e, design);
    return os.str();
}

LValue LValue::clone() const {
    LValue lv;
    lv.net = net;
    lv.index = index ? index->clone() : nullptr;
    lv.has_range = has_range;
    lv.msb = msb;
    lv.lsb = lsb;
    lv.loc = loc;
    return lv;
}

StmtPtr Stmt::clone() const {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->loc = loc;
    s->node_id = node_id;
    for (const auto& st : stmts)
        s->stmts.push_back(st->clone());
    if (cond)
        s->cond = cond->clone();
    if (then_stmt)
        s->then_stmt = then_stmt->clone();
    if (else_stmt)
        s->else_stmt = else_stmt->clone();
    s->lhs = lhs.clone();
    if (rhs)
        s->rhs = rhs->clone();
    if (pred)
        s->pred = pred->clone();
    return s;
}

NetId Design::find_net(std::string_view name) const {
    auto it = net_by_name.find(std::string(name));
    return it != net_by_name.end() ? it->second : kInvalidNet;
}

} // namespace svlc::hir
