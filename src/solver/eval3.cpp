#include "solver/eval3.hpp"

#include <cassert>

namespace svlc::solver {

using namespace hir;

std::optional<BitVec> eval3(const Expr& e, const Assignment& asg) {
    switch (e.kind) {
    case ExprKind::Const:
        return e.value;
    case ExprKind::NetRef:
        return asg.get(e.net, e.primed);
    case ExprKind::ArrayRead:
        return std::nullopt; // assignments cover scalar nets only
    case ExprKind::Slice: {
        auto v = eval3(*e.a, asg);
        if (!v)
            return std::nullopt;
        return v->slice(e.msb, e.lsb);
    }
    case ExprKind::Unary: {
        auto v = eval3(*e.a, asg);
        if (!v)
            return std::nullopt;
        return eval_unary(e.un_op, *v);
    }
    case ExprKind::Binary: {
        auto a = eval3(*e.a, asg);
        auto b = eval3(*e.b, asg);
        // Shortcuts that stay sound under partial knowledge: one known
        // operand decides `||` when nonzero, and `&&`, `&` and `*` when
        // zero (`&&` has width 1).
        if (e.bin_op == BinaryOp::LogOr &&
            ((a && a->to_bool()) || (b && b->to_bool())))
            return BitVec(1, 1);
        if ((e.bin_op == BinaryOp::LogAnd || e.bin_op == BinaryOp::And ||
             e.bin_op == BinaryOp::Mul) &&
            ((a && a->is_zero()) || (b && b->is_zero())))
            return BitVec(e.width, 0);
        if (!a || !b)
            return std::nullopt;
        return eval_binary(e.bin_op, *a, *b);
    }
    case ExprKind::Cond: {
        auto c = eval3(*e.a, asg);
        if (c)
            return c->to_bool() ? eval3(*e.b, asg) : eval3(*e.c, asg);
        auto t = eval3(*e.b, asg);
        auto f = eval3(*e.c, asg);
        if (t && f && *t == *f)
            return t; // both branches agree; selector irrelevant
        return std::nullopt;
    }
    case ExprKind::Concat: {
        std::optional<BitVec> acc;
        for (const auto& p : e.parts) {
            auto v = eval3(*p, asg);
            if (!v)
                return std::nullopt;
            acc = acc ? acc->concat(*v) : *v;
        }
        return acc;
    }
    case ExprKind::Downgrade:
        return eval3(*e.a, asg);
    }
    assert(false && "unreachable");
    return std::nullopt;
}

std::optional<LevelId> eval_atom(const SolverAtom& atom, const Design& design,
                                 const Assignment& asg) {
    if (atom.kind == SolverAtom::Kind::Level)
        return atom.level;
    std::vector<uint64_t> args;
    args.reserve(atom.args.size());
    for (const auto& arg : atom.args) {
        auto v = asg.get(arg.net, arg.primed);
        if (!v)
            return std::nullopt;
        args.push_back(v->value());
    }
    return design.policy.function(atom.func).evaluate(args);
}

std::optional<LevelId> eval_label(const SolverLabel& label,
                                  const Design& design,
                                  const Assignment& asg) {
    const Lattice& lat = design.policy.lattice();
    LevelId acc = lat.bottom();
    for (const auto& atom : label.atoms) {
        auto lv = eval_atom(atom, design, asg);
        if (!lv)
            return std::nullopt;
        acc = lat.join(acc, *lv);
    }
    return acc;
}

} // namespace svlc::solver
