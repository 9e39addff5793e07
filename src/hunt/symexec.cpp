#include "hunt/symexec.hpp"

#include <bit>

namespace svlc::hunt {

using namespace hir;

namespace {

/// All bits at or above the lowest tainted one: arithmetic carries can
/// ripple any tainted bit upward but never downward.
uint64_t carry_spread(uint64_t t, uint64_t wmask) {
    if (t == 0)
        return 0;
    return (~uint64_t{0} << std::countr_zero(t)) & wmask;
}

/// Taint of `value != 0` over (value, taint): an untainted 1 bit
/// decides the test true and an all-untainted word decides it outright;
/// only otherwise can secret bits flip the outcome.
uint64_t bool_taint(uint64_t v, uint64_t t) {
    if ((v & ~t) != 0)
        return 0;
    return t ? 1 : 0;
}

} // namespace

uint64_t BitTaint::seed(const Net& input, LevelId label) const {
    return design.policy.lattice().flows(label, observer)
               ? 0
               : BitVec::mask(input.width);
}

uint64_t BitTaint::eval(const Expr& e,
                        const verify::TaintEnv<uint64_t>& env) const {
    uint64_t wmask = BitVec::mask(e.width);
    switch (e.kind) {
    case ExprKind::Const:
        return 0;
    case ExprKind::NetRef:
        return env.store.get(e.net, e.primed) & wmask;
    case ExprKind::ArrayRead: {
        size_t size = env.store.elems(e.net).size();
        if (size == 0)
            return 0; // the simulator raises SimError on this HIR
        if (eval(*e.index, env) != 0)
            return wmask; // secret-dependent address selects the element
        uint64_t idx = env.sim.evaluate(*e.index).value() % size;
        return env.store.elem(e.net, idx, e.primed) & wmask;
    }
    case ExprKind::Slice: {
        uint64_t t = eval(*e.a, env);
        return (t >> e.lsb) & BitVec::mask(e.msb - e.lsb + 1);
    }
    case ExprKind::Unary: {
        uint64_t t = eval(*e.a, env);
        uint64_t v = env.sim.evaluate(*e.a).value();
        uint64_t omask = BitVec::mask(e.a->width);
        switch (e.un_op) {
        case UnaryOp::Neg:
            return carry_spread(t, wmask);
        case UnaryOp::BitNot:
            return t;
        case UnaryOp::LogNot:
            return bool_taint(v, t);
        case UnaryOp::RedAnd:
            // An untainted 0 bit decides the reduction.
            return (~v & ~t & omask) != 0 ? 0 : (t ? 1 : 0);
        case UnaryOp::RedOr:
            // An untainted 1 bit decides the reduction.
            return (v & ~t) != 0 ? 0 : (t ? 1 : 0);
        case UnaryOp::RedXor:
            return t ? 1 : 0;
        }
        return t ? wmask : 0;
    }
    case ExprKind::Binary: {
        if (e.bin_op == BinaryOp::LogAnd || e.bin_op == BinaryOp::LogOr) {
            uint64_t ta = bool_taint(env.sim.evaluate(*e.a).value(),
                                     eval(*e.a, env));
            bool av = env.sim.evaluate(*e.a).to_bool();
            // Mirror the simulator's short circuit: when the left side
            // is untainted and decides the result, the right side is
            // never consulted.
            if (ta == 0 && ((e.bin_op == BinaryOp::LogAnd && !av) ||
                            (e.bin_op == BinaryOp::LogOr && av)))
                return 0;
            uint64_t tb = bool_taint(env.sim.evaluate(*e.b).value(),
                                     eval(*e.b, env));
            return (ta | tb) ? 1 : 0;
        }
        uint64_t ta = eval(*e.a, env);
        uint64_t tb = eval(*e.b, env);
        uint64_t va = env.sim.evaluate(*e.a).value();
        uint64_t vb = env.sim.evaluate(*e.b).value();
        switch (e.bin_op) {
        case BinaryOp::And:
            // A bit leaks only if some operand bit is tainted and
            // neither operand holds an untainted 0 there.
            return (ta | tb) & (va | ta) & (vb | tb) & wmask;
        case BinaryOp::Or:
            // Dual: an untainted 1 forces the bit.
            return (ta | tb) & (~va | ta) & (~vb | tb) & wmask;
        case BinaryOp::Xor:
            return (ta | tb) & wmask;
        case BinaryOp::Add:
        case BinaryOp::Sub:
            return carry_spread(ta | tb, wmask);
        case BinaryOp::Mul:
        case BinaryOp::Div:
        case BinaryOp::Mod:
            return (ta | tb) ? wmask : 0;
        case BinaryOp::Shl:
        case BinaryOp::Shr: {
            if (tb != 0)
                return (ta | va) != 0 ? wmask : 0; // secret shift distance
            uint64_t sh = vb;
            if (sh >= 64)
                return 0;
            uint64_t t = e.bin_op == BinaryOp::Shl ? ta << sh : ta >> sh;
            return t & wmask;
        }
        case BinaryOp::Eq:
        case BinaryOp::Ne: {
            // Bits that differ untainted decide the comparison.
            uint64_t cmask = BitVec::mask(std::max(e.a->width, e.b->width));
            if (((va ^ vb) & ~ta & ~tb & cmask) != 0)
                return 0;
            return (ta | tb) ? 1 : 0;
        }
        case BinaryOp::Lt:
        case BinaryOp::Le:
        case BinaryOp::Gt:
        case BinaryOp::Ge:
            return (ta | tb) ? 1 : 0;
        default:
            return (ta | tb) ? wmask : 0;
        }
    }
    case ExprKind::Cond: {
        uint64_t tg = bool_taint(env.sim.evaluate(*e.a).value(),
                                 eval(*e.a, env));
        if (tg == 0)
            return env.sim.evaluate(*e.a).to_bool() ? eval(*e.b, env)
                                                    : eval(*e.c, env);
        // Undecided guard: a bit stays clean only when both arms agree
        // on it untainted.
        uint64_t tb = eval(*e.b, env);
        uint64_t tc = eval(*e.c, env);
        uint64_t vb = env.sim.evaluate(*e.b).value();
        uint64_t vc = env.sim.evaluate(*e.c).value();
        return (tb | tc | (vb ^ vc)) & wmask;
    }
    case ExprKind::Concat: {
        uint64_t acc = eval(*e.parts.front(), env);
        for (size_t i = 1; i < e.parts.size(); ++i)
            acc = (acc << e.parts[i]->width) | eval(*e.parts[i], env);
        return acc & wmask;
    }
    case ExprKind::Downgrade: {
        // endorse/declassify resets the taint iff the declared target
        // label (dependent parts on live state, sequential args taking
        // pending values in sequential processes — Γ(r){r⃗'/r⃗}) is
        // observer-visible; otherwise the data stays secret-bearing.
        LevelId target =
            env.sim.eval_label(e.dg_label, env.kind == ProcessKind::Seq);
        if (design.policy.lattice().flows(target, observer))
            return 0;
        return eval(*e.a, env);
    }
    }
    return wmask;
}

uint64_t BitTaint::branch(uint64_t pc, const Expr& cond,
                          const verify::TaintEnv<uint64_t>& env) const {
    if (pc != 0)
        return pc;
    return bool_taint(env.sim.evaluate(cond).value(), eval(cond, env));
}

uint64_t BitTaint::written(uint64_t pc, const Stmt& assign,
                           const verify::TaintEnv<uint64_t>& env) const {
    const Net& net = design.net(assign.lhs.net);
    uint64_t wmask = BitVec::mask(net.width);
    uint64_t t = eval(*assign.rhs, env) & wmask;
    if (pc != 0)
        t = wmask; // implicit flow: the write itself is secret-gated
    if (net.array_size != 0 && eval(*assign.lhs.index, env) != 0)
        t = wmask; // a secret address may have picked any element
    return t;
}

uint64_t BitTaint::merge_range(uint64_t old, uint64_t t,
                               const LValue& lv) const {
    // lsb is 0 whenever the field spans all 64 bits, so the shift cannot
    // overflow.
    uint64_t m = BitVec::mask(lv.msb - lv.lsb + 1) << lv.lsb;
    return (old & ~m) | ((t << lv.lsb) & m);
}

uint64_t TaintSim::taint_score() const {
    uint64_t score = 0;
    const auto& store = engine_.store();
    for (const Net& net : sim_.design().nets) {
        if (net.is_input)
            continue;
        if (uint64_t t = store.get(net.id, false)) {
            score += static_cast<uint64_t>(std::popcount(t)) + 4;
        }
        for (uint64_t et : store.elems(net.id))
            if (et != 0)
                score += static_cast<uint64_t>(std::popcount(et)) + 4;
    }
    return score;
}

} // namespace svlc::hunt
