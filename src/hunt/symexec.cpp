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

/// Taint of `value != 0`: an untainted 1 bit decides the test true and
/// an all-untainted word decides it outright; only otherwise can secret
/// bits flip the outcome.
uint64_t bool_taint(const BitTaint::W& w) {
    if ((w.value() & ~w.taint) != 0)
        return 0;
    return w.taint ? 1 : 0;
}

} // namespace

uint64_t BitTaint::seed(const Net& input, LevelId label) const {
    return design.policy.lattice().flows(label, observer)
               ? 0
               : BitVec::mask(input.width);
}

bool BitTaint::skips(const W& decider) { return bool_taint(decider) == 0; }

uint64_t BitTaint::unary(const Expr& e, const W& a) {
    uint64_t wmask = BitVec::mask(e.width);
    uint64_t t = a.taint;
    uint64_t v = a.value();
    uint64_t omask = BitVec::mask(e.a->width);
    switch (e.un_op) {
    case UnaryOp::Neg:
        return carry_spread(t, wmask);
    case UnaryOp::BitNot:
        return t;
    case UnaryOp::LogNot:
        return bool_taint(a);
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

uint64_t BitTaint::binary(const Expr& e, const W& a, const W& b) {
    uint64_t wmask = BitVec::mask(e.width);
    uint64_t ta = a.taint, tb = b.taint;
    uint64_t va = a.value(), vb = b.value();
    switch (e.bin_op) {
    case BinaryOp::LogAnd:
    case BinaryOp::LogOr:
        // Reached only when the left side did not decide the result
        // untainted (the walk skipped the right side then).
        return (bool_taint(a) | bool_taint(b)) ? 1 : 0;
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
    }
    return (ta | tb) ? wmask : 0;
}

uint64_t BitTaint::downgrade(const Expr& e, const W& a,
                             const Env& env) const {
    // endorse/declassify resets the taint iff the declared target
    // label (dependent parts on live state, sequential args taking
    // pending values in sequential processes — Γ(r){r⃗'/r⃗}) is
    // observer-visible; otherwise the data stays secret-bearing.
    LevelId target =
        env.sim.eval_label(e.dg_label, env.kind == ProcessKind::Seq);
    if (design.policy.lattice().flows(target, observer))
        return 0;
    return a.taint;
}

uint64_t BitTaint::branch(uint64_t pc, const W& cond) {
    return pc != 0 ? pc : bool_taint(cond);
}

void TaintSim::step() { engine_.step(sim_); }

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
