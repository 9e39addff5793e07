#include "verify/taint.hpp"

namespace svlc::verify {

using namespace hir;

LevelId LevelTaint::eval(const Expr& e, const TaintEnv<LevelId>& env) const {
    const Lattice& lat = design.policy.lattice();
    switch (e.kind) {
    case ExprKind::Const:
        return lat.bottom();
    case ExprKind::NetRef:
        return env.store.get(e.net, e.primed);
    case ExprKind::ArrayRead: {
        LevelId acc = eval(*e.index, env);
        size_t size = env.store.elems(e.net).size();
        if (size == 0)
            return acc; // malformed HIR; the simulator raises on eval
        uint64_t idx = env.sim.evaluate(*e.index).value() % size;
        return lat.join(acc, env.store.elem(e.net, idx, e.primed));
    }
    case ExprKind::Downgrade:
        // The explicit endorse/declassify resets the taint to the declared
        // target label, evaluated on the live state: in a sequential
        // process the value lands next cycle, so sequential args take
        // their pending values.
        return env.sim.eval_label(e.dg_label, env.kind == ProcessKind::Seq);
    default: {
        LevelId acc = lat.bottom();
        if (e.index)
            acc = lat.join(acc, eval(*e.index, env));
        if (e.a)
            acc = lat.join(acc, eval(*e.a, env));
        if (e.b)
            acc = lat.join(acc, eval(*e.b, env));
        if (e.c)
            acc = lat.join(acc, eval(*e.c, env));
        for (const auto& p : e.parts)
            acc = lat.join(acc, eval(*p, env));
        return acc;
    }
    }
}

LevelId LevelTaint::written(LevelId pc, const Stmt& assign,
                            const TaintEnv<LevelId>& env) const {
    const Lattice& lat = design.policy.lattice();
    LevelId t = lat.join(pc, eval(*assign.rhs, env));
    if (design.net(assign.lhs.net).array_size != 0)
        t = lat.join(t, eval(*assign.lhs.index, env));
    return t;
}

} // namespace svlc::verify
