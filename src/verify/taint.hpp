// GLIFT-style dynamic information-flow tracking at the RTL level
// [Tiwari et al., ASPLOS 2009] — the run-time alternative the paper
// compares against (§4). Every net carries a shadow taint level; taints
// join through every operation and through the guards of taken branches.
//
// This gives the comparison experiment its baseline: run-time tracking
// monitors one execution at a per-cycle cost, while SecVerilogLC checks
// all executions statically at design time.
#pragma once

#include "sem/hir.hpp"
#include "sim/simulator.hpp"
#include "verify/taint_engine.hpp"

#include <vector>

namespace svlc::verify {

struct TaintViolation {
    uint64_t cycle;
    hir::NetId net;
    LevelId taint;
    LevelId declared;
};

/// The tracker's domain: one security level per net, joined through
/// every operand and every guard; a violation is a net whose taint does
/// not flow to its declared label. A decided operator never skips an
/// operand: the untaken side's level joins in too.
struct LevelTaint {
    using Taint = LevelId;
    using Event = TaintViolation;
    using W = sim::Walked<LevelId>;
    using Env = TaintEnv<LevelId>;

    const hir::Design& design;

    LevelId join(LevelId a, LevelId b) const {
        return design.policy.lattice().join(a, b);
    }
    LevelId bottom() const { return design.policy.lattice().bottom(); }
    static LevelId seed(const hir::Net&, LevelId label) { return label; }

    static bool skips(const W&) { return false; }
    static LevelId net(const hir::Expr& e, const Env& env) {
        return env.store.get(e.net, e.primed);
    }
    LevelId elem(const hir::Expr& e, const W& index, uint64_t idx,
                 const Env& env) const {
        return join(index.taint, env.store.elem(e.net, idx, e.primed));
    }
    static LevelId slice(const hir::Expr&, const W& a) { return a.taint; }
    static LevelId unary(const hir::Expr&, const W& a) { return a.taint; }
    LevelId binary(const hir::Expr&, const W& a, const W& b) const {
        return join(a.taint, b.taint);
    }
    LevelId cond(const hir::Expr&, const W& g, const W& b, const W& c) const {
        return join(g.taint, join(b.taint, c.taint));
    }
    LevelId concat(const hir::Expr&, LevelId high, const hir::Expr&,
                   LevelId low) const {
        return join(high, low);
    }
    /// The explicit endorse/declassify resets the taint to the declared
    /// target label, evaluated on the live state: in a sequential process
    /// the value lands next cycle, so sequential args take their pending
    /// values.
    static LevelId downgrade(const hir::Expr& e, const W&, const Env& env) {
        return env.sim.eval_label(e.dg_label,
                                  env.kind == hir::ProcessKind::Seq);
    }

    LevelId branch(LevelId pc, const W& cond) const {
        return join(pc, cond.taint);
    }
    LevelId written(LevelId pc, const hir::Stmt&, LevelId rhs,
                    LevelId index) const {
        return join(join(pc, rhs), index);
    }
    LevelId merge_range(LevelId old, LevelId t, const hir::LValue&) const {
        return join(old, t);
    }
    bool flags(LevelId t, LevelId declared) const {
        return !design.policy.lattice().flows(t, declared);
    }
};

/// Shadow interpreter running in lock-step with a Simulator: step(sim)
/// *replaces* sim.step() — it interleaves taint propagation with the
/// simulator's own process evaluation so branch decisions and array
/// indices are resolved against exactly the state each process sees.
class TaintTracker : public TaintEngine<LevelTaint> {
public:
    explicit TaintTracker(const hir::Design& design)
        : TaintEngine(design, LevelTaint{design}) {}

    [[nodiscard]] LevelId taint(hir::NetId net) const {
        return store().get(net, false);
    }
    [[nodiscard]] LevelId array_taint(hir::NetId net, uint64_t index) const {
        return store().elems(net)[index];
    }
    [[nodiscard]] const std::vector<TaintViolation>& violations() const {
        return events();
    }
};

} // namespace svlc::verify
