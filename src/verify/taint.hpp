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
/// not flow to its declared label.
struct LevelTaint {
    using Taint = LevelId;
    using Event = TaintViolation;

    const hir::Design& design;

    [[nodiscard]] LevelId bottom() const {
        return design.policy.lattice().bottom();
    }
    [[nodiscard]] LevelId seed(const hir::Net&, LevelId label) const {
        return label;
    }
    [[nodiscard]] LevelId eval(const hir::Expr& e,
                               const TaintEnv<LevelId>& env) const;
    [[nodiscard]] LevelId branch(LevelId pc, const hir::Expr& cond,
                                 const TaintEnv<LevelId>& env) const {
        return design.policy.lattice().join(pc, eval(cond, env));
    }
    [[nodiscard]] LevelId written(LevelId pc, const hir::Stmt& assign,
                                  const TaintEnv<LevelId>& env) const;
    [[nodiscard]] LevelId merge_range(LevelId old, LevelId t,
                                      const hir::LValue&) const {
        return design.policy.lattice().join(old, t);
    }
    [[nodiscard]] bool flags(LevelId t, LevelId declared) const {
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
