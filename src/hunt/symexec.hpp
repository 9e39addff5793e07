// Bit-precise symbolic taint simulation for leak hunting: each net
// carries its concrete value (the embedded sim::Simulator) plus a
// per-bit taint mask marking which bits may depend on secret inputs —
// inputs whose evaluated label does not flow to the chosen observer.
//
// Expressions evaluate with three-valued X-propagation mirroring
// Simulator::eval: an AND with an untainted 0 operand blocks taint, an
// OR with an untainted 1 does, an equality over bits that differ
// untainted is decided, and so on. The taint domain is a strict
// refinement of verify::TaintTracker's level-per-net domain on the same
// concrete path: whenever a TaintSim bit is tainted, the tracker's
// level taint for that net cannot flow to the observer. Both are
// verify::TaintEngine over their own domain, so they share the store and
// the schedule, and the induction only covers the domains' transfer
// rules (docs/HUNT.md). The hunter relies on this: a leak
// flagged here is re-run through Simulator + TaintTracker as an oracle
// before it is ever reported.
#pragma once

#include "sem/hir.hpp"
#include "sim/simulator.hpp"
#include "verify/taint_engine.hpp"

#include <cstdint>
#include <vector>

namespace svlc::hunt {

/// A net the observer may read held tainted bits just before commit:
/// `declared` (the label the net carries at the monitored instant —
/// next-cycle for registers, current for wires) flows to the observer
/// while `taint` is non-zero.
struct LeakEvent {
    uint64_t cycle = 0;
    hir::NetId net = hir::kInvalidNet;
    uint64_t taint = 0;
    LevelId declared = kInvalidLevel;
};

/// TaintSim's domain: one taint bit per wire bit; a leak is a net with
/// tainted bits whose label flows to the observer. A control taint is
/// non-zero iff a secret decided the control path.
struct BitTaint {
    using Taint = uint64_t;
    using Event = LeakEvent;

    const hir::Design& design;
    LevelId observer;

    [[nodiscard]] uint64_t bottom() const { return 0; }
    /// Every bit of an input whose label the observer may not read is a
    /// fresh secret.
    [[nodiscard]] uint64_t seed(const hir::Net& input, LevelId label) const;
    [[nodiscard]] uint64_t eval(const hir::Expr& e,
                                const verify::TaintEnv<uint64_t>& env) const;
    [[nodiscard]] uint64_t branch(uint64_t pc, const hir::Expr& cond,
                                  const verify::TaintEnv<uint64_t>& env) const;
    [[nodiscard]] uint64_t written(uint64_t pc, const hir::Stmt& assign,
                                   const verify::TaintEnv<uint64_t>& env) const;
    [[nodiscard]] uint64_t merge_range(uint64_t old, uint64_t t,
                                       const hir::LValue& lv) const;
    [[nodiscard]] bool flags(uint64_t t, LevelId declared) const {
        return t != 0 && design.policy.lattice().flows(declared, observer);
    }
};

/// Copy-constructible (for search snapshots); not assignable — the
/// embedded Simulator pins the design by reference.
class TaintSim {
public:
    TaintSim(const hir::Design& design, LevelId observer)
        : sim_(design), engine_(design, BitTaint{design, observer}) {}

    /// Drives a primary input for subsequent cycles. Taint is not set
    /// here: step() seeds every input's taint from its evaluated label,
    /// exactly when TaintTracker would.
    void set_input(hir::NetId net, BitVec value) {
        sim_.set_input(net, value);
    }

    /// One full cycle in lock-step with the embedded simulator,
    /// monitoring observer-visible nets just before the TICK commit.
    void step() { engine_.step(sim_); }

    [[nodiscard]] const std::vector<LeakEvent>& leaks() const {
        return engine_.events();
    }
    [[nodiscard]] uint64_t taint(hir::NetId net) const {
        return engine_.store().get(net, false);
    }

    /// Search heuristic: total tainted bits across all state, weighted
    /// so that spreading taint to more nets scores higher than piling
    /// bits onto one.
    [[nodiscard]] uint64_t taint_score() const;

private:
    sim::Simulator sim_;
    verify::TaintEngine<BitTaint> engine_;
};

} // namespace svlc::hunt
