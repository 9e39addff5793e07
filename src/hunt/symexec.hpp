// Bit-precise symbolic taint simulation for leak hunting: each net
// carries its concrete value (the embedded sim::Simulator) plus a
// per-bit taint mask marking which bits may depend on secret inputs —
// inputs whose evaluated label does not flow to the chosen observer.
//
// Expressions go through Simulator::walk, which computes each value and
// its mask together; BitTaint's transfer rules give three-valued
// X-propagation: an AND with an untainted 0 operand blocks taint, an
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
    using W = sim::Walked<uint64_t>;
    using Env = verify::TaintEnv<uint64_t>;

    const hir::Design& design;
    LevelId observer;

    static uint64_t bottom() { return 0; }
    /// Every bit of an input whose label the observer may not read is a
    /// fresh secret.
    uint64_t seed(const hir::Net& input, LevelId label) const;

    /// A decided `&&`, `||` or `?:` skips the other operand exactly when
    /// no secret bit could have changed the decision.
    static bool skips(const W& decider);
    static uint64_t net(const hir::Expr& e, const Env& env) {
        return env.store.get(e.net, e.primed) & BitVec::mask(e.width);
    }
    /// A secret-dependent address may select any element.
    static uint64_t elem(const hir::Expr& e, const W& index, uint64_t idx,
                         const Env& env) {
        uint64_t elem = index.taint != 0 ? ~uint64_t{0}
                                         : env.store.elem(e.net, idx, e.primed);
        return elem & BitVec::mask(e.width);
    }
    static uint64_t slice(const hir::Expr& e, const W& a) {
        return (a.taint >> e.lsb) & BitVec::mask(e.msb - e.lsb + 1);
    }
    static uint64_t unary(const hir::Expr& e, const W& a);
    static uint64_t binary(const hir::Expr& e, const W& a, const W& b);
    /// Only an undecided guard gets here (a decided one made the walk
    /// skip the other arm): a bit stays clean only when both arms agree
    /// on it untainted.
    static uint64_t cond(const hir::Expr& e, const W&, const W& b,
                         const W& c) {
        return (b.taint | c.taint | (b.value() ^ c.value())) &
               BitVec::mask(e.width);
    }
    static uint64_t concat(const hir::Expr& e, uint64_t high,
                           const hir::Expr& low_part, uint64_t low) {
        return ((high << low_part.width) | low) & BitVec::mask(e.width);
    }
    uint64_t downgrade(const hir::Expr& e, const W& a, const Env& env) const;

    static uint64_t branch(uint64_t pc, const W& cond);
    /// A secret-gated write (implicit flow) or a secret address taints
    /// every bit written.
    uint64_t written(uint64_t pc, const hir::Stmt& assign, uint64_t rhs,
                     uint64_t index) const {
        uint64_t wmask = BitVec::mask(design.net(assign.lhs.net).width);
        return pc != 0 || index != 0 ? wmask : rhs & wmask;
    }
    /// lsb is 0 whenever the field spans all 64 bits, so the shift cannot
    /// overflow.
    static uint64_t merge_range(uint64_t old, uint64_t t,
                                const hir::LValue& lv) {
        uint64_t m = BitVec::mask(lv.msb - lv.lsb + 1) << lv.lsb;
        return (old & ~m) | ((t << lv.lsb) & m);
    }
    bool flags(uint64_t t, LevelId declared) const {
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

    /// The embedded simulator, for presetting state (a program image)
    /// before the first step; stepping it directly would leave the
    /// shadow store behind.
    [[nodiscard]] sim::Simulator& sim() { return sim_; }

    /// One full cycle in lock-step with the embedded simulator,
    /// monitoring observer-visible nets just before the TICK commit.
    void step();

    [[nodiscard]] const std::vector<LeakEvent>& leaks() const {
        return engine_.events();
    }
    [[nodiscard]] uint64_t taint(hir::NetId net) const {
        return engine_.store().get(net, false);
    }
    [[nodiscard]] uint64_t array_taint(hir::NetId net, uint64_t index) const {
        return engine_.store().elems(net)[index];
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
