// One cycle model for shadow-taint execution. A TaintEngine steps a
// shadow sim::NetStore in lock-step with a sim::Simulator through the
// simulator's own schedule: inputs seeded from their labels, registers
// held, the statement walk, the monitor just before the TICK, commit.
// Every expression goes through sim::Simulator::walk, which computes each
// value and its taint together; a compile-time Domain says only what a
// taint means. With W = sim::Walked<Taint> and Env = TaintEnv<Taint>:
//
//   struct Domain {
//       using Taint = ...;  // shadow value of one net or array element
//       using Event = ...;  // aggregate {cycle, net, taint, declared}
//       Taint bottom() const;  // clean: flags(bottom(), l) is false
//       Taint seed(const hir::Net& input, LevelId label) const;
//       // May a decided `&&`, `||` or `?:` skip the operand it does not
//       // need? A skipped `&&`/`||` is bottom(), a skipped `?:` its arm.
//       bool skips(const W& decider) const;
//       // One transfer rule per node kind (a Const is bottom()), given
//       // the node and its walked operands; net, elem (whose index is
//       // already reduced) and downgrade also get the Env. concat is one
//       // step of a left fold over the parts.
//       Taint net(e, env), elem(e, index, idx, env), slice(e, a),
//             unary(e, a), binary(e, a, b), cond(e, guard, b, c),
//             concat(e, Taint high, low_part, Taint low),
//             downgrade(e, a, env);
//       // The control taint inside the taken arm of `if (cond)`.
//       Taint branch(Taint pc, const W& cond) const;
//       // What an Assign writes under control taint `pc`; `index` is the
//       // write index's taint, bottom() for a scalar.
//       Taint written(Taint pc, const hir::Stmt&, Taint rhs, Taint index);
//       // A write of `t` to bits [lv.msb:lv.lsb] of a net tainted `old`.
//       Taint merge_range(Taint old, Taint t, const hir::LValue& lv) const;
//       // Monitor predicate: does a net tainted `t` whose label is
//       // `declared` at the monitored instant violate the policy?
//       bool flags(Taint t, LevelId declared) const;
//   };
//
// verify::TaintTracker (a security level per net) and hunt::TaintSim (a
// taint bit per wire bit) are this engine over their two domains.
#pragma once

#include "sem/hir.hpp"
#include "sim/net_store.hpp"
#include "sim/simulator.hpp"

#include <utility>
#include <vector>

namespace svlc::verify {

/// What a domain's state-reading rules see: the simulator (for
/// eval_label), the shadow store, and the kind of the process being
/// walked (in a sequential process a Downgrade's label takes sequential
/// args at their pending values, Γ(r){r⃗'/r⃗}).
template <typename T>
struct TaintEnv {
    const sim::Simulator& sim;
    const sim::NetStore<T>& store;
    hir::ProcessKind kind;
};

template <typename Domain>
class TaintEngine {
public:
    using Taint = typename Domain::Taint;
    using Event = typename Domain::Event;

    /// Every net and array element starts clean.
    TaintEngine(const hir::Design& design, Domain domain)
        : design_(design), domain_(std::move(domain)) {
        auto clean = [this](const hir::Net&) { return domain_.bottom(); };
        store_.reset(design_, clean, clean);
    }

    /// Advances `sim` and the shadow store by one cycle; *replaces*
    /// sim.step().
    void step(sim::Simulator& sim) {
        // Inputs are (re)seeded from their labels every cycle.
        for (const hir::Net& net : design_.nets)
            if (net.is_input)
                store_.current(net.id) =
                    domain_.seed(net, sim.eval_label(net.label, false));
        store_.hold(design_);

        // Two passes. First the simulator executes the whole schedule, so
        // its pending store holds every register's next-cycle value; then
        // the taint pass replays the schedule against that state, walking
        // each expression once for its value and its taint. The split is
        // safe because the scheduler already orders writers
        // before readers (com dependency order, next()-writers before
        // next()-readers) and rejects same-process next()-reads as
        // comb-loops, so every value the taint pass reads equals what the
        // process itself saw. It is also necessary: a sequential
        // Downgrade's label args are Γ(r){r⃗'/r⃗}, and a pending write
        // staged later in the same process (or schedule) must be visible
        // when the taint pass evaluates them.
        sim.begin_step();
        for (size_t pi : design_.schedule)
            sim.exec_process(pi);
        for (size_t pi : design_.schedule) {
            const hir::Process& p = design_.processes[pi];
            exec(*p.body, domain_.bottom(), {sim, store_, p.kind});
        }

        // Monitor *before* commit: a register's accumulated taint must
        // meet the label it will carry next cycle.
        for (const hir::Net& net : design_.nets) {
            if (net.array_size != 0 || net.is_input)
                continue;
            bool seq = net.kind == hir::NetKind::Seq;
            const Taint& t = store_.get(net.id, seq);
            if (t == domain_.bottom())
                continue; // never flagged: skip evaluating the label
            LevelId declared = sim.eval_label(net.label, seq);
            if (domain_.flags(t, declared))
                events_.push_back({cycle_, net.id, t, declared});
        }
        sim.end_step();
        store_.commit(design_);
        ++cycle_;
    }

    [[nodiscard]] const sim::NetStore<Taint>& store() const { return store_; }
    [[nodiscard]] const std::vector<Event>& events() const { return events_; }

private:
    void exec(const hir::Stmt& s, const Taint& pc, const TaintEnv<Taint>& env) {
        switch (s.kind) {
        case hir::StmtKind::Block:
            for (const auto& st : s.stmts)
                exec(*st, pc, env);
            break;
        case hir::StmtKind::If: {
            // The guard's taint flows into every write of the taken
            // branch (implicit flow through control).
            auto cond = env.sim.walk(*s.cond, domain_, env);
            Taint guard = domain_.branch(pc, cond);
            if (cond.to_bool())
                exec(*s.then_stmt, guard, env);
            else if (s.else_stmt)
                exec(*s.else_stmt, guard, env);
            break;
        }
        case hir::StmtKind::Assign: {
            const hir::Net& net = design_.net(s.lhs.net);
            auto rhs = env.sim.walk(*s.rhs, domain_, env);
            if (net.array_size != 0) {
                auto index = env.sim.walk(*s.lhs.index, domain_, env);
                Taint t = domain_.written(pc, s, rhs.taint, index.taint);
                store_.write_elem(net.id, index.value() % net.array_size, t,
                                  env.kind);
            } else {
                Taint t = domain_.written(pc, s, rhs.taint, domain_.bottom());
                Taint& slot = store_.target(net.id, env.kind);
                slot = s.lhs.has_range ? domain_.merge_range(slot, t, s.lhs)
                                       : t;
            }
            break;
        }
        case hir::StmtKind::Assume:
            break;
        }
    }

    const hir::Design& design_;
    Domain domain_;
    sim::NetStore<Taint> store_;
    std::vector<Event> events_;
    uint64_t cycle_ = 0;
};

} // namespace svlc::verify
