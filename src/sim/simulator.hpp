// Cycle-accurate interpreter implementing the paper's small-step program
// semantics (Fig. 6): each cycle, every process is evaluated once in
// dependency order — combinational processes update current-cycle values,
// sequential processes compute the next-cycle values r' — and the TICK
// rule then commits every r' into r.
#pragma once

#include "sem/hir.hpp"
#include "sim/net_store.hpp"
#include "support/bitvec.hpp"

#include <functional>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

namespace svlc::sim {

struct AssumeViolation {
    uint64_t cycle;
    SourceLoc loc;
};

/// Raised by expression evaluation on malformed HIR (e.g. an array read
/// from a scalar net); callers surface it as a diagnostic rather than
/// letting the interpreter hit undefined behavior.
class SimError : public std::runtime_error {
public:
    explicit SimError(const std::string& what) : std::runtime_error(what) {}
};

class Simulator {
public:
    explicit Simulator(const hir::Design& design);

    /// Re-applies initial values (declared initializers; zero otherwise)
    /// and resets the cycle counter.
    void reset();

    /// Drives a primary input for subsequent cycles (until overwritten).
    void set_input(hir::NetId net, BitVec value);
    void set_input(const std::string& name, uint64_t value);

    /// Testbench back-doors: directly set register / memory state (used
    /// to load program images and preset architectural state).
    void poke(hir::NetId net, BitVec value);
    void poke(const std::string& name, uint64_t value);
    void poke_elem(hir::NetId net, uint64_t index, BitVec value);
    void poke_elem(const std::string& name, uint64_t index, uint64_t value);

    /// Evaluates one full clock cycle: all processes in schedule order,
    /// then the TICK commit.
    void step();
    void run(uint64_t cycles);
    /// Re-evaluates combinational processes only (no register commit);
    /// useful for observing outputs as a function of the latest register
    /// state or freshly-set inputs.
    void settle();

    /// Phased stepping for lock-step co-simulation (e.g. the taint
    /// tracker): begin_step(); exec_process(i) for each i in
    /// design.schedule; end_step(). step() is exactly this sequence.
    void begin_step();
    void exec_process(size_t process_index);
    void end_step();

    /// Evaluates an arbitrary HIR expression against the current
    /// (possibly mid-step) state.
    [[nodiscard]] BitVec evaluate(const hir::Expr& e) const { return eval(e); }

    [[nodiscard]] BitVec get(hir::NetId net) const;
    [[nodiscard]] BitVec get(const std::string& name) const;
    [[nodiscard]] BitVec get_elem(hir::NetId net, uint64_t index) const;
    [[nodiscard]] BitVec get_elem(const std::string& name,
                                  uint64_t index) const;
    /// The pending next-cycle value of a register (valid after the
    /// processes ran in the current step; equals get() between steps).
    [[nodiscard]] BitVec get_next(hir::NetId net) const;

    /// Evaluates a label on the live state: each dependent part applies
    /// its function to the argument nets' values, sequential arguments
    /// taking their pending values iff `next` — Γ(r){r⃗'/r⃗}. The one label
    /// evaluator: the dynamic monitor, the taint engines' input seeding
    /// and Downgrade rules, and the noninterference tester all use it.
    [[nodiscard]] LevelId eval_label(const hir::Label& label, bool next) const;
    /// The label a net carries now.
    [[nodiscard]] LevelId current_label(hir::NetId net) const {
        return eval_label(design_.net(net).label, false);
    }
    /// The label the net will carry after the next TICK.
    [[nodiscard]] LevelId next_label(hir::NetId net) const {
        return eval_label(design_.net(net).label, true);
    }

    [[nodiscard]] uint64_t cycle() const { return cycle_; }
    [[nodiscard]] const std::vector<AssumeViolation>& violations() const {
        return violations_;
    }
    [[nodiscard]] const hir::Design& design() const { return design_; }

private:
    /// The net named `name`; throws std::invalid_argument if none is.
    hir::NetId net_id(const std::string& name) const;
    BitVec eval(const hir::Expr& e) const;
    void exec(const hir::Stmt& s, hir::ProcessKind kind);
    void write_scalar(hir::NetId net, const hir::LValue& lv, BitVec value,
                      hir::ProcessKind kind);

    const hir::Design& design_;
    NetStore<BitVec> store_;
    uint64_t cycle_ = 0;
    std::vector<AssumeViolation> violations_;
};

} // namespace svlc::sim
