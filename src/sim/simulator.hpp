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
#include <type_traits>
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

/// A value Simulator::walk computed (the BitVec base) with the shadow
/// taint the walk carried alongside it.
template <typename Taint, bool = std::is_empty_v<Taint>>
struct Walked : BitVec {
    Taint taint;
};

/// The concrete walk's taint is empty and is not stored: there a Walked
/// is a bare BitVec, returned in registers like one.
template <typename Taint>
struct Walked<Taint, true> : BitVec {
    Walked(BitVec value, Taint) : BitVec(value) {}
    static constexpr Taint taint{};
};

/// The concrete walk's shadow: no taint, and a decided `&&`, `||` or
/// `?:` always skips the operand it does not need.
struct Concrete {
    struct Taint {};
    static bool skips(const auto&) { return true; }
    static Taint bottom() { return {}; }
    static Taint net(const auto&...) { return {}; }
    static Taint elem(const auto&...) { return {}; }
    static Taint slice(const auto&...) { return {}; }
    static Taint unary(const auto&...) { return {}; }
    static Taint binary(const auto&...) { return {}; }
    static Taint cond(const auto&...) { return {}; }
    static Taint concat(const auto&...) { return {}; }
    static Taint downgrade(const auto&...) { return {}; }
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

    /// The one expression walker: evaluates `e` against the current
    /// (possibly mid-step) state. It alone decides expression structure:
    /// leaf reads, an array index taken modulo the array size (a primed
    /// read sees this cycle's staged writes), slices, concatenation, the
    /// operator table, the `&&`/`||` short circuit and the `?:` arm
    /// choice. A Shadow adds a taint to every value through one transfer
    /// rule per node kind and says whether a decided operator may skip
    /// the operand it does not need (contract: verify/taint_engine.hpp).
    template <typename Shadow, typename... Env>
    [[nodiscard]] Walked<typename Shadow::Taint>
    walk(const hir::Expr& e, const Shadow& sh, const Env&... env) const;

    [[nodiscard]] BitVec get(hir::NetId net) const;
    [[nodiscard]] BitVec get(const std::string& name) const;
    [[nodiscard]] BitVec get_elem(hir::NetId net, uint64_t index) const;
    [[nodiscard]] BitVec get_elem(const std::string& name,
                                  uint64_t index) const;

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

    [[nodiscard]] uint64_t cycle() const { return cycle_; }
    [[nodiscard]] const std::vector<AssumeViolation>& violations() const {
        return violations_;
    }
    [[nodiscard]] const hir::Design& design() const { return design_; }

private:
    /// The net named `name`; throws std::invalid_argument if none is.
    hir::NetId net_id(const std::string& name) const;
    BitVec eval(const hir::Expr& e) const { return walk(e, Concrete{}); }
    void exec(const hir::Stmt& s, hir::ProcessKind kind);
    void write_scalar(hir::NetId net, const hir::LValue& lv, BitVec value,
                      hir::ProcessKind kind);

    const hir::Design& design_;
    NetStore<BitVec> store_;
    uint64_t cycle_ = 0;
    std::vector<AssumeViolation> violations_;
};

template <typename Shadow, typename... Env>
Walked<typename Shadow::Taint> Simulator::walk(const hir::Expr& e,
                                               const Shadow& sh,
                                               const Env&... env) const {
    using hir::BinaryOp;
    using hir::ExprKind;
    switch (e.kind) {
    case ExprKind::Const:
        return {e.value, sh.bottom()};
    case ExprKind::NetRef:
        return {store_.get(e.net, e.primed), sh.net(e, env...)};
    case ExprKind::ArrayRead: {
        auto index = walk(*e.index, sh, env...);
        size_t size = store_.elems(e.net).size();
        if (size == 0)
            throw SimError("array read from non-array net '" +
                           design_.net(e.net).name + "'");
        uint64_t idx = index.value() % size;
        return {store_.elem(e.net, idx, e.primed),
                sh.elem(e, index, idx, env...)};
    }
    case ExprKind::Slice: {
        auto a = walk(*e.a, sh, env...);
        return {a.slice(e.msb, e.lsb), sh.slice(e, a)};
    }
    case ExprKind::Unary: {
        auto a = walk(*e.a, sh, env...);
        return {ast::eval_unary(e.un_op, a), sh.unary(e, a)};
    }
    case ExprKind::Binary: {
        auto a = walk(*e.a, sh, env...);
        // A decided `&&` or `||` skips its right operand when the shadow
        // lets it; the result is then clean.
        if (((e.bin_op == BinaryOp::LogAnd && !a.to_bool()) ||
             (e.bin_op == BinaryOp::LogOr && a.to_bool())) &&
            sh.skips(a))
            return {BitVec(1, a.to_bool()), sh.bottom()};
        auto b = walk(*e.b, sh, env...);
        return {ast::eval_binary(e.bin_op, a, b), sh.binary(e, a, b)};
    }
    case ExprKind::Cond: {
        auto guard = walk(*e.a, sh, env...);
        if (sh.skips(guard))
            return walk(guard.to_bool() ? *e.b : *e.c, sh, env...);
        auto b = walk(*e.b, sh, env...);
        auto c = walk(*e.c, sh, env...);
        return {guard.to_bool() ? b : c, sh.cond(e, guard, b, c)};
    }
    case ExprKind::Concat: {
        auto acc = walk(*e.parts.front(), sh, env...);
        for (size_t i = 1; i < e.parts.size(); ++i) {
            auto low = walk(*e.parts[i], sh, env...);
            acc = {acc.concat(low),
                   sh.concat(e, acc.taint, *e.parts[i], low.taint)};
        }
        return acc;
    }
    case ExprKind::Downgrade: {
        auto a = walk(*e.a, sh, env...);
        return {a, sh.downgrade(e, a, env...)};
    }
    }
    throw SimError("unknown expression kind");
}

} // namespace svlc::sim
