#include "xform/clearing.hpp"

#include "sem/updates.hpp"

#include <cassert>

namespace svlc::xform {

using namespace hir;

namespace {

uint32_t level_bits(const Lattice& lat) {
    uint32_t bits = 1;
    while ((uint64_t{1} << bits) < lat.size())
        ++bits;
    return bits;
}

/// Expression for one label-function application's level, given argument
/// expressions: a chain of equality muxes over the entry table.
ExprPtr function_level_expr(const LabelFunction& fn, uint32_t bits,
                            std::vector<ExprPtr> args) {
    ExprPtr chain = Expr::make_const(BitVec(bits, fn.default_level()));
    // Later entries wrap earlier ones; order is irrelevant because the
    // table is keyed on exact values.
    for (const auto& entry : fn.entries()) {
        ExprPtr match;
        for (size_t i = 0; i < entry.args.size(); ++i) {
            ExprPtr cmp = Expr::make_binary(
                BinaryOp::Eq, args[i]->clone(),
                Expr::make_const(
                    BitVec(fn.arg_widths()[i], entry.args[i])));
            match = match ? Expr::make_binary(BinaryOp::LogAnd,
                                              std::move(match), std::move(cmp))
                          : std::move(cmp);
        }
        chain = Expr::make_cond(std::move(match),
                                Expr::make_const(BitVec(bits, entry.level)),
                                std::move(chain));
    }
    return chain;
}

} // namespace

ExprPtr materialize_label_level(const Design& design, const Label& label,
                                bool next_cycle) {
    const Lattice& lat = design.policy.lattice();
    uint32_t bits = level_bits(lat);
    sem::Equations eqs;
    if (next_cycle)
        eqs = sem::build_equations(design);

    // The level of a join is the lattice join of atom levels; with a
    // two-point (or any totally ordered) lattice encoded in ascending
    // order, max() coincides with join. For general lattices we emit a
    // table-free approximation using max over level ids, which is exact
    // for the policies used in this repository (chains). Document: the
    // synthesis model only needs a monotone size-accurate circuit.
    ExprPtr acc;
    for (const auto& atom : label.atoms) {
        ExprPtr lvl;
        if (atom.kind == LabelAtom::Kind::Level) {
            lvl = Expr::make_const(BitVec(bits, atom.level));
        } else {
            const LabelFunction& fn = design.policy.function(atom.func);
            std::vector<ExprPtr> args;
            for (NetId arg : atom.args) {
                const Net& argnet = design.net(arg);
                if (next_cycle && argnet.kind == NetKind::Seq) {
                    const Expr* def = eqs.def(arg);
                    args.push_back(def ? def->clone()
                                       : Expr::make_net(arg, argnet.width));
                } else {
                    args.push_back(Expr::make_net(arg, argnet.width));
                }
            }
            lvl = function_level_expr(fn, bits, std::move(args));
        }
        if (!acc) {
            acc = std::move(lvl);
        } else {
            // max(acc, lvl)
            ExprPtr cmp = Expr::make_binary(BinaryOp::Ge, acc->clone(),
                                            lvl->clone());
            acc = Expr::make_cond(std::move(cmp), std::move(acc),
                                  std::move(lvl));
        }
    }
    if (!acc)
        acc = Expr::make_const(BitVec(bits, lat.bottom()));
    return acc;
}

ClearingReport apply_dynamic_clearing(Design& design) {
    ClearingReport report;
    // Processes gain clears and new processes land at the end, so the
    // instance ranges no longer hold: the checker falls back to checking
    // the flattened design alone.
    design.instances.clear();

    // Find (or create) the driving process of each dynamic register and
    // append the clearing logic at the end (highest priority).
    for (const Net& net_ref : design.nets) {
        NetId net = net_ref.id;
        const Net& net_info = design.net(net);
        if (net_info.kind != NetKind::Seq || net_info.label.is_static())
            continue;

        // Build the "label changed" condition.
        ExprPtr cur = materialize_label_level(design, net_info.label,
                                              /*next_cycle=*/false);
        ExprPtr nxt = materialize_label_level(design, net_info.label,
                                              /*next_cycle=*/true);
        ExprPtr changed = Expr::make_binary(BinaryOp::Ne, std::move(cur),
                                            std::move(nxt));

        // Build the clear statement(s).
        auto make_clear = [&](ExprPtr index) {
            auto st = std::make_unique<Stmt>();
            st->kind = StmtKind::Assign;
            st->loc = net_info.loc;
            st->lhs.net = net;
            st->lhs.index = std::move(index);
            st->lhs.loc = net_info.loc;
            st->rhs = Expr::make_const(BitVec(net_info.width, 0));
            ++report.inserted_writes;
            return st;
        };
        auto guard = std::make_unique<Stmt>();
        guard->kind = StmtKind::If;
        guard->loc = net_info.loc;
        guard->cond = std::move(changed);
        auto body = std::make_unique<Stmt>();
        body->kind = StmtKind::Block;
        body->loc = net_info.loc;
        if (net_info.array_size == 0) {
            body->stmts.push_back(make_clear(nullptr));
        } else {
            for (uint32_t i = 0; i < net_info.array_size; ++i)
                body->stmts.push_back(
                    make_clear(Expr::make_const(BitVec(32, i))));
        }
        guard->then_stmt = std::move(body);

        // Append to the driving process, or create a fresh one.
        Process* driver = nullptr;
        for (Process& proc : design.processes) {
            for (NetId w : proc.writes)
                if (w == net)
                    driver = &proc;
        }
        if (driver != nullptr) {
            if (driver->body->kind == StmtKind::Block) {
                driver->body->stmts.push_back(std::move(guard));
            } else {
                auto blk = std::make_unique<Stmt>();
                blk->kind = StmtKind::Block;
                blk->loc = driver->body->loc;
                blk->stmts.push_back(std::move(driver->body));
                blk->stmts.push_back(std::move(guard));
                driver->body = std::move(blk);
            }
        } else {
            Process proc;
            proc.kind = ProcessKind::Seq;
            proc.loc = net_info.loc;
            proc.body = std::move(guard);
            design.processes.push_back(std::move(proc));
        }
        report.cleared.push_back(net);
    }
    return report;
}

} // namespace svlc::xform
