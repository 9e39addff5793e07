#include "sem/updates.hpp"

#include <algorithm>
#include <numeric>
#include <set>
#include <unordered_map>

namespace svlc::sem {

using namespace hir;

ExprPtr conjoin(const PathCond* path) {
    if (!path)
        return nullptr;
    ExprPtr out = conjoin(path->outer);
    const Expr& cond = *path->cond;
    ExprPtr g = path->negated ? Expr::make_unary(UnaryOp::LogNot,
                                                 cond.clone(), cond.loc)
                              : cond.clone();
    if (!out)
        return g;
    SourceLoc loc = out->loc.valid() ? out->loc : g->loc;
    return Expr::make_binary(BinaryOp::LogAnd, std::move(out), std::move(g),
                             loc);
}

namespace {

/// Symbolic executor for one process. Walks the body in program order
/// and maintains env: net -> current symbolic value (relative to process
/// entry). Reads of nets the process itself writes are substituted in
/// combinational processes (blocking semantics); in sequential processes
/// reads always see pre-tick values, so no substitution happens, and each
/// write is recorded. The path condition is a chain of borrowed if-conds,
/// one entry per branch, and is materialized only for an equation, so the
/// cost is linear in the guards built however deep an else-if chain runs.
class SymbolicExec {
public:
    SymbolicExec(const Design& design, const Process& proc, Equations& eq)
        : design_(design), proc_(proc), eq_(eq),
          seq_(proc.kind == ProcessKind::Seq),
          self_writes_(proc.writes.begin(), proc.writes.end()) {}

    void run() {
        walk(*proc_.body);
        for (auto& [net, expr] : env_)
            eq_.defs[net] = std::move(expr);
    }

private:
    void walk(const Stmt& s) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                walk(*st);
            break;
        case StmtKind::If: {
            // A comb cond stands for its substituted copy, and its path
            // entry lives in this frame; both last until both branches are
            // walked. A seq entry is kept for the recorded writes.
            ExprPtr rewritten = seq_ ? nullptr : subst(*s.cond);
            PathCond branch{rewritten ? rewritten.get() : s.cond.get(), false,
                            path_};
            auto enter = [&] {
                path_ = seq_ ? &eq_.paths.emplace_back(branch) : &branch;
            };
            enter();
            walk(*s.then_stmt);
            if (s.else_stmt) {
                branch.negated = true;
                enter();
                walk(*s.else_stmt);
            }
            path_ = branch.outer;
            break;
        }
        case StmtKind::Assign:
            assign(s);
            break;
        case StmtKind::Assume:
            break;
        }
    }

    ExprPtr subst(const Expr& e) {
        ExprPtr out = e.clone();
        if (!seq_) // seq reads see old values
            substitute_reads(out);
        return out;
    }

    /// Replaces, in place, each read of a net this process already wrote
    /// by the net's current value.
    void substitute_reads(ExprPtr& e) {
        if (e->kind == ExprKind::NetRef) {
            if (!e->primed && self_writes_.count(e->net)) {
                auto it = env_.find(e->net);
                // Read-before-write is rejected by well-formedness; keep
                // the plain reference there to stay total.
                if (it != env_.end())
                    e = it->second->clone();
            }
            return;
        }
        for (ExprPtr* child : {&e->index, &e->a, &e->b, &e->c})
            if (*child)
                substitute_reads(*child);
        for (auto& p : e->parts)
            substitute_reads(p);
    }

    void assign(const Stmt& s) {
        NetId net = s.lhs.net;
        const Net& n = design_.net(net);
        if (seq_)
            eq_.seq_writes.push_back(
                {net, path_, s.lhs.index.get(), s.rhs.get(), s.loc,
                 !s.lhs.has_range ||
                     (s.lhs.lsb == 0 && s.lhs.msb + 1 == n.width)});
        if (n.array_size != 0 || s.lhs.index || s.lhs.has_range) {
            // Array-element and part-select targets do not produce
            // whole-net equations; mark the net as equation-less.
            partial_.insert(net);
            env_.erase(net);
            return;
        }
        if (partial_.count(net))
            return;
        ExprPtr rhs = subst(*s.rhs);
        ExprPtr g = conjoin(path_);
        ExprPtr& slot = env_[net];
        if (!g) {
            slot = std::move(rhs);
            return;
        }
        ExprPtr prev = std::move(slot);
        if (!prev)
            prev = seq_ ? Expr::make_net(net, n.width, false, s.loc) // hold
                        : Expr::make_const(BitVec(n.width, 0), s.loc);
        slot = Expr::make_cond(std::move(g), std::move(rhs), std::move(prev),
                               s.loc);
    }

    const Design& design_;
    const Process& proc_;
    Equations& eq_;
    bool seq_;
    std::set<NetId> self_writes_;
    const PathCond* path_ = nullptr;
    std::unordered_map<NetId, ExprPtr> env_;
    std::set<NetId> partial_;
};

} // namespace

Equations build_equations(const Design& design) {
    Equations eq;
    eq.defs.resize(design.nets.size());
    eq.free.resize(design.nets.size());
    for (const Net& net : design.nets)
        eq.free[net.id] = net.is_input;
    for (const Process& proc : design.processes) {
        for (NetId n : proc.writes)
            eq.free[n] = false;
        SymbolicExec(design, proc, eq).run();
    }
    // Group the writes by net; the sort is stable, so each net's writes
    // stay in program order.
    std::stable_sort(
        eq.seq_writes.begin(), eq.seq_writes.end(),
        [](const Write& a, const Write& b) { return a.net < b.net; });
    eq.first_write.assign(design.nets.size() + 1, 0);
    for (const Write& w : eq.seq_writes)
        ++eq.first_write[w.net + 1];
    std::partial_sum(eq.first_write.begin(), eq.first_write.end(),
                     eq.first_write.begin());
    return eq;
}

} // namespace svlc::sem
