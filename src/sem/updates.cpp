#include "sem/updates.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>

namespace svlc::sem {

using namespace hir;

namespace {

/// Walks a process body in program order, calling assign() at every
/// assignment. The path condition is kept as a stack of borrowed if-conds,
/// each as written or negated (else branch), and copied only when
/// guard() is asked for it, so the cost is linear in the guards built
/// however deep an else-if chain runs.
class GuardedWalk {
public:
    void walk(const Stmt& s) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                walk(*st);
            break;
        case StmtKind::If: {
            ExprPtr rewritten = rewrite(*s.cond);
            conds_.push_back({rewritten ? rewritten.get() : s.cond.get()});
            walk(*s.then_stmt);
            conds_.back().negated = true;
            if (s.else_stmt)
                walk(*s.else_stmt);
            conds_.pop_back();
            break;
        }
        case StmtKind::Assign:
            assign(s);
            break;
        case StmtKind::Assume:
            break;
        }
    }

protected:
    virtual void assign(const Stmt& s) = 0;
    /// What an if-cond stands for, if not the cond as written; the result
    /// lives until both branches are walked.
    virtual ExprPtr rewrite(const Expr& /*cond*/) { return nullptr; }

    /// The left-folded conjunction ((g1 && g2) && ...) && gn of the path
    /// condition, or null (= true) outside any if. A negation keeps its
    /// cond's loc and each LogAnd its left operand's (else the right's),
    /// so facts built from guards stay resolvable in diagnostics.
    [[nodiscard]] ExprPtr guard() const {
        ExprPtr out;
        for (const auto& [cond, negated] : conds_) {
            ExprPtr g = negated ? Expr::make_unary(UnaryOp::LogNot,
                                                   cond->clone(), cond->loc)
                                : cond->clone();
            if (out) {
                SourceLoc loc = out->loc.valid() ? out->loc : g->loc;
                g = Expr::make_binary(BinaryOp::LogAnd, std::move(out),
                                      std::move(g), loc);
            }
            out = std::move(g);
        }
        return out;
    }

private:
    struct Cond {
        const Expr* expr;
        bool negated = false;
    };
    std::vector<Cond> conds_;
};

/// Symbolic executor for one process. Maintains env: net -> current
/// symbolic value (relative to process entry). Reads of nets the process
/// itself writes are substituted in combinational processes (blocking
/// semantics); in sequential processes reads always see pre-tick values,
/// so no substitution happens.
class SymbolicExec : public GuardedWalk {
public:
    SymbolicExec(const Design& design, const Process& proc)
        : design_(design), proc_(proc),
          self_writes_(proc.writes.begin(), proc.writes.end()) {}

    std::unordered_map<NetId, ExprPtr> run() {
        walk(*proc_.body);
        return std::move(env_);
    }

private:
    ExprPtr rewrite(const Expr& cond) override {
        return proc_.kind == ProcessKind::Seq ? nullptr : subst(cond);
    }

    ExprPtr subst(const Expr& e) {
        ExprPtr out = e.clone();
        if (proc_.kind == ProcessKind::Comb) // seq reads see old values
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

    void assign(const Stmt& s) override {
        NetId net = s.lhs.net;
        const Net& n = design_.net(net);
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
        ExprPtr g = guard();
        ExprPtr& slot = env_[net];
        if (!g) {
            slot = std::move(rhs);
            return;
        }
        ExprPtr prev = std::move(slot);
        if (!prev)
            prev = proc_.kind == ProcessKind::Seq
                       ? Expr::make_net(net, n.width, false, s.loc) // hold
                       : Expr::make_const(BitVec(n.width, 0), s.loc);
        slot = Expr::make_cond(std::move(g), std::move(rhs), std::move(prev),
                               s.loc);
    }

    const Design& design_;
    const Process& proc_;
    std::set<NetId> self_writes_;
    std::unordered_map<NetId, ExprPtr> env_;
    std::set<NetId> partial_;
};

/// Collects the guarded writes of one net, guards as written.
class WriteCollector : public GuardedWalk {
public:
    WriteCollector(NetId target, std::vector<GuardedWrite>& out)
        : target_(target), out_(out) {}

private:
    void assign(const Stmt& s) override {
        if (s.lhs.net != target_)
            return;
        out_.push_back({guard(),
                        s.lhs.index ? s.lhs.index->clone() : nullptr,
                        s.rhs.get(), s.node_id, s.loc});
    }

    NetId target_;
    std::vector<GuardedWrite>& out_;
};

} // namespace

Equations build_equations(const Design& design) {
    Equations eq;
    eq.defs.resize(design.nets.size());
    for (const Process& proc : design.processes)
        for (auto& [net, expr] : SymbolicExec(design, proc).run())
            eq.defs[net] = std::move(expr);
    return eq;
}

std::vector<GuardedWrite> guarded_writes(const Design& design, NetId net) {
    std::vector<GuardedWrite> out;
    for (const Process& proc : design.processes)
        if (std::count(proc.writes.begin(), proc.writes.end(), net))
            WriteCollector(net, out).walk(*proc.body);
    return out;
}

} // namespace svlc::sem
