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

/// Records every write of a seq process in program order, with a path
/// that borrows the process's if-conds. Clones nothing.
void record_writes(const Stmt& s, const PathCond* path,
                   std::deque<PathCond>& paths, std::vector<Write>& writes,
                   const Design& design) {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            record_writes(*st, path, paths, writes, design);
        break;
    case StmtKind::If:
        record_writes(*s.then_stmt,
                      &paths.emplace_back(PathCond{s.cond.get(), false, path}),
                      paths, writes, design);
        if (s.else_stmt)
            record_writes(
                *s.else_stmt,
                &paths.emplace_back(PathCond{s.cond.get(), true, path}),
                paths, writes, design);
        break;
    case StmtKind::Assign: {
        const LValue& lhs = s.lhs;
        writes.push_back(
            {lhs.net, path, lhs.index.get(), s.rhs.get(), s.loc,
             !lhs.has_range ||
                 (lhs.lsb == 0 && lhs.msb + 1 == design.net(lhs.net).width),
             lhs.has_range, lhs.msb, lhs.lsb});
        break;
    }
    case StmtKind::Assume:
        break;
    }
}

/// Symbolic executor for one comb process. Walks the body in program
/// order and maintains env: net -> current symbolic value (relative to
/// process entry). A read of a net the process already wrote is
/// substituted by its value (blocking semantics). The path condition is a
/// chain of if-conds, one entry per branch, and is materialized only for
/// an equation, so the cost is linear in the guards built however deep an
/// else-if chain runs.
class SymbolicExec {
public:
    SymbolicExec(const Design& design, const Process& proc)
        : design_(design), proc_(proc),
          self_writes_(proc.writes.begin(), proc.writes.end()) {}

    /// Walks the process and moves the equation of every net it writes
    /// into defs.
    void run(std::vector<ExprPtr>& defs) {
        walk(*proc_.body);
        for (auto& [net, expr] : env_)
            defs[net] = std::move(expr);
    }

private:
    void walk(const Stmt& s) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                walk(*st);
            break;
        case StmtKind::If: {
            // The cond stands for its substituted copy, and its path entry
            // lives in this frame; both last until both branches are
            // walked.
            ExprPtr rewritten = subst(*s.cond);
            PathCond branch{rewritten.get(), false, path_};
            path_ = &branch;
            walk(*s.then_stmt);
            if (s.else_stmt) {
                branch.negated = true;
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
            prev = Expr::make_const(BitVec(n.width, 0), s.loc);
        slot = Expr::make_cond(std::move(g), std::move(rhs), std::move(prev),
                               s.loc);
    }

    const Design& design_;
    const Process& proc_;
    std::set<NetId> self_writes_;
    const PathCond* path_ = nullptr;
    std::unordered_map<NetId, ExprPtr> env_;
    std::set<NetId> partial_;
};

} // namespace

const Expr* Equations::def(NetId n) const {
    if (n >= built_.size())
        return nullptr;
    if (!built_[n]) {
        built_[n] = true;
        uint32_t p = writer_[n];
        if (p != kNoWriter) {
            const Process& proc = design_->processes[p];
            if (proc.kind == ProcessKind::Seq) {
                defs_[n] = fold_writes(n);
            } else {
                SymbolicExec(*design_, proc).run(defs_);
                for (NetId w : proc.writes)
                    built_[w] = true;
            }
            proc_built_[p] = true;
        }
    }
    return defs_[n].get();
}

/// r' from the writes of r in program order: an unconditional write
/// replaces the value so far, a guarded one wraps it in g ? e : prev, and
/// the first guarded write with no value so far holds r (at that write's
/// loc). An array or any indexed or part-select write leaves r without
/// an equation.
ExprPtr Equations::fold_writes(NetId n) const {
    const Net& net = design_->net(n);
    if (net.array_size != 0)
        return nullptr;
    ExprPtr value;
    for (const Write& w : writes(n)) {
        if (w.index || w.ranged)
            return nullptr;
        ExprPtr rhs = w.rhs->clone();
        ExprPtr g = conjoin(w.path);
        if (!g) {
            value = std::move(rhs);
            continue;
        }
        if (!value)
            value = Expr::make_net(n, net.width, false, w.loc); // hold
        value = Expr::make_cond(std::move(g), std::move(rhs),
                                std::move(value), w.loc);
    }
    return value;
}

Equations build_equations(const Design& design) {
    Equations eq;
    size_t nets = design.nets.size();
    eq.design_ = &design;
    eq.free_.resize(nets);
    eq.writer_.assign(nets, Equations::kNoWriter);
    for (const Net& net : design.nets)
        eq.free_[net.id] = net.is_input;
    for (uint32_t p = 0; p < design.processes.size(); ++p) {
        const Process& proc = design.processes[p];
        for (NetId n : proc.writes) {
            eq.free_[n] = false;
            eq.writer_[n] = p;
        }
        if (proc.kind != ProcessKind::Seq)
            continue;
        size_t first = eq.seq_writes_.size();
        record_writes(*proc.body, nullptr, eq.paths_, eq.seq_writes_,
                      design);
        // A process the clearing transform appended has no write set
        // until well-formedness runs again; its recorded writes name
        // their nets.
        for (size_t i = first; i < eq.seq_writes_.size(); ++i)
            eq.writer_[eq.seq_writes_[i].net] = p;
    }
    // Group the writes by net; the sort is stable, so each net's writes
    // stay in program order.
    std::stable_sort(
        eq.seq_writes_.begin(), eq.seq_writes_.end(),
        [](const Write& a, const Write& b) { return a.net < b.net; });
    eq.first_write_.assign(nets + 1, 0);
    for (const Write& w : eq.seq_writes_)
        ++eq.first_write_[w.net + 1];
    std::partial_sum(eq.first_write_.begin(), eq.first_write_.end(),
                     eq.first_write_.begin());
    eq.defs_.resize(nets);
    eq.built_.resize(nets);
    eq.proc_built_.resize(design.processes.size());
    return eq;
}

} // namespace svlc::sem
