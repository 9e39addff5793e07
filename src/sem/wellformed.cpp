#include "sem/wellformed.hpp"

#include <algorithm>
#include <queue>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace svlc::sem {

using namespace hir;

namespace {

void collect_stmt_reads_writes(const Stmt& s, std::set<NetId>& reads,
                               std::set<NetId>& primed,
                               std::set<NetId>& writes) {
    std::vector<NetId> r, p;
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            collect_stmt_reads_writes(*st, reads, primed, writes);
        break;
    case StmtKind::If:
        s.cond->collect_reads(r, p);
        collect_stmt_reads_writes(*s.then_stmt, reads, primed, writes);
        if (s.else_stmt)
            collect_stmt_reads_writes(*s.else_stmt, reads, primed, writes);
        break;
    case StmtKind::Assign:
        s.rhs->collect_reads(r, p);
        if (s.lhs.index)
            s.lhs.index->collect_reads(r, p);
        writes.insert(s.lhs.net);
        break;
    case StmtKind::Assume:
        s.pred->collect_reads(r, p);
        break;
    }
    reads.insert(r.begin(), r.end());
    primed.insert(p.begin(), p.end());
}

/// Definite-assignment walk of a comb process, for latch detection and
/// def-before-use. `assigned` holds nets definitely assigned so far on the
/// current path. (A seq process reads old register values, which are
/// always defined, so it is never walked.)
class DefiniteAssignment {
public:
    DefiniteAssignment(const Design& design, const std::set<NetId>& self_writes,
                       DiagnosticEngine& diags)
        : design_(design), self_writes_(self_writes), diags_(diags) {}

    std::set<NetId> walk(const Stmt& s, std::set<NetId> assigned) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                assigned = walk(*st, std::move(assigned));
            return assigned;
        case StmtKind::If: {
            check_reads(*s.cond, assigned);
            std::set<NetId> then_set = walk(*s.then_stmt, assigned);
            std::set<NetId> else_set =
                s.else_stmt ? walk(*s.else_stmt, assigned) : assigned;
            std::set<NetId> merged;
            std::set_intersection(then_set.begin(), then_set.end(),
                                  else_set.begin(), else_set.end(),
                                  std::inserter(merged, merged.begin()));
            return merged;
        }
        case StmtKind::Assign:
            check_reads(*s.rhs, assigned);
            if (s.lhs.index)
                check_reads(*s.lhs.index, assigned);
            // Partial (range/element) writes still count toward coverage
            // at net granularity.
            assigned.insert(s.lhs.net);
            return assigned;
        case StmtKind::Assume:
            check_reads(*s.pred, assigned);
            return assigned;
        }
        return assigned;
    }

private:
    void check_reads(const Expr& e, const std::set<NetId>& assigned) {
        std::vector<NetId> plain, primed;
        e.collect_reads(plain, primed);
        for (NetId n : plain) {
            if (self_writes_.count(n) && !assigned.count(n))
                diags_.error(DiagCode::InferredLatch, e.loc,
                             "combinational net '" + design_.net(n).name +
                                 "' read before it is assigned in this "
                                 "process");
        }
    }

    const Design& design_;
    const std::set<NetId>& self_writes_;
    DiagnosticEngine& diags_;
};

bool check_label_wellformed(Design& design, DiagnosticEngine& diags) {
    bool ok = true;
    const SecurityPolicy& policy = design.policy;
    // Per-net argument checks.
    for (const Net& net : design.nets) {
        for (const LabelAtom& atom : net.label.atoms) {
            if (atom.kind != LabelAtom::Kind::Func)
                continue;
            const LabelFunction& fn = policy.function(atom.func);
            if (atom.args.size() != fn.arity()) {
                diags.error(DiagCode::BadLabelFunctionArity, net.loc,
                            "label of '" + net.name + "' applies '" +
                                fn.name() + "' with wrong arity");
                ok = false;
                continue;
            }
            for (size_t i = 0; i < atom.args.size(); ++i) {
                const Net& arg = design.net(atom.args[i]);
                if (arg.id == net.id) {
                    diags.error(DiagCode::SelfReferentialLabel, net.loc,
                                "label of '" + net.name +
                                    "' depends on itself");
                    ok = false;
                }
                if (arg.width != fn.arg_widths()[i]) {
                    diags.error(DiagCode::WidthMismatch, net.loc,
                                "label argument '" + arg.name + "' has width " +
                                    std::to_string(arg.width) +
                                    " but function '" + fn.name() +
                                    "' expects " +
                                    std::to_string(fn.arg_widths()[i]));
                    ok = false;
                }
            }
        }
    }
    // Dependency-graph acyclicity over label dependencies.
    // Edge n -> m when the label of n depends on net m.
    std::vector<int> state(design.nets.size(), 0); // 0 new, 1 open, 2 done
    std::vector<NetId> stack;
    bool cyclic = false;
    auto dfs = [&](auto&& self, NetId n) -> void {
        if (state[n] == 2 || cyclic)
            return;
        if (state[n] == 1) {
            cyclic = true;
            return;
        }
        state[n] = 1;
        for (NetId dep : design.net(n).label.dependencies())
            self(self, dep);
        state[n] = 2;
    };
    for (const Net& net : design.nets) {
        dfs(dfs, net.id);
        if (cyclic) {
            diags.error(DiagCode::LabelDependencyCycle, net.loc,
                        "cyclic dependency through the label of '" +
                            net.name + "'");
            return false;
        }
    }
    return ok;
}

} // namespace

bool analyze_wellformed(Design& design, DiagnosticEngine& diags) {
    size_t initial_errors = diags.error_count();

    // ------------------------------------------------------------------
    // Pass 1: per-process read/write sets.
    // ------------------------------------------------------------------
    for (Process& proc : design.processes) {
        std::set<NetId> reads, primed, writes;
        collect_stmt_reads_writes(*proc.body, reads, primed, writes);
        proc.writes.assign(writes.begin(), writes.end());
        // In-process-written nets are not scheduling inputs (def-before-use
        // is checked separately).
        std::vector<NetId> external_reads;
        for (NetId n : reads)
            if (!writes.count(n))
                external_reads.push_back(n);
        proc.reads = std::move(external_reads);
        proc.primed_reads.assign(primed.begin(), primed.end());
    }

    // ------------------------------------------------------------------
    // Pass 2: single-driver + kind consistency.
    // ------------------------------------------------------------------
    std::vector<int> writer(design.nets.size(), -1);
    for (size_t pi = 0; pi < design.processes.size(); ++pi) {
        const Process& proc = design.processes[pi];
        for (NetId n : proc.writes) {
            if (writer[n] >= 0) {
                diags.error(DiagCode::MultipleDrivers,
                            design.net(n).loc,
                            "net '" + design.net(n).name +
                                "' is driven by multiple processes");
            } else {
                writer[n] = static_cast<int>(pi);
            }
        }
    }
    // Every read com net must be driven (or be a primary input).
    std::vector<bool> read_anywhere(design.nets.size(), false);
    for (const Process& proc : design.processes) {
        for (NetId n : proc.reads)
            read_anywhere[n] = true;
        for (NetId n : proc.primed_reads)
            read_anywhere[n] = true;
    }
    for (const Net& net : design.nets) {
        if (net.kind == NetKind::Com && read_anywhere[net.id] &&
            writer[net.id] < 0 && !net.is_input) {
            diags.error(DiagCode::InferredLatch, net.loc,
                        "combinational net '" + net.name +
                            "' is read but never driven");
        }
    }

    // ------------------------------------------------------------------
    // Pass 3: latch check (definite assignment) + def-before-use, for
    // comb processes.
    // ------------------------------------------------------------------
    for (const Process& proc : design.processes) {
        if (proc.kind != ProcessKind::Comb)
            continue;
        std::set<NetId> writes(proc.writes.begin(), proc.writes.end());
        DefiniteAssignment da(design, writes, diags);
        std::set<NetId> assigned = da.walk(*proc.body, {});
        for (NetId n : proc.writes) {
            if (!assigned.count(n))
                diags.error(DiagCode::InferredLatch, design.net(n).loc,
                            "combinational net '" + design.net(n).name +
                                "' is not assigned on every path "
                                "(inferred latch)");
        }
    }

    // ------------------------------------------------------------------
    // Pass 4: unified dependency graph + topological schedule.
    // Edges: writer(com net) -> reader; writer(seq net) -> primed reader.
    // ------------------------------------------------------------------
    size_t np = design.processes.size();
    std::vector<std::vector<size_t>> succ(np);
    std::vector<size_t> indegree(np, 0);
    auto add_edge = [&](size_t from, size_t to) {
        succ[from].push_back(to);
        ++indegree[to];
    };
    for (size_t pi = 0; pi < np; ++pi) {
        const Process& proc = design.processes[pi];
        for (NetId n : proc.reads) {
            if (design.net(n).kind != NetKind::Com)
                continue; // current-cycle register reads break cycles
            if (writer[n] >= 0 && static_cast<size_t>(writer[n]) != pi)
                add_edge(static_cast<size_t>(writer[n]), pi);
        }
        for (NetId n : proc.primed_reads) {
            if (writer[n] < 0)
                continue; // r' of an unwritten register is just r
            if (static_cast<size_t>(writer[n]) == pi) {
                diags.error(DiagCode::CombLoop, proc.loc,
                            "process reads next(" + design.net(n).name +
                                ") while computing it");
                continue;
            }
            add_edge(static_cast<size_t>(writer[n]), pi);
        }
    }
    std::queue<size_t> ready;
    for (size_t pi = 0; pi < np; ++pi)
        if (indegree[pi] == 0)
            ready.push(pi);
    std::vector<size_t> order;
    order.reserve(np);
    while (!ready.empty()) {
        size_t pi = ready.front();
        ready.pop();
        order.push_back(pi);
        for (size_t s : succ[pi])
            if (--indegree[s] == 0)
                ready.push(s);
    }
    if (order.size() != np) {
        // Report the nets involved in some cycle.
        std::string nets_in_cycle;
        for (size_t pi = 0; pi < np; ++pi) {
            if (indegree[pi] == 0)
                continue;
            for (NetId n : design.processes[pi].writes) {
                if (!nets_in_cycle.empty())
                    nets_in_cycle += ", ";
                nets_in_cycle += design.net(n).name;
                if (nets_in_cycle.size() > 120) {
                    nets_in_cycle += ", ...";
                    break;
                }
            }
            if (nets_in_cycle.size() > 120)
                break;
        }
        diags.error(DiagCode::CombLoop, {},
                    "combinational loop through: " + nets_in_cycle);
    } else {
        design.schedule = std::move(order);
    }

    // ------------------------------------------------------------------
    // Pass 5: label well-formedness.
    // ------------------------------------------------------------------
    check_label_wellformed(design, diags);

    return diags.error_count() == initial_errors;
}

} // namespace svlc::sem
