#include "check/typecheck.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <span>
#include <string_view>
#include <unordered_map>

namespace svlc::check {

const char* obligation_kind_name(ObligationKind kind) {
    switch (kind) {
    case ObligationKind::CombAssign:
        return "com";
    case ObligationKind::SeqAssign:
        return "seq";
    case ObligationKind::Hold:
        return "hold";
    }
    return "com";
}

using namespace hir;
using solver::EntailmentEngine;
using solver::EntailResult;
using solver::EntailStatus;
using solver::SolverLabel;

namespace {

/// True when `outer` is `p` or one of its enclosing paths. The null path
/// encloses every path.
bool encloses(const sem::PathCond* outer, const sem::PathCond* p) {
    for (; p; p = p->outer)
        if (p == outer)
            return true;
    return outer == nullptr;
}

/// True when part-selects alone write every bit of a `width`-bit register
/// on path `p`: the writes on `p` and on the paths enclosing it cover
/// [width-1:0] and none of them is a whole write (whose own guard already
/// implies `p`).
bool part_selects_cover(std::span<const sem::Write> writes,
                        const sem::PathCond* p, uint32_t width) {
    std::vector<std::pair<uint32_t, uint32_t>> ranges; // [lsb, msb]
    for (const sem::Write& w : writes) {
        if (!encloses(w.path, p))
            continue;
        if (w.whole)
            return false;
        ranges.emplace_back(w.lsb, w.msb);
    }
    std::sort(ranges.begin(), ranges.end());
    uint32_t covered = 0; // bits [covered-1:0] are written
    for (auto [lsb, msb] : ranges) {
        if (lsb > covered)
            return false;
        covered = std::max(covered, msb + 1);
    }
    return covered >= width;
}

/// One obligation as the first instance of a group decided it.
struct Verdict {
    ObligationKind kind;
    NetId offset; // target - net_begin
    EntailResult result;
};

/// An instance of a repeated key. Its group is the instances of the key
/// whose input ports see isomorphic closures; the group's first instance
/// (the leader) records its verdicts, and the others take its Proven
/// ones.
struct Member {
    const Instance* span;
    size_t leader; // index into Checker::members_
    std::vector<Verdict> verdicts; // the leader's, in walk order
    size_t next = 0; // a follower's position in them
};

class Checker {
public:
    Checker(const Design& design, DiagnosticEngine& diags,
            const CheckOptions& opts)
        : design_(design), diags_(diags), opts_(opts),
          eqs_(sem::build_equations(design)),
          engine_(design, eqs_, engine_options(opts)),
          proc_owner_(design.processes.size()),
          net_owner_(design.nets.size()) {
        if (opts.modular)
            group_instances();
    }

    CheckResult run();

private:
    /// The prior system has no notion of cycle-by-cycle updates: it keeps
    /// its Hoare-style reasoning over current-cycle (combinational)
    /// definitions but cannot use next-value equations.
    static solver::EntailOptions engine_options(const CheckOptions& opts) {
        solver::EntailOptions o = opts.solver;
        if (opts.mode == CheckerMode::ClassicSecVerilog)
            o.use_primed_equations = false;
        return o;
    }

    // --- label inference ---------------------------------------------
    SolverLabel label_of(const Expr& e);

    // --- walking -------------------------------------------------------
    struct Context {
        std::vector<const Expr*> facts;
        std::vector<ExprPtr> owned; // negations and assume copies
        SolverLabel pc;
    };
    void walk(const Stmt& s, Context& ctx, ProcessKind kind);
    void check_assign(const Stmt& s, Context& ctx, ProcessKind kind);
    void check_hold_obligations();

    void discharge(ObligationKind kind, SourceLoc loc, NetId target,
                   const SolverLabel& lhs, const SolverLabel& rhs,
                   const std::vector<const Expr*>& facts);
    /// Groups the instances of every repeated key by the closure
    /// signature of their input ports, and gives each process and net to
    /// the innermost repeated instance holding it.
    void group_instances();
    std::string next_obligation_id(ObligationKind kind, NetId target);
    void note_witness(const solver::Witness& w, SourceLoc loc);

    bool uses_next(const Expr& e) const;

    const Design& design_;
    DiagnosticEngine& diags_;
    CheckOptions opts_;
    sem::Equations eqs_;
    EntailmentEngine engine_;
    CheckResult result_;
    /// Per-(net, kind) obligation ordinals, for stable ids.
    std::map<std::pair<NetId, ObligationKind>, size_t> site_counters_;

    std::vector<Member> members_;
    /// The innermost repeated instance holding each process and net.
    std::vector<Member*> proc_owner_, net_owner_;
    /// The owner of the process (assign walk) or net (hold walk) being
    /// checked, or null.
    Member* member_ = nullptr;
};

bool Checker::uses_next(const Expr& e) const {
    std::vector<NetId> plain, primed;
    e.collect_reads(plain, primed);
    return !primed.empty();
}

SolverLabel Checker::label_of(const Expr& e) {
    SolverLabel out;
    switch (e.kind) {
    case ExprKind::Const:
        return out; // bottom
    case ExprKind::NetRef: {
        const Net& net = design_.net(e.net);
        return SolverLabel::from_hir(net.label, design_, e.primed);
    }
    case ExprKind::ArrayRead: {
        const Net& net = design_.net(e.net);
        out = SolverLabel::from_hir(net.label, design_, e.primed);
        out.join_with(label_of(*e.index));
        return out;
    }
    case ExprKind::Downgrade:
        // The downgrade's declared label replaces the operand's label;
        // this is the explicit escape hatch (§3.1). Sites were recorded
        // during elaboration and are counted in the result.
        return SolverLabel::from_hir(e.dg_label, design_, false);
    default:
        if (e.index)
            out.join_with(label_of(*e.index));
        if (e.a)
            out.join_with(label_of(*e.a));
        if (e.b)
            out.join_with(label_of(*e.b));
        if (e.c)
            out.join_with(label_of(*e.c));
        for (const auto& p : e.parts)
            out.join_with(label_of(*p));
        return out;
    }
}

std::string Checker::next_obligation_id(ObligationKind kind, NetId target) {
    size_t site = site_counters_[{target, kind}]++;
    return design_.top_name + ":" + design_.net(target).name + ":" +
           obligation_kind_name(kind) + ":" + std::to_string(site);
}

void Checker::note_witness(const solver::Witness& w, SourceLoc loc) {
    // One note per witness variable, anchored at that net's declaration
    // so the renderer shows where each signal in the violating assignment
    // lives; the joint valuation is already inline in the error.
    for (const auto& b : w.bindings) {
        const Net& net = design_.net(b.net);
        SourceLoc at = net.loc.valid() ? net.loc : loc;
        diags_.note(DiagCode::IllegalFlow, at,
                    "counterexample assigns " + net.name +
                        (b.primed ? "' = " : " = ") +
                        std::to_string(b.value.value()) +
                        (b.primed ? " (next cycle)" : ""));
    }
}

void Checker::group_instances() {
    std::unordered_map<std::string_view, size_t> count;
    for (const Instance& in : design_.instances)
        ++count[in.key];
    constexpr size_t kNone = ~size_t{0};
    std::vector<size_t> writer(design_.nets.size(), kNone);
    for (size_t pi = 0; pi < design_.processes.size(); ++pi)
        for (NetId n : design_.processes[pi].writes)
            writer[n] = pi;
    std::map<std::pair<std::string_view, std::string>, size_t> leaders;
    for (const Instance& in : design_.instances) {
        if (count[in.key] < 2)
            continue;
        // Input ports: nets written from outside the instance, and
        // undriven inputs.
        std::vector<EntailmentEngine::Var> roots;
        for (NetId n = in.net_begin; n < in.net_end; ++n)
            if (writer[n] == kNone ? eqs_.is_free(n)
                                   : writer[n] < in.proc_begin ||
                                         writer[n] >= in.proc_end)
                for (bool primed : {false, true})
                    roots.push_back({n, primed});
        auto signature =
            engine_.closure_signature(roots, in.net_begin, in.net_end);
        auto it = leaders.emplace(std::make_pair(std::string_view(in.key),
                                                 std::move(signature)),
                                  members_.size());
        members_.push_back({&in, it.first->second, {}, 0});
    }
    result_.modular.groups = leaders.size();
    // Instances come children first, so claiming in reverse order leaves
    // each process and net with its innermost repeated instance.
    for (auto m = members_.rbegin(); m != members_.rend(); ++m) {
        const Instance& in = *m->span;
        std::fill(proc_owner_.begin() + static_cast<long>(in.proc_begin),
                  proc_owner_.begin() + static_cast<long>(in.proc_end), &*m);
        std::fill(net_owner_.begin() + in.net_begin,
                  net_owner_.begin() + in.net_end, &*m);
    }
}

void Checker::discharge(ObligationKind kind, SourceLoc loc, NetId target,
                        const SolverLabel& lhs, const SolverLabel& rhs,
                        const std::vector<const Expr*>& facts) {
    if (result_.timed_out)
        return;
    auto t0 = std::chrono::steady_clock::now();
    // Instances of a group get isomorphic queries, so a later one takes
    // the leader's Proven verdict on the same obligation.
    NetId offset = member_ ? target - member_->span->net_begin : 0;
    bool leads = member_ && &members_[member_->leader] == member_;
    const Verdict* reuse = nullptr;
    if (member_ && !leads) {
        const std::vector<Verdict>& done = members_[member_->leader].verdicts;
        size_t i = member_->next++;
        if (i < done.size() && done[i].kind == kind &&
            done[i].offset == offset && done[i].result.proven())
            reuse = &done[i];
    }
    EntailResult result;
    if (reuse) {
        result = reuse->result;
        ++result_.modular.reused;
    } else {
        result = engine_.check_flow(lhs, rhs, facts);
        if (result.timed_out) {
            // Deadline expired mid-check: drop this obligation (no
            // diagnostic — it was not decided) and stop discharging
            // further ones.
            result_.timed_out = true;
            return;
        }
        ++result_.modular.solved;
        if (leads)
            member_->verdicts.push_back({kind, offset, result});
    }
    double solve_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();

    Obligation ob;
    ob.kind = kind;
    ob.loc = loc;
    ob.target = target;
    ob.id = next_obligation_id(kind, target);
    ob.lhs_label = lhs.str(design_);
    ob.rhs_label = rhs.str(design_);
    ob.result = std::move(result);
    ob.solve_ms = solve_ms;
    if (!ob.result.proven()) {
        ++result_.failed;
        const std::string& tname = design_.net(target).name;
        std::string why = ob.result.status == EntailStatus::Refuted
                              ? " (counterexample: " + ob.result.detail + ")"
                              : (ob.result.detail.empty()
                                     ? ""
                                     : " (" + ob.result.detail + ")");
        switch (kind) {
        case ObligationKind::CombAssign:
            diags_.error(DiagCode::IllegalFlow, loc,
                         "illegal flow " + ob.lhs_label + " -> " +
                             ob.rhs_label + " in assignment to '" + tname +
                             "'" + why);
            break;
        case ObligationKind::SeqAssign:
            diags_.error(DiagCode::IllegalFlowSeq, loc,
                         "illegal flow " + ob.lhs_label +
                             " -> next-cycle label " + ob.rhs_label +
                             " in assignment to register '" + tname + "'" +
                             why);
            break;
        case ObligationKind::Hold:
            diags_.error(
                DiagCode::IllegalFlowSeq, loc,
                "implicit downgrading hazard: register '" + tname +
                    "' can keep its value while its label changes from " +
                    ob.lhs_label + " to " + ob.rhs_label +
                    "; clear or endorse it on that label change" + why);
            break;
        }
        if (ob.result.witness)
            note_witness(*ob.result.witness, loc);
    }
    result_.obligations.push_back(std::move(ob));
}

void Checker::walk(const Stmt& s, Context& ctx, ProcessKind kind) {
    switch (s.kind) {
    case StmtKind::Block: {
        size_t facts_mark = ctx.facts.size();
        size_t owned_mark = ctx.owned.size();
        for (const auto& st : s.stmts)
            walk(*st, ctx, kind);
        ctx.facts.resize(facts_mark);
        ctx.owned.resize(owned_mark);
        break;
    }
    case StmtKind::If: {
        if (opts_.mode == CheckerMode::ClassicSecVerilog &&
            uses_next(*s.cond)) {
            diags_.error(DiagCode::Unsupported, s.loc,
                         "the 'next' operator is not supported by classic "
                         "SecVerilog");
        }
        SolverLabel cond_label = label_of(*s.cond);
        SolverLabel saved_pc = ctx.pc;
        ctx.pc.join_with(cond_label);

        // Branch-local facts (including any assume a bare branch
        // statement pushes) must not survive past the branch.
        size_t facts_mark = ctx.facts.size();
        size_t owned_mark = ctx.owned.size();
        ctx.facts.push_back(s.cond.get());
        walk(*s.then_stmt, ctx, kind);
        ctx.facts.resize(facts_mark);
        ctx.owned.resize(owned_mark);

        if (s.else_stmt) {
            ExprPtr neg = Expr::make_unary(UnaryOp::LogNot, s.cond->clone(),
                                           s.cond->loc);
            ctx.facts.push_back(neg.get());
            ctx.owned.push_back(std::move(neg));
            walk(*s.else_stmt, ctx, kind);
            ctx.facts.resize(facts_mark);
            ctx.owned.resize(owned_mark);
        }
        ctx.pc = std::move(saved_pc);
        break;
    }
    case StmtKind::Assign:
        check_assign(s, ctx, kind);
        break;
    case StmtKind::Assume:
        // The asserted invariant joins the constraint context for the
        // remainder of the enclosing block (checked at run time by the
        // simulator).
        ctx.facts.push_back(s.pred.get());
        break;
    }
}

void Checker::check_assign(const Stmt& s, Context& ctx, ProcessKind kind) {
    const Net& target = design_.net(s.lhs.net);
    if (opts_.mode == CheckerMode::ClassicSecVerilog && uses_next(*s.rhs)) {
        diags_.error(DiagCode::Unsupported, s.loc,
                     "the 'next' operator is not supported by classic "
                     "SecVerilog");
    }
    SolverLabel value_label = label_of(*s.rhs);
    if (s.lhs.index)
        value_label.join_with(label_of(*s.lhs.index));
    value_label.join_with(ctx.pc);

    if (kind == ProcessKind::Comb) {
        SolverLabel target_label =
            SolverLabel::from_hir(target.label, design_, false);
        discharge(ObligationKind::CombAssign, s.loc, target.id, value_label,
                  target_label, ctx.facts);
    } else {
        // T-ASGNSEQ: the value lands in the register at the next clock
        // edge, so it is checked against the next-cycle label.
        bool primed = opts_.mode == CheckerMode::SecVerilogLC;
        SolverLabel target_label =
            SolverLabel::from_hir(target.label, design_, primed);
        discharge(ObligationKind::SeqAssign, s.loc, target.id, value_label,
                  target_label, ctx.facts);
    }
}

void Checker::check_hold_obligations() {
    if (opts_.mode != CheckerMode::SecVerilogLC || !opts_.hold_obligations ||
        result_.timed_out)
        return;
    for (NetId id = 0; id < design_.nets.size(); ++id) {
        const Net& net = design_.net(id);
        if (net.kind != NetKind::Seq || net.label.is_static())
            continue;
        member_ = net_owner_[id];

        // The guards under which the register is *fully* written; the
        // hold obligation covers the complement. A part-select write
        // leaves the other bits as they were, so it counts only where
        // the part-selects on its path and the paths enclosing it
        // together cover the register.
        std::vector<ExprPtr> guards;
        bool always_written = false;
        if (net.array_size == 0) {
            std::span<const sem::Write> writes = eqs_.writes(id);
            std::vector<const sem::PathCond*> part_paths;
            for (const sem::Write& w : writes) {
                if (!w.whole) {
                    if (std::find(part_paths.begin(), part_paths.end(),
                                  w.path) == part_paths.end())
                        part_paths.push_back(w.path);
                    continue;
                }
                if (!w.path) {
                    always_written = true;
                    break;
                }
                guards.push_back(sem::conjoin(w.path));
            }
            for (const sem::PathCond* p : part_paths) {
                if (always_written ||
                    !part_selects_cover(writes, p, net.width))
                    continue;
                if (!p)
                    always_written = true;
                else
                    guards.push_back(sem::conjoin(p));
            }
        } else {
            // Arrays: group whole-element writes by structurally equal
            // guard, and count a group as a full write only if its
            // constant indices cover the whole array. The group's first
            // guard (in write order) represents it.
            struct Group {
                ExprPtr guard; // null = unconditional
                std::set<uint64_t> indices;
            };
            std::vector<Group> groups;
            for (const sem::Write& w : eqs_.writes(id)) {
                if (!w.whole)
                    continue;
                ExprPtr g = sem::conjoin(w.path);
                auto it = std::find_if(
                    groups.begin(), groups.end(), [&](const Group& gr) {
                        return g && gr.guard
                                   ? solver::expr_equal(*g, *gr.guard)
                                   : g == gr.guard;
                    });
                if (it == groups.end())
                    it = groups.insert(it, {std::move(g), {}});
                // A dynamic index cannot prove coverage.
                if (w.index && w.index->kind == ExprKind::Const)
                    it->indices.insert(w.index->value.value());
            }
            for (Group& gr : groups) {
                if (gr.indices.size() != net.array_size)
                    continue;
                if (!gr.guard) {
                    always_written = true;
                    break;
                }
                guards.push_back(std::move(gr.guard));
            }
        }
        if (always_written)
            continue;

        std::vector<const Expr*> facts;
        for (ExprPtr& g : guards) {
            SourceLoc loc = g->loc;
            g = Expr::make_unary(UnaryOp::LogNot, std::move(g), loc);
            facts.push_back(g.get());
        }
        SolverLabel old_label = SolverLabel::from_hir(net.label, design_, false);
        SolverLabel new_label = SolverLabel::from_hir(net.label, design_, true);
        discharge(ObligationKind::Hold, net.loc, net.id, old_label, new_label,
                  facts);
    }
}

CheckResult Checker::run() {
    for (size_t pi = 0; pi < design_.processes.size(); ++pi) {
        if (result_.timed_out)
            break;
        member_ = proc_owner_[pi];
        const Process& proc = design_.processes[pi];
        Context ctx;
        walk(*proc.body, ctx, proc.kind);
    }
    check_hold_obligations();
    result_.ok =
        result_.failed == 0 && !diags_.has_errors() && !result_.timed_out;
    result_.downgrade_count = design_.downgrades.size();
    result_.solver_stats = engine_.stats();
    result_.equations = {eqs_.processes_built(), eqs_.process_count()};
    return std::move(result_);
}

} // namespace

CheckResult check_design(const Design& design, DiagnosticEngine& diags,
                         const CheckOptions& opts) {
    return Checker(design, diags, opts).run();
}

} // namespace svlc::check
