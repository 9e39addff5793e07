#include "check/typecheck.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <map>
#include <sstream>

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

class Checker {
public:
    Checker(const Design& design, DiagnosticEngine& diags,
            const CheckOptions& opts)
        : design_(design), diags_(diags), opts_(opts),
          eqs_(sem::build_equations(design)),
          engine_(design, eqs_, engine_options(opts)) {}

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

void Checker::discharge(ObligationKind kind, SourceLoc loc, NetId target,
                        const SolverLabel& lhs, const SolverLabel& rhs,
                        const std::vector<const Expr*>& facts) {
    if (result_.timed_out)
        return;
    Obligation ob;
    ob.kind = kind;
    ob.loc = loc;
    ob.target = target;
    ob.id = next_obligation_id(kind, target);
    ob.lhs_label = lhs.str(design_);
    ob.rhs_label = rhs.str(design_);
    auto t0 = std::chrono::steady_clock::now();
    ob.result = engine_.check_flow(lhs, rhs, facts);
    ob.solve_ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    if (ob.result.timed_out) {
        // Deadline expired mid-check: drop this obligation (no diagnostic
        // — it was not decided) and stop discharging further ones.
        result_.timed_out = true;
        return;
    }
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
    std::vector<std::string> names; // filled on the first array register
    for (const Net& net : design_.nets) {
        if (net.kind != NetKind::Seq || net.label.is_static())
            continue;
        auto writes = sem::guarded_writes(design_, net.id);

        // Determine the guards under which the register is *fully*
        // written; the hold obligation covers the complement.
        std::vector<const Expr*> neg_guards_src;
        bool always_written = false;
        if (net.array_size == 0) {
            for (const auto& w : writes) {
                if (!w.guard) {
                    always_written = true;
                    break;
                }
                neg_guards_src.push_back(w.guard.get());
            }
        } else {
            // Arrays: group writes by syntactically-identical guard and
            // count a group as a full write only if its constant indices
            // cover the whole array.
            if (names.empty())
                names = design_.net_names();
            std::vector<std::string> keys;
            keys.reserve(writes.size());
            std::map<std::string, std::vector<uint64_t>> cover;
            for (const auto& w : writes) {
                keys.push_back(w.guard ? to_string(*w.guard, names) : "");
                if (!w.index || w.index->kind != ExprKind::Const)
                    continue; // dynamic index: cannot prove coverage
                cover[keys.back()].push_back(w.index->value.value());
            }
            for (auto& [key, indices] : cover) {
                std::sort(indices.begin(), indices.end());
                indices.erase(std::unique(indices.begin(), indices.end()),
                              indices.end());
                if (indices.size() != net.array_size)
                    continue;
                if (key.empty()) {
                    always_written = true;
                    break;
                }
                // The group's first guard (in write order) represents it.
                size_t first = std::find(keys.begin(), keys.end(), key) -
                               keys.begin();
                neg_guards_src.push_back(writes[first].guard.get());
            }
        }
        if (always_written)
            continue;

        std::vector<ExprPtr> owned;
        std::vector<const Expr*> facts;
        for (const Expr* g : neg_guards_src) {
            ExprPtr neg = Expr::make_unary(UnaryOp::LogNot, g->clone(),
                                           g->loc);
            facts.push_back(neg.get());
            owned.push_back(std::move(neg));
        }
        SolverLabel old_label = SolverLabel::from_hir(net.label, design_, false);
        SolverLabel new_label = SolverLabel::from_hir(net.label, design_, true);
        discharge(ObligationKind::Hold, net.loc, net.id, old_label, new_label,
                  facts);
    }
}

CheckResult Checker::run() {
    for (const Process& proc : design_.processes) {
        if (result_.timed_out)
            break;
        Context ctx;
        walk(*proc.body, ctx, proc.kind);
    }
    check_hold_obligations();
    result_.ok =
        result_.failed == 0 && !diags_.has_errors() && !result_.timed_out;
    result_.downgrade_count = design_.downgrades.size();
    result_.solver_stats = engine_.stats();
    return std::move(result_);
}

} // namespace

CheckResult check_design(const Design& design, DiagnosticEngine& diags,
                         const CheckOptions& opts) {
    Checker checker(design, diags, opts);
    return checker.run();
}

} // namespace svlc::check
