#include "check/typecheck.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <map>
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

/// One obligation as a module check decided it, in walk order.
struct ModuleVerdict {
    ObligationKind kind;
    NetId offset; // target - net_begin of the checked instance
    EntailResult result;
    double solve_ms = 0;
    /// The variables the proof enumerated, as nets of the checked
    /// instance; empty for a syntactic proof.
    std::vector<EntailmentEngine::Var> vars;
};

/// The verdicts of one repeated module, checked alone as its first
/// instance: the assignment obligations, then the hold obligations.
struct ModuleCheck {
    const Instance* first = nullptr;
    std::vector<ModuleVerdict> assigns, holds;
    /// Its input ports: the nets of the instance driven from outside it,
    /// as offsets.
    std::vector<NetId> ports;
};

/// A repeated instance whose obligations may reuse `module`'s verdicts.
struct Reuse {
    const Instance* span;
    const ModuleCheck* module;
    size_t group = 0; // index into Checker::groups_
};

/// How the first-walked instance of a group settled an obligation that
/// has a module verdict, for the group's other instances. Instances of a
/// group have isomorphic queries (EntailmentEngine::closure_signature),
/// so the first one's outcome is every one's.
enum class Carry : uint8_t {
    Unseen,
    Proof,  ///< the module's proof holds here: its query enumerates
            ///< the proof's variables
    Proven, ///< the module's proof does not carry, but the query proved
    Solve,  ///< not proven: solve it in each instance
};
struct Carried {
    Carry how = Carry::Unseen;
    EntailResult result; // when Proven
};
struct Group {
    std::vector<Carried> assigns, holds;
};

bool contains(const Instance& a, const Instance& b) {
    return a.proc_begin <= b.proc_begin && b.proc_end <= a.proc_end &&
           a.net_begin <= b.net_begin && b.net_end <= a.net_end;
}

class Checker {
public:
    /// Checks the whole design, or with `scope` set, that instance alone;
    /// then its verdicts go to `out` instead of obligation records and
    /// diagnostics. `spans` are the outermost repeated instances inside
    /// the scope whose module was already checked, in design order.
    Checker(const Design& design, DiagnosticEngine& diags,
            const CheckOptions& opts, std::vector<Reuse> spans,
            const Instance* scope = nullptr, ModuleCheck* out = nullptr)
        : design_(design), diags_(diags), opts_(opts),
          eqs_(scope ? sem::build_equations(design, scope->proc_begin,
                                            scope->proc_end)
                     : sem::build_equations(design)),
          engine_(design, eqs_, engine_options(opts)),
          spans_(std::move(spans)), out_(out) {
        if (scope)
            range_ = *scope;
        else
            range_ = {"", 0, static_cast<NetId>(design.nets.size()), 0,
                      design.processes.size()};
        if (out_)
            for (NetId n = range_.net_begin; n < range_.net_end; ++n)
                if (eqs_.is_free(n))
                    out_->ports.push_back(n - range_.net_begin);
        group_spans();
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
    /// Moves the reuse cursor to the span holding process `proc` (assign
    /// phase) or net `net` (hold phase).
    void enter(size_t proc, NetId net);
    /// Groups the spans of each module by the closure signature of their
    /// input ports.
    void group_spans();
    /// The module's verdict on the obligation about to be discharged in
    /// the current span, and how its group settled it; null when the
    /// obligation does not match the module's next one.
    std::pair<const ModuleVerdict*, Carried*>
    module_verdict(ObligationKind kind, NetId target);
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

    Instance range_;
    std::vector<Reuse> spans_;
    std::vector<Group> groups_;
    ModuleCheck* out_;
    // Reuse cursor: the span being walked and the index of its next
    // obligation in the module's assign (or hold) verdicts.
    size_t span_index_ = 0;
    const Reuse* span_ = nullptr;
    size_t cursor_ = 0;
    bool hold_phase_ = false;
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

void Checker::enter(size_t proc, NetId net) {
    auto past = [&](const Instance& in) {
        return hold_phase_ ? in.net_end <= net : in.proc_end <= proc;
    };
    while (span_index_ < spans_.size() && past(*spans_[span_index_].span))
        ++span_index_;
    const Reuse* next = nullptr;
    if (span_index_ < spans_.size()) {
        const Instance& in = *spans_[span_index_].span;
        if (hold_phase_ ? in.net_begin <= net : in.proc_begin <= proc)
            next = &spans_[span_index_];
    }
    if (next != span_)
        cursor_ = 0;
    span_ = next;
}

void Checker::group_spans() {
    std::map<std::pair<const ModuleCheck*, std::string>, size_t> index;
    for (Reuse& r : spans_) {
        std::vector<EntailmentEngine::Var> roots;
        for (NetId port : r.module->ports)
            for (bool primed : {false, true})
                roots.push_back({r.span->net_begin + port, primed});
        std::string signature = engine_.closure_signature(
            roots, r.span->net_begin, r.span->net_end);
        auto [it, fresh] = index.emplace(
            std::make_pair(r.module, std::move(signature)), groups_.size());
        if (fresh) {
            Group& g = groups_.emplace_back();
            g.assigns.resize(r.module->assigns.size());
            g.holds.resize(r.module->holds.size());
        }
        r.group = it->second;
    }
}

std::pair<const ModuleVerdict*, Carried*>
Checker::module_verdict(ObligationKind kind, NetId target) {
    if (span_ == nullptr)
        return {};
    const auto& verdicts =
        hold_phase_ ? span_->module->holds : span_->module->assigns;
    size_t i = cursor_++;
    if (i >= verdicts.size() || verdicts[i].kind != kind ||
        verdicts[i].offset != target - span_->span->net_begin)
        return {};
    Group& group = groups_[span_->group];
    return {&verdicts[i], &(hold_phase_ ? group.holds : group.assigns)[i]};
}

void Checker::discharge(ObligationKind kind, SourceLoc loc, NetId target,
                        const SolverLabel& lhs, const SolverLabel& rhs,
                        const std::vector<const Expr*>& facts) {
    if (result_.timed_out)
        return;
    auto [known, carried] = module_verdict(kind, target);
    EntailResult result;
    std::vector<EntailmentEngine::Var> vars;
    double solve_ms =
        known && span_->span == span_->module->first ? known->solve_ms : 0;
    auto t0 = std::chrono::steady_clock::now();
    if (carried && known->result.proven() &&
        (carried->how == Carry::Unseen || carried->how == Carry::Proof)) {
        // The module check proved it over a subset of this context's
        // facts. The proof carries over exactly when this query
        // enumerates the variables the proof did: otherwise the solver's
        // budget could leave this query Unknown, and the report would no
        // longer be the flattened check's. The group's first instance
        // finds out; the others follow it.
        NetId shift = span_->span->net_begin - span_->module->first->net_begin;
        for (auto [net, primed] : known->vars)
            vars.push_back({net + shift, primed});
        if (carried->how == Carry::Unseen)
            carried->how = vars.empty() ||
                                   engine_.enumerates(lhs, rhs, facts, vars)
                               ? Carry::Proof
                               : Carry::Unseen;
    }
    if (carried && carried->how == Carry::Proof) {
        result = known->result;
        ++result_.modular.reused;
    } else if (carried && carried->how == Carry::Proven && !out_) {
        // A module check records the variables of its own query, which a
        // carried result does not have, so it solves instead.
        result = carried->result;
        ++result_.modular.reused;
    } else {
        vars.clear();
        result = engine_.check_flow(lhs, rhs, facts, out_ ? &vars : nullptr);
        if (result.timed_out) {
            // Deadline expired mid-check: drop this obligation (no
            // diagnostic — it was not decided) and stop discharging
            // further ones.
            result_.timed_out = true;
            return;
        }
        ++result_.modular.solved;
        if (carried && carried->how == Carry::Unseen) {
            carried->how = result.proven() ? Carry::Proven : Carry::Solve;
            if (result.proven())
                carried->result = result;
        }
    }
    solve_ms += std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    if (out_) {
        if (result.syntactic)
            vars.clear();
        (hold_phase_ ? out_->holds : out_->assigns)
            .push_back({kind, target - range_.net_begin, std::move(result),
                        solve_ms, std::move(vars)});
        return;
    }

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
    std::vector<std::string> names; // filled on the first array register
    hold_phase_ = true;
    span_index_ = 0;
    span_ = nullptr;
    for (NetId id = range_.net_begin; id < range_.net_end; ++id) {
        const Net& net = design_.net(id);
        if (net.kind != NetKind::Seq || net.label.is_static())
            continue;
        enter(0, id);
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
    for (size_t pi = range_.proc_begin; pi < range_.proc_end; ++pi) {
        if (result_.timed_out)
            break;
        enter(pi, 0);
        const Process& proc = design_.processes[pi];
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

/// The outermost instances strictly inside `scope` (the whole design when
/// null) whose module has a check, in design order.
std::vector<Reuse> spans_inside(const Design& design, const Instance* scope,
                                const std::vector<const ModuleCheck*>& checks) {
    std::vector<Reuse> in;
    for (size_t i = 0; i < design.instances.size(); ++i) {
        const Instance& span = design.instances[i];
        if (checks[i] && &span != scope && (!scope || contains(*scope, span)))
            in.push_back({&span, checks[i]});
    }
    // Parents before their children; equal ranges keep the parent, which
    // comes later in the children-first instance list.
    std::stable_sort(in.begin(), in.end(), [](const Reuse& a, const Reuse& b) {
        if (a.span->net_begin != b.span->net_begin)
            return a.span->net_begin < b.span->net_begin;
        if (a.span->net_end != b.span->net_end)
            return a.span->net_end > b.span->net_end;
        return a.span > b.span;
    });
    std::vector<Reuse> outermost;
    for (const Reuse& r : in)
        if (outermost.empty() || !contains(*outermost.back().span, *r.span))
            outermost.push_back(r);
    return outermost;
}

} // namespace

CheckResult check_design(const Design& design, DiagnosticEngine& diags,
                         const CheckOptions& opts) {
    // Check every repeated module alone, children first, so a module
    // check reuses the checks of the repeated modules inside it.
    std::deque<ModuleCheck> modules;
    std::vector<const ModuleCheck*> checks(design.instances.size());
    solver::EntailmentEngine::Stats module_stats;
    if (opts.modular) {
        std::unordered_map<std::string_view, size_t> count;
        for (const Instance& in : design.instances)
            ++count[in.key];
        std::unordered_map<std::string_view, const ModuleCheck*> by_key;
        bool timed_out = false;
        for (size_t i = 0; i < design.instances.size() && !timed_out; ++i) {
            const Instance& in = design.instances[i];
            if (count[in.key] < 2)
                continue;
            auto [it, first] = by_key.emplace(in.key, nullptr);
            if (first) {
                ModuleCheck& m = modules.emplace_back();
                m.first = &in;
                DiagnosticEngine quiet;
                Checker alone(design, quiet, opts,
                              spans_inside(design, &in, checks), &in, &m);
                CheckResult r = alone.run();
                module_stats += r.solver_stats;
                timed_out = r.timed_out;
                it->second = &m;
            }
            checks[i] = it->second;
        }
    }
    Checker checker(design, diags, opts, spans_inside(design, nullptr, checks));
    CheckResult result = checker.run();
    result.solver_stats += module_stats;
    result.modular.module_checks = modules.size();
    return result;
}

} // namespace svlc::check
