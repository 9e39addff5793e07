#include "solver/entail.hpp"

#include "solver/backend.hpp"
#include "solver/entail_cache.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <functional>
#include <string>

namespace svlc::solver {

using namespace hir;

bool expr_equal(const Expr& a, const Expr& b) {
    if (a.kind != b.kind || a.width != b.width)
        return false;
    switch (a.kind) {
    case ExprKind::Const:
        return a.value == b.value;
    case ExprKind::NetRef:
        return a.net == b.net && a.primed == b.primed;
    case ExprKind::ArrayRead:
        return a.net == b.net && a.primed == b.primed &&
               expr_equal(*a.index, *b.index);
    case ExprKind::Slice:
        return a.msb == b.msb && a.lsb == b.lsb && expr_equal(*a.a, *b.a);
    case ExprKind::Unary:
        return a.un_op == b.un_op && expr_equal(*a.a, *b.a);
    case ExprKind::Binary:
        return a.bin_op == b.bin_op && expr_equal(*a.a, *b.a) &&
               expr_equal(*a.b, *b.b);
    case ExprKind::Cond:
        return expr_equal(*a.a, *b.a) && expr_equal(*a.b, *b.b) &&
               expr_equal(*a.c, *b.c);
    case ExprKind::Concat:
        if (a.parts.size() != b.parts.size())
            return false;
        for (size_t i = 0; i < a.parts.size(); ++i)
            if (!expr_equal(*a.parts[i], *b.parts[i]))
                return false;
        return true;
    case ExprKind::Downgrade:
        return a.dg_kind == b.dg_kind && expr_equal(*a.a, *b.a);
    }
    return false;
}

EntailmentEngine::EntailmentEngine(const Design& design,
                                   const sem::Equations& eqs,
                                   EntailOptions opts)
    : design_(design), eqs_(eqs), opts_(opts),
      backend_(make_backend(opts_.backend)), seen_(2 * design.nets.size()) {
    if (opts_.cache) {
        // Entries are shareable only between engines that would run the
        // identical decision procedure: same policy, same budgets, same
        // backend. Backends are verdict-equivalent by contract, but the
        // cached candidate counts differ, and keeping the keyspaces
        // disjoint means a contract violation can never leak a verdict
        // across backends.
        key_prefix_ = policy_fingerprint(design_.policy);
        char buf[128];
        std::snprintf(buf, sizeof buf, "|o:%u,%llu,%zu,%d,%d%d|b:%s",
                      opts_.max_enum_width,
                      static_cast<unsigned long long>(opts_.max_candidates),
                      opts_.max_enum_vars, opts_.closure_depth,
                      opts_.use_equations, opts_.use_primed_equations,
                      backend_id(opts_.backend));
        key_prefix_ += buf;
    }
}

EntailmentEngine::~EntailmentEngine() = default;

EntailmentEngine::Stats&
EntailmentEngine::Stats::operator+=(const Stats& o) {
    queries += o.queries;
    syntactic_hits += o.syntactic_hits;
    enumerations += o.enumerations;
    total_candidates += o.total_candidates;
    cache_hits += o.cache_hits;
    cache_misses += o.cache_misses;
    conflicts += o.conflicts;
    propagations += o.propagations;
    learned_clauses += o.learned_clauses;
    restarts += o.restarts;
    return *this;
}

bool EntailmentEngine::past_deadline() const {
    return opts_.deadline != std::chrono::steady_clock::time_point{} &&
           std::chrono::steady_clock::now() > opts_.deadline;
}

namespace {

/// Calls f(net, primed) for every net the expression reads, in walk
/// order. Array contents are not enumerable; only the index matters.
template <typename F> void for_each_var(const Expr& e, F&& f) {
    switch (e.kind) {
    case ExprKind::Const:
        return;
    case ExprKind::NetRef:
        f(e.net, e.primed);
        return;
    case ExprKind::ArrayRead:
        if (e.index)
            for_each_var(*e.index, f);
        return;
    default:
        for (const ExprPtr* child : {&e.index, &e.a, &e.b, &e.c})
            if (*child)
                for_each_var(**child, f);
        for (const auto& p : e.parts)
            for_each_var(*p, f);
        return;
    }
}

/// True when `fact` is the equation `x == y` (either order) for net vars.
bool is_var_equation(const Expr& fact, const LabelArg& x, const LabelArg& y) {
    if (fact.kind != ExprKind::Binary || fact.bin_op != BinaryOp::Eq)
        return false;
    auto matches = [](const Expr& e, const LabelArg& v) {
        return e.kind == ExprKind::NetRef && e.net == v.net &&
               e.primed == v.primed;
    };
    return (matches(*fact.a, x) && matches(*fact.b, y)) ||
           (matches(*fact.a, y) && matches(*fact.b, x));
}

/// Join over the whole range of a label function (default + entries).
LevelId function_range_join(const LabelFunction& fn, const Lattice& lat) {
    LevelId acc = fn.default_level();
    for (const auto& e : fn.entries())
        acc = lat.join(acc, e.level);
    return acc;
}

} // namespace

const EntailmentEngine::Equation* EntailmentEngine::equation_fact(Var v) {
    // One synthesized `x == def(x)` node per (net, primed) for the life of
    // the engine: queries used to clone the defining expression afresh
    // every time (per-query ExprPtr churn), and the stable pointers double
    // as the CDCL backend's context-identity signal. Its variables are
    // listed once too, so the closure does not re-walk the expression.
    uint64_t key = (uint64_t{v.first} << 1) | (v.second ? 1 : 0);
    auto it = eq_memo_.find(key);
    if (it != eq_memo_.end())
        return it->second.fact ? &it->second : nullptr;

    const Net& net = design_.net(v.first);
    Equation equation;
    if (eqs_.is_free(v.first)) {
        // Driven by the environment: no equation in either cycle.
    } else if (v.second && opts_.use_primed_equations &&
               eqs_.has_next_equation(v.first)) {
        // Primed: r' == def(r), or r' == r when no process writes r.
        // Synthesized nodes inherit the defining expression's loc (falling
        // back to the net declaration) so every downstream diagnostic
        // stays file-resolvable.
        const Expr* def = eqs_.def(v.first);
        SourceLoc loc = def ? def->loc : net.loc;
        ExprPtr rhs_expr = def
                               ? def->clone()
                               : Expr::make_net(v.first, net.width, false,
                                                net.loc);
        equation.fact = Expr::make_binary(
            BinaryOp::Eq, Expr::make_net(v.first, net.width, true, net.loc),
            std::move(rhs_expr), loc);
    } else if (!v.second && net.kind == NetKind::Com) {
        const Expr* def = eqs_.def(v.first);
        if (def)
            equation.fact = Expr::make_binary(
                BinaryOp::Eq,
                Expr::make_net(v.first, net.width, false, net.loc),
                def->clone(), def->loc);
    }
    if (equation.fact)
        for_each_var(*equation.fact, [&](NetId n, bool primed) {
            Var w{n, primed};
            if (std::find(equation.vars.begin(), equation.vars.end(), w) ==
                equation.vars.end())
                equation.vars.push_back(w);
        });
    // Negative results are cached too.
    auto& slot = eq_memo_.emplace(key, std::move(equation)).first->second;
    return slot.fact ? &slot : nullptr;
}

bool EntailmentEngine::syntactic_covered(
    const SolverAtom& atom, const SolverLabel& rhs,
    const std::vector<const Expr*>& facts) const {
    const Lattice& lat = design_.policy.lattice();
    if (atom.kind == SolverAtom::Kind::Level) {
        if (atom.level == lat.bottom())
            return true;
        for (const auto& r : rhs.atoms)
            if (r.kind == SolverAtom::Kind::Level &&
                lat.flows(atom.level, r.level))
                return true;
        return false;
    }
    // Function atom: identical atom on the right, congruence through an
    // equation fact, or the function's whole range flows into a static
    // right-hand atom.
    for (const auto& r : rhs.atoms) {
        if (r.kind == SolverAtom::Kind::Func && r.func == atom.func &&
            r.args.size() == atom.args.size()) {
            bool all = true;
            for (size_t i = 0; i < r.args.size(); ++i) {
                if (atom.args[i] == r.args[i])
                    continue;
                bool equated = false;
                for (const Expr* f : facts)
                    if (is_var_equation(*f, atom.args[i], r.args[i])) {
                        equated = true;
                        break;
                    }
                if (!equated) {
                    all = false;
                    break;
                }
            }
            if (all)
                return true;
        }
    }
    LevelId range = function_range_join(design_.policy.function(atom.func), lat);
    for (const auto& r : rhs.atoms)
        if (r.kind == SolverAtom::Kind::Level && lat.flows(range, r.level))
            return true;
    return false;
}

std::string EntailmentEngine::closure_signature(const std::vector<Var>& roots,
                                                NetId begin, NetId end) {
    // Breadth-first from the roots, as check_flow() walks a closure, one
    // level further than closure_depth so the last level's equations
    // (which decide truncation) show too. Past the roots an equation is
    // followed only outside [begin, end): inside, every instance of a
    // module has the same equations. Each level is one '|'-separated
    // section, so paths of different lengths render differently.
    std::string out;
    std::unordered_map<uint64_t, size_t> ids; // outside variable -> number
    std::vector<Var> vars = roots;
    // Tagged numbers are appended piecewise: GCC 12 at -O3 reports a
    // false -Wrestrict on `"lit" + std::to_string(x)`.
    auto tagged = [&](char tag, uint64_t n) {
        out += tag;
        out += std::to_string(n);
    };
    auto name = [&](Var v) {
        auto [net, primed] = v;
        if (net >= begin && net < end) {
            tagged('i', net - begin);
        } else {
            auto [it, fresh] = ids.emplace(2 * uint64_t{net} + primed,
                                           ids.size());
            tagged('x', it->second);
            if (fresh) {
                const Net& n = design_.net(net);
                vars.push_back(v);
                tagged(n.kind == NetKind::Seq ? 's' : 'c', n.width);
                tagged('a', n.array_size);
            }
        }
        if (primed)
            out += '\'';
    };
    std::function<void(const Expr&)> expr = [&](const Expr& e) {
        tagged('(', static_cast<uint64_t>(e.kind));
        tagged('w', e.width);
        switch (e.kind) {
        case ExprKind::Const:
            tagged('=', e.value.value());
            break;
        case ExprKind::NetRef:
        case ExprKind::ArrayRead:
            name({e.net, e.primed});
            break;
        case ExprKind::Slice:
            tagged('s', e.msb);
            tagged(':', e.lsb);
            break;
        case ExprKind::Unary:
            tagged('u', static_cast<uint64_t>(e.un_op));
            break;
        case ExprKind::Binary:
            tagged('b', static_cast<uint64_t>(e.bin_op));
            break;
        case ExprKind::Downgrade:
            tagged('d', static_cast<uint64_t>(e.dg_kind));
            break;
        default:
            break;
        }
        for (const ExprPtr* child : {&e.index, &e.a, &e.b, &e.c})
            if (*child)
                expr(**child);
        for (const auto& p : e.parts)
            expr(*p);
        out += ')';
    };
    size_t frontier_begin = 0;
    for (int depth = 0; depth <= opts_.closure_depth; ++depth) {
        out += '|';
        size_t frontier_end = vars.size();
        for (size_t vi = frontier_begin; vi < frontier_end; ++vi) {
            if (const Equation* equation = equation_fact(vars[vi]))
                expr(*equation->fact);
            else
                out += '-';
        }
        frontier_begin = frontier_end;
    }
    return out;
}

EntailResult EntailmentEngine::check_flow(
    const SolverLabel& lhs, const SolverLabel& rhs,
    const std::vector<const Expr*>& user_facts) {
    ++stats_.queries;
    EntailResult result;

    if (past_deadline()) {
        result.status = EntailStatus::Unknown;
        result.timed_out = true;
        result.detail = "entailment deadline exceeded";
        return result;
    }

    // ------------------------------------------------------------------
    // Fast path: syntactic coverage of every left atom.
    // ------------------------------------------------------------------
    {
        bool all = true;
        for (const auto& atom : lhs.atoms)
            all = all && syntactic_covered(atom, rhs, user_facts);
        if (all) {
            ++stats_.syntactic_hits;
            result.status = EntailStatus::Proven;
            result.syntactic = true;
            return result;
        }
    }

    // ------------------------------------------------------------------
    // Gather variables and pull in defining equations (closure).
    // ------------------------------------------------------------------
    std::vector<const Expr*> facts = user_facts;
    std::vector<Var> vars;
    if (++epoch_ == 0) { // wrapped: forget every mark
        std::fill(seen_.begin(), seen_.end(), 0);
        epoch_ = 1;
    }
    auto add_var = [&](NetId net, bool primed) {
        uint32_t& mark = seen_[2 * size_t{net} + (primed ? 1 : 0)];
        if (mark != epoch_) {
            mark = epoch_;
            vars.push_back({net, primed});
        }
    };
    for (const auto& atom : lhs.atoms)
        for (const auto& arg : atom.args)
            add_var(arg.net, arg.primed);
    for (const auto& atom : rhs.atoms)
        for (const auto& arg : atom.args)
            add_var(arg.net, arg.primed);
    size_t label_var_count = vars.size();
    for (const Expr* f : facts)
        for_each_var(*f, add_var);

    // A refutation is only trustworthy when every defining equation the
    // candidate space is subject to made it into the fact set; if
    // closure_depth cuts the closure short, a "definitely satisfying"
    // candidate may be ruled out by one of the dropped equations.
    bool closure_truncated = false;
    if (opts_.use_equations) {
        auto may_have_equation = [&](Var v) {
            if (eqs_.is_free(v.first))
                return false;
            if (v.second)
                return opts_.use_primed_equations &&
                       eqs_.has_next_equation(v.first);
            return design_.net(v.first).kind == NetKind::Com &&
                   eqs_.def(v.first) != nullptr;
        };
        // `vars` holds each variable once, so each frontier is new.
        size_t frontier_begin = 0;
        for (int depth = 0; depth < opts_.closure_depth; ++depth) {
            size_t frontier_end = vars.size();
            for (size_t vi = frontier_begin; vi < frontier_end; ++vi) {
                if (const Equation* equation = equation_fact(vars[vi])) {
                    for (auto [net, primed] : equation->vars)
                        add_var(net, primed);
                    facts.push_back(equation->fact.get());
                }
            }
            frontier_begin = frontier_end;
            if (frontier_begin == vars.size())
                break;
        }
        for (size_t vi = frontier_begin; vi < vars.size(); ++vi) {
            if (may_have_equation(vars[vi])) {
                closure_truncated = true;
                break;
            }
        }
    }

    // ------------------------------------------------------------------
    // Choose the enumeration set: label arguments first (they decide the
    // goal), then remaining small variables, under the domain budget.
    // ------------------------------------------------------------------
    std::stable_sort(vars.begin() + static_cast<long>(label_var_count),
                     vars.end(), [&](const Var& a, const Var& b) {
                         return design_.net(a.first).width <
                                design_.net(b.first).width;
                     });
    std::vector<Var> enum_vars;
    uint64_t domain = 1;
    for (const Var& v : vars) {
        const Net& net = design_.net(v.first);
        if (net.array_size != 0)
            continue;
        if (net.width > opts_.max_enum_width)
            continue;
        uint64_t size = uint64_t{1} << net.width;
        if (domain > opts_.max_candidates / size)
            break;
        if (enum_vars.size() >= opts_.max_enum_vars)
            break;
        enum_vars.push_back(v);
        domain *= size;
    }

    // ------------------------------------------------------------------
    // Memoization: identical canonicalized queries (same labels, same
    // post-closure facts, same variable shapes — rampant across repeated
    // module instances) are decided once. Tiny domains are cheaper to
    // re-enumerate than to serialize, so they skip the cache.
    // ------------------------------------------------------------------
    std::string cache_key;
    if (opts_.cache && domain >= 8) {
        CacheKeyBuilder kb(design_, key_prefix_);
        kb.add_label('L', lhs);
        kb.add_label('R', rhs);
        for (const Expr* f : facts)
            kb.add_fact(*f);
        cache_key = kb.finish();
        if (auto hit = opts_.cache->lookup(cache_key)) {
            ++stats_.cache_hits;
            result.status = EntailStatus::Proven;
            result.candidates = hit->candidates;
            return result;
        }
        ++stats_.cache_misses;
    }

    // ------------------------------------------------------------------
    // Enumerate candidates (delegated to the configured backend).
    // ------------------------------------------------------------------
    ++stats_.enumerations;
    EnumProblem problem{design_, lhs, rhs, facts, {}, 1, {}};
    problem.vars.reserve(enum_vars.size());
    for (const Var& v : enum_vars)
        problem.vars.push_back({v.first, v.second,
                                design_.net(v.first).width});
    problem.domain = domain;
    problem.deadline = opts_.deadline;

    result = backend_->enumerate(problem);
    stats_.total_candidates += result.candidates;
    stats_.conflicts += result.conflicts;
    stats_.propagations += result.propagations;
    stats_.learned_clauses += result.learned_clauses;
    stats_.restarts += result.restarts;
    if (result.status == EntailStatus::Refuted && closure_truncated) {
        // The counterexample satisfies a weakened fact set; the equations
        // the closure budget dropped may exclude it, so surrender the
        // verdict rather than report a possibly-unreachable state.
        result.status = EntailStatus::Unknown;
        result.witness.reset();
        result.detail =
            "possible counterexample only: the defining-equation closure "
            "was truncated at closure_depth=" +
            std::to_string(opts_.closure_depth) +
            "; raise it to confirm or refute";
    }
    if (result.proven() && !result.timed_out && !cache_key.empty())
        opts_.cache->insert(cache_key, {result.candidates});
    return result;
}

} // namespace svlc::solver
