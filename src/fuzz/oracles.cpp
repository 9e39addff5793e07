#include "fuzz/oracles.hpp"

#include "ast/printer.hpp"
#include "driver/driver.hpp"
#include "fuzz/rng.hpp"
#include "hunt/hunter.hpp"
#include "parse/parser.hpp"
#include "pipeline/compilation.hpp"
#include "sem/wellformed.hpp"
#include "sim/simulator.hpp"
#include "verify/noninterference.hpp"
#include "xform/clearing.hpp"

#include <sstream>

namespace svlc::fuzz {

const char* oracle_name(Oracle o) {
    switch (o) {
    case Oracle::NoCrash: return "no-crash";
    case Oracle::BackendDiff: return "diff";
    case Oracle::Soundness: return "soundness";
    case Oracle::RoundTrip: return "roundtrip";
    case Oracle::Xform: return "xform";
    }
    return "?";
}

OracleSet OracleSet::all() {
    return {true, true, true, true, true};
}

bool OracleSet::enabled(Oracle o) const {
    switch (o) {
    case Oracle::NoCrash: return no_crash;
    case Oracle::BackendDiff: return backend_diff;
    case Oracle::Soundness: return soundness;
    case Oracle::RoundTrip: return round_trip;
    case Oracle::Xform: return xform;
    }
    return false;
}

bool parse_oracle_set(const std::string& text, OracleSet& out) {
    if (text == "all") {
        out = OracleSet::all();
        return true;
    }
    out = {};
    std::stringstream ss(text);
    std::string item;
    bool any = false;
    while (std::getline(ss, item, ',')) {
        if (item == "no-crash")
            out.no_crash = true;
        else if (item == "diff" || item == "backend-diff")
            out.backend_diff = true;
        else if (item == "soundness")
            out.soundness = true;
        else if (item == "roundtrip")
            out.round_trip = true;
        else if (item == "xform")
            out.xform = true;
        else
            return false;
        any = true;
    }
    return any;
}

OracleConfig::OracleConfig() {
    // Deterministic solver budgets: big enough that the generator's small
    // designs resolve, small enough that 2000 programs finish quickly.
    // No deadline — a wall-clock cutoff would make verdicts (and thus
    // backend diffs) machine-dependent.
    check.solver.max_candidates = 1 << 12;
}

namespace {

pipeline::Compilation make_compilation(const std::string& source,
                                       const OracleConfig& cfg) {
    pipeline::CompilationOptions copts;
    copts.check = cfg.check;
    pipeline::Compilation comp(copts);
    comp.load_text(source, "fuzz.svlc");
    return comp;
}

/// Random stimulus on every primary input, identical across designs
/// sharing a seed.
void drive_inputs(sim::Simulator& sim, const hir::Design& d, Rng& rng) {
    for (const auto& n : d.nets)
        if (n.is_input)
            sim.set_input(n.id, BitVec(n.width, rng.next()));
}

/// Lock-step comparison of every scalar net over `cycles` cycles; both
/// designs must expose the same net names (they come from the same
/// source). Returns the first divergence.
std::optional<std::string> lockstep_diff(const hir::Design& a,
                                         const hir::Design& b,
                                         uint64_t cycles, uint64_t seed) {
    sim::Simulator sa(a), sb(b);
    Rng rng_a(seed), rng_b(seed);
    for (uint64_t c = 0; c < cycles; ++c) {
        drive_inputs(sa, a, rng_a);
        drive_inputs(sb, b, rng_b);
        sa.settle();
        sb.settle();
        for (const auto& n : a.nets) {
            if (n.array_size)
                continue;
            hir::NetId other = b.find_net(n.name);
            if (other == hir::kInvalidNet)
                continue;
            BitVec va = sa.get(n.id), vb = sb.get(other);
            if (va != vb)
                return "cycle " + std::to_string(c) + ": net " + n.name +
                       " " + va.str() + " vs " + vb.str();
        }
        sa.step();
        sb.step();
    }
    return std::nullopt;
}

std::optional<Finding> run_no_crash(const std::string& source,
                                    const OracleConfig& cfg) {
    // Everything here may *reject* (diagnostics) but must never throw.
    pipeline::Compilation comp = make_compilation(source, cfg);
    comp.check();
    if (const hir::Design* d = comp.design()) {
        sim::Simulator sim(*d);
        Rng rng(cfg.seed);
        for (uint64_t c = 0; c < cfg.sim_cycles; ++c) {
            drive_inputs(sim, *d, rng);
            sim.step();
        }
        sim.settle();

        // A short hunt doubles as a refinement oracle: TaintSim's bit
        // taint is a refinement of the tracker's level taint, so every
        // candidate leak the search flags must replay to a concrete
        // TaintTracker violation. An unconfirmed candidate is a
        // precision bug in src/hunt, not a property of the design.
        hunt::HuntOptions hopts;
        hopts.depth = 4;
        hopts.beam = 2;
        hopts.branch = 2;
        hopts.seed = cfg.seed;
        hopts.minimize = false;
        hunt::HuntResult hr = hunt::hunt(*d, hopts);
        if (hr.unconfirmed_candidates != 0)
            return Finding{Oracle::NoCrash,
                           "hunt: " +
                               std::to_string(hr.unconfirmed_candidates) +
                               " candidate leak(s) did not replay to a "
                               "TaintTracker violation"};
        if (hr.verdict == hunt::HuntVerdict::Leak && !hr.replay.confirmed)
            return Finding{Oracle::NoCrash,
                           "hunt: Leak verdict without a confirmed replay"};
    }
    return std::nullopt;
}

std::optional<Finding> run_backend_diff(const std::string& source,
                                        const OracleConfig& cfg) {
    driver::JobSpec job;
    job.name = "fuzz";
    job.source = source;
    driver::DriverOptions base;
    base.jobs = 1;
    base.check = cfg.check;
    auto diffs = driver::diff_backends({job}, base);
    if (diffs.empty())
        return std::nullopt;
    std::string detail = "backends disagree:";
    size_t shown = 0;
    for (const auto& d : diffs) {
        if (++shown > 3) {
            detail += " (+" + std::to_string(diffs.size() - 3) + " more)";
            break;
        }
        detail += " [" + d.field + ": enum=" + d.enum_value + " " + d.backend +
                  "=" + d.other_value + "]";
    }
    return Finding{Oracle::BackendDiff, detail};
}

bool stmt_has_assume(const hir::Stmt* s) {
    if (s == nullptr)
        return false;
    switch (s->kind) {
    case hir::StmtKind::Assume:
        return true;
    case hir::StmtKind::Block:
        for (const auto& sub : s->stmts)
            if (stmt_has_assume(sub.get()))
                return true;
        return false;
    case hir::StmtKind::If:
        return stmt_has_assume(s->then_stmt.get()) ||
               stmt_has_assume(s->else_stmt.get());
    default:
        return false;
    }
}

std::optional<Finding> run_soundness(const std::string& source,
                                     const OracleConfig& cfg) {
    pipeline::Compilation comp = make_compilation(source, cfg);
    const check::CheckResult* res = comp.check();
    if (!res || !comp.secure())
        return std::nullopt; // only *accepted* programs carry the claim
    if (res->downgrade_count > 0)
        return std::nullopt; // downgrades break NI by design
    // assume() restricts the verified input space; random stimulus
    // ignores it, so divergence would not be a checker bug.
    for (const auto& p : comp.design()->processes)
        if (stmt_has_assume(p.body.get()))
            return std::nullopt;
    const hir::Design& d = *comp.design();
    for (LevelId obs = 0; obs < d.policy.lattice().size(); ++obs) {
        verify::NIConfig ni;
        ni.observer = obs;
        ni.cycles = cfg.ni_cycles;
        ni.trials = cfg.ni_trials;
        ni.seed = cfg.seed;
        verify::NIResult r = verify::test_noninterference(d, ni);
        if (!r.ok) {
            const auto& v = r.violations.front();
            return Finding{Oracle::Soundness,
                           "accepted program leaks to observer " +
                               d.policy.lattice().name(obs) + ": " +
                               v.description + " (trial " +
                               std::to_string(v.trial) + ", cycle " +
                               std::to_string(v.cycle) + ")"};
        }
    }
    return std::nullopt;
}

std::optional<Finding> run_round_trip(const std::string& source,
                                      const OracleConfig& cfg) {
    (void)cfg;
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    ast::CompilationUnit unit =
        Parser::parse_text(source, sm, diags, "fuzz.svlc");
    if (diags.has_errors())
        return std::nullopt; // round-trip only claimed for parseable input
    std::string printed = ast::print(unit);
    SourceManager sm2;
    DiagnosticEngine diags2(&sm2);
    ast::CompilationUnit unit2 =
        Parser::parse_text(printed, sm2, diags2, "printed.svlc");
    if (diags2.has_errors())
        return Finding{Oracle::RoundTrip,
                       "printer output fails to reparse: " + diags2.render()};
    std::string printed2 = ast::print(unit2);
    if (printed != printed2) {
        // Locate the first differing line for the report.
        std::stringstream a(printed), b(printed2);
        std::string la, lb;
        size_t lineno = 0;
        while (true) {
            ++lineno;
            bool ga = static_cast<bool>(std::getline(a, la));
            bool gb = static_cast<bool>(std::getline(b, lb));
            if (!ga && !gb)
                break;
            if (!ga || !gb || la != lb)
                return Finding{Oracle::RoundTrip,
                               "print/reparse/print not a fixpoint at line " +
                                   std::to_string(lineno) + ": \"" + la +
                                   "\" vs \"" + lb + "\""};
        }
        return Finding{Oracle::RoundTrip, "print/reparse/print differs"};
    }
    return std::nullopt;
}

std::optional<Finding> run_xform(const std::string& source,
                                 const OracleConfig& cfg) {
    pipeline::Compilation ref = make_compilation(source, cfg);
    if (!ref.elaborate())
        return std::nullopt;

    // Dynamic clearing: a no-op report must be a no-op in behavior; when
    // it does insert clears the result must still be well-formed and
    // simulable (trace equality is intentionally NOT preserved then).
    pipeline::Compilation cleared = make_compilation(source, cfg);
    cleared.elaborate();
    xform::ClearingReport rep =
        xform::apply_dynamic_clearing(*cleared.design());
    if (!sem::analyze_wellformed(*cleared.design(), cleared.diags()))
        return Finding{Oracle::Xform,
                       "clearing produced an ill-formed design: " +
                           cleared.render_diagnostics()};
    if (rep.inserted_writes == 0) {
        if (auto d = lockstep_diff(*ref.design(), *cleared.design(),
                                   cfg.sim_cycles, cfg.seed))
            return Finding{Oracle::Xform,
                           "no-op clearing changed behavior: " + *d};
    } else {
        sim::Simulator sim(*cleared.design());
        Rng rng(cfg.seed);
        for (uint64_t c = 0; c < cfg.sim_cycles; ++c) {
            drive_inputs(sim, *cleared.design(), rng);
            sim.step();
        }
    }
    return std::nullopt;
}

} // namespace

std::optional<Finding> run_oracle(Oracle o, const std::string& source,
                                  const OracleConfig& cfg) {
    try {
        switch (o) {
        case Oracle::NoCrash: return run_no_crash(source, cfg);
        case Oracle::BackendDiff: return run_backend_diff(source, cfg);
        case Oracle::Soundness: return run_soundness(source, cfg);
        case Oracle::RoundTrip: return run_round_trip(source, cfg);
        case Oracle::Xform: return run_xform(source, cfg);
        }
    } catch (const std::exception& e) {
        return Finding{o, std::string("exception: ") + e.what()};
    } catch (...) {
        return Finding{o, "unknown exception"};
    }
    return std::nullopt;
}

std::vector<Finding> run_oracles(const OracleSet& set,
                                 const std::string& source,
                                 const OracleConfig& cfg) {
    std::vector<Finding> out;
    for (Oracle o : {Oracle::NoCrash, Oracle::BackendDiff, Oracle::Soundness,
                     Oracle::RoundTrip, Oracle::Xform}) {
        if (!set.enabled(o))
            continue;
        if (auto f = run_oracle(o, source, cfg))
            out.push_back(std::move(*f));
    }
    return out;
}

} // namespace svlc::fuzz
