#include "fuzz/oracles.hpp"

#include "driver/driver.hpp"
#include "fuzz/rng.hpp"
#include "hunt/hunter.hpp"
#include "parse/parser.hpp"
#include "pipeline/compilation.hpp"
#include "sem/wellformed.hpp"
#include "sim/simulator.hpp"
#include "verify/noninterference.hpp"
#include "verify/taint.hpp"
#include "xform/clearing.hpp"

#include <algorithm>
#include <sstream>

namespace svlc::fuzz {

const char* oracle_name(Oracle o) {
    switch (o) {
    case Oracle::NoCrash: return "no-crash";
    case Oracle::BackendDiff: return "diff";
    case Oracle::Soundness: return "soundness";
    case Oracle::Xform: return "xform";
    case Oracle::Modular: return "modular";
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
    case Oracle::Xform: return xform;
    case Oracle::Modular: return modular;
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
        else if (item == "xform")
            out.xform = true;
        else if (item == "modular")
            out.modular = true;
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

/// The refinement invariant of docs/HUNT.md on every slot: Simulator +
/// TaintTracker and one TaintSim per observer level step on the same
/// stimulus, and after every cycle a scalar net or array element with a
/// non-zero mask must hold a tracker level that does not flow to that
/// observer. Returns the first slot that breaks it.
std::optional<std::string> refinement_violation(const hir::Design& d,
                                                const OracleConfig& cfg) {
    const Lattice& lat = d.policy.lattice();
    sim::Simulator sim(d);
    verify::TaintTracker tracker(d);
    std::vector<hunt::TaintSim> shadows;
    for (LevelId o = 0; o < lat.size(); ++o)
        shadows.emplace_back(d, o);
    Rng rng(cfg.seed);
    for (uint64_t c = 0; c < cfg.sim_cycles; ++c) {
        for (const auto& n : d.nets) {
            if (!n.is_input)
                continue;
            BitVec v(n.width, rng.next());
            sim.set_input(n.id, v);
            for (hunt::TaintSim& ts : shadows)
                ts.set_input(n.id, v);
        }
        tracker.step(sim);
        for (LevelId o = 0; o < lat.size(); ++o) {
            shadows[o].step();
            for (const auto& n : d.nets) {
                for (uint64_t i = 0; i < std::max<uint64_t>(n.array_size, 1);
                     ++i) {
                    bool scalar = n.array_size == 0;
                    uint64_t mask = scalar ? shadows[o].taint(n.id)
                                           : shadows[o].array_taint(n.id, i);
                    LevelId level = scalar ? tracker.taint(n.id)
                                           : tracker.array_taint(n.id, i);
                    if (mask != 0 && lat.flows(level, o))
                        return "cycle " + std::to_string(c) + ": " + n.name +
                               (scalar ? "" : "[" + std::to_string(i) + "]") +
                               " is tainted for observer " + lat.name(o) +
                               " but the tracker's level flows to it";
                }
            }
        }
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

        if (auto v = refinement_violation(*d, cfg))
            return Finding{Oracle::NoCrash, "refinement: " + *v};

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

/// The rendered diagnostics and the check report, with or without
/// modular checking.
std::pair<std::string, std::string>
checked_output(const std::string& source, const OracleConfig& cfg,
               bool modular) {
    OracleConfig c = cfg;
    c.check.modular = modular;
    pipeline::Compilation comp = make_compilation(source, c);
    const check::CheckResult* res = comp.check();
    return {comp.render_diagnostics(),
            res ? pipeline::check_report_json(comp, *res, "fuzz.svlc") : ""};
}

/// 1-based line of the first byte where `a` and `b` differ.
size_t first_differing_line(const std::string& a, const std::string& b) {
    auto at = std::mismatch(a.begin(), a.end(), b.begin(), b.end()).first;
    return 1 + static_cast<size_t>(std::count(a.begin(), at, '\n'));
}

std::optional<Finding> run_modular(const std::string& source,
                                   const OracleConfig& cfg) {
    auto [flat_diags, flat_report] = checked_output(source, cfg, false);
    auto [diags, report] = checked_output(source, cfg, true);
    const char* part = flat_diags != diags     ? "diagnostics"
                       : flat_report != report ? "report"
                                               : nullptr;
    if (part == nullptr)
        return std::nullopt;
    size_t line = part[0] == 'd' ? first_differing_line(flat_diags, diags)
                                 : first_differing_line(flat_report, report);
    return Finding{Oracle::Modular,
                   std::string("modular checking diverges from the "
                               "flattened reference: ") +
                       part + " differ at line " + std::to_string(line)};
}

} // namespace

std::optional<Finding> run_oracle(Oracle o, const std::string& source,
                                  const OracleConfig& cfg) {
    try {
        switch (o) {
        case Oracle::NoCrash: return run_no_crash(source, cfg);
        case Oracle::BackendDiff: return run_backend_diff(source, cfg);
        case Oracle::Soundness: return run_soundness(source, cfg);
        case Oracle::Xform: return run_xform(source, cfg);
        case Oracle::Modular: return run_modular(source, cfg);
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
    for (Oracle o : kAllOracles) {
        if (!set.enabled(o))
            continue;
        if (auto f = run_oracle(o, source, cfg))
            out.push_back(std::move(*f));
    }
    return out;
}

} // namespace svlc::fuzz
