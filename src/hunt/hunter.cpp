#include "hunt/hunter.hpp"

#include "fuzz/reducer.hpp"
#include "fuzz/rng.hpp"
#include "support/json.hpp"
#include "verify/taint.hpp"

#include <algorithm>
#include <charconv>
#include <memory>
#include <sstream>

namespace svlc::hunt {

using namespace hir;

const char* hunt_verdict_name(HuntVerdict v) {
    switch (v) {
    case HuntVerdict::Leak: return "leak";
    case HuntVerdict::NoLeakFound: return "no-leak-found";
    case HuntVerdict::NoSecrets: return "no-secrets";
    }
    return "unknown";
}

namespace {

/// True when some input's label can ever evaluate above the observer —
/// otherwise no cycle can seed taint and the certificate is immediate.
bool secrets_possible(const Design& design, LevelId observer) {
    const Lattice& lat = design.policy.lattice();
    for (const Net& net : design.nets) {
        if (!net.is_input)
            continue;
        for (const auto& atom : net.label.atoms) {
            if (atom.kind == LabelAtom::Kind::Level) {
                if (!lat.flows(atom.level, observer))
                    return true;
            } else {
                LevelId constant;
                const LabelFunction& f = design.policy.function(atom.func);
                if (!f.is_constant(lat, &constant) ||
                    !lat.flows(constant, observer))
                    return true;
            }
        }
    }
    return false;
}

/// Mines constants compared against nets: `if (v == 1)` makes 1 a
/// far-better-than-random candidate for whatever input steers `v`.
struct ConstMiner {
    std::vector<std::vector<uint64_t>> per_net; // indexed by NetId
    std::vector<uint64_t> global_pool;

    explicit ConstMiner(const Design& design)
        : per_net(design.nets.size()) {
        for (const auto& p : design.processes)
            walk_stmt(*p.body);
    }

    void note(NetId net, uint64_t v) {
        per_net[net].push_back(v);
        global_pool.push_back(v);
    }

    void walk_expr(const Expr& e) {
        if (e.kind == ExprKind::Binary) {
            bool cmp = e.bin_op == BinaryOp::Eq || e.bin_op == BinaryOp::Ne ||
                       e.bin_op == BinaryOp::Lt || e.bin_op == BinaryOp::Le ||
                       e.bin_op == BinaryOp::Gt || e.bin_op == BinaryOp::Ge;
            if (cmp) {
                if (e.a->kind == ExprKind::NetRef &&
                    e.b->kind == ExprKind::Const)
                    note(e.a->net, e.b->value.value());
                if (e.b->kind == ExprKind::NetRef &&
                    e.a->kind == ExprKind::Const)
                    note(e.b->net, e.a->value.value());
            }
        }
        if (e.index)
            walk_expr(*e.index);
        if (e.a)
            walk_expr(*e.a);
        if (e.b)
            walk_expr(*e.b);
        if (e.c)
            walk_expr(*e.c);
        for (const auto& p : e.parts)
            walk_expr(*p);
    }

    void walk_stmt(const Stmt& s) {
        switch (s.kind) {
        case StmtKind::Block:
            for (const auto& st : s.stmts)
                walk_stmt(*st);
            break;
        case StmtKind::If:
            walk_expr(*s.cond);
            walk_stmt(*s.then_stmt);
            if (s.else_stmt)
                walk_stmt(*s.else_stmt);
            break;
        case StmtKind::Assign:
            if (s.lhs.index)
                walk_expr(*s.lhs.index);
            walk_expr(*s.rhs);
            break;
        case StmtKind::Assume:
            walk_expr(*s.pred);
            break;
        }
    }
};

constexpr size_t kPoolCap = 10;

/// Candidate values for one input: boundary values, constants compared
/// against this net, then constants compared against anything (steering
/// registers usually latch an input unchanged).
std::vector<uint64_t> candidate_pool(const ConstMiner& miner, const Net& net) {
    uint64_t wmask = BitVec::mask(net.width);
    std::vector<uint64_t> pool;
    auto add = [&](uint64_t v) {
        v &= wmask;
        if (pool.size() < kPoolCap &&
            std::find(pool.begin(), pool.end(), v) == pool.end())
            pool.push_back(v);
    };
    add(0);
    add(1);
    add(wmask);
    for (uint64_t v : miner.per_net[net.id])
        add(v);
    for (uint64_t v : miner.global_pool)
        add(v);
    return pool;
}

struct SearchState {
    TaintSim engine;
    HuntTrace trace;
    size_t leaks_seen = 0;
    uint64_t score = 0;

    SearchState(const Design& d, LevelId obs) : engine(d, obs) {}
};

std::string encode_trace(const Design& design, const HuntTrace& trace) {
    std::ostringstream os;
    for (size_t c = 0; c < trace.cycles.size(); ++c)
        for (const auto& [net, val] : trace.cycles[c].values)
            if (val.value() != 0)
                os << c << ' ' << design.net(net).name << ' ' << val.value()
                   << '\n';
    return os.str();
}

/// Inverse of encode_trace over `n_cycles` cycles: unmentioned or
/// unparseable assignments fall back to 0, so any line subset the
/// reducer tries is still a complete, replayable trace.
HuntTrace decode_trace(const Design& design,
                       const std::vector<NetId>& inputs, size_t n_cycles,
                       const std::string& text) {
    HuntTrace trace;
    trace.cycles.resize(n_cycles);
    for (size_t c = 0; c < n_cycles; ++c)
        for (NetId in : inputs)
            trace.cycles[c].values.emplace_back(
                in, BitVec(design.net(in).width, 0));
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        std::istringstream ls(line);
        uint64_t cycle = 0, value = 0;
        std::string name;
        if (!(ls >> cycle >> name >> value) || cycle >= n_cycles)
            continue;
        NetId net = design.find_net(name);
        if (net == kInvalidNet)
            continue;
        for (auto& [n, v] : trace.cycles[cycle].values)
            if (n == net)
                v = BitVec(design.net(net).width, value);
    }
    return trace;
}

} // namespace

ReplayWitness replay_trace(const Design& design, const HuntTrace& trace,
                           LevelId observer) {
    const Lattice& lat = design.policy.lattice();
    sim::Simulator sim(design);
    verify::TaintTracker tracker(design);
    for (const CycleInputs& ci : trace.cycles) {
        for (const auto& [net, val] : ci.values)
            sim.set_input(net, val);
        tracker.step(sim);
    }
    for (const auto& v : tracker.violations())
        if (lat.flows(v.declared, observer))
            return {true, v.cycle, v.net, v.taint, v.declared};
    return {};
}

HuntResult hunt(const Design& design, const HuntOptions& opts) {
    const Lattice& lat = design.policy.lattice();
    LevelId observer =
        opts.observer == kInvalidLevel ? lat.bottom() : opts.observer;

    HuntResult res;
    res.observer = observer;
    res.depth = opts.depth;
    res.seed = opts.seed;

    if (!secrets_possible(design, observer)) {
        res.verdict = HuntVerdict::NoSecrets;
        return res;
    }

    std::vector<NetId> inputs;
    for (const Net& net : design.nets)
        if (net.is_input)
            inputs.push_back(net.id);

    ConstMiner miner(design);
    std::vector<std::vector<uint64_t>> pools(design.nets.size());
    for (NetId in : inputs)
        pools[in] = candidate_pool(miner, design.net(in));

    size_t beam = std::max<size_t>(1, opts.beam);
    size_t branch = std::max<size_t>(1, opts.branch);

    std::vector<std::unique_ptr<SearchState>> states;
    states.push_back(std::make_unique<SearchState>(design, observer));

    for (uint64_t cycle = 0; cycle < opts.depth; ++cycle) {
        std::vector<std::unique_ptr<SearchState>> next;
        for (size_t si = 0; si < states.size(); ++si) {
            for (size_t b = 0; b < branch; ++b) {
                // Independent deterministic stream per (cycle, state,
                // branch): reproducible from the seed alone.
                fuzz::Rng rng(fuzz::Rng::derive(
                    opts.seed, (cycle * 8191 + si) * 131 + b));
                auto st = std::make_unique<SearchState>(*states[si]);
                CycleInputs ci;
                for (NetId in : inputs) {
                    const Net& net = design.net(in);
                    const auto& pool = pools[in];
                    // Mostly mined/boundary constants, occasionally a
                    // raw random word to escape the pool.
                    uint64_t v = rng.chance(85)
                                     ? rng.pick(pool)
                                     : (rng.next() & BitVec::mask(net.width));
                    BitVec bv(net.width, v);
                    st->engine.set_input(in, bv);
                    ci.values.emplace_back(in, bv);
                }
                st->trace.cycles.push_back(std::move(ci));
                st->engine.step();
                ++res.assignments_tried;

                if (st->engine.leaks().size() > st->leaks_seen) {
                    st->leaks_seen = st->engine.leaks().size();
                    const LeakEvent& ev = st->engine.leaks().back();
                    ReplayWitness w =
                        replay_trace(design, st->trace, observer);
                    if (w.confirmed) {
                        res.verdict = HuntVerdict::Leak;
                        res.trace = st->trace;
                        res.leak = ev;
                        res.replay = w;
                        res.states_explored += next.size() + 1;
                        if (opts.minimize) {
                            // Same ddmin engine as `svlc reduce`, over a
                            // line-per-assignment encoding: dropped lines
                            // become zero inputs, and every kept
                            // candidate must still replay-confirm.
                            size_t n_cycles = res.trace.cycles.size();
                            fuzz::ReduceOptions ropts;
                            ropts.max_attempts = 256;
                            ropts.max_rounds = 4;
                            auto still_leaks =
                                [&](const std::string& text) {
                                    ++res.minimize_replays;
                                    return replay_trace(
                                               design,
                                               decode_trace(design, inputs,
                                                            n_cycles, text),
                                               observer)
                                        .confirmed;
                                };
                            fuzz::ReduceResult rr = fuzz::reduce_text(
                                encode_trace(design, res.trace),
                                still_leaks, ropts);
                            res.trace = decode_trace(design, inputs,
                                                     n_cycles, rr.text);
                            res.replay =
                                replay_trace(design, res.trace, observer);
                            ++res.minimize_replays;
                        }
                        return res;
                    }
                    ++res.unconfirmed_candidates;
                }
                st->score = st->engine.taint_score();
                next.push_back(std::move(st));
            }
        }
        res.states_explored += next.size();
        // Keep the most-tainted states; stable order breaks ties toward
        // earlier (lower-index) parents for determinism.
        std::stable_sort(next.begin(), next.end(),
                         [](const auto& a, const auto& b) {
                             return a->score > b->score;
                         });
        if (next.size() > beam)
            next.resize(beam);
        states = std::move(next);
    }

    res.verdict = HuntVerdict::NoLeakFound;
    return res;
}

std::string render_hunt(const Design& design, const HuntResult& r) {
    const Lattice& lat = design.policy.lattice();
    std::ostringstream os;
    os << "hunt: " << hunt_verdict_name(r.verdict) << " (observer "
       << lat.name(r.observer) << ", depth " << r.depth << ", seed "
       << r.seed << ")\n";
    switch (r.verdict) {
    case HuntVerdict::NoSecrets:
        os << "  certificate: no input label can rise above the observer; "
              "nothing to leak\n";
        break;
    case HuntVerdict::NoLeakFound:
        os << "  no leak found in " << r.depth
           << " cycles over " << r.assignments_tried
           << " input assignments (" << r.states_explored << " states)\n";
        break;
    case HuntVerdict::Leak: {
        os << "  net '" << design.net(r.replay.net).name << "' at cycle "
           << r.replay.cycle << ": taint " << lat.name(r.replay.taint)
           << " does not flow to declared " << lat.name(r.replay.declared)
           << "\n";
        os << "  replay: "
           << (r.replay.confirmed ? "confirmed (Simulator + TaintTracker)"
                                  : "UNCONFIRMED")
           << "\n";
        os << "  trace (" << r.trace.cycles.size() << " cycles):\n";
        for (size_t c = 0; c < r.trace.cycles.size(); ++c) {
            os << "    cycle " << c << ":";
            for (const auto& [net, val] : r.trace.cycles[c].values)
                os << ' ' << design.net(net).name << '=' << val.str();
            os << "\n";
        }
        os << "  search: " << r.states_explored << " states, "
           << r.assignments_tried << " assignments, "
           << r.minimize_replays << " minimization replays\n";
        break;
    }
    }
    return os.str();
}

std::string hunt_json(const Design& design, const HuntResult& r) {
    const Lattice& lat = design.policy.lattice();
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-hunt/v1");
    w.kv("verdict", hunt_verdict_name(r.verdict));
    w.kv("observer", lat.name(r.observer));
    w.kv("depth", r.depth);
    w.kv("seed", r.seed);
    w.kv("states_explored", r.states_explored);
    w.kv("assignments_tried", r.assignments_tried);
    w.kv("unconfirmed_candidates", r.unconfirmed_candidates);
    if (r.verdict == HuntVerdict::Leak) {
        w.key("leak").begin_object();
        w.kv("net", design.net(r.replay.net).name);
        w.kv("cycle", r.replay.cycle);
        w.kv("taint", lat.name(r.replay.taint));
        w.kv("declared", lat.name(r.replay.declared));
        w.kv("taint_bits", r.leak.taint);
        w.kv("replay_confirmed", r.replay.confirmed);
        w.end_object();
        w.key("trace").begin_array();
        for (size_t c = 0; c < r.trace.cycles.size(); ++c) {
            w.begin_object();
            w.kv("cycle", static_cast<uint64_t>(c));
            w.key("inputs").begin_object();
            for (const auto& [net, val] : r.trace.cycles[c].values)
                w.kv(design.net(net).name, val.value());
            w.end_object();
            w.end_object();
        }
        w.end_array();
        w.kv("minimize_replays", r.minimize_replays);
    }
    w.end_object();
    return w.str();
}

} // namespace svlc::hunt
