// E11b: the entailment engine — microbenchmarks of the decision
// procedure that discharges C(•η) ⇒ τ⊔pc ⊑ τ' (syntactic fast path vs
// dependency-closed enumeration), the enumeration-budget sweep, the
// enum-reference vs cdcl-production backend comparison over the hdl/
// corpus (emitted as BENCH_solver.json, schema svlc-bench-solver/v3, for
// CI dashboards), and the cost of building the facts the solver reads:
// defining equations and guarded writes on the processors.
#include "bench_util.hpp"
#include "driver/driver.hpp"
#include "proc/sources.hpp"
#include "sem/updates.hpp"
#include "solver/entail.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <vector>

namespace {

using namespace svlc;
using svlc::bench::compile;

/// A mode register driven through a chain of N combinational stages; the
/// goal needs the solver to chase equations through the whole chain.
std::string chained_guard(int depth) {
    std::ostringstream os;
    os << "lattice { level T; level U; flow T -> U; }\n";
    os << "function lb(x:1) { 0 -> T; default -> U; }\n";
    os << "module m(input com {T} g0, input com [7:0] {U} din);\n";
    os << "  reg seq {T} mode;\n";
    os << "  reg seq [7:0] {lb(mode)} r;\n";
    for (int i = 1; i <= depth; ++i)
        os << "  wire com {T} g" << i << ";\n";
    for (int i = 1; i <= depth; ++i)
        os << "  assign g" << i << " = g" << i - 1 << ";\n";
    os << "  always @(seq) begin\n";
    os << "    if (g" << depth << ") mode <= ~mode;\n";
    os << "  end\n";
    os << "  always @(seq) begin\n";
    os << "    if (g" << depth
       << " && (mode == 1'b1) && (next(mode) == 1'b0)) r <= 8'h0;\n";
    os << "    else if (mode == 1'b1) r <= din;\n";
    os << "  end\nendmodule\n";
    return os.str();
}

void print_table() {
    svlc::bench::heading(
        "E11b: entailment-engine statistics",
        "obligations are mostly discharged syntactically; the rest "
        "enumerate only\nthe small label-relevant state (never the design's "
        "full state space)");
    std::printf("%-28s %12s %12s %12s %14s\n", "design", "queries",
                "syntactic", "enumerated", "cand./query");
    for (int depth : {1, 4, 8}) {
        auto design = compile(chained_guard(depth));
        auto result = svlc::bench::check(*design);
        const auto& st = result.solver_stats;
        std::printf("guard chain depth %-10d %12llu %12llu %12llu %14.1f\n",
                    depth, static_cast<unsigned long long>(st.queries),
                    static_cast<unsigned long long>(st.syntactic_hits),
                    static_cast<unsigned long long>(st.enumerations),
                    st.enumerations
                        ? static_cast<double>(st.total_candidates) /
                              static_cast<double>(st.enumerations)
                        : 0.0);
    }
}

// --- enum vs cdcl over the corpus ------------------------------------------

/// Every design the backend comparison runs: the on-disk hdl/ corpus, the
/// four built-in processor variants, and two enumeration-heavy synthetic
/// guard chains.
std::vector<driver::JobSpec> corpus_jobs() {
    std::vector<driver::JobSpec> jobs;
    std::string error;
#ifdef SVLC_HDL_DIR
    driver::jobs_from_directory(SVLC_HDL_DIR, jobs, error);
#endif
    auto cpus = driver::builtin_cpu_jobs();
    jobs.insert(jobs.end(), std::make_move_iterator(cpus.begin()),
                std::make_move_iterator(cpus.end()));
    for (int depth : {4, 8}) {
        driver::JobSpec j;
        j.name = "synthetic:guard-chain-" + std::to_string(depth);
        j.source = chained_guard(depth);
        jobs.push_back(std::move(j));
    }
    return jobs;
}

struct BackendRun {
    double total_ms = 0;     ///< summed per-obligation solver time
    size_t obligations = 0;
    uint64_t candidates = 0; ///< enumeration candidates visited
    uint64_t conflicts = 0;  ///< CDCL search telemetry (zero otherwise)
    uint64_t propagations = 0;
    uint64_t learned_clauses = 0;
    uint64_t restarts = 0;
    std::vector<double> per_ob_ms;
};

constexpr solver::BackendKind kBackends[] = {solver::BackendKind::Enum,
                                             solver::BackendKind::Cdcl};
constexpr size_t kNumBackends = sizeof(kBackends) / sizeof(kBackends[0]);

double percentile(std::vector<double> v, double p) {
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
    return v[i];
}

BackendRun run_corpus(solver::BackendKind kind,
                      const std::vector<driver::JobSpec>& jobs) {
    BackendRun run;
    for (const driver::JobSpec& job : jobs) {
        std::string text = job.source;
        if (text.empty() && !read_file(job.path, text))
            continue;
        pipeline::CompilationOptions opts;
        opts.top = job.top;
        opts.check.solver.backend = kind;
        pipeline::Compilation comp(std::move(opts));
        comp.load_text(text, job.name);
        const check::CheckResult* res = comp.check();
        if (!res)
            continue;
        for (const check::Obligation& ob : res->obligations) {
            run.per_ob_ms.push_back(ob.solve_ms);
            run.total_ms += ob.solve_ms;
            run.candidates += ob.result.candidates;
            run.conflicts += ob.result.conflicts;
            run.propagations += ob.result.propagations;
            run.learned_clauses += ob.result.learned_clauses;
            run.restarts += ob.result.restarts;
        }
        run.obligations += res->obligations.size();
    }
    return run;
}

void write_backend(JsonWriter& w, const char* id, const BackendRun& r) {
    w.key(id).begin_object();
    w.kv("total_ms", r.total_ms, 3);
    w.kv("obligations", r.obligations);
    w.kv("candidates", r.candidates);
    w.kv("conflicts", r.conflicts);
    w.kv("propagations", r.propagations);
    w.kv("learned_clauses", r.learned_clauses);
    w.kv("restarts", r.restarts);
    w.kv("p50_ms", percentile(r.per_ob_ms, 0.50), 4);
    w.kv("p95_ms", percentile(r.per_ob_ms, 0.95), 4);
    w.end_object();
}

void backend_comparison() {
    svlc::bench::heading(
        "E11c: entailment backends over the verification corpus",
        "enum is the reference oracle (plain mixed-radix enumeration); cdcl, "
        "the\nproduction backend, searches conflict-driven over "
        "arena-compiled terms\nand bit-packed level tuples. Both return "
        "identical verdicts and witnesses.");

    std::vector<driver::JobSpec> jobs = corpus_jobs();
    // One untimed warm-up per backend, then keep the best of three reps so
    // the table isn't dominated by first-touch allocator noise.
    BackendRun runs[kNumBackends];
    constexpr int kReps = 3;
    for (int rep = -1; rep < kReps; ++rep) {
        for (size_t i = 0; i < kNumBackends; ++i) {
            BackendRun r = run_corpus(kBackends[i], jobs);
            if (rep < 0)
                continue; // warm-up
            if (rep == 0 || r.total_ms < runs[i].total_ms)
                runs[i] = std::move(r);
        }
    }

    std::printf("%-14s %12s %12s %12s %12s %12s\n", "backend", "total ms",
                "obligations", "candidates", "p50 us", "p95 us");
    for (size_t i = 0; i < kNumBackends; ++i) {
        const BackendRun& r = runs[i];
        std::printf("%-14s %12.3f %12zu %12llu %12.2f %12.2f\n",
                    solver::backend_id(kBackends[i]), r.total_ms, r.obligations,
                    static_cast<unsigned long long>(r.candidates),
                    percentile(r.per_ob_ms, 0.50) * 1e3,
                    percentile(r.per_ob_ms, 0.95) * 1e3);
    }
    double speedup =
        runs[1].total_ms > 0 ? runs[0].total_ms / runs[1].total_ms : 0.0;
    std::printf("speedup: enum/cdcl %.2fx\n", speedup);

    // v3: the enum reference and the cdcl production backend only (v2
    // also carried prune and two cdcl ablation rows); "enum/cdcl" =
    // total_ms(enum) / total_ms(cdcl).
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-bench-solver/v3");
    w.kv("designs", jobs.size());
    w.key("backends").begin_object();
    for (size_t i = 0; i < kNumBackends; ++i)
        write_backend(w, solver::backend_id(kBackends[i]), runs[i]);
    w.end_object();
    w.key("speedups").begin_object();
    w.kv("enum/cdcl", speedup, 3);
    w.end_object();
    w.end_object();
    std::ofstream out("BENCH_solver.json");
    out << w.str() << "\n";
    std::printf("wrote BENCH_solver.json\n");
}

void bm_entailment_query(benchmark::State& state) {
    auto design = compile(chained_guard(static_cast<int>(state.range(0))));
    sem::Equations eqs = sem::build_equations(*design);
    solver::EntailmentEngine engine(*design, eqs);

    // The interesting obligation: din (U) into lb(mode') under the guard.
    hir::NetId mode = design->find_net("mode");
    FuncId lb = *design->policy.find_function("lb");
    solver::SolverLabel lhs = solver::SolverLabel::level(
        *design->policy.lattice().find("U"));
    solver::SolverLabel rhs;
    solver::SolverAtom atom;
    atom.kind = solver::SolverAtom::Kind::Func;
    atom.func = lb;
    atom.args.push_back({mode, true});
    rhs.atoms.push_back(atom);

    hir::ExprPtr guard = hir::Expr::make_binary(
        hir::BinaryOp::Eq, hir::Expr::make_net(mode, 1, false),
        hir::Expr::make_const(BitVec(1, 1)));
    std::vector<const hir::Expr*> facts{guard.get()};
    for (auto _ : state) {
        auto result = engine.check_flow(lhs, rhs, facts);
        benchmark::DoNotOptimize(result.status);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(bm_entailment_query)->Arg(1)->Arg(4)->Arg(8);

void bm_syntactic_fast_path(benchmark::State& state) {
    auto design = compile(chained_guard(1));
    sem::Equations eqs = sem::build_equations(*design);
    solver::EntailmentEngine engine(*design, eqs);
    LevelId t = *design->policy.lattice().find("T");
    LevelId u = *design->policy.lattice().find("U");
    auto lhs = solver::SolverLabel::level(t);
    auto rhs = solver::SolverLabel::level(u);
    for (auto _ : state) {
        auto result = engine.check_flow(lhs, rhs, {});
        benchmark::DoNotOptimize(result.status);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(bm_syntactic_fast_path);

// --- equations and register writes on the processors ----------------------

/// Every register's next-cycle equation and recorded writes, as the
/// checker builds them for one labeled core and for the four-core ring.
void bm_build_equations_cpu_scale(benchmark::State& state,
                                  std::string (*source)()) {
    auto design = compile(source());
    for (auto _ : state) {
        auto eqs = sem::build_equations(*design);
        benchmark::DoNotOptimize(eqs.defs.size());
    }
}
BENCHMARK_CAPTURE(bm_build_equations_cpu_scale, labeled,
                  proc::labeled_cpu_source);
BENCHMARK_CAPTURE(bm_build_equations_cpu_scale, quad, proc::quad_core_source);

} // namespace

int main(int argc, char** argv) {
    print_table();
    backend_comparison();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
