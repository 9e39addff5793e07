// The check flow: every design checked cold, one at a time, through
// pipeline::Compilation, then the same set through the batch driver with
// two workers and no store. Traced rounds run the pipeline's phases one
// call at a time (the sequence Compilation::elaborate/check makes) so
// each phase gets its own span.
#include "corpus.hpp"
#include "trace.hpp"

#include "check/typecheck.hpp"
#include "driver/driver.hpp"
#include "parse/lexer.hpp"
#include "parse/parser.hpp"
#include "pipeline/compilation.hpp"
#include "sem/elaborate.hpp"
#include "sem/updates.hpp"
#include "sem/wellformed.hpp"

namespace perfbench {

namespace {

using namespace svlc;

void count_check(Tracer& tr, const check::CheckResult& res) {
    double solve_ms = 0;
    for (const check::Obligation& ob : res.obligations)
        solve_ms += ob.solve_ms;
    const solver::EntailmentEngine::Stats& s = res.solver_stats;
    tr.add("check.obligations", static_cast<double>(res.obligations.size()));
    tr.add("solver.ms", solve_ms);
    tr.add("solver.queries", static_cast<double>(s.queries));
    tr.add("solver.syntactic_hits", static_cast<double>(s.syntactic_hits));
    tr.add("solver.enumerations", static_cast<double>(s.enumerations));
    tr.add("solver.conflicts", static_cast<double>(s.conflicts));
    tr.add("solver.propagations", static_cast<double>(s.propagations));
    tr.add("solver.learned_clauses", static_cast<double>(s.learned_clauses));
}

/// Cold check through the Compilation facade. Returns the verdict, or
/// nullopt when the design did not get through the pipeline.
std::optional<bool> check_untraced(const Design& d) {
    pipeline::CompilationOptions opts;
    opts.top = d.top;
    opts.check = check_options();
    pipeline::Compilation comp(std::move(opts));
    comp.load_text(d.source, d.name);
    const check::CheckResult* res = comp.check();
    if (!res || res->timed_out)
        return std::nullopt;
    return comp.secure();
}

/// The same phases, one call each, inside spans.
std::optional<bool> check_traced(Tracer& tr, const Design& d,
                                 std::unique_ptr<hir::Design>& design) {
    Tracer::Scope whole(&tr, "design");
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    ast::CompilationUnit unit;
    {
        Tracer::Scope s(&tr, "parse");
        uint32_t id = sm.add_buffer(d.name, d.source);
        std::vector<Token> tokens =
            Lexer(sm.buffer_text(id), id, diags).lex_all();
        tr.add("parse.tokens", static_cast<double>(tokens.size()));
        unit = Parser(std::move(tokens), diags).parse_unit();
    }
    if (diags.has_errors())
        return std::nullopt;
    {
        Tracer::Scope s(&tr, "sem.elaborate");
        sem::ElaborateOptions eopts;
        eopts.top = d.top;
        design = sem::elaborate(unit, diags, eopts);
    }
    if (!design || diags.has_errors())
        return std::nullopt;
    {
        Tracer::Scope s(&tr, "sem.wellformed");
        sem::analyze_wellformed(*design, diags);
    }
    if (diags.has_errors())
        return std::nullopt;
    tr.add("sem.nets", static_cast<double>(design->nets.size()));
    check::CheckResult res;
    {
        Tracer::Scope s(&tr, "check");
        res = check::check_design(*design, diags, check_options());
    }
    count_check(tr, res);
    if (res.timed_out)
        return std::nullopt;
    return res.ok && !diags.has_errors();
}

class CheckFlow final : public Flow {
public:
    CheckFlow(Scale scale, uint64_t seed) : scale_(scale), seed_(seed) {}

    void setup() override {
        designs_ = scale_ == Scale::Full ? check_corpus(seed_)
                                         : check_probe_corpus();
        jobs_.clear();
        for (const Design& d : designs_) {
            driver::JobSpec spec;
            spec.name = d.name;
            spec.source = d.source;
            spec.top = d.top;
            jobs_.push_back(std::move(spec));
        }
        check_ms_.assign(designs_.size(), {});
        batch_ms_.clear();
    }

    void round(Tracer* tr, Tally& tally) override {
        for (size_t i = 0; i < designs_.size(); ++i) {
            const Design& d = designs_[i];
            std::optional<bool> secure;
            if (tr) {
                tr->new_request();
                std::unique_ptr<hir::Design> design;
                check_ms_[i].push_back(timed_ms(
                    [&] { secure = check_traced(*tr, d, design); }));
                if (design) {
                    // Timed apart: the checker builds its own copy.
                    Tracer::Scope s(tr, "sem.equations");
                    sem::build_equations(*design);
                }
            } else {
                check_ms_[i].push_back(
                    timed_ms([&] { secure = check_untraced(d); }));
            }
            tally.op(secure.has_value(), "check " + d.name);
            if (secure)
                tally.verdict(*secure == d.secure, "check " + d.name);
        }
        batch_ms_.push_back(run_batch(tr, tally, true, "driver.run"));
        if (tr)
            tr->add("check.rounds", 1);
    }

    void traced_probes(Tracer& tr, Tally& tally) override {
        run_batch(&tr, tally, false, "driver.cache_off");
    }

    void end_to_end(Metrics& out) const override {
        double check_ms = 0;
        for (const std::vector<double>& samples : check_ms_)
            check_ms += median(samples);
        out.set("check_s", check_ms / 1000.0);
        out.set("batch_s", median(batch_ms_) / 1000.0);
    }

private:
    /// Runs the batch; returns its wall time in reference ms.
    double run_batch(Tracer* tr, Tally& tally, bool use_cache,
                     const char* span) {
        driver::DriverOptions opts;
        // The probe's batch runs on one worker: a second thread's wake-ups
        // made its few-millisecond wall time swing by half between runs.
        opts.jobs = scale_ == Scale::Full ? 2 : 1;
        opts.use_cache = use_cache;
        opts.check = check_options();
        driver::VerificationDriver drv(opts);
        if (tr)
            tr->new_request();
        driver::BatchReport rep;
        double wall = 0;
        const double paced = timed_ms([&] {
            Tracer::Scope s(tr, span);
            Clock::time_point t0 = Clock::now();
            rep = drv.run(jobs_);
            wall = ms_since(t0);
        }, static_cast<size_t>(opts.jobs));
        for (size_t i = 0; i < rep.results.size(); ++i) {
            const driver::JobResult& r = rep.results[i];
            bool ran = r.status == driver::JobStatus::Secure ||
                       r.status == driver::JobStatus::Rejected;
            tally.op(ran, "batch " + r.name);
            if (ran)
                tally.verdict((r.status == driver::JobStatus::Secure) ==
                                  designs_[i].secure,
                              "batch " + r.name);
        }
        if (tr && use_cache) {
            double cpu = 0;
            for (const driver::JobResult& r : rep.results) {
                tr->sample("driver.job_ms", r.wall_ms);
                cpu += r.cpu_ms;
            }
            tr->add("driver.cpu_ms", cpu);
            tr->add("driver.worker_ms",
                    wall * static_cast<double>(rep.workers));
            tr->add("driver.cache.hits", static_cast<double>(rep.cache.hits));
            tr->add("driver.cache.misses",
                    static_cast<double>(rep.cache.misses));
            tr->add("driver.cache.entries",
                    static_cast<double>(rep.cache.entries));
        }
        return paced;
    }

    Scale scale_;
    uint64_t seed_;
    std::vector<Design> designs_;
    std::vector<driver::JobSpec> jobs_;
    std::vector<std::vector<double>> check_ms_;
    std::vector<double> batch_ms_;
};

} // namespace

std::unique_ptr<Flow> make_check_flow(Scale scale, uint64_t seed) {
    return std::make_unique<CheckFlow>(scale, seed);
}

} // namespace perfbench
