#include "driver/driver.hpp"

#include "hunt/hunter.hpp"
#include "incr/fingerprint.hpp"
#include "pipeline/compilation.hpp"
#include "proc/sources.hpp"
#include "support/fsutil.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <exception>
#include <thread>

#ifdef __linux__
#include <ctime>
#endif

namespace svlc::driver {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

/// Per-thread CPU time in milliseconds (wall-clock fallback elsewhere).
double thread_cpu_ms() {
#ifdef __linux__
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return static_cast<double>(ts.tv_sec) * 1e3 +
               static_cast<double>(ts.tv_nsec) * 1e-6;
#endif
    return std::chrono::duration<double, std::milli>(
               Clock::now().time_since_epoch())
        .count();
}

/// Persists a deterministic (Secure/Rejected) verdict under `fp`.
void store_job_verdict(incr::ArtifactStore& store, const std::string& fp,
                       const JobResult& res) {
    if (res.status != JobStatus::Secure && res.status != JobStatus::Rejected)
        return;
    incr::StoredVerdict v;
    v.secure = res.status == JobStatus::Secure;
    v.obligations = res.obligations;
    v.failed = res.failed;
    v.downgrades = res.downgrades;
    v.diagnostics = res.diagnostics;
    v.flagged = res.flagged;
    store.store_verdict(fp, v);
}

/// The JobResult a fingerprint hit replays: exactly the verdict-set
/// fields a fresh run reports (timings and solver stats zero).
JobResult job_result_from_verdict(const std::string& name,
                                  const std::string& fp,
                                  incr::StoredVerdict verdict) {
    JobResult res;
    res.name = name;
    res.status = verdict.secure ? JobStatus::Secure : JobStatus::Rejected;
    res.skipped = true;
    res.fingerprint = fp;
    res.attempts = 0;
    res.obligations = verdict.obligations;
    res.failed = verdict.failed;
    res.downgrades = verdict.downgrades;
    res.flagged = std::move(verdict.flagged);
    res.diagnostics = std::move(verdict.diagnostics);
    return res;
}

} // namespace

const char* job_status_name(JobStatus s) {
    switch (s) {
    case JobStatus::Secure: return "secure";
    case JobStatus::Rejected: return "rejected";
    case JobStatus::Error: return "error";
    case JobStatus::Timeout: return "timeout";
    }
    return "unknown";
}

VerificationDriver::VerificationDriver(DriverOptions opts)
    : opts_(std::move(opts)) {
    if (!opts_.store_dir.empty()) {
        incr::StoreOptions sopts;
        sopts.dir = opts_.store_dir;
        auto store = std::make_unique<incr::ArtifactStore>(sopts);
        std::string error;
        if (store->open(error)) {
            store_ = std::move(store);
        } else {
            // A broken store degrades to a cold run, never a failed one.
            std::fprintf(stderr, "svlc: store disabled: %s\n",
                         error.c_str());
        }
    }
}

JobResult verify_text(pipeline::Compilation& comp, const JobSpec& spec,
                      const std::string& text, uint64_t default_timeout_ms,
                      solver::EntailCache* cache,
                      incr::ArtifactStore* store) {
    JobResult res;
    res.name = spec.name;

    Clock::time_point start = Clock::now();
    double cpu_start = thread_cpu_ms();
    uint64_t timeout_ms =
        spec.timeout_ms ? spec.timeout_ms : default_timeout_ms;
    Clock::time_point deadline{};
    if (timeout_ms)
        deadline = start + std::chrono::milliseconds(timeout_ms);
    auto finish = [&](JobStatus status) {
        res.status = status;
        res.wall_ms = ms_since(start);
        res.cpu_ms = thread_cpu_ms() - cpu_start;
        if (store) {
            res.fingerprint = incr::job_fingerprint(
                spec.name, text, spec.top, comp.options().check);
            store_job_verdict(*store, res.fingerprint, res);
        }
        return res;
    };

    comp.options().top = spec.top;
    comp.options().check.solver.deadline = deadline;
    comp.options().check.solver.cache = cache;
    comp.reload_text(text, spec.name);
    if (!comp.elaborate()) {
        res.diagnostics = comp.render_diagnostics();
        return finish(JobStatus::Rejected);
    }
    const check::CheckResult& cres = *comp.check();

    res.obligations = cres.obligations.size();
    res.failed = cres.failed;
    res.downgrades = cres.downgrade_count;
    for (const check::Obligation& ob : cres.obligations)
        if (!ob.result.proven())
            res.flagged.push_back(pipeline::make_obligation_record(
                ob, *comp.design(), &comp.sources()));
    res.solver = cres.solver_stats;
    res.modular = cres.modular;
    res.diagnostics = comp.render_diagnostics();
    if (cres.timed_out)
        return finish(JobStatus::Timeout);
    return finish(cres.ok ? JobStatus::Secure : JobStatus::Rejected);
}

JobResult hunt_text(const JobSpec& spec, const std::string& text) {
    JobResult res;
    res.name = spec.name;
    Clock::time_point start = Clock::now();
    double cpu_start = thread_cpu_ms();
    auto finish = [&](JobStatus status) {
        res.status = status;
        res.wall_ms = ms_since(start);
        res.cpu_ms = thread_cpu_ms() - cpu_start;
        return res;
    };

    pipeline::CompilationOptions popts;
    popts.top = spec.top;
    pipeline::Compilation comp(std::move(popts));
    comp.load_text(text, spec.name);
    if (!comp.elaborate()) {
        res.diagnostics = comp.render_diagnostics();
        return finish(JobStatus::Rejected);
    }
    hunt::HuntOptions hopts;
    hopts.depth = spec.hunt_depth;
    hunt::HuntResult hr = hunt::hunt(*comp.design(), hopts);
    res.diagnostics = hunt::render_hunt(*comp.design(), hr);
    // A confirmed leak trace is the hunt analogue of a flow violation; a
    // bounded certificate (or a secret-free design) the analogue of a
    // clean check. Hunt never times out — the depth bound is the budget.
    return finish(hr.verdict == hunt::HuntVerdict::Leak
                      ? JobStatus::Rejected
                      : JobStatus::Secure);
}

JobResult VerificationDriver::run_job_once(const JobSpec& spec,
                                           const std::string& text) {
    if (spec.hunt_depth > 0)
        return hunt_text(spec, text);
    pipeline::CompilationOptions popts;
    popts.check = opts_.check;
    pipeline::Compilation comp(std::move(popts));
    return verify_text(comp, spec, text, opts_.timeout_ms,
                       opts_.use_cache ? &cache_ : nullptr, store_.get());
}

JobResult VerificationDriver::run_job(const JobSpec& spec) {
    std::string text = spec.source;
    if (text.empty() && !spec.path.empty() && !read_file(spec.path, text)) {
        JobResult res;
        res.name = spec.name;
        res.status = JobStatus::Error;
        res.diagnostics = "cannot open '" + spec.path + "'";
        return res;
    }

    // Fingerprint gate: an unchanged job (same source bytes, top, checker
    // configuration, tool version) replays its stored verdict without
    // touching the pipeline at all. Hunt jobs stay outside the store:
    // the fingerprint does not cover search depth or seed, so a cached
    // check verdict and a hunt outcome must never alias.
    std::string fp;
    if (store_ && spec.hunt_depth == 0) {
        fp = incr::job_fingerprint(spec.name, text, spec.top, opts_.check);
        if (auto hit = store_->load_verdict(fp))
            return job_result_from_verdict(spec.name, fp, std::move(*hit));
    }

    // Retry once on transient failure (allocation failure, filesystem
    // race, ...). Deterministic verdicts — parse errors, flow violations,
    // deadline expiry — are not retried.
    for (int attempt = 1;; ++attempt) {
        try {
            JobResult res = run_job_once(spec, text);
            res.attempts = attempt;
            return res;
        } catch (const std::exception& e) {
            if (attempt >= 2) {
                JobResult res;
                res.name = spec.name;
                res.status = JobStatus::Error;
                res.attempts = attempt;
                res.diagnostics =
                    std::string("job failed after retry: ") + e.what();
                return res;
            }
        } catch (...) {
            if (attempt >= 2) {
                JobResult res;
                res.name = spec.name;
                res.status = JobStatus::Error;
                res.attempts = attempt;
                res.diagnostics = "job failed after retry: unknown exception";
                return res;
            }
        }
    }
}

BatchReport VerificationDriver::run(const std::vector<JobSpec>& jobs) {
    BatchReport report;
    report.cache_enabled = opts_.use_cache;
    report.store_enabled = store_ != nullptr;
    report.timeout_ms = opts_.timeout_ms;
    report.solver_backend = solver::backend_id(opts_.check.solver.backend);
    report.results.resize(jobs.size());

    incr::ArtifactStore::Stats store_before;
    if (store_)
        store_before = store_->stats();

    size_t workers = opts_.jobs;
    if (workers == 0) {
        workers = std::thread::hardware_concurrency();
        if (workers == 0)
            workers = 1;
    }
    workers = std::min(workers, jobs.size() ? jobs.size() : size_t{1});
    report.workers = workers;

    solver::EntailCache::Stats cache_before = cache_.stats();
    Clock::time_point start = Clock::now();

    // Pull-based pool with stable result slots: each worker claims the
    // next unclaimed job index and writes into results[i], so aggregation
    // order never depends on scheduling.
    std::atomic<size_t> next{0};
    auto work = [&]() {
        for (;;) {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= jobs.size())
                return;
            report.results[i] = run_job(jobs[i]);
        }
    };
    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (size_t t = 0; t < workers; ++t)
            pool.emplace_back(work);
        for (auto& th : pool)
            th.join();
    }

    report.wall_ms = ms_since(start);
    report.cache = cache_.stats().since(cache_before);
    if (store_) {
        incr::ArtifactStore::Stats now = store_->stats();
        report.store.verdict_hits =
            now.verdict_hits - store_before.verdict_hits;
        report.store.verdict_misses =
            now.verdict_misses - store_before.verdict_misses;
        report.store.verdict_stores =
            now.verdict_stores - store_before.verdict_stores;
        report.store.corrupt_discarded = now.corrupt_discarded;
        report.store.legacy_discarded = now.legacy_discarded;
    }
    return report;
}

// --- job discovery ---------------------------------------------------------

bool builtin_job(const std::string& name, JobSpec& out) {
    std::string variant = name;
    if (variant.rfind("builtin:", 0) == 0)
        variant = variant.substr(8);
    out = {};
    out.name = "builtin:" + variant;
    if (variant == "labeled")
        out.source = proc::labeled_cpu_source();
    else if (variant == "baseline")
        out.source = proc::baseline_cpu_source();
    else if (variant == "vulnerable")
        out.source = proc::vulnerable_cpu_source();
    else if (variant == "quad")
        out.source = proc::quad_core_source();
    else
        return false;
    return true;
}

std::vector<JobSpec> builtin_cpu_jobs() {
    std::vector<JobSpec> jobs(4);
    builtin_job("labeled", jobs[0]);
    builtin_job("baseline", jobs[1]);
    builtin_job("vulnerable", jobs[2]);
    builtin_job("quad", jobs[3]);
    return jobs;
}

} // namespace svlc::driver
