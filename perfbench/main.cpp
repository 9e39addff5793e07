// perfbench: the repository benchmark. One process runs one workload
// for a fixed time and prints every metric by name and unit, ending with
// one JSON line:
//
//   perfbench --workload check-cold|edit-serve|dynamic --seed N
//             --seconds S --trace 0|1 [--trace-out FILE]
//   perfbench --digest --seed N        corpus and edit-script digests
//   perfbench --dump DIR --seed N      write the seeded inputs and answers
//   perfbench --list-metrics           the metric catalogue
//
// See README.md in this directory for the workloads and metrics.
#include "corpus.hpp"
#include "trace.hpp"

#include "support/fsutil.hpp"

#include <malloc.h>
#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <stdexcept>

namespace perfbench {

const std::vector<int>& run_cpus() {
    // The CPU the process starts on, then the next allowed one after it.
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t allowed;
        CPU_ZERO(&allowed);
        const int here = sched_getcpu();
        if (here < 0 || sched_getaffinity(0, sizeof allowed, &allowed) != 0)
            return out;
        out.push_back(here);
        for (int i = 1; i < CPU_SETSIZE; ++i) {
            int c = (here + i) % CPU_SETSIZE;
            if (CPU_ISSET(c, &allowed)) {
                out.push_back(c);
                break;
            }
        }
        return out;
    }();
    return cpus;
}

void pin_to_run_cpus(size_t n) {
    const std::vector<int>& cpus = run_cpus();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    for (size_t i = 0; i < std::min(n, cpus.size()); ++i)
        CPU_SET(cpus[i], &set);
    pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

namespace {

double reference_kernel_ms() {
    // Two thousand small vectors, resized to fixed pseudo-random lengths
    // and written through, four times over: the malloc traffic and short
    // linear walks over a few hundred KiB that the front end, the checker
    // and the simulator spend their time in. Of the kernels tried (a
    // sort, ordered and hashed maps of strings, a pointer chase over
    // 4 MiB), this one tracked the swings of the check, serve, sim and
    // hunt samples most closely.
    static volatile uint64_t sink = 0;
    Clock::time_point t0 = Clock::now();
    std::vector<std::vector<uint32_t>> vs(2000);
    uint64_t x = 9;
    uint64_t sum = 0;
    for (int pass = 0; pass < 4; ++pass)
        for (std::vector<uint32_t>& v : vs) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            v.resize(16 + (x >> 58));
            for (uint32_t& e : v)
                sum += (e += static_cast<uint32_t>(x >> 32));
        }
    sink = sink + sum;
    return ms_since(t0);
}

} // namespace

double reference_ms(size_t n) {
    n = std::clamp<size_t>(n, 1, std::max<size_t>(run_cpus().size(), 1));
    double total = 0;
    for (size_t i = 0; i < n; ++i) {
        if (n > 1) {
            // Move onto that CPU alone; pin_to_run_cpus(i + 1) would let
            // the thread stay on an earlier one.
            cpu_set_t set;
            CPU_ZERO(&set);
            CPU_SET(run_cpus()[i], &set);
            pthread_setaffinity_np(pthread_self(), sizeof set, &set);
        }
        total += reference_kernel_ms();
    }
    pin_to_run_cpus(n);
    return total / static_cast<double>(n);
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double percentile(std::vector<double> v, double p) {
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    if (p == 50 && v.size() % 2 == 0)
        return (v[v.size() / 2 - 1] + v[v.size() / 2]) / 2;
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * v.size()));
    return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

void Metrics::set(const std::string& name, double value) {
    values_[name] = std::isfinite(value) ? value : 0.0;
}

double Metrics::get(const std::string& name) const {
    auto it = values_.find(name);
    return it == values_.end() ? 0.0 : it->second;
}

void Tally::op(bool ran, const std::string& what) {
    ++attempted;
    if (!ran) {
        ++failed;
        if (notes.size() < 10)
            notes.push_back("failed: " + what);
    }
}

void Tally::verdict(bool right, const std::string& what) {
    if (!right) {
        ++wrong;
        if (notes.size() < 10)
            notes.push_back("wrong: " + what);
    }
}

std::string hdl_source(const std::string& file) {
    std::string text;
    if (!svlc::read_file(std::string(PERFBENCH_HDL_DIR) + "/" + file, text))
        throw std::runtime_error("cannot read hdl/" + file);
    return text;
}

const std::vector<MetricDef>& end_to_end_metrics() {
    static const std::vector<MetricDef> defs = {
        {"setup_s", "s"},
        {"check_s", "s"},
        {"batch_s", "s"},
        {"open_s", "s"},
        {"edit_p50_ms", "ms"},
        {"edit_p90_ms", "ms"},
        {"sim_cycles_per_s", "cycles/s"},
        {"taint_cycles_per_s", "cycles/s"},
        {"hunt_s", "s"},
        {"peak_rss_mb", "MB"},
    };
    return defs;
}

namespace {

/// End-to-end figures whose traced-minus-untraced difference is the
/// tracing overhead.
const char* const kOverheadOf[] = {
    "check_s",     "batch_s",          "open_s",
    "edit_p50_ms", "edit_p90_ms",      "sim_cycles_per_s",
    "taint_cycles_per_s", "hunt_s",
};

} // namespace

const std::vector<MetricDef>& per_layer_metrics() {
    static const std::vector<MetricDef> defs = [] {
        std::vector<MetricDef> d = {
            {"parse.ms", "ms"},
            {"parse.tokens_per_s", "1/s"},
            {"sem.elaborate.ms", "ms"},
            {"sem.wellformed.ms", "ms"},
            {"sem.equations.ms", "ms"},
            {"sem.nets", "count"},
            {"check.ms", "ms"},
            {"check.self_ms", "ms"},
            {"check.obligations", "count"},
            {"check.obligations_per_s", "1/s"},
            {"solver.ms", "ms"},
            {"solver.queries", "count"},
            {"solver.syntactic_ratio", "ratio"},
            {"solver.enumerations", "count"},
            {"solver.conflicts", "count"},
            {"solver.propagations", "count"},
            {"solver.learned_clauses", "count"},
            {"driver.run.ms", "ms"},
            {"driver.job_p50_ms", "ms"},
            {"driver.job_p90_ms", "ms"},
            {"driver.parallel_eff", "ratio"},
            {"driver.cache.hit_ratio", "ratio"},
            {"driver.cache.entries", "count"},
            {"driver.cache_off.ms", "ms"},
            {"incr.fingerprint.ms", "ms"},
            {"incr.replayed", "count"},
            {"incr.solved", "count"},
            {"incr.replay_ratio", "ratio"},
            {"incr.store_files", "count"},
            {"incr.store_bytes", "bytes"},
            {"incr.resolve.ms", "ms"},
            {"incr.store_write.ms", "ms"},
            {"serve.rpc.open_ms", "ms"},
            {"serve.rpc.hit_ms", "ms"},
            {"serve.rpc.trivia_ms", "ms"},
            {"serve.rpc.flip_ms", "ms"},
            {"serve.session_hits", "count"},
            {"serve.verifies", "count"},
            {"sim.cpu.cycles_per_s", "cycles/s"},
            {"sim.ring.cycles_per_s", "cycles/s"},
            {"verify.taint.cycles_per_s", "cycles/s"},
            {"verify.ni.ms", "ms"},
            {"verify.ni.cycles", "count"},
            {"hunt.ms", "ms"},
            {"hunt.states", "count"},
            {"hunt.assignments", "count"},
            {"hunt.states_per_s", "1/s"},
            {"hunt.minimize_replays", "count"},
            {"hunt.replay.ms", "ms"},
            {"hunt.unconfirmed", "count"},
            {"proc.vectors.ms", "ms"},
            {"proc.vectors_failed", "count"},
            {"trace.spans", "count"},
            {"wrong_verdicts", "count"},
            {"failed_ops", "count"},
        };
        for (const char* m : kOverheadOf)
            for (const MetricDef& e : end_to_end_metrics())
                if (e.name == m)
                    d.push_back({std::string("trace.overhead.") + m, e.unit});
        return d;
    }();
    return defs;
}

namespace {

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double mean(const std::vector<double>& v) {
    double sum = 0;
    for (double x : v)
        sum += x;
    return ratio(sum, static_cast<double>(v.size()));
}

/// Per-layer figures from the traced pass. Times and counts are per
/// round of the flow that makes the calls (so they do not grow with the
/// number of rounds a faster build fits in); RPC and fingerprint times
/// are per call; rates are work over busy time.
void per_layer(const Tracer& tr, Metrics& out) {
    auto set = [&](const char* name, double v) { out.set(name, v); };
    const double check_rounds = tr.counter("check.rounds");
    const double serve_rounds = tr.counter("serve.rounds");
    const double dyn_rounds = tr.counter("dynamic.rounds");
    auto per_check = [&](double v) { return ratio(v, check_rounds); };
    auto per_serve = [&](double v) { return ratio(v, serve_rounds); };
    auto per_dyn = [&](double v) { return ratio(v, dyn_rounds); };

    const double parse_ms = tr.total_ms("parse");
    set("parse.ms", per_check(parse_ms));
    set("parse.tokens_per_s", ratio(tr.counter("parse.tokens"), parse_ms / 1e3));
    set("sem.elaborate.ms", per_check(tr.total_ms("sem.elaborate")));
    set("sem.wellformed.ms", per_check(tr.total_ms("sem.wellformed")));
    set("sem.equations.ms", per_check(tr.total_ms("sem.equations")));
    set("sem.nets", per_check(tr.counter("sem.nets")));

    const double check_ms = tr.total_ms("check");
    const double solve_ms = tr.counter("solver.ms");
    set("check.ms", per_check(check_ms));
    set("check.self_ms", per_check(check_ms - solve_ms));
    set("check.obligations", per_check(tr.counter("check.obligations")));
    set("check.obligations_per_s",
        ratio(tr.counter("check.obligations"), check_ms / 1e3));
    set("solver.ms", per_check(solve_ms));
    set("solver.queries", per_check(tr.counter("solver.queries")));
    set("solver.syntactic_ratio", ratio(tr.counter("solver.syntactic_hits"),
                                        tr.counter("solver.queries")));
    set("solver.enumerations", per_check(tr.counter("solver.enumerations")));
    set("solver.conflicts", per_check(tr.counter("solver.conflicts")));
    set("solver.propagations", per_check(tr.counter("solver.propagations")));
    set("solver.learned_clauses",
        per_check(tr.counter("solver.learned_clauses")));

    std::vector<double> jobs = tr.samples("driver.job_ms");
    set("driver.run.ms", per_check(tr.total_ms("driver.run")));
    set("driver.job_p50_ms", percentile(jobs, 50));
    set("driver.job_p90_ms", percentile(jobs, 90));
    set("driver.parallel_eff",
        ratio(tr.counter("driver.cpu_ms"), tr.counter("driver.worker_ms")));
    set("driver.cache.hit_ratio",
        ratio(tr.counter("driver.cache.hits"),
              tr.counter("driver.cache.hits") +
                  tr.counter("driver.cache.misses")));
    set("driver.cache.entries", per_check(tr.counter("driver.cache.entries")));
    set("driver.cache_off.ms", tr.total_ms("driver.cache_off"));

    const double replayed = tr.counter("incr.replayed");
    const double solved = tr.counter("incr.solved");
    set("incr.fingerprint.ms", mean(tr.durations_ms("incr.fingerprint")));
    set("incr.replayed", per_serve(replayed));
    set("incr.solved", per_serve(solved));
    set("incr.replay_ratio", ratio(replayed, replayed + solved));
    set("incr.store_files", per_serve(tr.counter("incr.store_files")));
    set("incr.store_bytes", per_serve(tr.counter("incr.store_bytes")));
    set("incr.resolve.ms", mean(tr.durations_ms("incr.resolve")));
    set("incr.store_write.ms",
        tr.total_ms("incr.cold_store") - tr.total_ms("incr.cold_no_store"));
    set("serve.rpc.open_ms", mean(tr.durations_ms("serve.rpc.open")));
    set("serve.rpc.hit_ms", mean(tr.durations_ms("serve.rpc.hit")));
    set("serve.rpc.trivia_ms", mean(tr.durations_ms("serve.rpc.trivia")));
    set("serve.rpc.flip_ms", mean(tr.durations_ms("serve.rpc.flip")));
    set("serve.session_hits", per_serve(tr.counter("serve.session_hits")));
    set("serve.verifies", per_serve(tr.counter("serve.verifies")));

    set("sim.cpu.cycles_per_s",
        ratio(tr.counter("sim.cpu.cycles"), tr.total_ms("sim.cpu") / 1e3));
    set("sim.ring.cycles_per_s",
        ratio(tr.counter("sim.ring.cycles"), tr.total_ms("sim.ring") / 1e3));
    set("verify.taint.cycles_per_s",
        ratio(tr.counter("verify.taint.cycles"),
              tr.total_ms("verify.taint") / 1e3));
    set("verify.ni.ms", per_dyn(tr.total_ms("verify.ni")));
    set("verify.ni.cycles", per_dyn(tr.counter("verify.ni.cycles")));
    const double hunt_ms = tr.total_ms("hunt");
    set("hunt.ms", per_dyn(hunt_ms));
    set("hunt.states", per_dyn(tr.counter("hunt.states")));
    set("hunt.assignments", per_dyn(tr.counter("hunt.assignments")));
    set("hunt.states_per_s", ratio(tr.counter("hunt.states"), hunt_ms / 1e3));
    set("hunt.minimize_replays", per_dyn(tr.counter("hunt.minimize_replays")));
    set("hunt.replay.ms", per_dyn(tr.total_ms("hunt.replay")));
    set("hunt.unconfirmed", tr.counter("hunt.unconfirmed"));
    set("proc.vectors.ms", per_dyn(tr.total_ms("proc.vectors")));
    set("proc.vectors_failed", tr.counter("proc.vectors_failed"));
    set("trace.spans", static_cast<double>(tr.span_count()));
}

const char* const kWorkloads[] = {"check-cold", "edit-serve", "dynamic"};

struct Options {
    std::string workload;
    uint64_t seed = 0;
    unsigned seconds = 0;
    int trace = -1;
    std::string trace_out;
    std::string dump_dir;
    bool digest = false;
    bool list = false;
};

[[noreturn]] void usage(const std::string& why) {
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload check-cold|edit-serve|dynamic "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
                 "       perfbench --digest --seed N\n"
                 "       perfbench --dump DIR --seed N\n"
                 "       perfbench --list-metrics\n",
                 why.c_str());
    std::exit(2);
}

uint64_t parse_uint(const std::string& flag, const char* text) {
    char* end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno || !*text || *end || text[0] == '-')
        usage("bad value for " + flag + ": " + text);
    return v;
}

Options parse_args(int argc, char** argv) {
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc)
                usage(a + " needs a value");
            return argv[++i];
        };
        if (a == "--workload")
            o.workload = next();
        else if (a == "--seed") {
            o.seed = parse_uint(a, next());
            have_seed = true;
        } else if (a == "--seconds")
            o.seconds = static_cast<unsigned>(parse_uint(a, next()));
        else if (a == "--trace")
            o.trace = static_cast<int>(parse_uint(a, next()));
        else if (a == "--trace-out")
            o.trace_out = next();
        else if (a == "--dump")
            o.dump_dir = next();
        else if (a == "--digest")
            o.digest = true;
        else if (a == "--list-metrics")
            o.list = true;
        else
            usage("unknown argument " + a);
    }
    if (o.list)
        return o;
    if (!have_seed)
        usage("--seed is required");
    if (o.digest || !o.dump_dir.empty())
        return o;
    if (std::find(std::begin(kWorkloads), std::end(kWorkloads), o.workload) ==
        std::end(kWorkloads))
        usage("unknown workload '" + o.workload + "'");
    if (o.seconds < 1 || o.seconds > 3600)
        usage("--seconds must be 1..3600");
    if (o.trace != 0 && o.trace != 1)
        usage("--trace must be 0 or 1");
    return o;
}

/// The workload's own flow at full scale first, then the other two as
/// probes, with the share of the run each gets.
struct Plan {
    std::vector<std::unique_ptr<Flow>> flows;
    std::vector<double> shares;
};

Plan make_plan(const Options& o, const std::string& work_dir) {
    auto scale = [&](const char* w) {
        return o.workload == w ? Scale::Full : Scale::Probe;
    };
    Plan p;
    p.flows.push_back(make_check_flow(scale("check-cold"), o.seed));
    p.flows.push_back(make_serve_flow(scale("edit-serve"), o.seed, work_dir));
    p.flows.push_back(make_dynamic_flow(scale("dynamic"), o.seed));
    size_t main = o.workload == "check-cold" ? 0
                  : o.workload == "edit-serve" ? 1
                                               : 2;
    std::rotate(p.flows.begin(), p.flows.begin() + main,
                p.flows.begin() + main + 1);
    p.shares = {0.5, 0.25, 0.25};
    return p;
}

/// Builds a fresh plan's inputs; returns the time taken in reference ms.
double time_setup(const Options& o, const std::string& work_dir) {
    Plan p = make_plan(o, work_dir);
    return timed_ms([&] {
        for (auto& f : p.flows)
            f->setup();
    });
}

/// Runs rounds until `seconds` have passed and every flow has run at
/// least once, always picking the flow furthest behind its share of the
/// time used so far. Interleaving spreads every flow's samples over the
/// whole run, so a slow spell on a shared machine hits all of them alike.
/// `between` (when set) runs after every round, outside the shares.
void run_pass(Plan& p, double seconds, Tracer* tr, Tally& tally,
              const std::function<void()>& between = {}) {
    std::vector<double> used(p.flows.size(), 0.0);
    Clock::time_point start = Clock::now();
    for (;;) {
        size_t next = 0;
        for (size_t i = 1; i < used.size(); ++i)
            if (used[i] / p.shares[i] < used[next] / p.shares[next])
                next = i;
        bool all_ran = std::find(used.begin(), used.end(), 0.0) == used.end();
        if (all_ran && ms_since(start) >= seconds * 1000.0)
            return;
        Clock::time_point t0 = Clock::now();
        try {
            p.flows[next]->round(tr, tally);
        } catch (const std::exception& e) {
            // A layer that throws fails the operation, not the run.
            tally.op(false, e.what());
        }
        used[next] += ms_since(t0);
        // Hand freed pages back between rounds, so the peak RSS is one
        // round's working set rather than what the malloc arenas of
        // short-lived worker threads happened to keep.
        malloc_trim(0);
        if (between)
            between();
    }
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void print_result(const Metrics& m, const std::vector<MetricDef>& defs,
                  const Tally& tally) {
    for (const MetricDef& d : defs) {
        if (!m.has(d.name))
            throw std::logic_error("metric " + d.name + " was not measured");
        std::printf("%-28s %16.6g %s\n", d.name.c_str(), m.get(d.name),
                    d.unit.c_str());
    }
    std::printf("wrong_verdicts %llu\nfailed_ops %llu of %llu attempted\n",
                static_cast<unsigned long long>(tally.wrong),
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    for (const std::string& n : tally.notes)
        std::fprintf(stderr, "perfbench: %s\n", n.c_str());
    std::string json = "{\"correct\": ";
    json += tally.wrong == 0 && tally.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted);
    json += ", \"failed\": " + std::to_string(tally.failed);
    json += ", \"metrics\": {";
    for (size_t i = 0; i < defs.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.get(defs[i].name));
        json += (i ? ", \"" : "\"") + defs[i].name +
                "\": {\"value\": " + value + ", \"unit\": \"" + defs[i].unit +
                "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int run(const Options& o) {
    namespace fs = std::filesystem;
    const fs::path run_root = ".bench_run";
    const std::string work_dir =
        (run_root / ("run" + std::to_string(::getpid()))).string();
    std::error_code ec;
    fs::create_directories(work_dir, ec);
    if (ec)
        throw std::runtime_error("cannot create " + work_dir);
    struct Cleanup {
        std::string dir;
        ~Cleanup() {
            std::error_code ec;
            fs::remove_all(dir, ec);
        }
    } cleanup{work_dir};

    std::vector<Design> corpus = check_corpus(o.seed);
    std::vector<EditDesign> designs = edit_designs(Scale::Full);
    std::printf("workload %s seed %llu seconds %u trace %d\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                o.seconds, o.trace);
    std::printf("corpus digest %s\nscript digest %s\n",
                corpus_digest(corpus).c_str(),
                script_digest(designs, edit_script(designs, o.seed))
                    .c_str());

    pin_to_run_cpus(1);
    Tally tally;
    Plan plan = make_plan(o, work_dir);
    for (auto& f : plan.flows)
        f->setup();

    // Set-up is timed on fresh plans between rounds, not all at the
    // start: a few milliseconds at one moment catch the host in one
    // state, which moved the median by half from run to run.
    std::vector<double> setup_ms;
    Metrics e2e;
    const double seconds = o.trace ? o.seconds / 2.0 : o.seconds;
    run_pass(plan, seconds, nullptr, tally,
             [&] { setup_ms.push_back(time_setup(o, work_dir)); });
    for (auto& f : plan.flows)
        f->end_to_end(e2e);
    e2e.set("setup_s", median(setup_ms) / 1000.0);
    if (!o.trace) {
        e2e.set("peak_rss_mb", peak_rss_mb());
        print_result(e2e, end_to_end_metrics(), tally);
        return 0;
    }

    // Traced pass: fresh flows, the same time, spans on.
    Plan traced = make_plan(o, work_dir);
    for (auto& f : traced.flows)
        f->setup();
    Tracer tr;
    run_pass(traced, seconds, &tr, tally);
    for (auto& f : traced.flows)
        f->traced_probes(tr, tally);
    Metrics traced_e2e;
    for (auto& f : traced.flows)
        f->end_to_end(traced_e2e);

    Metrics layers;
    per_layer(tr, layers);
    for (const char* m : kOverheadOf)
        layers.set(std::string("trace.overhead.") + m,
                   traced_e2e.get(m) - e2e.get(m));
    layers.set("wrong_verdicts", static_cast<double>(tally.wrong));
    layers.set("failed_ops", static_cast<double>(tally.failed));

    std::string out = o.trace_out;
    if (out.empty())
        out = (run_root / ("trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".json"))
                  .string();
    std::ofstream f(out, std::ios::binary);
    f << tr.chrome_json();
    if (!f)
        throw std::runtime_error("cannot write trace " + out);
    std::printf("trace %s (%zu spans)\n", out.c_str(), tr.span_count());
    print_result(layers, per_layer_metrics(), tally);
    return 0;
}

} // namespace

} // namespace perfbench

int main(int argc, char** argv) {
    using namespace perfbench;
    Options o = parse_args(argc, argv);
    try {
        if (o.list) {
            for (const MetricDef& d : end_to_end_metrics())
                std::printf("end_to_end %s %s\n", d.name.c_str(),
                            d.unit.c_str());
            for (const MetricDef& d : per_layer_metrics())
                std::printf("per_layer %s %s\n", d.name.c_str(),
                            d.unit.c_str());
            return 0;
        }
        if (o.digest) {
            std::vector<EditDesign> designs = edit_designs(Scale::Full);
            std::printf("corpus %s\nscript %s\n",
                        corpus_digest(check_corpus(o.seed)).c_str(),
                        script_digest(designs, edit_script(designs, o.seed))
                            .c_str());
            return 0;
        }
        if (!o.dump_dir.empty()) {
            std::string error;
            if (!dump_inputs(o.dump_dir, o.seed, error)) {
                std::fprintf(stderr, "perfbench: %s\n", error.c_str());
                return 1;
            }
            return 0;
        }
        return run(o);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
