// svlc — the SecVerilogLC command-line driver.
//
// The commands and their flags are listed in usage() below.
//
// Every checking command funnels through pipeline::Compilation — the CLI
// owns flag parsing and rendering, never phase plumbing. Flags are parsed
// from one table (kOptions) that names the commands accepting each flag;
// any other flag is a usage error.
#include "check/typecheck.hpp"
#include "codegen/verilog.hpp"
#include "driver/driver.hpp"
#include "driver/watch.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/runner.hpp"
#include "hunt/corpus.hpp"
#include "hunt/hunter.hpp"
#include "pipeline/compilation.hpp"
#include "proc/assembler.hpp"
#include "proc/isa.hpp"
#include "proc/sources.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "sim/simulator.hpp"
#include "sim/vcd.hpp"
#include "solver/entail.hpp"
#include "support/diagnostics.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"
#include "support/json_reader.hpp"
#include "synth/synthesize.hpp"
#include "verify/taint.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

using namespace svlc;

namespace {

int usage() {
    std::fprintf(stderr,
                 "usage:\n"
                 "  svlc check <file.svlc> [--top M] [--classic] [--no-hold]\n"
                 "             [--solver enum|cdcl] [--json out.json] [--stats]\n"
                 "             [--remote SOCKET] [--retry N] [--backoff MS]\n"
                 "  svlc serve --socket PATH [--store DIR] [--max-sessions N]\n"
                 "             [--idle-timeout SEC] [--timeout-ms T]\n"
                 "             [--classic] [--no-hold] [--solver enum|cdcl]\n"
                 "  svlc client --socket PATH [--retry N] [--backoff MS]\n"
                 "             <method> [params-json]\n"
                 "  svlc batch <manifest|dir|file.svlc|builtin:V> [--jobs N]\n"
                 "             [--json out.json] [--timeout-ms T] [--no-cache]\n"
                 "             [--cpus] [--classic] [--no-hold] [--store DIR]\n"
                 "             [--no-store] [--solver enum|cdcl]\n"
                 "  svlc watch <manifest|dir|file.svlc|builtin:V> [--store DIR]\n"
                 "             [--no-store] [--interval-ms T] [--iterations N]\n"
                 "             [--jobs N] [--timeout-ms T] [--no-cache] [--cpus]\n"
                 "             [--classic] [--no-hold] [--solver enum|cdcl]\n"
                 "  svlc diff-backends <manifest|dir|file.svlc|builtin:V>\n"
                 "             [--jobs N] [--timeout-ms T] [--cpus] [--classic]\n"
                 "             [--no-hold]\n"
                 "  svlc emit-verilog <file.svlc> [--top M] [--compat]\n"
                 "  svlc sim <file.svlc> [--top M] --cycles N [--set in=val]...\n"
                 "           [--vcd out.vcd] [--watch net]...\n"
                 "  svlc synth <file.svlc> [--top M] [--no-enable-ff] [--clock NS]\n"
                 "  svlc taint <file.svlc> [--top M] --cycles N [--set in=val]...\n"
                 "  svlc hunt <file.svlc> [--top M] [--depth N] [--observer L]\n"
                 "            [--beam N] [--branch K] [--seed S]\n"
                 "            [--no-minimize] [--json out.json]\n"
                 "  svlc hunt-corpus [--out DIR]\n"
                 "  svlc dump-cpu <labeled|baseline|vulnerable|quad> [outfile]\n"
                 "  svlc asm <file.s> [outfile.hex]\n"
                 "  svlc disasm <file.hex>\n"
                 "  svlc fuzz [--seed N] [--count M] [--oracle all|LIST]\n"
                 "            [--corpus DIR] [--no-reduce] [--dump]\n"
                 "  svlc reduce <file.svlc> [--oracle NAME|diag:CODE]\n"
                 "            [--out out.svlc] [--classic] [--no-hold]\n"
                 "            [--solver enum|cdcl]\n");
    return 2;
}

struct Args {
    std::string command;
    std::string file; // input file, batch target, or dump-cpu variant
    std::string top;
    bool classic = false;
    bool no_hold = false;
    bool compat = false;
    bool no_enable_ff = false;
    double clock = 2.0;
    uint64_t cycles = 100;
    std::vector<std::pair<std::string, uint64_t>> sets;
    std::vector<std::string> watches;
    std::string vcd_path;
    std::string outfile; // dump-cpu/asm outfile, reduce/hunt-corpus --out
    // check --stats
    bool stats = false;
    // entailment backend (empty = engine default)
    std::string solver;
    // batch / watch / diff-backends
    uint64_t jobs = 0;
    std::string json_path;
    uint64_t timeout_ms = 0;
    bool no_cache = false;
    bool cpus = false;
    // batch/watch/serve persistent store
    std::string store_dir;
    bool no_store = false;
    // watch
    uint64_t interval_ms = 500;
    uint64_t iterations = 0;
    // check --remote / serve / client
    std::string socket_path;
    uint64_t max_sessions = 16;
    uint64_t idle_timeout_sec = 0;
    std::string client_method;
    std::string client_params = "{}";
    // client / check --remote reconnect policy
    uint64_t retry_attempts = 0;
    uint64_t retry_backoff_ms = 100;
    // fuzz / hunt (each command has its own default seed)
    std::optional<uint64_t> seed;
    // fuzz / reduce
    uint64_t fuzz_count = 100;
    std::string oracle; // fuzz: oracle set; reduce: oracle or diag:CODE
    std::string corpus_dir = "fuzz-corpus";
    bool no_reduce = false;
    bool dump = false;
    // hunt
    uint64_t hunt_depth = 16;
    std::string observer;
    uint64_t hunt_beam = 8;
    uint64_t hunt_branch = 4;
    bool no_minimize = false;
};

/// The one number parser for every numeric option: a whole decimal, hex
/// (0x), or octal (leading 0) literal, or an error naming the option.
bool parse_uint(const char* what, const char* v, uint64_t& out) {
    char* end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v, &end, 0);
    if (!std::isdigit(static_cast<unsigned char>(*v)) || *end ||
        errno == ERANGE) {
        std::fprintf(stderr, "%s: bad value '%s'\n", what, v);
        return false;
    }
    out = n;
    return true;
}

using Apply = bool (*)(Args&, const char* flag, const char* value);

template <bool Args::*M>
bool set_flag(Args& a, const char*, const char*) {
    a.*M = true;
    return true;
}
template <std::string Args::*M>
bool set_text(Args& a, const char*, const char* v) {
    a.*M = v;
    return true;
}
template <uint64_t Args::*M>
bool set_uint(Args& a, const char* flag, const char* v) {
    return parse_uint(flag, v, a.*M);
}
template <uint64_t Args::*M>
bool set_positive(Args& a, const char* flag, const char* v) {
    if (!parse_uint(flag, v, a.*M))
        return false;
    if (a.*M == 0) {
        std::fprintf(stderr, "%s: must be positive\n", flag);
        return false;
    }
    return true;
}

bool set_solver(Args& a, const char*, const char* v) {
    if (!solver::parse_backend(v)) {
        std::fprintf(stderr,
                     "--solver: unknown backend '%s' (expected one of: "
                     "enum, cdcl)\n",
                     v);
        return false;
    }
    a.solver = v;
    return true;
}

bool set_seed(Args& a, const char* flag, const char* v) {
    uint64_t seed = 0;
    if (!parse_uint(flag, v, seed))
        return false;
    a.seed = seed;
    return true;
}

bool set_clock(Args& a, const char* flag, const char* v) {
    char* end = nullptr;
    a.clock = std::strtod(v, &end);
    if (!*v || *end || !(a.clock > 0)) {
        std::fprintf(stderr, "%s: bad value '%s'\n", flag, v);
        return false;
    }
    return true;
}

bool add_set(Args& a, const char* flag, const char* v) {
    std::string s = v;
    size_t eq = s.find('=');
    uint64_t value = 0;
    if (eq == std::string::npos) {
        std::fprintf(stderr, "%s: expected in=val, got '%s'\n", flag, v);
        return false;
    }
    if (!parse_uint(flag, s.c_str() + eq + 1, value))
        return false;
    a.sets.emplace_back(s.substr(0, eq), value);
    return true;
}

bool add_watch(Args& a, const char*, const char* v) {
    a.watches.push_back(v);
    return true;
}

/// Every option of every command, with the commands that accept it.
/// `value` options consume the next argument.
struct Option {
    const char* flag;
    bool value;
    const char* commands; // space-separated
    Apply apply;
};

constexpr const char* kCheckers = "check serve batch watch diff-backends reduce";

const Option kOptions[] = {
    {"--top", true, "check emit-verilog sim synth taint hunt",
     set_text<&Args::top>},
    {"--classic", false, kCheckers, set_flag<&Args::classic>},
    {"--no-hold", false, kCheckers, set_flag<&Args::no_hold>},
    {"--solver", true, "check serve batch watch reduce", set_solver},
    {"--json", true, "check batch hunt", set_text<&Args::json_path>},
    {"--stats", false, "check", set_flag<&Args::stats>},
    {"--remote", true, "check", set_text<&Args::socket_path>},
    {"--socket", true, "serve client", set_text<&Args::socket_path>},
    {"--retry", true, "check client", set_uint<&Args::retry_attempts>},
    {"--backoff", true, "check client", set_uint<&Args::retry_backoff_ms>},
    {"--store", true, "serve batch watch", set_text<&Args::store_dir>},
    {"--no-store", false, "batch watch", set_flag<&Args::no_store>},
    {"--max-sessions", true, "serve", set_uint<&Args::max_sessions>},
    {"--idle-timeout", true, "serve", set_uint<&Args::idle_timeout_sec>},
    {"--timeout-ms", true, "serve batch watch diff-backends",
     set_uint<&Args::timeout_ms>},
    {"--jobs", true, "batch watch diff-backends", set_uint<&Args::jobs>},
    {"--no-cache", false, "batch watch", set_flag<&Args::no_cache>},
    {"--cpus", false, "batch watch diff-backends", set_flag<&Args::cpus>},
    {"--interval-ms", true, "watch", set_uint<&Args::interval_ms>},
    {"--iterations", true, "watch", set_uint<&Args::iterations>},
    {"--compat", false, "emit-verilog", set_flag<&Args::compat>},
    {"--no-enable-ff", false, "synth", set_flag<&Args::no_enable_ff>},
    {"--clock", true, "synth", set_clock},
    {"--cycles", true, "sim taint", set_uint<&Args::cycles>},
    {"--set", true, "sim taint", add_set},
    {"--vcd", true, "sim", set_text<&Args::vcd_path>},
    {"--watch", true, "sim", add_watch},
    {"--depth", true, "hunt", set_positive<&Args::hunt_depth>},
    {"--observer", true, "hunt", set_text<&Args::observer>},
    {"--beam", true, "hunt", set_positive<&Args::hunt_beam>},
    {"--branch", true, "hunt", set_positive<&Args::hunt_branch>},
    {"--no-minimize", false, "hunt", set_flag<&Args::no_minimize>},
    {"--seed", true, "hunt fuzz", set_seed},
    {"--count", true, "fuzz", set_uint<&Args::fuzz_count>},
    {"--oracle", true, "fuzz reduce", set_text<&Args::oracle>},
    {"--corpus", true, "fuzz", set_text<&Args::corpus_dir>},
    {"--no-reduce", false, "fuzz", set_flag<&Args::no_reduce>},
    {"--dump", false, "fuzz", set_flag<&Args::dump>},
    {"--out", true, "hunt-corpus reduce", set_text<&Args::outfile>},
};

/// Positional arguments each command takes, as [min, max].
struct Command {
    const char* name;
    size_t min_positional;
    size_t max_positional;
};

const Command kCommands[] = {
    {"check", 1, 1},        {"serve", 0, 0},
    {"client", 1, 2},       {"batch", 1, 1},
    {"watch", 1, 1},        {"diff-backends", 1, 1},
    {"emit-verilog", 1, 1}, {"sim", 1, 1},
    {"synth", 1, 1},        {"taint", 1, 1},
    {"hunt", 1, 1},         {"hunt-corpus", 0, 0},
    {"dump-cpu", 1, 2},     {"asm", 1, 2},
    {"disasm", 1, 1},       {"fuzz", 0, 0},
    {"reduce", 1, 1},
};

bool accepts(const char* commands, const std::string& command) {
    std::string_view list = commands;
    while (!list.empty()) {
        size_t sp = list.find(' ');
        if (list.substr(0, sp) == command)
            return true;
        if (sp == std::string_view::npos)
            break;
        list.remove_prefix(sp + 1);
    }
    return false;
}

bool parse_args(int argc, char** argv, Args& args) {
    if (argc < 2)
        return false;
    args.command = argv[1];
    const Command* cmd = nullptr;
    for (const Command& c : kCommands)
        if (args.command == c.name)
            cmd = &c;
    if (!cmd)
        return false;

    std::vector<std::string> positional;
    for (int i = 2; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional.push_back(arg);
            continue;
        }
        const Option* opt = nullptr;
        for (const Option& o : kOptions)
            if (arg == o.flag)
                opt = &o;
        if (!opt || !accepts(opt->commands, args.command)) {
            std::fprintf(stderr, "%s: unknown option '%s'\n",
                         args.command.c_str(), arg.c_str());
            return false;
        }
        const char* value = nullptr;
        if (opt->value) {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value\n", opt->flag);
                return false;
            }
            value = argv[++i];
        }
        if (!opt->apply(args, opt->flag, value))
            return false;
    }
    if (positional.size() < cmd->min_positional ||
        positional.size() > cmd->max_positional) {
        std::fprintf(stderr, "%s: wrong number of arguments\n",
                     args.command.c_str());
        return false;
    }

    if (args.command == "client") {
        args.client_method = positional[0];
        if (positional.size() > 1)
            args.client_params = positional[1];
    } else if (!positional.empty()) {
        args.file = positional[0];
        if (positional.size() > 1)
            args.outfile = positional[1];
    }
    if ((args.command == "serve" || args.command == "client") &&
        args.socket_path.empty()) {
        std::fprintf(stderr, "%s: --socket PATH is required\n",
                     args.command.c_str());
        return false;
    }
    return true;
}

/// Reconnect policy shared by client and check --remote.
net::RetryOptions retry_options(const Args& args) {
    net::RetryOptions retry;
    retry.attempts = static_cast<int>(args.retry_attempts);
    retry.backoff_ms = args.retry_backoff_ms;
    return retry;
}

/// Checker configuration shared by check/batch/watch: mode, hold
/// obligations, and the entailment backend.
check::CheckOptions check_options(const Args& args) {
    check::CheckOptions opts;
    if (args.classic)
        opts.mode = check::CheckerMode::ClassicSecVerilog;
    opts.hold_obligations = !args.no_hold;
    if (!args.solver.empty())
        opts.solver.backend = *solver::parse_backend(args.solver);
    return opts;
}

/// Elaborates args.file through the unified pipeline for the non-checking
/// commands (emit/sim/synth/taint). Prints diagnostics and returns null
/// on any phase failure.
std::unique_ptr<pipeline::Compilation> elaborate_file(const Args& args) {
    pipeline::CompilationOptions popts;
    popts.top = args.top;
    auto comp = std::make_unique<pipeline::Compilation>(std::move(popts));
    if (!comp->load_file(args.file) || !comp->elaborate()) {
        std::fputs(comp->render_diagnostics().c_str(), stderr);
        return nullptr;
    }
    return comp;
}

int cmd_check(const Args& args) {
    // --remote: forward the request to a running `svlc serve` daemon and
    // fall back silently to the in-process path when nothing is
    // listening. The daemon renders through the same pipeline helpers,
    // so both paths are byte-identical.
    if (!args.socket_path.empty()) {
        serve::RemoteCheckResult remote;
        if (serve::remote_check(args.socket_path, args.file, args.top,
                                check_options(args), remote,
                                retry_options(args))) {
            std::fputs(remote.diagnostics.c_str(), stderr);
            std::fputs(remote.human.c_str(), stdout);
            if (remote.status == "error")
                return 1;
            if (!args.json_path.empty()) {
                std::ofstream out(args.json_path);
                if (!out) {
                    std::fprintf(stderr, "cannot write '%s'\n",
                                 args.json_path.c_str());
                    return 2;
                }
                out << remote.report_json;
                std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
            }
            if (args.stats)
                std::fputs(remote.stats_line.c_str(), stderr);
            return remote.status == "secure" ? 0 : 1;
        }
    }
    pipeline::CompilationOptions popts;
    popts.top = args.top;
    popts.check = check_options(args);
    pipeline::Compilation comp(std::move(popts));
    if (!comp.load_file(args.file)) {
        std::fputs(comp.render_diagnostics().c_str(), stderr);
        return 1;
    }
    const check::CheckResult* checked = comp.check();
    std::fputs(comp.render_diagnostics().c_str(), stderr);
    if (!checked)
        return 1;
    const check::CheckResult& result = *checked;
    std::fputs(pipeline::check_human_summary(comp, result).c_str(), stdout);
    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.json_path.c_str());
            return 2;
        }
        out << pipeline::check_report_json(comp, result, args.file);
        std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    }
    if (args.stats)
        std::fputs(pipeline::solver_stats_line(result).c_str(),
                   stderr);
    return result.ok ? 0 : 1;
}

int cmd_serve(const Args& args) {
    serve::ServeOptions opts;
    opts.socket_path = args.socket_path;
    opts.store_dir = args.store_dir;
    if (args.max_sessions)
        opts.max_sessions = args.max_sessions;
    opts.idle_timeout_sec = args.idle_timeout_sec;
    opts.default_timeout_ms = args.timeout_ms;
    opts.default_check = check_options(args);
    serve::Server server(std::move(opts));
    std::string error;
    if (!server.start(error)) {
        std::fprintf(stderr, "svlc serve: %s\n", error.c_str());
        return 2;
    }
    std::fprintf(stderr, "svlc serve: listening on %s\n",
                 server.socket_path().c_str());
    return server.run();
}

int cmd_client(const Args& args) {
    std::string error;
    auto client =
        serve::Client::connect(args.socket_path, retry_options(args), error);
    if (!client) {
        std::fprintf(stderr, "svlc client: %s\n", error.c_str());
        return 2;
    }
    JsonValue params;
    if (!JsonReader::parse(args.client_params, params, error)) {
        std::fprintf(stderr, "svlc client: bad params: %s\n", error.c_str());
        return 2;
    }
    serve::RpcMessage response;
    std::vector<serve::RpcMessage> notifications;
    if (!client->call(args.client_method, params, response, error,
                      &notifications)) {
        std::fprintf(stderr, "svlc client: %s\n", error.c_str());
        return 2;
    }
    for (const serve::RpcMessage& n : notifications)
        std::fprintf(stderr, "notification %s: %s\n", n.method.c_str(),
                     n.params.dump().c_str());
    if (response.has_error) {
        std::fprintf(stderr, "error %d: %s\n", response.error_code,
                     response.error_message.c_str());
        return 1;
    }
    std::printf("%s\n", response.result.dump(2).c_str());
    return 0;
}

int cmd_batch(const Args& args) {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    if (!driver::collect_jobs(args.file, jobs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (args.cpus) {
        auto cpu_jobs = driver::builtin_cpu_jobs();
        jobs.insert(jobs.end(), std::make_move_iterator(cpu_jobs.begin()),
                    std::make_move_iterator(cpu_jobs.end()));
    }

    driver::DriverOptions opts;
    opts.jobs = args.jobs;
    opts.timeout_ms = args.timeout_ms;
    opts.use_cache = !args.no_cache;
    if (!args.no_store)
        opts.store_dir = args.store_dir;
    opts.check = check_options(args);

    driver::BatchReport report = driver::VerificationDriver(opts).run(jobs);

    // The stdout summary is deterministic (verdicts only); timings and
    // cache telemetry go to stderr and the JSON report.
    std::fputs(report.summary().c_str(), stdout);
    std::fprintf(stderr,
                 "batch wall %.1f ms on %zu worker(s); cache: %llu hits / "
                 "%llu misses (%.1f%%), %llu entries\n",
                 report.wall_ms, report.workers,
                 static_cast<unsigned long long>(report.cache.hits),
                 static_cast<unsigned long long>(report.cache.misses),
                 report.cache.hit_rate() * 100.0,
                 static_cast<unsigned long long>(report.cache.entries));
    if (report.store_enabled) {
        std::fprintf(
            stderr,
            "store: %zu skipped via fingerprint, %llu stored, %llu corrupt "
            "discarded\n",
            report.skipped_count(),
            static_cast<unsigned long long>(report.store.verdict_stores),
            static_cast<unsigned long long>(report.store.corrupt_discarded));
    }
    if (!args.json_path.empty()) {
        std::ofstream out(args.json_path);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         args.json_path.c_str());
            return 2;
        }
        out << report.to_json(true);
        std::fprintf(stderr, "wrote %s\n", args.json_path.c_str());
    }
    // Rejected designs are a successful verification outcome; only
    // infrastructure failures (error/timeout) fail the batch.
    return report.all_ran() ? 0 : 1;
}

int cmd_watch(const Args& args) {
    driver::WatchOptions opts;
    opts.driver.jobs = args.jobs;
    opts.driver.timeout_ms = args.timeout_ms;
    opts.driver.use_cache = !args.no_cache;
    if (!args.no_store)
        opts.driver.store_dir = args.store_dir;
    opts.driver.check = check_options(args);
    opts.interval_ms = args.interval_ms;
    opts.max_iterations = args.iterations;
    opts.include_cpus = args.cpus;
    return driver::run_watch(args.file, opts, stdout, stderr);
}

int cmd_diff(const Args& args) {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    if (!driver::collect_jobs(args.file, jobs, error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        return 2;
    }
    if (args.cpus) {
        auto cpu_jobs = driver::builtin_cpu_jobs();
        jobs.insert(jobs.end(), std::make_move_iterator(cpu_jobs.begin()),
                    std::make_move_iterator(cpu_jobs.end()));
    }
    driver::DriverOptions opts;
    opts.jobs = args.jobs;
    opts.timeout_ms = args.timeout_ms;
    opts.check = check_options(args);
    std::vector<driver::BackendDiff> diffs = driver::diff_backends(jobs, opts);
    if (diffs.empty()) {
        std::printf("diff-backends: %zu job(s), enum and cdcl agree on "
                    "every verdict\n",
                    jobs.size());
        return 0;
    }
    for (const auto& d : diffs)
        std::printf("DIFF %s %s: enum=%s %s=%s\n", d.job.c_str(),
                    d.field.c_str(), d.enum_value.c_str(), d.backend.c_str(),
                    d.other_value.c_str());
    std::printf("diff-backends: %zu disagreement(s) across %zu job(s) — "
                "backend contract violated\n",
                diffs.size(), jobs.size());
    return 1;
}

int cmd_emit(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    codegen::EmitOptions opts;
    if (args.compat)
        opts.dialect = codegen::Dialect::SvlcCompat;
    std::string verilog =
        codegen::emit_verilog(*comp->design(), comp->diags(), opts);
    if (comp->diags().has_errors()) {
        std::fputs(comp->render_diagnostics().c_str(), stderr);
        return 1;
    }
    std::fputs(verilog.c_str(), stdout);
    return 0;
}

int cmd_sim(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    sim::Simulator simulator(*design);
    for (const auto& [name, value] : args.sets)
        simulator.set_input(name, value);

    std::ofstream vcd_file;
    std::unique_ptr<sim::VcdWriter> vcd;
    std::vector<hir::NetId> watch_ids;
    for (const auto& w : args.watches) {
        hir::NetId id = design->find_net(w);
        if (id == hir::kInvalidNet) {
            std::fprintf(stderr, "no net named '%s'\n", w.c_str());
            return 1;
        }
        watch_ids.push_back(id);
    }
    if (!args.vcd_path.empty()) {
        vcd_file.open(args.vcd_path);
        vcd = std::make_unique<sim::VcdWriter>(*design, vcd_file, watch_ids);
        vcd->begin();
    }
    for (uint64_t i = 0; i < args.cycles; ++i) {
        simulator.step();
        if (vcd)
            vcd->sample(simulator);
    }
    simulator.settle();
    std::printf("ran %llu cycles\n",
                static_cast<unsigned long long>(args.cycles));
    const auto& nets = watch_ids.empty() ? [&] {
        std::vector<hir::NetId> all;
        for (const auto& net : design->nets)
            if (net.array_size == 0)
                all.push_back(net.id);
        return all;
    }() : watch_ids;
    for (hir::NetId id : nets) {
        const auto& net = design->net(id);
        std::printf("  %-24s = 0x%llx", net.name.c_str(),
                    static_cast<unsigned long long>(
                        simulator.get(id).value()));
        if (!net.label.is_static())
            std::printf("  {%s}",
                        design->policy.lattice()
                            .name(simulator.current_label(id))
                            .c_str());
        std::printf("\n");
    }
    for (const auto& v : simulator.violations())
        std::printf("assume violated at cycle %llu\n",
                    static_cast<unsigned long long>(v.cycle));
    return 0;
}

int cmd_synth(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    synth::SynthOptions opts;
    opts.use_enable_ff = !args.no_enable_ff;
    opts.target_clock_ns = args.clock;
    auto report = synth::synthesize(*design, opts);
    std::printf("%s\n", report.summary().c_str());
    for (const auto& [name, count] : report.cells.by_name)
        std::printf("  %-8s %8llu\n", name.c_str(),
                    static_cast<unsigned long long>(count));
    if (report.sram_bits)
        std::printf("  SRAM     %8llu bits (%.0f um^2)\n",
                    static_cast<unsigned long long>(report.sram_bits),
                    report.sram_area_um2);
    return report.meets_target ? 0 : 1;
}

int cmd_taint(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();
    sim::Simulator simulator(*design);
    verify::TaintTracker tracker(*design);
    for (const auto& [name, value] : args.sets)
        simulator.set_input(name, value);
    for (uint64_t i = 0; i < args.cycles; ++i)
        tracker.step(simulator);
    const auto& violations = tracker.violations();
    std::printf("ran %llu cycles with GLIFT-style tracking: %zu "
                "violation(s)\n",
                static_cast<unsigned long long>(args.cycles),
                violations.size());
    constexpr size_t kListed = 10;
    for (size_t i = 0; i < violations.size() && i < kListed; ++i) {
        const auto& v = violations[i];
        std::printf("  cycle %llu: net '%s' tainted %s but labeled %s\n",
                    static_cast<unsigned long long>(v.cycle),
                    design->net(v.net).name.c_str(),
                    design->policy.lattice().name(v.taint).c_str(),
                    design->policy.lattice().name(v.declared).c_str());
    }
    if (violations.size() > kListed)
        std::printf("  ... and %zu more\n", violations.size() - kListed);
    return violations.empty() ? 0 : 1;
}

int cmd_hunt(const Args& args) {
    auto comp = elaborate_file(args);
    if (!comp)
        return 1;
    const hir::Design* design = comp->design();

    hunt::HuntOptions opts;
    opts.depth = args.hunt_depth;
    opts.beam = static_cast<size_t>(args.hunt_beam);
    opts.branch = static_cast<size_t>(args.hunt_branch);
    opts.seed = args.seed.value_or(0x5eed);
    opts.minimize = !args.no_minimize;
    if (!args.observer.empty()) {
        auto lvl = design->policy.lattice().find(args.observer);
        if (!lvl) {
            std::fprintf(stderr, "hunt: unknown observer level '%s'\n",
                         args.observer.c_str());
            return 2;
        }
        opts.observer = *lvl;
    }

    hunt::HuntResult result = hunt::hunt(*design, opts);
    std::fputs(hunt::render_hunt(*design, result).c_str(), stdout);
    if (!args.json_path.empty()) {
        std::string json = hunt::hunt_json(*design, result);
        if (args.json_path == "-") {
            std::fputs(json.c_str(), stdout);
            std::fputc('\n', stdout);
        } else {
            std::string err;
            if (!write_file_atomic(args.json_path, json, &err)) {
                std::fprintf(stderr, "hunt: %s\n", err.c_str());
                return 1;
            }
        }
    }
    return result.verdict == hunt::HuntVerdict::Leak ? 1 : 0;
}

int cmd_hunt_corpus(const Args& args) {
    std::vector<hunt::Scenario> scenarios = hunt::builtin_scenarios();
    std::string error;
    std::string out = args.outfile.empty() ? "hunt-corpus" : args.outfile;
    if (!hunt::write_corpus(out, scenarios, error)) {
        std::fprintf(stderr, "hunt-corpus: %s\n", error.c_str());
        return 1;
    }
    size_t planted = 0;
    for (const hunt::Scenario& sc : scenarios)
        planted += sc.planted_leak ? 1 : 0;
    std::printf("wrote %zu scenario(s) (%zu with planted leaks) and a "
                "hunt manifest to %s\n",
                scenarios.size(), planted, out.c_str());
    return 0;
}

int cmd_dump_cpu(const Args& args) {
    std::string text;
    std::string suggested;
    if (args.file == "labeled") {
        text = proc::labeled_cpu_source();
        suggested = "cpu_labeled.svlc";
    } else if (args.file == "baseline") {
        text = proc::baseline_cpu_source();
        suggested = "cpu_baseline.svlc";
    } else if (args.file == "vulnerable") {
        text = proc::vulnerable_cpu_source();
        suggested = "cpu_vulnerable.svlc";
    } else if (args.file == "quad") {
        text = proc::quad_core_source();
        suggested = "quad.svlc";
    } else {
        std::fprintf(stderr, "unknown variant '%s'\n", args.file.c_str());
        return 2;
    }
    if (args.outfile.empty()) {
        std::fputs(text.c_str(), stdout);
    } else {
        std::ofstream out(args.outfile);
        out << text;
        std::printf("wrote %s (%zu bytes)\n", args.outfile.c_str(),
                    text.size());
    }
    (void)suggested;
    return 0;
}

int cmd_asm(const Args& args) {
    std::ifstream in(args.file);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
        return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    auto result = proc::assemble(buf.str());
    if (!result.ok) {
        std::fprintf(stderr, "%s\n", result.error.c_str());
        return 1;
    }
    std::ostream* out = &std::cout;
    std::ofstream file;
    if (!args.outfile.empty()) {
        file.open(args.outfile);
        out = &file;
    }
    char line[16];
    for (uint32_t w : result.words) {
        std::snprintf(line, sizeof line, "%08x\n", w);
        *out << line;
    }
    std::fprintf(stderr, "%zu words", result.words.size());
    for (const auto& [name, addr] : result.labels)
        std::fprintf(stderr, "  %s=0x%x", name.c_str(), addr);
    std::fprintf(stderr, "\n");
    return 0;
}

int cmd_disasm(const Args& args) {
    std::ifstream in(args.file);
    if (!in) {
        std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
        return 1;
    }
    std::string line;
    uint32_t addr = 0;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        uint32_t word = static_cast<uint32_t>(
            std::strtoul(line.c_str(), nullptr, 16));
        std::printf("%08x:  %08x  %s\n", addr, word,
                    proc::disassemble(word).c_str());
        addr += 4;
    }
    return 0;
}

int cmd_fuzz(const Args& args) {
    fuzz::FuzzOptions opts;
    opts.seed = args.seed.value_or(1);
    opts.count = args.fuzz_count;
    opts.corpus_dir = args.corpus_dir;
    opts.reduce_failures = !args.no_reduce;
    opts.dump_only = args.dump;
    if (!args.oracle.empty() &&
        !fuzz::parse_oracle_set(args.oracle, opts.oracles)) {
        std::fprintf(stderr,
                     "fuzz: unknown oracle set '%s' (expected all or a "
                     "comma list of no-crash,diff,soundness,roundtrip,"
                     "xform)\n",
                     args.oracle.c_str());
        return 2;
    }
    fuzz::FuzzStats stats = fuzz::run_fuzz(opts, stdout);
    if (stats.violations.empty())
        return 0;
    std::fprintf(stderr, "fuzz: %zu oracle violation(s); reports in %s\n",
                 stats.violations.size(), opts.corpus_dir.c_str());
    return 1;
}

/// Builds the reduce predicate from --oracle: "diag:<code>" keeps
/// shrinking while the named diagnostic is still reported; an oracle set
/// keeps shrinking while any of those oracles still fires.
bool reduce_predicate(const Args& args, const std::string& spec,
                      std::function<bool(const std::string&)>& pred,
                      std::string& describe) {
    if (spec.rfind("diag:", 0) == 0) {
        std::string name = spec.substr(5);
        DiagCode code;
        if (!diag_code_from_name(name, code)) {
            std::fprintf(stderr, "reduce: unknown diagnostic code '%s'\n",
                         name.c_str());
            return false;
        }
        check::CheckOptions copts = check_options(args);
        pred = [code, copts](const std::string& cand) {
            pipeline::CompilationOptions popts;
            popts.check = copts;
            pipeline::Compilation comp(popts);
            comp.load_text(cand, "reduce.svlc");
            comp.check();
            return comp.diags().has_code(code);
        };
        describe = "diagnostic " + name;
        return true;
    }
    fuzz::OracleSet set;
    if (!fuzz::parse_oracle_set(spec, set)) {
        std::fprintf(stderr, "reduce: unknown oracle '%s'\n", spec.c_str());
        return false;
    }
    fuzz::OracleConfig cfg;
    pred = [set, cfg](const std::string& cand) {
        return !fuzz::run_oracles(set, cand, cfg).empty();
    };
    describe = "oracle set " + spec;
    return true;
}

int cmd_reduce(const Args& args) {
    std::string source;
    if (!read_file(args.file, source)) {
        std::fprintf(stderr, "reduce: cannot read %s\n", args.file.c_str());
        return 1;
    }
    std::string spec = args.oracle;
    if (spec.empty()) {
        // Auto-detect: find which oracle the input fails.
        fuzz::OracleConfig cfg;
        auto findings =
            fuzz::run_oracles(fuzz::OracleSet::all(), source, cfg);
        if (findings.empty()) {
            std::fprintf(stderr,
                         "reduce: %s does not violate any oracle; pass "
                         "--oracle NAME or --oracle diag:CODE for a "
                         "different predicate\n",
                         args.file.c_str());
            return 1;
        }
        spec = fuzz::oracle_name(findings.front().oracle);
        std::fprintf(stderr, "reduce: input fails oracle %s\n",
                     spec.c_str());
    }
    std::function<bool(const std::string&)> pred;
    std::string describe;
    if (!reduce_predicate(args, spec, pred, describe))
        return 2;
    fuzz::ReduceResult res = fuzz::reduce_text(source, pred);
    if (res.text == source && !pred(source)) {
        std::fprintf(stderr,
                     "reduce: input does not reproduce %s; nothing to do\n",
                     describe.c_str());
        return 1;
    }
    std::fprintf(stderr, "reduce: %zu -> %zu bytes (%zu predicate runs)\n",
                 source.size(), res.text.size(), res.attempts);
    if (!args.outfile.empty()) {
        std::string err;
        if (!write_file_atomic(args.outfile, res.text, &err)) {
            std::fprintf(stderr, "reduce: %s\n", err.c_str());
            return 1;
        }
        std::fprintf(stderr, "reduce: wrote %s\n", args.outfile.c_str());
    } else {
        std::fputs(res.text.c_str(), stdout);
    }
    return 0;
}

int dispatch(const Args& args) {
    if (args.command == "check")
        return cmd_check(args);
    if (args.command == "serve")
        return cmd_serve(args);
    if (args.command == "client")
        return cmd_client(args);
    if (args.command == "batch")
        return cmd_batch(args);
    if (args.command == "watch")
        return cmd_watch(args);
    if (args.command == "diff-backends")
        return cmd_diff(args);
    if (args.command == "emit-verilog")
        return cmd_emit(args);
    if (args.command == "sim")
        return cmd_sim(args);
    if (args.command == "synth")
        return cmd_synth(args);
    if (args.command == "taint")
        return cmd_taint(args);
    if (args.command == "hunt")
        return cmd_hunt(args);
    if (args.command == "hunt-corpus")
        return cmd_hunt_corpus(args);
    if (args.command == "dump-cpu")
        return cmd_dump_cpu(args);
    if (args.command == "asm")
        return cmd_asm(args);
    if (args.command == "disasm")
        return cmd_disasm(args);
    if (args.command == "fuzz")
        return cmd_fuzz(args);
    if (args.command == "reduce")
        return cmd_reduce(args);
    return usage();
}

} // namespace

int main(int argc, char** argv) {
    Args args;
    if (!parse_args(argc, argv, args))
        return usage();
    try {
        return dispatch(args);
    } catch (const std::exception& e) {
        // Backstop for internal invariant violations (e.g. BitVecError):
        // a diagnostic and a distinct exit code instead of an abort.
        std::fprintf(stderr, "svlc: internal error: %s\n", e.what());
        return 3;
    }
}
