// Persistent incremental verification benchmark: the full corpus (the
// three hdl/ designs plus the four generated CPU variants) checked
//   cold              — fresh process, no persistence, cold entail cache
//   cache-warm        — same process, in-memory entail cache warm
//   fingerprint-warm  — fresh driver over a populated store: every job
//                       replays its verdict, nothing is parsed at all
// The fingerprint-warm row is the edit–recheck steady state a
// `batch --store` loop and CI-cached batches live in; the acceptance bar is >= 50x over cold.
// Emits BENCH_incr.json (svlc-bench-incr/v4; v3 also carried
// entail_loaded from the retired persisted entailment cache) alongside
// the table.
#include "bench_util.hpp"

#include "driver/driver.hpp"
#include "support/json.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#ifndef SVLC_HDL_DIR
#define SVLC_HDL_DIR ""
#endif

namespace {

using namespace svlc;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::VerificationDriver;

namespace fs = std::filesystem;

std::vector<JobSpec> corpus() {
    std::vector<JobSpec> jobs;
    std::string error;
    std::string hdl_dir = SVLC_HDL_DIR;
    if (!hdl_dir.empty() &&
        !driver::jobs_from_directory(hdl_dir, jobs, error))
        std::fprintf(stderr, "note: %s (continuing with builtins only)\n",
                     error.c_str());
    auto cpus = driver::builtin_cpu_jobs();
    jobs.insert(jobs.end(), std::make_move_iterator(cpus.begin()),
                std::make_move_iterator(cpus.end()));
    return jobs;
}

fs::path fresh_store_dir() {
    fs::path dir = fs::temp_directory_path() / "svlc_bench_incr_store";
    std::error_code ec;
    fs::remove_all(dir, ec);
    return dir;
}

void print_table() {
    bench::heading(
        "E10: persistent incremental verification — fingerprint store",
        "edit-recheck loops re-pay nothing for unchanged designs; the "
        "on-disk\nstore turns cross-process reruns into stat+hash time "
        "(SEIF-style audit\nworkloads are dominated by unchanged jobs)");

    auto jobs = corpus();
    fs::path store = fresh_store_dir();
    std::printf("corpus: %zu job(s); store: %s\n\n", jobs.size(),
                store.string().c_str());

    DriverOptions plain;
    plain.jobs = 1;

    // cold: no persistence at all.
    VerificationDriver cold_drv(plain);
    BatchReport cold = cold_drv.run(jobs);

    // cache-warm: same driver again — in-memory entail cache is hot.
    BatchReport cache_warm = cold_drv.run(jobs);

    // populate the store (untimed), then measure a fresh driver over it.
    DriverOptions stored = plain;
    stored.store_dir = store.string();
    (void)VerificationDriver(stored).run(jobs);
    VerificationDriver warm_drv(stored);
    BatchReport fp_warm = warm_drv.run(jobs);

    struct Row {
        const char* name;
        const BatchReport* r;
    } rows[] = {{"cold", &cold},
                {"cache-warm", &cache_warm},
                {"fingerprint-warm", &fp_warm}};
    std::printf("%-18s %-10s %-9s %-10s %-10s\n", "configuration",
                "wall ms", "skipped", "secure", "rejected");
    for (const auto& row : rows)
        std::printf("%-18s %-10.1f %-9zu %-10zu %-10zu (%.1fx)\n",
                    row.name, row.r->wall_ms, row.r->skipped_count(),
                    row.r->count(driver::JobStatus::Secure),
                    row.r->count(driver::JobStatus::Rejected),
                    cold.wall_ms / row.r->wall_ms);

    JsonWriter w;
    w.begin_object();
    w.kv("schema", "svlc-bench-incr/v4");
    w.kv("bench", "incr");
    w.kv("jobs", jobs.size());
    w.kv("cold_ms", cold.wall_ms, 3);
    w.kv("cache_warm_ms", cache_warm.wall_ms, 3);
    w.kv("fingerprint_warm_ms", fp_warm.wall_ms, 3);
    w.kv("cache_warm_speedup", cold.wall_ms / cache_warm.wall_ms, 2);
    w.kv("fingerprint_warm_speedup", cold.wall_ms / fp_warm.wall_ms, 2);
    w.kv("fingerprint_skipped", fp_warm.skipped_count());
    w.end_object();
    std::ofstream out("BENCH_incr.json");
    out << w.str() << "\n";
    std::printf("\nwrote BENCH_incr.json\n");

    std::error_code ec;
    fs::remove_all(store, ec);

    std::printf("-> the fingerprint store collapses an unchanged rerun to "
                "per-job hash+stat\n   cost; an edited job is simply "
                "re-verified\n");
}

void bm_incr_fingerprint_warm(benchmark::State& state) {
    auto jobs = corpus();
    fs::path store = fresh_store_dir();
    DriverOptions opts;
    opts.store_dir = store.string();
    (void)VerificationDriver(opts).run(jobs); // populate
    for (auto _ : state) {
        VerificationDriver drv(opts); // fresh driver: disk-only warmth
        auto report = drv.run(jobs);
        benchmark::DoNotOptimize(report.skipped_count());
    }
    std::error_code ec;
    fs::remove_all(store, ec);
}
BENCHMARK(bm_incr_fingerprint_warm)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
