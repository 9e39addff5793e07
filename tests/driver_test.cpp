// Batch-verification driver tests: deterministic aggregation across
// worker counts, cache/no-cache verdict parity, per-job timeout
// isolation, cross-instance memoization, and job discovery.
#include "driver/driver.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using driver::BatchReport;
using driver::DriverOptions;
using driver::JobSpec;
using driver::JobStatus;
using driver::VerificationDriver;

// A fig4-style mode switch: obligations need next-value enumeration.
const char* kModeSwitch = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} rst,
         input com [15:0] {T} decode_out,
         input com [15:0] {U} epc_in);
  wire com {T} mode_switch;
  reg seq [15:0] {U} epc;
  reg seq {T} mode;
  reg seq [15:0] {mode_to_lb(mode)} pc;
  assign mode_switch = decode_out[4];
  always @(seq) begin
    if (rst) pc <= 16'b0;
    else if (mode_switch && (next(mode) == 1'b0)) pc <= 16'h8000;
    else if (mode_switch) pc <= epc;
  end
  always @(seq) begin
    if (mode_switch) mode <= ~mode;
  end
  always @(seq) begin
    epc <= epc_in;
  end
endmodule
)";

// The same dependent-label logic instantiated twice: the second core's
// obligations are the first core's modulo net identity, so canonicalized
// cache keys collide and the entailment cache answers them.
const char* kTwinInstances = R"(
lattice { level T; level U; flow T -> U; }
function owner(x:1) { 0 -> T; default -> U; }
module core(input com {T} handoff, input com [7:0] {U} u_step,
            output com [7:0] {U} value);
  reg seq {T} who;
  reg seq [7:0] {owner(who)} count;
  assign value = count;
  always @(seq) begin
    if (handoff) who <= ~who;
  end
  always @(seq) begin
    if (handoff && (who == 1'b1) && (next(who) == 1'b0)) count <= 8'h00;
    else if (who == 1'b1) count <= count + u_step;
    else count <= count + 8'h01;
  end
endmodule
module twin(input com {T} h, input com [7:0] {U} s0,
            input com [7:0] {U} s1, output com [7:0] {U} v0,
            output com [7:0] {U} v1);
  core a(.handoff(h), .u_step(s0), .value(v0));
  core b(.handoff(h), .u_step(s1), .value(v1));
endmodule
)";

const char* kIllegal = R"(
lattice { level T; level U; flow T -> U; }
module bad(input com {U} dirty);
  reg seq {T} creg;
  always @(seq) begin
    creg <= dirty;
  end
endmodule
)";

const char* kTrivial = R"(
lattice { level T; level U; flow T -> U; }
module ok(input com {T} a, output com {T} b);
  assign b = a;
endmodule
)";

std::vector<JobSpec> mixed_jobs() {
    std::vector<JobSpec> jobs;
    jobs.push_back({"mode_switch", "", kModeSwitch, "", 0});
    jobs.push_back({"twin", "", kTwinInstances, "", 0});
    jobs.push_back({"illegal", "", kIllegal, "", 0});
    jobs.push_back({"trivial", "", kTrivial, "", 0});
    jobs.push_back({"twin_again", "", kTwinInstances, "", 0});
    jobs.push_back({"mode_switch_top", "", kModeSwitch, "m", 0});
    return jobs;
}

// (a) Batch results must be byte-identical for --jobs 1 and --jobs 8.
TEST(Driver, DeterministicAcrossWorkerCounts) {
    auto jobs = mixed_jobs();

    DriverOptions seq_opts;
    seq_opts.jobs = 1;
    VerificationDriver sequential(seq_opts);
    BatchReport r1 = sequential.run(jobs);

    DriverOptions par_opts;
    par_opts.jobs = 8;
    VerificationDriver parallel(par_opts);
    BatchReport r8 = parallel.run(jobs);

    EXPECT_EQ(r1.to_json(false), r8.to_json(false));
    EXPECT_EQ(r1.summary(), r8.summary());
    ASSERT_EQ(r1.results.size(), jobs.size());
    EXPECT_EQ(r1.results[0].status, JobStatus::Secure);
    EXPECT_EQ(r1.results[2].status, JobStatus::Rejected);
    EXPECT_EQ(r1.results[3].status, JobStatus::Secure);
}

// (b) The cache must never change a verdict: per-obligation EntailStatus
// is identical with the cache off, cold, and warm.
TEST(Driver, CacheVerdictParity) {
    Compiled c = compile(kTwinInstances);
    ASSERT_TRUE(c.ok()) << c.errors();

    DiagnosticEngine d_off;
    check::CheckOptions opts_off;
    auto off = check::check_design(*c.design, d_off, opts_off);

    solver::EntailCache cache;
    check::CheckOptions opts_on;
    opts_on.solver.cache = &cache;
    DiagnosticEngine d_cold;
    auto cold = check::check_design(*c.design, d_cold, opts_on);
    DiagnosticEngine d_warm;
    auto warm = check::check_design(*c.design, d_warm, opts_on);

    ASSERT_EQ(off.obligations.size(), cold.obligations.size());
    ASSERT_EQ(off.obligations.size(), warm.obligations.size());
    for (size_t i = 0; i < off.obligations.size(); ++i) {
        EXPECT_EQ(off.obligations[i].result.status,
                  cold.obligations[i].result.status)
            << "obligation " << i;
        EXPECT_EQ(off.obligations[i].result.status,
                  warm.obligations[i].result.status)
            << "obligation " << i;
        EXPECT_EQ(off.obligations[i].result.candidates,
                  warm.obligations[i].result.candidates)
            << "obligation " << i;
    }
    EXPECT_EQ(off.ok, cold.ok);
    EXPECT_EQ(off.failed, warm.failed);
    // The twin's second instance repeats the first's canonical queries.
    EXPECT_GT(cold.solver_stats.cache_hits, 0u);
    // A warm cache answers every enumeration-class query.
    EXPECT_EQ(warm.solver_stats.enumerations, 0u);
    EXPECT_EQ(cache.stats().evictions, 0u);
}

// (c) A job that exceeds its deadline is reported as a timeout without
// taking the rest of the batch down.
TEST(Driver, TimeoutIsolation) {
    std::vector<JobSpec> jobs;
    JobSpec slow;
    ASSERT_TRUE(driver::builtin_job("labeled", slow));
    slow.timeout_ms = 40; // the labeled CPU needs seconds under enum
    jobs.push_back(std::move(slow));
    jobs.push_back({"trivial", "", kTrivial, "", 0});
    jobs.push_back({"mode_switch", "", kModeSwitch, "", 0});

    DriverOptions opts;
    opts.jobs = 2;
    // The reference backend: cdcl checks the labeled CPU in about 15 ms,
    // too close to the deadline for the expiry to be certain.
    opts.check.solver.backend = solver::BackendKind::Enum;
    VerificationDriver drv(opts);
    BatchReport report = drv.run(jobs);

    ASSERT_EQ(report.results.size(), 3u);
    EXPECT_EQ(report.results[0].status, JobStatus::Timeout);
    EXPECT_EQ(report.results[1].status, JobStatus::Secure);
    EXPECT_EQ(report.results[2].status, JobStatus::Secure);
    EXPECT_FALSE(report.all_ran());
    EXPECT_EQ(report.count(JobStatus::Timeout), 1u);
}

// Warm runs over the same driver reuse the cache across run() calls.
TEST(Driver, CacheStaysWarmAcrossRuns) {
    std::vector<JobSpec> jobs;
    jobs.push_back({"mode_switch", "", kModeSwitch, "", 0});

    VerificationDriver drv;
    BatchReport cold = drv.run(jobs);
    BatchReport warm = drv.run(jobs);

    EXPECT_GT(warm.cache.hits, 0u);
    EXPECT_EQ(warm.cache.hit_rate(), 1.0);
    // Verdicts unchanged by cache temperature.
    EXPECT_EQ(cold.to_json(false), warm.to_json(false));
}

TEST(Driver, RejectedDesignStillReportsDiagnostics) {
    std::vector<JobSpec> jobs;
    jobs.push_back({"illegal", "", kIllegal, "", 0});
    VerificationDriver drv;
    BatchReport report = drv.run(jobs);
    ASSERT_EQ(report.results.size(), 1u);
    EXPECT_EQ(report.results[0].status, JobStatus::Rejected);
    EXPECT_EQ(report.results[0].failed, 1u);
    EXPECT_NE(report.results[0].diagnostics.find("illegal flow"),
              std::string::npos);
    // The full JSON embeds the rendered diagnostics, escaped.
    std::string json = report.to_json(true);
    EXPECT_NE(json.find("\"status\": \"rejected\""), std::string::npos);
    EXPECT_NE(json.find("svlc-batch-report/v2"), std::string::npos);
}

TEST(Driver, UnreadableFileIsErrorNotCrash) {
    std::vector<JobSpec> jobs;
    jobs.push_back({"missing", "/nonexistent/no_such_file.svlc", "", "", 0});
    jobs.push_back({"trivial", "", kTrivial, "", 0});
    VerificationDriver drv;
    BatchReport report = drv.run(jobs);
    EXPECT_EQ(report.results[0].status, JobStatus::Error);
    EXPECT_EQ(report.results[1].status, JobStatus::Secure);
    EXPECT_FALSE(report.all_ran());
}

class DriverDiscoveryTest : public ::testing::Test {
protected:
    void SetUp() override {
        // Keyed by test name: ctest runs each test in its own process,
        // so only the name tells parallel tests' directories apart.
        dir_ = fs::temp_directory_path() /
               (std::string("svlc_driver_test_") +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        std::error_code ec;
        fs::remove_all(dir_, ec);
        fs::create_directories(dir_ / "nested");
    }
    void TearDown() override {
        std::error_code ec;
        fs::remove_all(dir_, ec);
    }
    void write(const fs::path& rel, const std::string& text) {
        std::ofstream out(dir_ / rel);
        out << text;
    }
    fs::path dir_;
};

TEST_F(DriverDiscoveryTest, DirectoryGlobSortedRecursive) {
    write("b.svlc", kTrivial);
    write("a.svlc", kModeSwitch);
    write("nested/c.svlc", kTwinInstances);
    write("ignored.txt", "not a design");

    std::vector<JobSpec> jobs;
    std::string error;
    ASSERT_TRUE(driver::jobs_from_directory(dir_.string(), jobs, error))
        << error;
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(fs::path(jobs[0].path).filename(), "a.svlc");
    EXPECT_EQ(fs::path(jobs[1].path).filename(), "b.svlc");
    EXPECT_EQ(fs::path(jobs[2].path).filename(), "c.svlc");
}

TEST_F(DriverDiscoveryTest, ManifestPathsBuiltinsAndTops) {
    write("a.svlc", kModeSwitch);
    write("nested/c.svlc", kTwinInstances);
    write("jobs.txt", "# corpus\n"
                      "a.svlc top=m\n"
                      "nested/c.svlc timeout=120000\n"
                      "builtin:baseline\n"
                      "\n");

    std::vector<JobSpec> jobs;
    std::string error;
    ASSERT_TRUE(driver::jobs_from_manifest((dir_ / "jobs.txt").string(),
                                           jobs, error))
        << error;
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[0].top, "m");
    EXPECT_EQ(jobs[0].timeout_ms, 0u);
    EXPECT_TRUE(jobs[1].source.empty());
    EXPECT_EQ(jobs[1].timeout_ms, 120000u);
    EXPECT_EQ(jobs[2].name, "builtin:baseline");
    EXPECT_FALSE(jobs[2].source.empty());

    // The whole manifest runs green end to end.
    VerificationDriver drv;
    BatchReport report = drv.run(jobs);
    EXPECT_TRUE(report.all_ran());
    EXPECT_EQ(report.count(JobStatus::Secure), 3u);
}

TEST_F(DriverDiscoveryTest, ManifestRejectsUnknownAttribute) {
    write("jobs.txt", "a.svlc frobnicate=1\n");
    std::vector<JobSpec> jobs;
    std::string error;
    EXPECT_FALSE(driver::jobs_from_manifest((dir_ / "jobs.txt").string(),
                                            jobs, error));
    EXPECT_NE(error.find("frobnicate"), std::string::npos);

    write("jobs.txt", "a.svlc timeout=soon\n");
    jobs.clear();
    EXPECT_FALSE(driver::jobs_from_manifest((dir_ / "jobs.txt").string(),
                                            jobs, error));
    EXPECT_NE(error.find("soon"), std::string::npos);
}

TEST(Driver, CollectJobsDispatch) {
    std::vector<JobSpec> jobs;
    std::string error;
    ASSERT_TRUE(driver::collect_jobs("builtin:quad", jobs, error)) << error;
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].name, "builtin:quad");

    jobs.clear();
    EXPECT_FALSE(driver::collect_jobs("builtin:bogus", jobs, error));

    EXPECT_EQ(driver::builtin_cpu_jobs().size(), 4u);
}

} // namespace
} // namespace svlc::test
