// Symbolic leak hunter suite: the bounded search must find the paper's
// Figure 3 implicit downgrade as a *replay-confirmed* trace, certify the
// checker-accepted designs leak-free to the depth bound, behave
// deterministically, and stay a sound refinement of the TaintTracker
// (every candidate confirms — the same contract the fuzz oracle holds).
#include "driver/driver.hpp"
#include "hunt/corpus.hpp"
#include "hunt/hunter.hpp"
#include "hunt/symexec.hpp"
#include "support/fsutil.hpp"
#include "test_util.hpp"
#include "verify/taint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <sstream>

namespace svlc::test {
namespace {

// Figure 3 with the untrusted register driven from an untrusted input —
// identical to verify_test's kFig3Driven so the two suites agree on
// what "the leak" means.
const char* kFig3Driven = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module fig3(input com {T} in_v, input com [7:0] {U} in_u);
  reg seq {T} v;
  reg seq [7:0] {T} trusted;
  reg seq [7:0] {U} untrusted;
  reg seq [7:0] {mode_to_lb(v)} shared;
  always @(seq) begin
    v <= in_v;
    untrusted <= in_u;
    if (v == 1'b1) shared <= untrusted;
    else           trusted <= shared;
  end
endmodule
)";

hunt::HuntOptions small_hunt(uint64_t depth = 6) {
    hunt::HuntOptions opts;
    opts.depth = depth;
    opts.beam = 4;
    opts.branch = 4;
    return opts;
}

TEST(Hunt, FindsFig3ImplicitDowngrade) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt());
    ASSERT_EQ(r.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(r.replay.confirmed);
    EXPECT_EQ(c.design->net(r.replay.net).name, "shared");
    EXPECT_EQ(r.unconfirmed_candidates, 0u);
    EXPECT_FALSE(r.trace.cycles.empty());
}

TEST(Hunt, TraceReplaysThroughConcreteOracle) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt());
    ASSERT_EQ(r.verdict, hunt::HuntVerdict::Leak);
    // Replaying the reported trace from scratch reproduces the verdict:
    // the trace is a self-contained witness, not search-state residue.
    hunt::ReplayWitness w =
        hunt::replay_trace(*c.design, r.trace, r.observer);
    EXPECT_TRUE(w.confirmed);
    EXPECT_EQ(w.net, r.replay.net);
}

TEST(Hunt, MinimizedTraceStillConfirms) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntOptions opts = small_hunt();
    opts.minimize = true;
    hunt::HuntResult minimized = hunt::hunt(*c.design, opts);
    ASSERT_EQ(minimized.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(minimized.replay.confirmed);

    opts.minimize = false;
    hunt::HuntResult raw = hunt::hunt(*c.design, opts);
    ASSERT_EQ(raw.verdict, hunt::HuntVerdict::Leak);
    // ddmin never makes the witness longer.
    EXPECT_LE(minimized.trace.cycles.size(), raw.trace.cycles.size());
}

TEST(Hunt, CleanModeSwitchGetsCertificate) {
    // Figure 4's guard discipline (next(mode)) — checker-accepted, and
    // the hunter must agree to the bound.
    auto c = compile(policy_header() + R"(
module m(input com {T} go, input com [7:0] {U} in_u);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go) mode <= ~mode;
  end
  always @(seq) begin
    if (go && (mode == 1'b1) && (next(mode) == 1'b0))
      r <= 8'h0;
    else if (mode == 1'b1)
      r <= in_u;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt(8));
    EXPECT_EQ(r.verdict, hunt::HuntVerdict::NoLeakFound);
    EXPECT_EQ(r.unconfirmed_candidates, 0u);
}

TEST(Hunt, AllTrustedInputsMeansNoSecrets) {
    auto c = compile(R"(
lattice { level T; level U; flow T -> U; }
module m(input com [7:0] {T} a, output com [7:0] {T} out);
  reg seq [7:0] {T} r;
  assign out = r;
  always @(seq) begin
    r <= a + 8'h1;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt(2));
    EXPECT_EQ(r.verdict, hunt::HuntVerdict::NoSecrets);
    EXPECT_EQ(r.states_explored, 0u) << "NoSecrets must short-circuit";
}

TEST(Hunt, DeterministicInSeed) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntOptions opts = small_hunt();
    hunt::HuntResult a = hunt::hunt(*c.design, opts);
    hunt::HuntResult b = hunt::hunt(*c.design, opts);
    EXPECT_EQ(a.verdict, b.verdict);
    EXPECT_EQ(a.states_explored, b.states_explored);
    EXPECT_EQ(a.assignments_tried, b.assignments_tried);
    ASSERT_EQ(a.trace.cycles.size(), b.trace.cycles.size());
    for (size_t i = 0; i < a.trace.cycles.size(); ++i) {
        ASSERT_EQ(a.trace.cycles[i].values.size(),
                  b.trace.cycles[i].values.size());
        for (size_t j = 0; j < a.trace.cycles[i].values.size(); ++j) {
            EXPECT_EQ(a.trace.cycles[i].values[j].first,
                      b.trace.cycles[i].values[j].first);
            EXPECT_EQ(a.trace.cycles[i].values[j].second,
                      b.trace.cycles[i].values[j].second);
        }
    }
}

TEST(Hunt, JsonReportCarriesSchemaAndVerdict) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt());
    std::string json = hunt::hunt_json(*c.design, r);
    EXPECT_NE(json.find("svlc-hunt/v1"), std::string::npos);
    EXPECT_NE(json.find("\"verdict\""), std::string::npos);
    EXPECT_NE(json.find("leak"), std::string::npos);
    EXPECT_NE(json.find("\"replay_confirmed\": true"), std::string::npos);
}

TEST(Hunt, HdlFig3FileFindsLeak) {
    std::string source;
    ASSERT_TRUE(read_file(SVLC_HDL_DIR "/fig3_implicit_downgrade.svlc",
                          source));
    auto c = compile(source);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt());
    EXPECT_EQ(r.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(r.replay.confirmed);
    EXPECT_EQ(r.unconfirmed_candidates, 0u);
}

TEST(Hunt, FindsNextArrayReadLeak) {
    // The secret reaches the public wire only through next(mem[0]), the
    // array write staged in the same cycle.
    std::string source;
    ASSERT_TRUE(read_file(SVLC_FIXTURE_DIR "/dynamic/next_array_leak.svlc",
                          source));
    auto c = compile(source);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::HuntResult r = hunt::hunt(*c.design, small_hunt(6));
    ASSERT_EQ(r.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(r.replay.confirmed);
    EXPECT_EQ(c.design->net(r.replay.net).name, "w");
    EXPECT_EQ(r.unconfirmed_candidates, 0u);
}

// --- corpus ---------------------------------------------------------------

TEST(HuntCorpus, PlantedRingLeaksCleanRingDoesNot) {
    auto planted = compile(hunt::ring_scenario_source(2, true));
    ASSERT_TRUE(planted.ok()) << planted.errors();
    hunt::HuntResult rp = hunt::hunt(*planted.design, small_hunt(6));
    EXPECT_EQ(rp.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(rp.replay.confirmed);
    EXPECT_EQ(rp.unconfirmed_candidates, 0u);

    auto clean = compile(hunt::ring_scenario_source(2, false));
    ASSERT_TRUE(clean.ok()) << clean.errors();
    hunt::HuntResult rc = hunt::hunt(*clean.design, small_hunt(6));
    EXPECT_EQ(rc.verdict, hunt::HuntVerdict::NoLeakFound);
    EXPECT_EQ(rc.unconfirmed_candidates, 0u);
}

TEST(HuntCorpus, PlantedCacheLeaksCleanCacheDoesNot) {
    auto planted = compile(hunt::cache_scenario_source(4, true));
    ASSERT_TRUE(planted.ok()) << planted.errors();
    hunt::HuntResult rp = hunt::hunt(*planted.design, small_hunt(6));
    EXPECT_EQ(rp.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(rp.replay.confirmed);

    auto clean = compile(hunt::cache_scenario_source(4, false));
    ASSERT_TRUE(clean.ok()) << clean.errors();
    hunt::HuntResult rc = hunt::hunt(*clean.design, small_hunt(6));
    EXPECT_EQ(rc.verdict, hunt::HuntVerdict::NoLeakFound);
    EXPECT_EQ(rc.unconfirmed_candidates, 0u);
}

TEST(HuntCorpus, ScenariosAreDeterministicBytes) {
    EXPECT_EQ(hunt::ring_scenario_source(4, true),
              hunt::ring_scenario_source(4, true));
    EXPECT_EQ(hunt::cache_scenario_source(16, false),
              hunt::cache_scenario_source(16, false));
    EXPECT_NE(hunt::ring_scenario_source(4, true),
              hunt::ring_scenario_source(4, false));
}

TEST(HuntCorpus, WriteCorpusProducesLoadableHuntManifest) {
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("svlc-hunt-corpus-" + std::to_string(::getpid()));
    fs::remove_all(dir);
    auto scenarios = hunt::builtin_scenarios();
    ASSERT_FALSE(scenarios.empty());
    std::string error;
    ASSERT_TRUE(hunt::write_corpus(dir.string(), scenarios, error)) << error;

    std::string merror;
    std::vector<driver::JobSpec> jobs;
    ASSERT_TRUE(driver::jobs_from_manifest((dir / "manifest.txt").string(),
                                           jobs, merror))
        << merror;
    ASSERT_EQ(jobs.size(), scenarios.size());
    for (const auto& spec : jobs) {
        EXPECT_GT(spec.hunt_depth, 0u) << spec.name;
        EXPECT_FALSE(spec.top.empty()) << spec.name;
    }
    fs::remove_all(dir);
}

// --- driver integration ---------------------------------------------------

TEST(HuntDriver, HuntJobsReportLeakAsRejected) {
    driver::JobSpec spec;
    spec.name = "ring2-bug";
    spec.top = "ring2";
    spec.hunt_depth = 6;
    driver::JobResult res =
        driver::hunt_text(spec, hunt::ring_scenario_source(2, true));
    EXPECT_EQ(res.status, driver::JobStatus::Rejected);
    EXPECT_NE(res.diagnostics.find("leak"), std::string::npos);
}

/// A beam-search miss is no proof, so it is not reported as secure.
TEST(HuntDriver, HuntJobsReportMissAsNoLeakFound) {
    driver::JobSpec spec;
    spec.name = "ring2-ok";
    spec.top = "ring2";
    spec.hunt_depth = 6;
    driver::JobResult res =
        driver::hunt_text(spec, hunt::ring_scenario_source(2, false));
    EXPECT_EQ(res.status, driver::JobStatus::NoLeakFound);
    EXPECT_STREQ(driver::job_status_name(res.status), "no-leak-found");
    EXPECT_NE(res.diagnostics.find("no leak found"), std::string::npos);
    EXPECT_EQ(res.diagnostics.find("certificate"), std::string::npos);
}

/// Only the secret-free case is a certificate, and only it is secure.
TEST(HuntDriver, HuntJobsReportCertificateAsSecure) {
    driver::JobSpec spec;
    spec.name = "trusted";
    spec.hunt_depth = 6;
    driver::JobResult res = driver::hunt_text(spec, R"(
lattice { level T; level U; flow T -> U; }
module m(input com [7:0] {T} a, output com [7:0] {T} out);
  reg seq [7:0] {T} r;
  assign out = r;
  always @(seq) begin
    r <= a + 8'h1;
  end
endmodule
)");
    EXPECT_EQ(res.status, driver::JobStatus::Secure);
    EXPECT_NE(res.diagnostics.find("certificate"), std::string::npos);
}

TEST(HuntDriver, ManifestHuntAttributeRoundTrips) {
    namespace fs = std::filesystem;
    fs::path dir = fs::temp_directory_path() /
                   ("svlc-hunt-manifest-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    {
        std::ofstream src((dir / "a.svlc").string());
        src << hunt::ring_scenario_source(1, true);
        std::ofstream man((dir / "manifest.txt").string());
        man << "a.svlc top=ring1 hunt=5\n";
    }
    std::string error;
    std::vector<driver::JobSpec> jobs;
    ASSERT_TRUE(driver::jobs_from_manifest((dir / "manifest.txt").string(),
                                           jobs, error))
        << error;
    ASSERT_EQ(jobs.size(), 1u);
    EXPECT_EQ(jobs[0].hunt_depth, 5u);

    {
        std::ofstream man((dir / "manifest.txt").string());
        man << "a.svlc top=ring1 hunt=0\n";
    }
    jobs.clear();
    EXPECT_FALSE(driver::jobs_from_manifest(
        (dir / "manifest.txt").string(), jobs, error))
        << "hunt=0 must be a manifest error";
    fs::remove_all(dir);
}

// --- symbolic engine unit checks ------------------------------------------

TEST(TaintSim, SeedsOnlySecretInputs) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::TaintSim ts(*c.design,
                      c.design->policy.lattice().bottom());
    ts.step();
    EXPECT_EQ(ts.taint(c.design->find_net("in_u")), 0xFFu);
    EXPECT_EQ(ts.taint(c.design->find_net("in_v")), 0u);
}

TEST(TaintSim, TaintFollowsDataIntoRegisters) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::TaintSim ts(*c.design, c.design->policy.lattice().bottom());
    ts.step();
    EXPECT_EQ(ts.taint(c.design->find_net("untrusted")), 0xFFu)
        << "in_u's taint must land in the untrusted register";
    EXPECT_EQ(ts.taint(c.design->find_net("trusted")), 0u);
}

TEST(TaintSim, UntaintedOperandsStayClean) {
    auto c = compile(policy_header() + R"(
module m(input com [7:0] {T} a, input com [7:0] {U} b,
         output com [7:0] {U} x, output com [7:0] {T} y);
  assign x = a + b;
  assign y = a & 8'h0F;
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    hunt::TaintSim ts(*c.design, c.design->policy.lattice().bottom());
    ts.set_input(c.design->find_net("a"), BitVec(8, 0x12));
    ts.set_input(c.design->find_net("b"), BitVec(8, 0x34));
    ts.step();
    EXPECT_NE(ts.taint(c.design->find_net("x")), 0u);
    EXPECT_EQ(ts.taint(c.design->find_net("y")), 0u);
}

} // namespace
} // namespace svlc::test
