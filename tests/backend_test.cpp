// Entailment-backend tests: the enum-vs-cdcl differential contract over the whole corpus, budget-ablation soundness (tightening a
// solver budget can only surrender precision, never flip a verdict),
// stable obligation ids, resolvable obligation locations, and
// counterexample-witness round-trips through JSON and the artifact store.
#include "driver/driver.hpp"
#include "incr/store.hpp"
#include "pipeline/compilation.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

namespace svlc::test {
namespace {

namespace fs = std::filesystem;
using solver::BackendKind;
using solver::EntailStatus;

/// Every design the backend contract is exercised against: the on-disk
/// hdl/ corpus plus the four built-in processor variants.
std::vector<driver::JobSpec> corpus_jobs() {
    std::vector<driver::JobSpec> jobs;
    std::string error;
    EXPECT_TRUE(driver::jobs_from_directory(SVLC_HDL_DIR, jobs, error))
        << error;
    EXPECT_FALSE(jobs.empty());
    auto cpus = driver::builtin_cpu_jobs();
    jobs.insert(jobs.end(), std::make_move_iterator(cpus.begin()),
                std::make_move_iterator(cpus.end()));
    return jobs;
}

// --- differential contract -------------------------------------------------

TEST(BackendDifferential, CorpusAndBuiltinsAgree) {
    auto diffs = driver::diff_backends(corpus_jobs());
    for (const auto& d : diffs)
        ADD_FAILURE() << d.job << " diverged on " << d.field
                      << ": enum=" << d.enum_value << " " << d.backend << "="
                      << d.other_value;
}

TEST(BackendDifferential, IdenticalWitnessOnFig3) {
    // The Fig. 3 implicit downgrade must refute with the *same* first
    // counterexample under every backend — candidate order is part of the
    // backend contract, not just the verdict.
    std::string fig3 =
        std::string(SVLC_HDL_DIR) + "/fig3_implicit_downgrade.svlc";
    std::map<BackendKind, std::vector<std::string>> details;
    for (BackendKind kind : {BackendKind::Enum, BackendKind::Cdcl}) {
        pipeline::CompilationOptions opts;
        opts.check.solver.backend = kind;
        pipeline::Compilation comp(std::move(opts));
        ASSERT_TRUE(comp.load_file(fig3));
        const check::CheckResult* res = comp.check();
        ASSERT_NE(res, nullptr) << comp.render_diagnostics();
        EXPECT_FALSE(res->ok);
        for (const auto& ob : res->obligations)
            if (ob.result.status == EntailStatus::Refuted) {
                ASSERT_TRUE(ob.result.witness.has_value());
                EXPECT_FALSE(ob.result.witness->bindings.empty());
                details[kind].push_back(ob.id + "|" + ob.result.detail);
            }
    }
    EXPECT_FALSE(details[BackendKind::Enum].empty());
    EXPECT_EQ(details[BackendKind::Enum], details[BackendKind::Cdcl]);
}

// --- budget-ablation soundness ---------------------------------------------

std::map<std::string, EntailStatus> statuses(const std::string& path,
                                             check::CheckOptions copts) {
    pipeline::CompilationOptions opts;
    opts.check = copts;
    pipeline::Compilation comp(std::move(opts));
    EXPECT_TRUE(comp.load_file(path));
    const check::CheckResult* res = comp.check();
    EXPECT_NE(res, nullptr);
    std::map<std::string, EntailStatus> out;
    if (res)
        for (const auto& ob : res->obligations) {
            EXPECT_FALSE(ob.id.empty());
            out[ob.id] = ob.result.status;
        }
    return out;
}

TEST(BudgetAblation, TighteningNeverFlipsAVerdict) {
    // Tightening any solver budget may surrender Proven to Unknown but
    // must never manufacture a proof the full budget cannot find, and
    // must never flip Proven <-> Refuted. Checked per obligation id, for
    // both backends, on every corpus design.
    std::vector<std::string> files;
    for (const auto& e : fs::directory_iterator(SVLC_HDL_DIR))
        if (e.path().extension() == ".svlc")
            files.push_back(e.path().string());
    ASSERT_FALSE(files.empty());

    for (BackendKind kind : {BackendKind::Enum, BackendKind::Cdcl}) {
        check::CheckOptions base;
        base.solver.backend = kind;

        std::vector<check::CheckOptions> tightened;
        for (int depth : {0, 1, 2}) {
            check::CheckOptions t = base;
            t.solver.closure_depth = depth;
            tightened.push_back(t);
        }
        for (uint64_t cand : {uint64_t{1}, uint64_t{8}, uint64_t{64}}) {
            check::CheckOptions t = base;
            t.solver.max_candidates = cand;
            tightened.push_back(t);
        }
        for (uint32_t width : {0u, 1u, 2u}) {
            check::CheckOptions t = base;
            t.solver.max_enum_width = width;
            tightened.push_back(t);
        }

        for (const std::string& file : files) {
            auto baseline = statuses(file, base);
            for (const auto& topts : tightened) {
                auto tight = statuses(file, topts);
                ASSERT_EQ(baseline.size(), tight.size()) << file;
                for (const auto& [id, tstatus] : tight) {
                    ASSERT_TRUE(baseline.count(id)) << file << " " << id;
                    EntailStatus bstatus = baseline[id];
                    if (tstatus == EntailStatus::Proven)
                        EXPECT_EQ(bstatus, EntailStatus::Proven)
                            << file << " " << id
                            << ": tightened budget proved what the full "
                               "budget could not";
                    if (tstatus == EntailStatus::Refuted &&
                        bstatus == EntailStatus::Proven)
                        ADD_FAILURE()
                            << file << " " << id
                            << ": Proven flipped to Refuted under a "
                               "tightened budget";
                }
            }
        }
    }
}

// --- stable obligation ids -------------------------------------------------

TEST(ObligationIds, DeterministicAcrossRunsAndBackends) {
    for (const auto& job : corpus_jobs()) {
        std::vector<std::vector<std::string>> runs;
        // Cdcl twice (same-backend determinism) plus enum once
        // (cross-backend agreement); a second enum pass would re-pay the
        // full enumeration for no extra coverage.
        for (BackendKind kind : {BackendKind::Cdcl, BackendKind::Enum,
                                 BackendKind::Cdcl}) {
            pipeline::CompilationOptions opts;
            opts.top = job.top;
            opts.check.solver.backend = kind;
            pipeline::Compilation comp(std::move(opts));
            if (job.source.empty())
                ASSERT_TRUE(comp.load_file(job.path)) << job.name;
            else
                comp.load_text(job.source, job.name);
            const check::CheckResult* res = comp.check();
            ASSERT_NE(res, nullptr) << job.name;
            std::vector<std::string> ids;
            for (const auto& ob : res->obligations)
                ids.push_back(ob.id);
            runs.push_back(std::move(ids));
        }
        EXPECT_EQ(runs[0], runs[1]) << job.name;
        EXPECT_EQ(runs[0], runs[2]) << job.name;
    }
}

TEST(ObligationIds, EncodeModuleNetKindAndSite) {
    pipeline::Compilation comp;
    comp.load_text(R"(
lattice { level T; level U; flow T -> U; }
module m(input com {T} a, input com {T} b);
  reg seq {T} r;
  always @(seq) begin
    if (a) r <= 1'b0;
    else if (b) r <= 1'b1;
  end
endmodule
)",
                   "ids.svlc");
    const check::CheckResult* res = comp.check();
    ASSERT_NE(res, nullptr) << comp.render_diagnostics();
    std::vector<std::string> seq_ids;
    for (const auto& ob : res->obligations)
        if (ob.kind == check::ObligationKind::SeqAssign)
            seq_ids.push_back(ob.id);
    // Two write sites to the same (net, kind) get consecutive site
    // ordinals in walk order.
    ASSERT_EQ(seq_ids.size(), 2u);
    EXPECT_EQ(seq_ids[0], "m:r:seq:0");
    EXPECT_EQ(seq_ids[1], "m:r:seq:1");
}

// --- obligation locations --------------------------------------------------

TEST(ObligationLocs, EveryCorpusObligationResolvesToASource) {
    for (const auto& job : corpus_jobs()) {
        pipeline::CompilationOptions opts;
        opts.top = job.top;
        // Locations are backend-independent; take the fast one.
        opts.check.solver.backend = BackendKind::Cdcl;
        pipeline::Compilation comp(std::move(opts));
        if (job.source.empty())
            ASSERT_TRUE(comp.load_file(job.path)) << job.name;
        else
            comp.load_text(job.source, job.name);
        const check::CheckResult* res = comp.check();
        ASSERT_NE(res, nullptr) << job.name;
        for (const auto& ob : res->obligations) {
            EXPECT_TRUE(ob.loc.valid())
                << job.name << " " << ob.id << ": synthesized obligation "
                << "lost its source location";
            auto rec =
                pipeline::make_obligation_record(ob, *comp.design(),
                                                 &comp.sources());
            EXPECT_NE(rec.loc.find(':'), std::string::npos)
                << job.name << " " << ob.id << ": loc '" << rec.loc
                << "' does not resolve to file:line:col";
        }
    }
}

// --- witness round-trips ---------------------------------------------------

TEST(WitnessRecords, SurviveTheArtifactStore) {
    fs::path dir =
        fs::temp_directory_path() / "svlc_backend_test_store";
    fs::remove_all(dir);

    driver::JobSpec job;
    job.name = "fig3";
    job.path =
        std::string(SVLC_HDL_DIR) + "/fig3_implicit_downgrade.svlc";

    driver::DriverOptions opts;
    opts.jobs = 1;
    opts.store_dir = dir.string();

    driver::VerificationDriver cold(opts);
    auto cold_report = cold.run({job});
    driver::VerificationDriver warm(opts);
    auto warm_report = warm.run({job});

    ASSERT_EQ(warm_report.results.size(), 1u);
    EXPECT_TRUE(warm_report.results[0].skipped);
    ASSERT_FALSE(cold_report.results[0].flagged.empty());
    const auto& crec = cold_report.results[0].flagged[0];
    ASSERT_FALSE(warm_report.results[0].flagged.empty());
    const auto& wrec = warm_report.results[0].flagged[0];
    EXPECT_EQ(crec.id, wrec.id);
    EXPECT_EQ(crec.status, wrec.status);
    EXPECT_EQ(crec.detail, wrec.detail);
    EXPECT_EQ(crec.loc, wrec.loc);
    ASSERT_EQ(crec.witness.size(), wrec.witness.size());
    for (size_t i = 0; i < crec.witness.size(); ++i) {
        EXPECT_EQ(crec.witness[i].net, wrec.witness[i].net);
        EXPECT_EQ(crec.witness[i].primed, wrec.witness[i].primed);
        EXPECT_EQ(crec.witness[i].value, wrec.witness[i].value);
    }
    // The stable report subset must not distinguish a replayed verdict
    // from a fresh one — including the witness records.
    EXPECT_EQ(cold_report.to_json(false), warm_report.to_json(false));

    fs::remove_all(dir);
}

TEST(WitnessRecords, BatchJsonCarriesWitnessesAndIds) {
    driver::JobSpec job;
    job.name = "fig3";
    job.path =
        std::string(SVLC_HDL_DIR) + "/fig3_implicit_downgrade.svlc";
    driver::VerificationDriver drv(driver::DriverOptions{});
    auto report = drv.run({job});
    std::string json = report.to_json(false);
    EXPECT_NE(json.find("\"flagged\""), std::string::npos);
    EXPECT_NE(json.find("\"witness\""), std::string::npos);
    EXPECT_NE(json.find("fig3:shared:seq:0"), std::string::npos);
    EXPECT_NE(json.find("\"status\": \"refuted\""), std::string::npos);
}

} // namespace
} // namespace svlc::test
