// Tests for the grammar-aware fuzzing subsystem: generator determinism
// and well-formedness rate, oracle verdicts over seed ranges, campaign
// driver determinism and report format, and the greedy reducer.
#include "fuzz/generator.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/reducer.hpp"
#include "fuzz/rng.hpp"
#include "fuzz/runner.hpp"
#include "pipeline/compilation.hpp"
#include "support/diagnostics.hpp"
#include "support/fsutil.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>

namespace svlc::fuzz {
namespace {

namespace fs = std::filesystem;

std::string capture_run(const FuzzOptions& opts, FuzzStats& stats) {
    // One file per test: ctest -j runs the tests that capture at once.
    const char* test =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::path log = fs::temp_directory_path() /
                   (std::string("svlc-fuzz-test-") + test + ".log");
    std::FILE* out = std::fopen(log.string().c_str(), "w");
    EXPECT_NE(out, nullptr);
    stats = run_fuzz(opts, out);
    std::fclose(out);
    std::string text;
    EXPECT_TRUE(read_file(log.string(), text));
    fs::remove(log);
    return text;
}

TEST(FuzzRng, DeterministicAndDerivedStreamsDiffer) {
    Rng a(42), b(42), c(43);
    for (int i = 0; i < 16; ++i) {
        uint64_t va = a.next();
        EXPECT_EQ(va, b.next());
        EXPECT_NE(va, c.next()); // astronomically unlikely to collide
    }
    EXPECT_NE(Rng::derive(1, 0), Rng::derive(1, 1));
    EXPECT_NE(Rng::derive(1, 0), Rng::derive(2, 0));
    EXPECT_EQ(Rng::derive(7, 9), Rng::derive(7, 9));
}

TEST(FuzzGenerator, SameSeedSameProgram) {
    GenOptions opts;
    opts.seed = 1234;
    GenProgram a = generate_program(opts);
    GenProgram b = generate_program(opts);
    EXPECT_EQ(a.source, b.source);
    opts.seed = 1235;
    EXPECT_NE(a.source, generate_program(opts).source);
}

TEST(FuzzGenerator, GeneratedProgramsElaborateCleanly) {
    // Every well-formed-class program must survive parse + elaborate +
    // well-formedness: the generator maintains single drivers, acyclic
    // comb deps, in-range slices, and latch-free always@(*) blocks by
    // construction. (Checker acceptance is allowed to vary.)
    int accepted = 0;
    for (uint64_t seed = 0; seed < 60; ++seed) {
        GenOptions opts;
        opts.seed = seed;
        GenProgram p = generate_program(opts);
        pipeline::Compilation comp;
        comp.load_text(p.source, "gen.svlc");
        ASSERT_NE(comp.elaborate(), nullptr)
            << "seed " << seed << ":\n"
            << comp.render_diagnostics() << p.source;
        if (comp.secure())
            ++accepted;
    }
    // The accept bias should keep a healthy share of programs inside the
    // type system — the soundness oracle is vacuous otherwise.
    EXPECT_GE(accepted, 10);
}

TEST(FuzzGenerator, MutantsAndPathologicalAreDeterministic) {
    GenOptions opts;
    opts.seed = 99;
    std::string base = generate_program(opts).source;
    EXPECT_EQ(mutate_source(base, 7), mutate_source(base, 7));
    EXPECT_EQ(pathological_source(3), pathological_source(3));
    EXPECT_NE(pathological_source(3), pathological_source(4));
}

TEST(FuzzOracles, ParseOracleSet) {
    OracleSet set;
    ASSERT_TRUE(parse_oracle_set("all", set));
    EXPECT_TRUE(set.no_crash && set.backend_diff && set.soundness &&
                set.xform && set.modular);
    ASSERT_TRUE(parse_oracle_set("modular", set));
    EXPECT_TRUE(set.modular);
    EXPECT_FALSE(set.no_crash);
    ASSERT_TRUE(parse_oracle_set("no-crash,xform", set));
    EXPECT_TRUE(set.no_crash);
    EXPECT_TRUE(set.xform);
    EXPECT_FALSE(set.backend_diff);
    EXPECT_FALSE(set.soundness);
    EXPECT_FALSE(set.modular);
    EXPECT_FALSE(parse_oracle_set("bogus", set));
    EXPECT_FALSE(parse_oracle_set("no-crash,bogus", set));
    EXPECT_FALSE(parse_oracle_set("", set));
}

TEST(FuzzOracles, CleanSweepOverSeedRange) {
    // A miniature campaign inline: every oracle on generated programs.
    OracleConfig cfg;
    for (uint64_t seed = 0; seed < 25; ++seed) {
        GenOptions opts;
        opts.seed = seed;
        GenProgram p = generate_program(opts);
        cfg.seed = seed ^ 0x5eed;
        auto findings = run_oracles(OracleSet::all(), p.source, cfg);
        for (const Finding& f : findings)
            ADD_FAILURE() << "seed " << seed << " oracle "
                          << oracle_name(f.oracle) << ": " << f.detail
                          << "\n"
                          << p.source;
    }
}

TEST(FuzzOracles, ModularProgramsMatchTheFlattenedReference) {
    // The multi-instance shape: every program elaborates, repeats its
    // child, and checks identically with and without modular checking.
    // Some wrap the children in a repeated `mid`.
    OracleConfig cfg;
    size_t seq_ports = 0, nested = 0;
    for (uint64_t seed = 0; seed < 25; ++seed) {
        GenProgram p = generate_modular_program(seed);
        EXPECT_NE(p.shape.find("/modular"), std::string::npos);
        seq_ports += p.source.find("input seq") != std::string::npos;
        nested += p.source.find("module mid(") != std::string::npos;
        pipeline::CompilationOptions copts;
        copts.check = cfg.check;
        pipeline::Compilation comp(copts);
        comp.load_text(p.source, "fuzz.svlc");
        const check::CheckResult* res = comp.check();
        ASSERT_NE(res, nullptr) << comp.render_diagnostics() << p.source;
        std::map<std::string, size_t> per_key;
        size_t most = 0;
        for (const auto& in : comp.design()->instances)
            most = std::max(most, ++per_key[in.key]);
        EXPECT_GE(most, 2u) << p.source;
        if (auto f = run_oracle(Oracle::Modular, p.source, cfg))
            ADD_FAILURE() << "seed " << seed << ": " << f->detail << "\n"
                          << p.source;
    }
    EXPECT_GT(seq_ports, 0u);
    EXPECT_GT(nested, 0u);
    // Its own seed stream: the index's single-module program is unchanged.
    GenOptions opts;
    opts.seed = 3;
    EXPECT_EQ(generate_program(opts).source.find("module child"),
              std::string::npos);
}

TEST(FuzzOracles, NoCrashSurvivesIllFormedInput) {
    OracleConfig cfg;
    for (uint64_t seed = 0; seed < 30; ++seed) {
        std::string path = pathological_source(seed);
        auto f = run_oracle(Oracle::NoCrash, path, cfg);
        EXPECT_FALSE(f.has_value())
            << "pathological seed " << seed << ": " << f->detail;
    }
}

TEST(FuzzOracles, StrayBeginInIfConditionTerminates) {
    // Regression: a keyword-splice mutation that orphans a block's `end`
    // used to spin parse_block forever on the trailing `endmodule`
    // (found by `svlc fuzz --seed 4`, index 275).
    const char* src = "lattice { level L; }\n"
                      "module top(output com {L} o);\n"
                      "  reg seq {L} m;\n"
                      "  assign o = 1'h0;\n"
                      "  always @(seq) begin\n"
                      "    if (next(m) == 1'h0) m <= 1'h0;\n"
                      "    else if (next(m) begin== 1'h1) m <= m;\n"
                      "  end\n"
                      "endmodule\n";
    OracleConfig cfg;
    auto f = run_oracle(Oracle::NoCrash, src, cfg);
    EXPECT_FALSE(f.has_value()) << f->detail;
}

TEST(FuzzReducer, ShrinksToPredicateCore) {
    std::string text;
    for (int i = 0; i < 40; ++i)
        text += "filler line " + std::to_string(i) + "\n";
    text += "the needle sits here\n";
    for (int i = 40; i < 80; ++i)
        text += "filler line " + std::to_string(i) + "\n";

    auto has_needle = [](const std::string& s) {
        return s.find("needle") != std::string::npos;
    };
    ReduceResult r = reduce_text(text, has_needle);
    EXPECT_TRUE(has_needle(r.text));
    EXPECT_LE(r.text.size(), 32u); // one line, tokens trimmed
    EXPECT_FALSE(r.hit_budget);
}

TEST(FuzzReducer, InputNotFailingIsReturnedUnchanged) {
    auto never = [](const std::string&) { return false; };
    ReduceResult r = reduce_text("abc\ndef\n", never);
    EXPECT_EQ(r.text, "abc\ndef\n");
}

TEST(FuzzReducer, InjectedIllegalFlowShrinksBelow15Lines) {
    // The acceptance-criteria scenario: a generated, checker-accepted
    // program with one injected leak must reduce to a handful of lines
    // under the diagnostic-preserving predicate.
    GenOptions gopts;
    gopts.seed = 9402913734628406890ull; // accepted program (seed 1 idx 5)
    std::string src = generate_program(gopts).source;
    std::string inject = "  wire com [7:0] {L0} leak__;\n"
                         "  assign leak__ = r0[7:0];\nendmodule";
    size_t pos = src.rfind("endmodule");
    ASSERT_NE(pos, std::string::npos);
    src.replace(pos, 9, inject);

    DiagCode code;
    ASSERT_TRUE(diag_code_from_name("illegal-flow", code));
    auto leaks = [code](const std::string& cand) {
        pipeline::Compilation comp;
        comp.load_text(cand, "reduce.svlc");
        comp.check();
        return comp.diags().has_code(code);
    };
    ASSERT_TRUE(leaks(src)) << src;

    ReduceResult r = reduce_text(src, leaks);
    EXPECT_TRUE(leaks(r.text));
    size_t lines = std::count(r.text.begin(), r.text.end(), '\n');
    EXPECT_LE(lines, 15u) << r.text;
}

TEST(FuzzRunner, CampaignIsDeterministicAndWritesReports) {
    fs::path corpus = fs::temp_directory_path() / "svlc-fuzz-test-corpus";
    fs::remove_all(corpus);

    FuzzOptions opts;
    opts.seed = 1;
    opts.count = 60;
    opts.corpus_dir = corpus.string();
    opts.progress_every = 0;

    FuzzStats s1, s2;
    std::string out1 = capture_run(opts, s1);
    std::string out2 = capture_run(opts, s2);
    EXPECT_EQ(out1, out2);
    EXPECT_EQ(s1.programs, 60u);
    EXPECT_EQ(s1.well_formed, s2.well_formed);
    EXPECT_EQ(s1.accepted, s2.accepted);
    EXPECT_EQ(s1.violations.size(), s2.violations.size());
    EXPECT_TRUE(s1.violations.empty())
        << s1.violations.front().finding.detail;
    EXPECT_GT(s1.well_formed, 0u);
    fs::remove_all(corpus);
}

TEST(FuzzRunner, ViolationProducesReducedCorpusEntry) {
    // Force a violation by failing programs through a pseudo-oracle:
    // none exists, so instead check the report JSON shape directly.
    FuzzOptions opts;
    opts.seed = 9;
    FuzzReportEntry entry;
    entry.index = 3;
    entry.program_seed = 77;
    entry.klass = "well-formed";
    entry.finding = {Oracle::BackendDiff, "verdict mismatch"};
    entry.reduced = "module top(); endmodule";
    std::string json = fuzz_report_json(opts, entry, "original text\n");
    EXPECT_NE(json.find("\"schema\": \"svlc-fuzz-report/v1\""),
              std::string::npos);
    EXPECT_NE(json.find("\"oracle\": \"diff\""), std::string::npos);
    EXPECT_NE(json.find("\"program_seed\": 77"), std::string::npos);
    EXPECT_NE(json.find("verdict mismatch"), std::string::npos);
}

TEST(FuzzRunner, DumpModeEmitsProgramsWithoutRunningOracles) {
    FuzzOptions opts;
    opts.seed = 2;
    opts.count = 3;
    opts.corpus_dir.clear();
    opts.dump_only = true;
    opts.progress_every = 0;
    FuzzStats stats;
    std::string out = capture_run(opts, stats);
    EXPECT_EQ(stats.programs, 3u);
    EXPECT_EQ(stats.accepted, 0u); // acceptance check skipped in dump mode
    EXPECT_NE(out.find("=== index 0 "), std::string::npos);
    EXPECT_NE(out.find("=== index 2 "), std::string::npos);
}


TEST(FuzzOracles, HuntTracesAlwaysReplayToTrackerViolations) {
    // The no-crash oracle now runs a bounded hunt; its contract is that
    // TaintSim candidates always replay-confirm. Exercise it directly on
    // a design with a reachable leak and on a clean one.
    const char* leaky = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module fig3(input com {T} in_v, input com [7:0] {U} in_u);
  reg seq {T} v;
  reg seq [7:0] {U} untrusted;
  reg seq [7:0] {mode_to_lb(v)} shared;
  always @(seq) begin
    v <= in_v;
    untrusted <= in_u;
    if (v == 1'b1) shared <= untrusted;
  end
endmodule
)";
    OracleConfig cfg;
    OracleSet set;
    set.no_crash = true;
    auto findings = run_oracles(set, leaky, cfg);
    EXPECT_TRUE(findings.empty())
        << "a *confirmed* leak is a property of the design, not a "
           "finding; got: "
        << findings[0].detail;

    const char* clean = R"(
lattice { level T; level U; flow T -> U; }
module m(input com [7:0] {U} b, output com [7:0] {U} out);
  reg seq [7:0] {U} r;
  assign out = r;
  always @(seq) begin
    r <= b + 8'h1;
  end
endmodule
)";
    findings = run_oracles(set, clean, cfg);
    EXPECT_TRUE(findings.empty());
}

} // namespace
} // namespace svlc::fuzz
