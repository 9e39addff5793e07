// Soundness stress: generate random mode-switching designs; every design
// the checker ACCEPTS must satisfy observational determinism under the
// randomized dual-run tester. This is the end-to-end property the type
// system claims (paper §4) — any counterexample here would be a genuine
// soundness bug in the checker/solver/semantics stack.
//
// The generator also tracks the accept rate so the sweep provably
// exercises both verdicts (a generator whose designs all fail would test
// nothing).
#include "hunt/hunter.hpp"
#include "support/fsutil.hpp"
#include "test_util.hpp"
#include "verify/noninterference.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>

namespace svlc::test {
namespace {

/// A random design over the two-point integrity policy: one mode bit and
/// a handful of mode-dependent or statically-labeled registers with
/// random guarded writes drawn from security-relevant building blocks.
std::string random_design(std::mt19937_64& rng) {
    std::ostringstream os;
    os << policy_header();
    os << "module m(input com {T} go, input com [7:0] {U} udata,\n"
          "         input com [7:0] {T} tdata);\n";
    os << "  reg seq {T} mode;\n";
    os << "  always @(seq) begin\n    if (go) mode <= ~mode;\n  end\n";

    int regs = 1 + static_cast<int>(rng() % 3);
    for (int i = 0; i < regs; ++i) {
        // Label: dependent, static T, or static U.
        int label_kind = static_cast<int>(rng() % 3);
        const char* label = label_kind == 0   ? "mode_to_lb(mode)"
                            : label_kind == 1 ? "T"
                                              : "U";
        os << "  reg seq [7:0] {" << label << "} r" << i << ";\n";
        os << "  always @(seq) begin\n";
        int writes = 1 + static_cast<int>(rng() % 3);
        for (int w = 0; w < writes; ++w) {
            // Random guard conjunction.
            std::string guard;
            auto add = [&](const std::string& g) {
                guard = guard.empty() ? g : guard + " && " + g;
            };
            if (rng() % 2)
                add("go");
            switch (rng() % 5) {
            case 0: add("(mode == 1'b0)"); break;
            case 1: add("(mode == 1'b1)"); break;
            case 2: add("(next(mode) == 1'b0)"); break;
            case 3: add("(next(mode) == 1'b1)"); break;
            default: break;
            }
            if (guard.empty())
                guard = "go";
            // Random value source.
            const char* rhs;
            switch (rng() % 4) {
            case 0: rhs = "8'h00"; break;
            case 1: rhs = "udata"; break;
            case 2: rhs = "tdata"; break;
            default: rhs = nullptr; break; // self-increment
            }
            os << "    " << (w == 0 ? "if" : "else if") << " (" << guard
               << ") r" << i << " <= ";
            if (rhs)
                os << rhs << ";\n";
            else
                os << "r" << i << " + 8'h1;\n";
        }
        os << "  end\n";
    }
    os << "endmodule\n";
    return os.str();
}

class SoundnessSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SoundnessSweep, AcceptedDesignsAreObservationallyDeterministic) {
    std::mt19937_64 rng(GetParam() * 7919 + 17);
    int accepted = 0, rejected = 0;
    for (int trial = 0; trial < 25; ++trial) {
        std::string src = random_design(rng);
        auto c = compile(src);
        ASSERT_TRUE(c.ok()) << c.errors() << "\n" << src;
        DiagnosticEngine diags;
        auto verdict = check::check_design(*c.design, diags);
        if (!verdict.ok) {
            ++rejected;
            continue;
        }
        ++accepted;
        verify::NIConfig cfg;
        cfg.observer = *c.design->policy.lattice().find("T");
        cfg.cycles = 64;
        cfg.trials = 3;
        cfg.seed = GetParam() * 131 + static_cast<uint64_t>(trial);
        auto ni = verify::test_noninterference(*c.design, cfg);
        EXPECT_TRUE(ni.ok)
            << "SOUNDNESS VIOLATION: the checker accepted a leaky design\n"
            << src << "\nleak: "
            << (ni.violations.empty() ? "?" : ni.violations[0].description);
    }
    // The sweep must exercise both verdicts to be meaningful.
    EXPECT_GT(accepted, 0) << "generator produced no accepted designs";
    EXPECT_GT(rejected, 0) << "generator produced no rejected designs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, SoundnessSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

/// Completeness spot-check (the flip side): the canonical secure idioms
/// must remain accepted — a regression here means lost precision.
TEST(PrecisionRegression, CanonicalSecureIdiomsStayAccepted) {
    const char* idioms[] = {
        // 1. clear on upgrade, user data while user.
        R"(
module m(input com {T} go, input com [7:0] {U} u);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin if (go) mode <= ~mode; end
  always @(seq) begin
    if (go && (mode == 1'b1) && (next(mode) == 1'b0)) r <= 8'h0;
    else if (mode == 1'b1) r <= u;
  end
endmodule
)",
        // 2. trusted constant into the upgraded register.
        R"(
module m(input com {T} go, input com [7:0] {T} t);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin if (go) mode <= ~mode; end
  always @(seq) begin
    if (next(mode) == 1'b0) r <= t;
    else r <= 8'hFF;
  end
endmodule
)",
        // 3. downgrade-only direction needs nothing.
        R"(
module m(input com {T} go)          ;
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go && (mode == 1'b0)) mode <= 1'b1;
  end
endmodule
)",
    };
    for (const char* body : idioms) {
        Compiled c;
        auto result = check_source(policy_header() + body, c);
        EXPECT_TRUE(result.ok) << c.errors() << "\n" << body;
    }
}

/// Checks a fixture under tests/fixtures/partial_writes/: the checker
/// must reject it with exactly one failed obligation of `kind`, whose
/// counterexample is `detail`, and the hunter must replay the leak.
void expect_rejected_and_leaking(const char* name, check::ObligationKind kind,
                                 const char* detail) {
    std::string source;
    ASSERT_TRUE(read_file(std::string(SVLC_FIXTURE_DIR "/partial_writes/") +
                              name,
                          source));
    Compiled c;
    check::CheckResult r = check_source(source, c);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.failed, 1u);
    for (const auto& ob : r.obligations) {
        if (ob.result.proven())
            continue;
        EXPECT_EQ(ob.kind, kind) << ob.id;
        EXPECT_EQ(ob.target, c.design->find_net("shared")) << ob.id;
        EXPECT_EQ(ob.result.status, solver::EntailStatus::Refuted);
        EXPECT_EQ(ob.result.detail, detail);
    }

    hunt::HuntResult h = hunt::hunt(*c.design, hunt::HuntOptions{});
    ASSERT_EQ(h.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(h.replay.confirmed);
    EXPECT_EQ(h.replay.cycle, 1u);
    EXPECT_EQ(c.design->net(h.replay.net).name, "shared");
    EXPECT_EQ(h.unconfirmed_candidates, 0u);
}

TEST(PartialWrites, PartSelectsDoNotCountAsFullWritesForTheHoldRule) {
    // `shared` is written in full on no path: its low nibble always, its
    // high nibble only when v' = 1. The hold obligation keeps no guard.
    expect_rejected_and_leaking("part_select_hold.svlc",
                                check::ObligationKind::Hold,
                                "v=1 v'=0 in_v=0 gives U \xe2\x8b\xa2 T");
}

TEST(PartialWrites, RegisterWithOnlyPartSelectWritesHasNoHoldEquation) {
    // m is written through m[0:0] only, so m' is not m: moving from 1 to
    // 0 relabels the untrusted value written under m = 1 as T.
    expect_rejected_and_leaking("part_select_label.svlc",
                                check::ObligationKind::SeqAssign,
                                "m'=0 m=1 gives U \xe2\x8b\xa2 T");
}

} // namespace
} // namespace svlc::test
