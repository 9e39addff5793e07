// Dynamic-verification suite: observational-determinism dual runs, the
// GLIFT-style taint monitor, and the dynamic-clearing transform — the
// three pillars of the paper's security comparisons.
#include "proc/assembler.hpp"
#include "proc/testbench.hpp"
#include "support/fsutil.hpp"
#include "test_util.hpp"
#include "verify/noninterference.hpp"
#include "verify/taint.hpp"
#include "xform/clearing.hpp"

#include <gtest/gtest.h>

namespace svlc::test {
namespace {

// Figure 3 with the untrusted register driven from an untrusted input, so
// the leak is dynamically exercisable.
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

LevelId trusted_level(const hir::Design& d) {
    return *d.policy.lattice().find("T");
}

TEST(Noninterference, ImplicitDowngradingLeaksDynamically) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    verify::NIConfig cfg;
    cfg.observer = trusted_level(*c.design);
    cfg.cycles = 64;
    cfg.trials = 4;
    auto result = verify::test_noninterference(*c.design, cfg);
    EXPECT_FALSE(result.ok)
        << "the Fig. 3 design must leak untrusted data to a trusted "
           "observer";
    ASSERT_FALSE(result.violations.empty());
}

TEST(Noninterference, DynamicClearingRestoresSecurity) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    auto report = xform::apply_dynamic_clearing(*c.design);
    EXPECT_EQ(report.cleared.size(), 1u);
    ASSERT_TRUE(sem::analyze_wellformed(*c.design, *c.diags)) << c.errors();
    verify::NIConfig cfg;
    cfg.observer = trusted_level(*c.design);
    cfg.cycles = 64;
    cfg.trials = 4;
    auto result = verify::test_noninterference(*c.design, cfg);
    EXPECT_TRUE(result.ok) << (result.violations.empty()
                                   ? ""
                                   : result.violations[0].description);
}

/// A label argument written only through part-selects has no defining
/// equation; the transform must still clear on a change of its level.
TEST(Noninterference, DynamicClearingSeesPartSelectLabelArguments) {
    std::string source;
    ASSERT_TRUE(read_file(
        std::string(SVLC_FIXTURE_DIR "/clearing/part_select_arg.svlc"),
        source));
    verify::NIConfig cfg;
    cfg.cycles = 64;
    cfg.trials = 4;
    {
        auto c = compile(source);
        ASSERT_TRUE(c.ok()) << c.errors();
        cfg.observer = trusted_level(*c.design);
        EXPECT_FALSE(verify::test_noninterference(*c.design, cfg).ok)
            << "without clearing the fixture must leak";
    }
    auto c = compile(source);
    ASSERT_TRUE(c.ok()) << c.errors();
    auto report = xform::apply_dynamic_clearing(*c.design);
    ASSERT_EQ(report.cleared.size(), 1u);
    EXPECT_EQ(c.design->net(report.cleared[0]).name, "shared");
    ASSERT_TRUE(sem::analyze_wellformed(*c.design, *c.diags)) << c.errors();
    auto result = verify::test_noninterference(*c.design, cfg);
    EXPECT_TRUE(result.ok) << (result.violations.empty()
                                   ? ""
                                   : result.violations[0].description);
}

/// Complementary part-selects overwrite every bit of `shared` on the
/// U -> T label change, so a trusted observer sees nothing untrusted;
/// without the else branch (part_select_hold.svlc) the high nibble leaks.
TEST(Noninterference, ComplementaryPartSelectsDoNotLeak) {
    verify::NIConfig cfg;
    cfg.cycles = 64;
    cfg.trials = 4;
    for (const char* name : {"part_select_cover.svlc", "part_select_hold.svlc"}) {
        std::string source;
        ASSERT_TRUE(read_file(
            std::string(SVLC_FIXTURE_DIR "/partial_writes/") + name, source));
        auto c = compile(source);
        ASSERT_TRUE(c.ok()) << c.errors();
        cfg.observer = trusted_level(*c.design);
        auto result = verify::test_noninterference(*c.design, cfg);
        bool cover = std::string(name) == "part_select_cover.svlc";
        EXPECT_EQ(result.ok, cover)
            << name << ": "
            << (result.violations.empty() ? ""
                                          : result.violations[0].description);
    }
}

TEST(Noninterference, DynamicClearingDestroysTheValue) {
    // The clearing transform is secure but erases data on *every* label
    // change — including the benign U->... change where the designer
    // wanted the value preserved. This is the functional damage §2.1
    // describes.
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    xform::apply_dynamic_clearing(*c.design);
    ASSERT_TRUE(sem::analyze_wellformed(*c.design, *c.diags)) << c.errors();
    sim::Simulator sim(*c.design);
    sim.set_input("in_v", 1);
    sim.set_input("in_u", 0xAB);
    sim.run(3); // v settles to 1, shared latches 0xAB
    EXPECT_EQ(sim.get("shared").value(), 0xABu);
    sim.set_input("in_v", 0); // label will change U -> T: cleared
    sim.run(2);
    EXPECT_EQ(sim.get("shared").value(), 0u)
        << "dynamic clearing must erase the register on the label change";
}

TEST(Noninterference, WellTypedModeSwitchDesignPasses) {
    const char* src = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} go, input com [7:0] {U} in_u);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go) mode <= ~mode;
  end
  always @(seq) begin
    if (go && (mode == 1'b1) && (next(mode) == 1'b0))
      r <= 8'h0;              // cleared on the U -> T upgrade
    else if (mode == 1'b1)
      r <= in_u;              // user data while label is U
  end
endmodule
)";
    Compiled c;
    auto check = check_source(src, c);
    ASSERT_TRUE(check.ok) << c.errors();
    verify::NIConfig cfg;
    cfg.observer = trusted_level(*c.design);
    cfg.cycles = 128;
    cfg.trials = 8;
    auto result = verify::test_noninterference(*c.design, cfg);
    EXPECT_TRUE(result.ok) << (result.violations.empty()
                                   ? ""
                                   : result.violations[0].description);
}

TEST(Noninterference, DependentLabelInputIsSharedWhileItsLabelIsTrusted) {
    // The labeled CPU's `fstall` carries {lb(mode)}: trusted in kernel
    // mode. A syscall-free kernel loop never leaves kernel mode, so the
    // tester must hold fstall equal in both runs; varying it (treating a
    // dependent label as high in every state) reported a false leak
    // through `stall` at cycle 1.
    const auto& design = proc::labeled_cpu_design();
    proc::AsmResult prog = proc::assemble("loop: addiu $1, $1, 1\n"
                                          "      j loop\n"
                                          "      nop\n");
    ASSERT_TRUE(prog.ok);
    verify::NIConfig cfg;
    cfg.observer = trusted_level(*design);
    cfg.cycles = 256;
    cfg.trials = 2;
    cfg.driver = [&prog](sim::Simulator& s, uint64_t cycle) {
        if (cycle == 0)
            for (size_t i = 0; i < prog.words.size(); ++i)
                s.poke_elem("imem_k", i, prog.words[i]);
        s.set_input("rst", cycle == 0 ? 1 : 0);
    };
    auto result = verify::test_noninterference(*design, cfg);
    EXPECT_TRUE(result.ok) << (result.violations.empty()
                                   ? ""
                                   : result.violations[0].description);
    EXPECT_EQ(result.cycles_run, cfg.cycles * cfg.trials);
}

TEST(Taint, MonitorFlagsImplicitDowngrade) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("in_v", 1);
    sim.set_input("in_u", 0xCD);
    tracker.step(sim);
    tracker.step(sim);
    tracker.step(sim); // untrusted value now sits in `shared` (label U)
    EXPECT_TRUE(tracker.violations().empty());
    sim.set_input("in_v", 0); // label U -> T while the value stays
    tracker.step(sim);
    tracker.step(sim);
    EXPECT_FALSE(tracker.violations().empty())
        << "taint monitor must flag the tainted register becoming trusted";
}

TEST(Taint, CleanDesignStaysClean) {
    auto c = compile(R"(
module m(input com [7:0] {T} a, input com [7:0] {U} b);
  reg seq [7:0] {T} rt;
  reg seq [7:0] {U} ru;
  always @(seq) begin
    rt <= a + 8'h1;
    ru <= a + b;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("a", 3);
    sim.set_input("b", 7);
    for (int i = 0; i < 10; ++i)
        tracker.step(sim);
    EXPECT_TRUE(tracker.violations().empty());
    // Taints reflect data provenance.
    EXPECT_EQ(tracker.taint(c.design->find_net("rt")),
              *c.design->policy.lattice().find("T"));
    EXPECT_EQ(tracker.taint(c.design->find_net("ru")),
              *c.design->policy.lattice().find("U"));
}

TEST(Taint, ControlFlowPropagatesTaint) {
    auto c = compile(R"(
module m(input com {U} sel, input com [7:0] {T} a);
  reg seq [7:0] {U} r;
  always @(seq) begin
    if (sel) r <= a;
    else     r <= 8'h0;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("sel", 0);
    sim.set_input("a", 9);
    tracker.step(sim);
    // Even assigning the constant 0, the untrusted guard taints r.
    EXPECT_EQ(tracker.taint(c.design->find_net("r")),
              *c.design->policy.lattice().find("U"));
}

TEST(Taint, EndorseResetsTaint) {
    auto c = compile(R"(
module m(input com [7:0] {U} b, input com {T} accept);
  reg seq [7:0] {T} rt;
  always @(seq) begin
    if (accept) rt <= endorse(b, T);
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("b", 0x42);
    sim.set_input("accept", 1);
    tracker.step(sim);
    EXPECT_TRUE(tracker.violations().empty());
    EXPECT_EQ(tracker.taint(c.design->find_net("rt")),
              *c.design->policy.lattice().find("T"));
    EXPECT_EQ(sim.get("rt").value(), 0x42u);
}

TEST(Clearing, ReportListsClearedRegisters) {
    auto c = compile(kFig3Driven);
    ASSERT_TRUE(c.ok()) << c.errors();
    auto report = xform::apply_dynamic_clearing(*c.design);
    ASSERT_EQ(report.cleared.size(), 1u);
    EXPECT_EQ(c.design->net(report.cleared[0]).name, "shared");
    EXPECT_EQ(report.inserted_writes, 1u);
}

TEST(Clearing, ClearsArraysElementwise) {
    auto c = compile(policy_header() + R"(
module m(input com {T} go, input com [7:0] {U} d, input com [1:0] {U} addr);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} gpr[0:3];
  always @(seq) begin
    if (go) mode <= ~mode;
  end
  always @(seq) begin
    if (mode == 1'b1) gpr[addr] <= d;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto report = xform::apply_dynamic_clearing(*c.design);
    ASSERT_EQ(report.cleared.size(), 1u);
    EXPECT_EQ(report.inserted_writes, 4u);
    ASSERT_TRUE(sem::analyze_wellformed(*c.design, *c.diags)) << c.errors();
    sim::Simulator sim(*c.design);
    sim.set_input("go", 0);
    sim.set_input("d", 0x77);
    sim.set_input("addr", 1);
    // mode starts at 0 (label T); flip to user mode first.
    sim.set_input("go", 1);
    sim.step();
    sim.set_input("go", 0);
    sim.step(); // write 0x77 while mode==1
    EXPECT_EQ(sim.get_elem("gpr", 1).value(), 0x77u);
    sim.set_input("go", 1);
    sim.step(); // mode 1 -> 0: label change clears all elements
    EXPECT_EQ(sim.get_elem("gpr", 1).value(), 0u);
}

TEST(Clearing, LabelLevelMaterializationMatchesSemantics) {
    auto c = compile(policy_header() + R"(
module m(input com {T} go);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go) mode <= ~mode;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    hir::NetId r = c.design->find_net("r");
    auto cur = xform::materialize_label_level(
        *c.design, c.design->net(r).label, /*next_cycle=*/false);
    sim::Simulator sim(*c.design);
    // mode == 0 -> level T (id of T in declaration order).
    EXPECT_EQ(sim.walk(*cur, sim::Concrete{}).value(),
              static_cast<uint64_t>(*c.design->policy.lattice().find("T")));
    sim.set_input("go", 1);
    sim.step();
    EXPECT_EQ(sim.walk(*cur, sim::Concrete{}).value(),
              static_cast<uint64_t>(*c.design->policy.lattice().find("U")));
}


TEST(Taint, SeqDowngradeEvaluatesPendingArgs) {
    // Downgrade labels in a sequential process are Gamma(r){r'/r}: the
    // function argument is the *next* value of a seq register, not the
    // stale one. `v` starts 1 (target U) but is assigned 0 in the same
    // step, so the endorse target is mode_to_lb(0) = T and `lo` is clean.
    auto c = compile(R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} in_v, input com [7:0] {U} in_u);
  reg seq {T} v = 1'b1;
  reg seq [7:0] {T} lo;
  always @(seq) begin
    v <= in_v;
    lo <= endorse(in_u, mode_to_lb(v));
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("in_v", 0);
    sim.set_input("in_u", 0x42);
    tracker.step(sim);
    tracker.step(sim);
    EXPECT_TRUE(tracker.violations().empty())
        << "stale-arg evaluation would endorse to U and flag lo";
    EXPECT_EQ(tracker.taint(c.design->find_net("lo")),
              *c.design->policy.lattice().find("T"));
}

TEST(Taint, SeqDowngradePendingArgsCatchWeakEndorse) {
    // The dual direction: `v` starts 0 (stale target T) but is assigned
    // 1, so the endorse really lands at mode_to_lb(1) = U and the write
    // into the trusted register must be flagged. Stale-arg evaluation
    // would silently accept it.
    auto c = compile(R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} in_v, input com [7:0] {U} in_u);
  reg seq {T} v = 1'b0;
  reg seq [7:0] {T} lo;
  always @(seq) begin
    v <= in_v;
    lo <= endorse(in_u, mode_to_lb(v));
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("in_v", 1);
    sim.set_input("in_u", 0x42);
    tracker.step(sim);
    EXPECT_FALSE(tracker.violations().empty())
        << "endorse target is U on the pending mode; lo is declared T";
}

TEST(Taint, NextArrayReadSeesStagedTaint) {
    // next(mem[0]) reads the write staged this cycle, not the committed
    // element: in cycle 1 the secret is staged into mem[0] (the
    // committed element still holds the scrubbed 0) and forwarded into
    // the public wire w.
    std::string source;
    ASSERT_TRUE(read_file(SVLC_FIXTURE_DIR "/dynamic/next_array_leak.svlc",
                          source));
    auto c = compile(source);
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("secret", 0xAB);
    tracker.step(sim);
    EXPECT_TRUE(tracker.violations().empty());
    tracker.step(sim);
    ASSERT_EQ(tracker.violations().size(), 1u);
    const verify::TaintViolation& v = tracker.violations().front();
    EXPECT_EQ(v.cycle, 1u);
    EXPECT_EQ(c.design->net(v.net).name, "w");
    EXPECT_EQ(v.taint, *c.design->policy.lattice().find("H"));
}

} // namespace
} // namespace svlc::test
