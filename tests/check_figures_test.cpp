// End-to-end reproduction of the paper's running examples (Figures 1-4):
//  Fig. 1 — simple static labels: U -> T rejected, T -> T accepted.
//  Fig. 2 — label propagation: accepted by SecVerilogLC (via next-value
//           equations), rejected by classic SecVerilog.
//  Fig. 3 — implicit downgrading: rejected by SecVerilogLC; classic
//           SecVerilog type-checks it (the vulnerability dynamic clearing
//           has to patch).
//  Fig. 4 — PC mode-switch logic with the `next` operator: accepted by
//           SecVerilogLC; unsupported by classic SecVerilog.
#include "test_util.hpp"

#include <gtest/gtest.h>

namespace svlc::test {
namespace {

using check::CheckerMode;
using check::CheckOptions;

// ---------------------------------------------------------------------------
// Figure 1
// ---------------------------------------------------------------------------

const char* kFig1Illegal = R"(
lattice { level T; level U; flow T -> U; }
module fig1(input com {U} in_u);
  reg seq [31:0] {T} creg;
  reg seq [31:0] {U} untr;
  always @(seq) begin
    untr <= {32'b0} ;
    creg <= untr; // not allowed: U -> T
  end
endmodule
)";

TEST(Fig1, UntrustedToTrustedRejected) {
    Compiled c;
    auto result = check_source(kFig1Illegal, c);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(c.diags->has_code(DiagCode::IllegalFlowSeq))
        << c.errors();
}

const char* kFig1Legal = R"(
lattice { level T; level U; flow T -> U; }
module fig1(input com {T} in_t);
  reg seq [31:0] {T} creg;
  reg seq [31:0] {T} trst;
  always @(seq) begin
    trst <= {24'b0, 8'hab};
    creg <= trst; // allowed: T -> T
  end
endmodule
)";

TEST(Fig1, TrustedToTrustedAccepted) {
    Compiled c;
    auto result = check_source(kFig1Legal, c);
    EXPECT_TRUE(result.ok) << c.errors();
    EXPECT_EQ(result.failed, 0u);
}

// ---------------------------------------------------------------------------
// Figure 2 — label propagation (pipeline-register pattern)
// ---------------------------------------------------------------------------

const char* kFig2 = R"(
lattice { level T; level U; flow T -> U; }
function f(x:1) { 0 -> T; default -> U; }
module fig2(input com {T} in_nl, input com [7:0] {f(next_lab)} in_nd);
  reg seq {T} lab;
  wire com {T} next_lab;
  reg seq [7:0] {f(lab)} data;
  wire com [7:0] {f(next_lab)} next_data;
  assign next_lab = in_nl;
  assign next_data = in_nd;
  always @(seq) begin
    data <= next_data; // value and label propagate together
    lab <= next_lab;
  end
endmodule
)";

TEST(Fig2, AcceptedBySecVerilogLC) {
    Compiled c;
    auto result = check_source(kFig2, c);
    EXPECT_TRUE(result.ok) << c.errors();
}

TEST(Fig2, RejectedByClassicSecVerilog) {
    CheckOptions opts;
    opts.mode = CheckerMode::ClassicSecVerilog;
    Compiled c;
    auto result = check_source(kFig2, c, opts);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(c.diags->has_code(DiagCode::IllegalFlowSeq)) << c.errors();
}

// ---------------------------------------------------------------------------
// Figure 3 — implicit downgrading
// ---------------------------------------------------------------------------

const char* kFig3 = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module fig3(input com {T} in_v);
  reg seq {T} v;
  reg seq [7:0] {T} trusted;
  reg seq [7:0] {U} untrusted;
  reg seq [7:0] {mode_to_lb(v)} shared;
  always @(seq) begin
    v <= in_v;
    if (v == 1'b1) shared <= untrusted;
    else           trusted <= shared;
  end
endmodule
)";

TEST(Fig3, ImplicitDowngradingRejectedByLC) {
    Compiled c;
    auto result = check_source(kFig3, c);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
    // The violation is the write of untrusted data into `shared` while
    // its next-cycle label may become T.
    EXPECT_TRUE(c.diags->has_code(DiagCode::IllegalFlowSeq)) << c.errors();
    bool found_refuted = false;
    for (const auto& ob : result.obligations)
        if (!ob.result.proven() &&
            ob.result.status == solver::EntailStatus::Refuted)
            found_refuted = true;
    EXPECT_TRUE(found_refuted)
        << "expected a concrete counterexample for the implicit downgrade";
}

TEST(Fig3, ClassicSecVerilogTypeChecksTheVulnerableCode) {
    // The prior system accepts this code (checking against current-cycle
    // labels only) — this is exactly the implicit-downgrading hazard that
    // dynamic clearing must patch behind the designer's back.
    CheckOptions opts;
    opts.mode = CheckerMode::ClassicSecVerilog;
    Compiled c;
    auto result = check_source(kFig3, c, opts);
    EXPECT_TRUE(result.ok) << c.errors();
}

TEST(Fig3, HoldObligationAblation) {
    // Turning hold obligations off must not change Fig. 3: the write
    // obligation alone catches this bug.
    CheckOptions opts;
    opts.hold_obligations = false;
    Compiled c;
    auto result = check_source(kFig3, c, opts);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
}

// ---------------------------------------------------------------------------
// Figure 4 — PC update during mode switches
// ---------------------------------------------------------------------------

const char* kFig4 = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module fig4(input com {T} rst,
            input com [15:0] {T} decode_out,
            input com [15:0] {U} epc_in);
  wire com {T} mode_switch;
  reg seq [15:0] {U} epc;
  reg seq {T} mode;
  reg seq [15:0] {mode_to_lb(mode)} pc;
  assign mode_switch = decode_out[4];
  always @(seq) begin
    if (rst) pc <= 16'b0;
    else if (mode_switch && (next(mode) == 1'b0))
      pc <= 16'h8000; // switch to kernel mode: trusted constant
    else if (mode_switch)
      pc <= epc;      // return to user mode: restore saved pc
  end
  always @(seq) begin
    if (mode_switch) mode <= ~mode;
  end
  always @(seq) begin
    epc <= epc_in;
  end
endmodule
)";

TEST(Fig4, ModeSwitchPCAcceptedByLC) {
    Compiled c;
    auto result = check_source(kFig4, c);
    EXPECT_TRUE(result.ok) << c.errors();
    // Sanity: the interesting obligation (pc <= epc) was not discharged
    // syntactically — it needs the cycle-aware reasoning.
    bool used_enumeration = false;
    for (const auto& ob : result.obligations)
        if (ob.kind == check::ObligationKind::SeqAssign && !ob.result.syntactic)
            used_enumeration = true;
    EXPECT_TRUE(used_enumeration);
}

TEST(Fig4, ClassicSecVerilogCannotExpressIt) {
    CheckOptions opts;
    opts.mode = CheckerMode::ClassicSecVerilog;
    Compiled c;
    auto result = check_source(kFig4, c, opts);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
    EXPECT_TRUE(c.diags->has_code(DiagCode::Unsupported)) << c.errors();
}

TEST(Fig4, EquationAblationBreaksTheProof) {
    // Without next-value equations the solver cannot relate mode' to the
    // mode-switch condition, so `pc <= epc` cannot be proven.
    CheckOptions opts;
    opts.solver.use_equations = false;
    Compiled c;
    auto result = check_source(kFig4, c, opts);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
}

// ---------------------------------------------------------------------------
// Hold obligations: label upgrade without a write must be rejected.
// ---------------------------------------------------------------------------

const char* kHoldUpgrade = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module hold(input com {T} go);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} gpr;
  always @(seq) begin
    if (go) mode <= 1'b0;  // label of gpr may change U -> T ...
    else    mode <= 1'b1;
  end
  // ... but gpr is never cleared or endorsed: implicit downgrade.
endmodule
)";

TEST(HoldObligation, LabelUpgradeWithoutWriteRejected) {
    Compiled c;
    auto result = check_source(kHoldUpgrade, c);
    ASSERT_TRUE(c.design != nullptr);
    EXPECT_FALSE(result.ok);
    bool hold_failed = false;
    for (const auto& ob : result.obligations)
        if (ob.kind == check::ObligationKind::Hold && !ob.result.proven())
            hold_failed = true;
    EXPECT_TRUE(hold_failed) << c.errors();
}

const char* kHoldUpgradeCleared = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module hold(input com {T} go);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} gpr;
  always @(seq) begin
    if (go) mode <= 1'b0;
    else    mode <= 1'b1;
  end
  always @(seq) begin
    if (go && (next(mode) == 1'b0) && (mode == 1'b1))
      gpr <= 8'b0; // cleared on the U -> T upgrade
  end
endmodule
)";

TEST(HoldObligation, ClearingOnUpgradeAccepted) {
    Compiled c;
    auto result = check_source(kHoldUpgradeCleared, c);
    EXPECT_TRUE(result.ok) << c.errors();
}

TEST(HoldObligation, SysretDirectionNeedsNoCode) {
    // Label change T -> U (e.g. SYSRET) requires no explicit handling:
    // trusted data may conservatively be treated as untrusted.
    const char* src = R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module sysret(input com {T} ret);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} gpr;
  always @(seq) begin
    if (ret && (mode == 1'b0)) mode <= 1'b1; // T -> U only
  end
endmodule
)";
    Compiled c;
    auto result = check_source(src, c);
    EXPECT_TRUE(result.ok) << c.errors();
}

// ---------------------------------------------------------------------------
// Hold obligations on arrays: writes are grouped by guard, and a group
// counts as a full write only when its constant indices cover every
// element.
// ---------------------------------------------------------------------------

/// A two-element array whose label follows `mode`; `mode` flips only when
/// `go` holds, so the hold obligation is provable under !go alone.
std::string hold_array_source(const std::string& writes) {
    return R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module harr(input com {T} go, input com {T} i);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} mem[0:1];
  always @(seq) begin
    if (go) mode <= ~mode;
  end
  always @(seq) begin
)" + writes + R"(
  end
endmodule
)";
}

/// The hold obligations issued for `mem`.
std::vector<const check::Obligation*> mem_holds(const Compiled& c,
                                                const check::CheckResult& r) {
    std::vector<const check::Obligation*> out;
    for (const auto& ob : r.obligations)
        if (ob.kind == check::ObligationKind::Hold &&
            ob.target == c.design->find_net("mem"))
            out.push_back(&ob);
    return out;
}

TEST(HoldObligationArray, EveryElementWrittenUnconditionallyNeedsNoHold) {
    Compiled c;
    auto result = check_source(
        hold_array_source("    mem[0] <= 8'h0;\n    mem[1] <= 8'h0;"), c);
    EXPECT_TRUE(result.ok) << c.errors();
    EXPECT_TRUE(mem_holds(c, result).empty());
}

TEST(HoldObligationArray, EveryElementWrittenUnderOneGuardAssumesItsNegation) {
    Compiled c;
    auto result = check_source(
        hold_array_source("    if (go) begin\n      mem[1] <= 8'h0;\n"
                          "      mem[0] <= 8'h0;\n    end"),
        c);
    EXPECT_TRUE(result.ok) << c.errors();
    auto holds = mem_holds(c, result);
    ASSERT_EQ(holds.size(), 1u);
    EXPECT_TRUE(holds[0]->result.proven());
}

TEST(HoldObligationArray, MissingConstantIndexLeavesTheHoldUnguarded) {
    Compiled c;
    auto result = check_source(
        hold_array_source("    if (go) mem[0] <= 8'h0;\n"
                          "    if (go) mem[0] <= 8'h1;"),
        c);
    EXPECT_FALSE(result.ok);
    auto holds = mem_holds(c, result);
    ASSERT_EQ(holds.size(), 1u);
    EXPECT_FALSE(holds[0]->result.proven());
}

TEST(HoldObligationArray, DynamicIndexNeverCountsAsCoverage) {
    for (const char* writes :
         {"    if (go) begin\n      mem[1] <= 8'h0;\n"
          "      mem[i] <= 8'h0;\n    end",
          "    mem[i] <= 8'h0;\n    mem[~i] <= 8'h0;"}) {
        Compiled c;
        auto result = check_source(hold_array_source(writes), c);
        EXPECT_FALSE(result.ok) << writes;
        auto holds = mem_holds(c, result);
        ASSERT_EQ(holds.size(), 1u) << writes;
        EXPECT_FALSE(holds[0]->result.proven()) << writes;
    }
}

} // namespace
} // namespace svlc::test
