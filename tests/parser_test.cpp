#include "parse/parser.hpp"
#include "support/diagnostics.hpp"
#include "support/source_manager.hpp"

#include <gtest/gtest.h>

namespace svlc {
namespace {

ast::CompilationUnit parse_ok(const std::string& src) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    auto unit = Parser::parse_text(src, sm, diags);
    EXPECT_FALSE(diags.has_errors()) << diags.render();
    return unit;
}

size_t parse_error_count(const std::string& src) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    (void)Parser::parse_text(src, sm, diags);
    return diags.error_count();
}

TEST(Lexer, TokenizesOperatorsAndLiterals) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    uint32_t id = sm.add_buffer("t", "a <= 16'hBEEF && b || !c -> =="
                                      " next endorse");
    Lexer lexer(sm.buffer_text(id), id, diags);
    auto toks = lexer.lex_all();
    ASSERT_FALSE(diags.has_errors());
    std::vector<TokKind> kinds;
    for (const auto& t : toks)
        kinds.push_back(t.kind);
    std::vector<TokKind> expected = {
        TokKind::Ident,    TokKind::LtEq,    TokKind::Number,
        TokKind::AmpAmp,   TokKind::Ident,   TokKind::PipePipe,
        TokKind::Bang,     TokKind::Ident,   TokKind::Arrow,
        TokKind::EqEq,     TokKind::KwNext,  TokKind::KwEndorse,
        TokKind::Eof,
    };
    EXPECT_EQ(kinds, expected);
}

TEST(Lexer, SkipsCommentsAndTracksLines) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    uint32_t id = sm.add_buffer("t", "// line comment\n/* block\n */ foo");
    Lexer lexer(sm.buffer_text(id), id, diags);
    auto toks = lexer.lex_all();
    ASSERT_EQ(toks.size(), 2u);
    EXPECT_EQ(toks[0].text, "foo");
    EXPECT_EQ(toks[0].loc.line, 3u);
}

TEST(Lexer, ReportsUnterminatedComment) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    uint32_t id = sm.add_buffer("t", "/* never closed");
    Lexer lexer(sm.buffer_text(id), id, diags);
    (void)lexer.lex_all();
    EXPECT_TRUE(diags.has_code(DiagCode::UnterminatedComment));
}

TEST(Parser, ModuleWithPortsAndNets) {
    auto unit = parse_ok(R"(
module m(input com {T} rst, output com [15:0] {U} out);
  wire com [15:0] {U} tmp;
  reg seq [15:0] {T} state = 16'h1;
  assign out = tmp;
  assign tmp = 16'habcd;
endmodule
)");
    ASSERT_EQ(unit.modules.size(), 1u);
    const auto& m = unit.modules[0];
    EXPECT_EQ(m.name, "m");
    ASSERT_EQ(m.port_order.size(), 2u);
    EXPECT_EQ(m.port_order[0], "rst");
    ASSERT_EQ(m.nets.size(), 4u);
    EXPECT_EQ(m.nets[2].name, "tmp");
    EXPECT_EQ(m.nets[3].kind, ast::NetKind::Seq);
    EXPECT_TRUE(m.nets[3].init != nullptr);
    EXPECT_EQ(m.assigns.size(), 2u);
}

TEST(Parser, LatticeAndFunctionDecls) {
    auto unit = parse_ok(R"(
lattice { level T; level U; flow T -> U; }
function mode_to_lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} a);
endmodule
)");
    ASSERT_EQ(unit.lattices.size(), 1u);
    EXPECT_EQ(unit.lattices[0].levels.size(), 2u);
    ASSERT_EQ(unit.lattices[0].flows.size(), 1u);
    EXPECT_EQ(unit.lattices[0].flows[0].first, "T");
    ASSERT_EQ(unit.functions.size(), 1u);
    EXPECT_EQ(unit.functions[0].name, "mode_to_lb");
    ASSERT_EQ(unit.functions[0].arg_widths.size(), 1u);
    EXPECT_EQ(unit.functions[0].arg_widths[0], 1u);
    EXPECT_EQ(unit.functions[0].entries.size(), 2u);
}

TEST(Parser, AlwaysSeqWithNextAndDowngrade) {
    auto unit = parse_ok(R"(
module m(input com {T} go);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go && (next(mode) == 1'b0))
      r <= endorse(r, T);
  end
endmodule
)");
    const auto& m = unit.modules[0];
    ASSERT_EQ(m.always_blocks.size(), 1u);
    EXPECT_EQ(m.always_blocks[0].kind, ast::AlwaysKind::Seq);
}

TEST(Parser, PosedgeClkSynonym) {
    auto unit = parse_ok(R"(
module m(input com {T} d);
  reg seq {T} q;
  always @(posedge clk) begin
    q <= d;
  end
endmodule
)");
    EXPECT_EQ(unit.modules[0].always_blocks[0].kind, ast::AlwaysKind::Seq);
}

TEST(Parser, CaseStatement) {
    auto unit = parse_ok(R"(
module m(input com [1:0] {T} sel);
  wire com [3:0] {T} out;
  always @(*) begin
    case (sel)
      2'b00: out = 4'h1;
      2'b01, 2'b10: out = 4'h2;
      default: out = 4'h0;
    endcase
  end
endmodule
)");
    ASSERT_EQ(unit.modules[0].always_blocks.size(), 1u);
    const auto& body = *unit.modules[0].always_blocks[0].body;
    ASSERT_EQ(body.kind, ast::StmtKind::Block);
    const auto& blk = static_cast<const ast::BlockStmt&>(body);
    ASSERT_EQ(blk.stmts.size(), 1u);
    EXPECT_EQ(blk.stmts[0]->kind, ast::StmtKind::Case);
}

TEST(Parser, InstanceWithParamsAndConnections) {
    auto unit = parse_ok(R"(
module child #(parameter W = 8)(input com [7:0] {T} a, output com [7:0] {T} y);
  assign y = a;
endmodule
module top(input com [7:0] {T} x, output com [7:0] {T} z);
  child #(.W(16)) u0(.a(x), .y(z));
endmodule
)");
    ASSERT_EQ(unit.modules.size(), 2u);
    const auto& top = unit.modules[1];
    ASSERT_EQ(top.instances.size(), 1u);
    EXPECT_EQ(top.instances[0].module_name, "child");
    EXPECT_EQ(top.instances[0].instance_name, "u0");
    ASSERT_EQ(top.instances[0].params.size(), 1u);
    ASSERT_EQ(top.instances[0].connections.size(), 2u);
}

TEST(Parser, OperatorPrecedence) {
    auto unit = parse_ok(R"(
module m(input com [7:0] {T} a, input com [7:0] {T} b);
  wire com {T} x;
  assign x = a + b * 8'h2 == 8'h6 && b < a;
endmodule
)");
    // a + (b*2) == 6, then (that) && (b < a)
    const auto& e = *unit.modules[0].assigns[0].rhs;
    ASSERT_EQ(e.kind, ast::ExprKind::Binary);
    EXPECT_EQ(static_cast<const ast::BinaryExpr&>(e).op, ast::BinaryOp::LogAnd);
}

TEST(Parser, JoinLabels) {
    auto unit = parse_ok(R"(
module m(input com {T join mode_to_lb(mode)} a);
  reg seq {T} mode;
endmodule
)");
    const auto& label = *unit.modules[0].nets[0].label;
    EXPECT_EQ(label.kind, ast::LabelKind::Join);
}

TEST(Parser, ErrorRecoveryProducesMultipleDiagnostics) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    (void)Parser::parse_text(R"(
module m(input com {T} a);
  assign = 5;
  wire com {T} w;
  assign w = ;
endmodule
)", sm, diags);
    EXPECT_GE(diags.error_count(), 2u);
}

TEST(Parser, RejectsGarbageAtTopLevel) {
    EXPECT_GE(parse_error_count("garbage tokens here"), 1u);
}

// ---------------------------------------------------------------------------
// Recovery hardening: truncated and hostile inputs must terminate with a
// bounded diagnostic cascade, never hang or recurse without limit.
// ---------------------------------------------------------------------------

TEST(ParserRecovery, EveryPrefixOfAProgramTerminates) {
    // Cutting a program mid-token, mid-expression, mid-block, or
    // mid-module exercises every recovery path; each prefix must parse to
    // completion with a sane number of diagnostics.
    const std::string src = R"(lattice { level L; level H; flow L -> H; }
function f(x:1) { 0 -> L; default -> H; }
module top(input com {L} a, output com [7:0] {H} b);
  reg seq {L} m = 1'h0;
  reg seq [7:0] {f(m)} r;
  wire com {L} w;
  assign w = a ^ 1'h1;
  assign b = {r[3:0], 4'hA};
  always @(seq) begin
    m <= a;
    case (m)
      0: r <= endorse(8'h12, H);
      default: r <= r;
    endcase
    if (next(m) == 1'h0) r <= 8'h0;
    else r <= r;
  end
endmodule
)";
    for (size_t len = 0; len <= src.size(); ++len) {
        SourceManager sm;
        DiagnosticEngine diags(&sm);
        (void)Parser::parse_text(src.substr(0, len), sm, diags);
        // Bounded cascade: a prefix can't produce more errors than a
        // small multiple of its token count.
        EXPECT_LT(diags.error_count(), 64u) << "prefix length " << len;
    }
}

TEST(ParserRecovery, StrayEndmoduleInsideBlockTerminates) {
    // Regression for a real hang found by the fuzzer (seed 4, index 275):
    // a spliced `begin` orphans the block's `end`, leaving statement
    // recovery parked on `endmodule`, which parse_block used to
    // re-dispatch on forever.
    size_t errs = parse_error_count("lattice { level L; }\n"
                                    "module top(output com {L} o);\n"
                                    "  reg seq {L} m;\n"
                                    "  always @(seq) begin\n"
                                    "    if (next(m) begin== 1'h1) m <= m;\n"
                                    "  end\n"
                                    "endmodule\n");
    EXPECT_GT(errs, 0u);
    EXPECT_LT(errs, 32u);
}

TEST(ParserRecovery, TruncatedCaseParkedOnEndTerminates) {
    // `end` closes the always-block, but case recovery stops at it
    // without consuming; the case loop must not spin.
    size_t errs = parse_error_count("lattice { level L; }\n"
                                    "module top(output com {L} o);\n"
                                    "  reg seq {L} m;\n"
                                    "  always @(seq) begin\n"
                                    "    case (m)\n"
                                    "      0: m <= 1'h0;\n"
                                    "  end\n"
                                    "endmodule\n");
    EXPECT_GT(errs, 0u);
    EXPECT_LT(errs, 32u);
}

TEST(ParserRecovery, DeepNestingHitsDepthLimitNotTheStack) {
    // 20k nested parens would overflow the stack without the depth cap;
    // with it, parsing finishes with a single depth diagnostic plus a
    // bounded trail.
    std::string deep = "lattice { level L; }\n"
                       "module top(output com {L} o);\n  assign o = ";
    for (int i = 0; i < 20000; ++i)
        deep += '(';
    deep += "1'h1";
    for (int i = 0; i < 20000; ++i)
        deep += ')';
    deep += ";\nendmodule\n";
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    (void)Parser::parse_text(deep, sm, diags);
    EXPECT_TRUE(diags.has_errors());
    EXPECT_NE(diags.render().find("nesting too deep"), std::string::npos);
    // One error per unwound frame at most: bounded by the depth cap,
    // not the 20k input parens.
    EXPECT_LT(diags.error_count(), 512u);
}

TEST(ParserRecovery, DeepBeginChainTerminates) {
    std::string deep = "lattice { level L; }\n"
                       "module top(output com {L} o);\n  always @(*) ";
    for (int i = 0; i < 5000; ++i)
        deep += "begin ";
    // No matching `end`s at all: truncated mid-nesting.
    deep += "\n";
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    (void)Parser::parse_text(deep, sm, diags);
    EXPECT_TRUE(diags.has_errors());
    EXPECT_LT(diags.error_count(), 10064u); // bounded by input size
}

} // namespace
} // namespace svlc
