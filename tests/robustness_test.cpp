// Robustness: the front end must reject garbage gracefully (diagnostics,
// never crashes), the diagnostics engine must render usable messages, and
// the taint tracker must handle arrays precisely.
#include "test_util.hpp"
#include "verify/taint.hpp"
#include "xform/clearing.hpp"

#include <gtest/gtest.h>

#include <random>

namespace svlc::test {
namespace {

// ---------------------------------------------------------------------------
// Front-end fuzzing: random byte soup and random token soup never crash.
// ---------------------------------------------------------------------------

class ParserFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzz, RandomBytesNeverCrash) {
    std::mt19937_64 rng(GetParam());
    for (int trial = 0; trial < 40; ++trial) {
        size_t len = rng() % 400;
        std::string soup;
        for (size_t i = 0; i < len; ++i)
            soup.push_back(static_cast<char>(rng() % 96 + 32));
        SourceManager sm;
        DiagnosticEngine diags(&sm);
        (void)Parser::parse_text(soup, sm, diags);
        // No assertion on the outcome beyond "we got here".
    }
}

TEST_P(ParserFuzz, RandomTokenSoupNeverCrashes) {
    static const char* tokens[] = {
        "module", "endmodule", "wire", "reg", "com", "seq", "always",
        "begin", "end", "if", "else", "assign", "input", "output", "next",
        "endorse", "lattice", "function", "case", "endcase", "default",
        "(", ")", "[", "]", "{", "}", ";", ":", ",", ".", "=", "<=", "==",
        "&&", "||", "+", "-", "x", "y", "16'h8000", "1'b0", "42", "@", "*",
        "->", "T", "U", "join", "assume", "localparam", "parameter",
    };
    std::mt19937_64 rng(GetParam() ^ 0xF00D);
    for (int trial = 0; trial < 40; ++trial) {
        std::string soup;
        size_t len = rng() % 120;
        for (size_t i = 0; i < len; ++i) {
            soup += tokens[rng() % (sizeof(tokens) / sizeof(tokens[0]))];
            soup += ' ';
        }
        SourceManager sm;
        DiagnosticEngine diags(&sm);
        auto unit = Parser::parse_text(soup, sm, diags);
        // Elaboration must also survive whatever parsed.
        sem::ElaborateOptions opts;
        auto design = sem::elaborate(unit, diags, opts);
        if (design)
            sem::analyze_wellformed(*design, diags);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ---------------------------------------------------------------------------
// Diagnostics & source manager
// ---------------------------------------------------------------------------

TEST(Diagnostics, RenderIncludesLocationSnippetAndCaret) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    (void)Parser::parse_text("module m(input com {T} a);\n  wire com {T} ;\n"
                             "endmodule\n",
                             sm, diags, "snippet.svlc");
    ASSERT_TRUE(diags.has_errors());
    std::string rendered = diags.render();
    EXPECT_NE(rendered.find("snippet.svlc:2:"), std::string::npos) << rendered;
    EXPECT_NE(rendered.find("wire com {T} ;"), std::string::npos);
    EXPECT_NE(rendered.find("^"), std::string::npos);
}

TEST(Diagnostics, CodesAreCountable) {
    SourceManager sm;
    DiagnosticEngine diags(&sm);
    diags.error(DiagCode::IllegalFlow, {}, "one");
    diags.error(DiagCode::IllegalFlow, {}, "two");
    diags.warning(DiagCode::Unsupported, {}, "warn");
    EXPECT_EQ(diags.count_code(DiagCode::IllegalFlow), 2u);
    EXPECT_EQ(diags.count_code(DiagCode::Unsupported), 1u);
    EXPECT_EQ(diags.error_count(), 2u);
    diags.clear();
    EXPECT_FALSE(diags.has_errors());
}

TEST(SourceManager, LineLookupAndDescribe) {
    SourceManager sm;
    uint32_t id = sm.add_buffer("f.svlc", "first\nsecond\r\nthird");
    EXPECT_EQ(sm.line_text({id, 1, 1}), "first");
    EXPECT_EQ(sm.line_text({id, 2, 1}), "second"); // CR stripped
    EXPECT_EQ(sm.line_text({id, 3, 1}), "third");
    EXPECT_EQ(sm.describe({id, 2, 4}), "f.svlc:2:4");
    EXPECT_EQ(sm.describe({}), "<unknown>");
}

// ---------------------------------------------------------------------------
// Taint tracker: array element precision
// ---------------------------------------------------------------------------

TEST(Taint, ArrayElementsTrackIndependently) {
    auto c = compile(R"(
module m(input com [7:0] {T} td, input com [7:0] {U} ud,
         input com {T} which, input com [1:0] {T} raddr,
         output com [7:0] {U} out);
  reg seq [7:0] {U} mem[0:3];
  assign out = mem[raddr];
  always @(seq) begin
    if (which) mem[0] <= td;
    else mem[1] <= ud;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    LevelId t = *c.design->policy.lattice().find("T");
    LevelId u = *c.design->policy.lattice().find("U");
    hir::NetId mem = c.design->find_net("mem");
    sim.set_input("which", 1);
    sim.set_input("td", 1);
    sim.set_input("ud", 2);
    tracker.step(sim);
    sim.set_input("which", 0);
    tracker.step(sim);
    EXPECT_EQ(tracker.array_taint(mem, 0), t);
    EXPECT_EQ(tracker.array_taint(mem, 1), u);
    EXPECT_TRUE(tracker.violations().empty());
}

TEST(Taint, ViolationRecordsLevels) {
    // A com net labeled T fed from an untrusted input: the static checker
    // rejects this, and the monitor independently flags it at run time.
    auto c = compile(R"(
module m(input com [7:0] {U} uin);
  wire com [7:0] {T} bad;
  reg seq [7:0] {T} sink;
  assign bad = uin;
  always @(seq) begin
    sink <= bad;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    DiagnosticEngine diags;
    auto verdict = check::check_design(*c.design, diags);
    EXPECT_FALSE(verdict.ok);

    sim::Simulator sim(*c.design);
    verify::TaintTracker tracker(*c.design);
    sim.set_input("uin", 0xAA);
    tracker.step(sim);
    ASSERT_FALSE(tracker.violations().empty());
    const auto& v = tracker.violations().front();
    EXPECT_EQ(c.design->policy.lattice().name(v.taint), "U");
    EXPECT_EQ(c.design->policy.lattice().name(v.declared), "T");
}

// ---------------------------------------------------------------------------
// Clearing transform
// ---------------------------------------------------------------------------

TEST(Clearing, StableLevelKeepsValueWhenArgumentChanges) {
    // A label function that maps both 2 and 3 to U: changing the argument
    // from 2 to 3 does not change the level, so no clear fires.
    const char* src = R"(
lattice { level T; level U; flow T -> U; }
function f(x:2) { 0 -> T; default -> U; }
module m(input com [1:0] {T} nxt, input com {U} we,
         input com [7:0] {U} d);
  reg seq [1:0] {T} sel;
  reg seq [7:0] {f(sel)} r;
  always @(seq) begin
    sel <= nxt;
  end
  always @(seq) begin
    if (we) r <= d;
  end
endmodule
)";
    auto c = compile(src);
    ASSERT_TRUE(c.ok()) << c.errors();
    DiagnosticEngine diags;
    xform::apply_dynamic_clearing(*c.design);
    sem::analyze_wellformed(*c.design, diags);
    sim::Simulator sim(*c.design);
    sim.set_input("nxt", 2);
    sim.set_input("we", 0);
    sim.set_input("d", 0x7E);
    sim.step(); // sel settles to 2 (a clear may fire; r is 0 anyway)
    sim.set_input("we", 1);
    sim.step(); // stable label (2 -> 2): the write lands
    EXPECT_EQ(sim.get("r").value(), 0x7Eu);
    sim.set_input("we", 0);
    sim.set_input("nxt", 3); // argument changes; the *level* does not
    sim.run(2);
    EXPECT_EQ(sim.get("r").value(), 0x7Eu)
        << "level comparison must keep the value when the level is stable";
}

} // namespace
} // namespace svlc::test
