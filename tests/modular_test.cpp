// Modular checking (check/typecheck.hpp): the instances of a repeated
// module are grouped by the closure of their input ports, and a later
// instance of a group takes the Proven verdicts of the first. The reports
// must stay byte-identical to the flattened-only reference
// (CheckOptions::modular = false), while the reused obligations cost no
// solver queries.
#include "hunt/hunter.hpp"
#include "pipeline/compilation.hpp"
#include "proc/sources.hpp"
#include "support/fsutil.hpp"
#include "xform/clearing.hpp"

#include "test_util.hpp"

#include <gtest/gtest.h>

#include <chrono>

namespace svlc::test {
namespace {

// Two instances of a core with a dependent label; every obligation of
// the core holds alone.
const char* kTwin = R"(
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

// The child keeps r when it is not written, and r's label follows the
// `input seq` port m. With m' == m the hold obligation would hold; the
// parent drives m, so m' is whatever the parent computes. The two
// instances see tm and ~tm, so their contexts differ.
const char* kSeqPortChild = R"(
lattice { level T; level U; flow T -> U; }
function lb(x:1) { 0 -> T; default -> U; }
module child(input seq {T} m, input com {T} w, input com [3:0] {U} d,
             output com [3:0] {lb(m)} o);
  reg seq [3:0] {lb(m)} r;
  always @(seq) begin
    if (w && next(m)) r <= d;
  end
  assign o = r;
endmodule
module top(input com {T} tm, input com {T} tw, input com [3:0] {U} td,
           output com [3:0] {U} o0, output com [3:0] {U} o1);
  child c0(.m(tm), .w(tw), .d(td), .o(o0));
  child c1(.m(~tm), .w(1'b1), .d(td), .o(o1));
endmodule
)";

struct Checked {
    std::string diagnostics;
    std::string report;
    check::CheckResult result;
};

Checked run_check(const std::string& source, bool modular,
                  check::CheckOptions opts = {}) {
    pipeline::CompilationOptions copts;
    copts.check = opts;
    copts.check.modular = modular;
    pipeline::Compilation comp(copts);
    comp.load_text(source, "test.svlc");
    const check::CheckResult* res = comp.check();
    EXPECT_NE(res, nullptr) << comp.render_diagnostics();
    if (!res)
        return {};
    return {comp.render_diagnostics(),
            pipeline::check_report_json(comp, *res, "test.svlc"), *res};
}

/// Checks `source` both ways and expects identical output.
Checked expect_same_as_flattened(const std::string& source,
                                 check::CheckOptions opts = {}) {
    Checked flat = run_check(source, false, opts);
    Checked modular = run_check(source, true, opts);
    EXPECT_EQ(flat.diagnostics, modular.diagnostics);
    EXPECT_EQ(flat.report, modular.report);
    EXPECT_EQ(flat.result.modular.groups, 0u);
    EXPECT_EQ(flat.result.modular.reused, 0u);
    return modular;
}

/// The vulnerable cpu module renamed cpu_vuln, without the policy header.
std::string vulnerable_module() {
    std::string v = proc::vulnerable_cpu_source();
    size_t at = v.find("module cpu(");
    EXPECT_NE(at, std::string::npos);
    return "module cpu_vuln(" + v.substr(at + 11);
}

/// A four-core ring: clean cores c0 and c2, vulnerable cores c1 and c3,
/// every fstall tied to 0.
std::string mixed_ring_source() {
    std::string out = proc::labeled_cpu_source() + "\n" + vulnerable_module();
    out += R"(
module ring(input com {T} rst, output com [31:0] {U} observe);
  wire com [31:0] {U} n0;
  wire com [31:0] {U} n1;
  wire com [31:0] {U} n2;
  wire com [31:0] {U} n3;
  reg seq [31:0] {U} ring0;
  reg seq [31:0] {U} ring1;
  reg seq [31:0] {U} ring2;
  reg seq [31:0] {U} ring3;
  cpu c0(.rst(rst), .fstall(1'b0), .net_in(ring3), .net_out_val(n0));
  cpu_vuln c1(.rst(rst), .fstall(1'b0), .net_in(ring0), .net_out_val(n1));
  cpu c2(.rst(rst), .fstall(1'b0), .net_in(ring1), .net_out_val(n2));
  cpu_vuln c3(.rst(rst), .fstall(1'b0), .net_in(ring2), .net_out_val(n3));
  always @(seq) begin
    ring0 <= n0;
  end
  always @(seq) begin
    ring1 <= n1;
  end
  always @(seq) begin
    ring2 <= n2;
  end
  always @(seq) begin
    ring3 <= n3;
  end
  assign observe = ring3;
endmodule
)";
    return out;
}

TEST(Modular, ElaborationRecordsInstanceSpansAndKeys) {
    auto c = compile(kTwin);
    ASSERT_TRUE(c.ok()) << c.errors();
    const auto& in = c.design->instances;
    ASSERT_EQ(in.size(), 2u);
    EXPECT_EQ(in[0].key, in[1].key);
    EXPECT_EQ(in[0].key.rfind("core(", 0), 0u) << in[0].key;
    // Same shape, disjoint and in design order.
    EXPECT_EQ(in[0].net_end - in[0].net_begin, in[1].net_end - in[1].net_begin);
    EXPECT_EQ(in[0].proc_end - in[0].proc_begin,
              in[1].proc_end - in[1].proc_begin);
    EXPECT_LE(in[0].net_end, in[1].net_begin);
    EXPECT_LE(in[0].proc_end, in[1].proc_begin);
    EXPECT_EQ(c.design->net(in[1].net_begin).name.rfind("b.", 0), 0u);

    // A parameter value is part of the key.
    auto p = compile(R"(
lattice { level T; level U; flow T -> U; }
module leaf(input com [7:0] {T} a, output com [7:0] {T} b);
  parameter K = 1;
  assign b = a + K;
endmodule
module top(input com [7:0] {T} x, output com [7:0] {T} y0,
           output com [7:0] {T} y1, output com [7:0] {T} y2);
  leaf #(.K(1)) l0(.a(x), .b(y0));
  leaf l1(.a(x), .b(y1));
  leaf #(.K(2)) l2(.a(x), .b(y2));
endmodule
)");
    ASSERT_TRUE(p.ok()) << p.errors();
    ASSERT_EQ(p.design->instances.size(), 3u);
    EXPECT_EQ(p.design->instances[0].key, p.design->instances[1].key);
    EXPECT_NE(p.design->instances[0].key, p.design->instances[2].key);
}

TEST(Modular, TwinSecondInstanceIsDecidedWithoutQueries) {
    // The core as the top, for its obligation count.
    auto alone = compile(kTwin, "core");
    ASSERT_TRUE(alone.ok()) << alone.errors();
    DiagnosticEngine d_alone;
    auto core = check::check_design(*alone.design, d_alone);
    ASSERT_TRUE(core.ok);

    Checked twin = expect_same_as_flattened(kTwin);
    const check::CheckResult& r = twin.result;
    EXPECT_TRUE(r.ok);
    EXPECT_EQ(r.modular.groups, 1u);
    // Core b takes every verdict of core a; only a and the twin's own
    // obligations are sent to the solver.
    EXPECT_EQ(r.modular.reused, core.obligations.size());
    EXPECT_EQ(r.modular.reused + r.modular.solved, r.obligations.size());
    EXPECT_EQ(r.solver_stats.queries, r.modular.solved);
}

TEST(Modular, ParentDrivenSeqPortMatchesTheFlattenedCheck) {
    // The hold obligation fails in both instances: the parent drives m.
    // The instances see different contexts, so each is solved.
    Checked c = expect_same_as_flattened(kSeqPortChild);
    EXPECT_FALSE(c.result.ok);
    EXPECT_EQ(c.result.failed, 2u);
    EXPECT_EQ(c.result.modular.groups, 2u);
    EXPECT_EQ(c.result.modular.reused, 0u);
    for (const auto& ob : c.result.obligations) {
        if (!ob.result.proven()) {
            EXPECT_EQ(ob.kind, check::ObligationKind::Hold) << ob.id;
        }
    }
}

TEST(Modular, TopLevelInputSeqPortIsFree) {
    // A top-level `input seq` port is driven by the environment, so its
    // next value is unconstrained: the hold hazard is a real leak, which
    // the hunter replays through Simulator + TaintTracker.
    std::string source;
    ASSERT_TRUE(read_file(SVLC_FIXTURE_DIR "/modular/input_seq_port.svlc",
                          source));
    Compiled c;
    check::CheckResult r = check_source(source, c);
    EXPECT_FALSE(r.ok);
    ASSERT_EQ(r.failed, 1u);
    const check::Obligation* hold = nullptr;
    for (const auto& ob : r.obligations)
        if (!ob.result.proven())
            hold = &ob;
    ASSERT_NE(hold, nullptr);
    EXPECT_EQ(hold->kind, check::ObligationKind::Hold);
    EXPECT_EQ(hold->result.status, solver::EntailStatus::Refuted);
    EXPECT_EQ(hold->result.detail, "m=1 m'=0 w=0 gives U \xe2\x8b\xa2 T");

    hunt::HuntResult h = hunt::hunt(*c.design, hunt::HuntOptions{});
    ASSERT_EQ(h.verdict, hunt::HuntVerdict::Leak);
    EXPECT_TRUE(h.replay.confirmed);
    EXPECT_EQ(c.design->net(h.replay.net).name, "o");
    EXPECT_EQ(h.unconfirmed_candidates, 0u);
}

TEST(Modular, NestedRepeatedModulesReuseTheInnermostInstance) {
    // `tile` repeats in `top`, and `core` and `leaky` repeat in every
    // tile. Each obligation belongs to its innermost repeated instance:
    // the cores form two groups (handoff h and ~h), the tiles and the
    // leaky children one each. Tile y takes the verdicts of tile x's own
    // port wiring, each core of y those of its match in x, and y's leaky
    // child the proven one of x's.
    std::string source;
    ASSERT_TRUE(read_file(SVLC_FIXTURE_DIR "/modular/nested_tiles.svlc",
                          source));
    Checked c = expect_same_as_flattened(source);
    EXPECT_FALSE(c.result.ok);
    EXPECT_EQ(c.result.failed, 2u);
    EXPECT_EQ(c.result.modular.groups, 4u);
    EXPECT_EQ(c.result.modular.reused, 21u);
    EXPECT_EQ(c.result.modular.solved, 31u);
    EXPECT_EQ(c.result.solver_stats.queries, c.result.modular.solved);
    EXPECT_NE(c.diagnostics.find("'x.k.r'"), std::string::npos);
    EXPECT_NE(c.diagnostics.find("'y.k.r'"), std::string::npos);
}

TEST(Modular, VulnerableInstanceWitnessComesFromTheFlattenedContext) {
    std::string ring = mixed_ring_source();
    Checked c = expect_same_as_flattened(ring);
    EXPECT_FALSE(c.result.ok);
    EXPECT_EQ(c.result.modular.groups, 2u); // cpu and cpu_vuln
    EXPECT_GT(c.result.modular.reused, 0u);

    // Alone, the vulnerable core's failures may pick fstall=1; in the
    // ring fstall is tied to 0, so every counterexample there stalls some
    // other way. The reported counterexamples are the ring's.
    auto alone = compile(ring, "cpu_vuln");
    ASSERT_TRUE(alone.ok()) << alone.errors();
    DiagnosticEngine d_alone;
    auto core = check::check_design(*alone.design, d_alone);
    size_t alone_fstall = 0;
    for (const auto& ob : core.obligations)
        alone_fstall += !ob.result.proven() &&
                        ob.result.detail.find(" fstall=1") != std::string::npos;
    EXPECT_GT(alone_fstall, 0u);

    auto flat = compile(ring);
    ASSERT_TRUE(flat.ok()) << flat.errors();
    size_t failed = 0;
    for (const auto& ob : c.result.obligations) {
        if (ob.result.proven())
            continue;
        ++failed;
        EXPECT_EQ(ob.result.detail.find("fstall=1"), std::string::npos)
            << ob.id << ": " << ob.result.detail;
        const std::string& target = flat.design->net(ob.target).name;
        EXPECT_TRUE(target.starts_with("c1.") || target.starts_with("c3."))
            << ob.id;
    }
    EXPECT_EQ(failed, 2 * core.failed);
}

TEST(Modular, ClassicModeReusesAndMatches) {
    check::CheckOptions classic;
    classic.mode = check::CheckerMode::ClassicSecVerilog;
    Checked c = expect_same_as_flattened(proc::quad_core_source(), classic);
    EXPECT_EQ(c.result.modular.groups, 1u);
    EXPECT_GT(c.result.modular.reused, 0u);

    Checked lc = expect_same_as_flattened(proc::quad_core_source());
    EXPECT_TRUE(lc.result.ok);
    EXPECT_EQ(lc.result.modular.groups, 1u);
    // Three of the four cores take every verdict of the first.
    auto alone = compile(proc::quad_core_source(), "cpu");
    ASSERT_TRUE(alone.ok()) << alone.errors();
    DiagnosticEngine d_alone;
    auto core = check::check_design(*alone.design, d_alone);
    EXPECT_EQ(lc.result.modular.reused, 3 * core.obligations.size());
}

TEST(Modular, ClearingTransformDropsSpans) {
    pipeline::Compilation comp;
    comp.load_text(kSeqPortChild, "test.svlc");
    ASSERT_NE(comp.elaborate(), nullptr) << comp.render_diagnostics();
    EXPECT_EQ(comp.design()->instances.size(), 2u);
    xform::ClearingReport rep = xform::apply_dynamic_clearing(*comp.design());
    EXPECT_GT(rep.inserted_writes, 0u);
    EXPECT_TRUE(comp.design()->instances.empty());
    ASSERT_TRUE(sem::analyze_wellformed(*comp.design(), comp.diags()))
        << comp.render_diagnostics();

    DiagnosticEngine d_mod, d_flat;
    check::CheckOptions flat_opts;
    flat_opts.modular = false;
    auto modular = check::check_design(*comp.design(), d_mod);
    auto flat = check::check_design(*comp.design(), d_flat, flat_opts);
    EXPECT_EQ(modular.modular.groups, 0u);
    EXPECT_EQ(modular.modular.reused, 0u);
    EXPECT_EQ(modular.modular.solved, modular.obligations.size());
    EXPECT_EQ(modular.ok, flat.ok);
    EXPECT_EQ(d_mod.render(), d_flat.render());
    ASSERT_EQ(modular.obligations.size(), flat.obligations.size());
    for (size_t i = 0; i < flat.obligations.size(); ++i)
        EXPECT_EQ(modular.obligations[i].result.status,
                  flat.obligations[i].result.status)
            << flat.obligations[i].id;
}

TEST(Modular, DeadlineExpiringBeforeTheFirstQueryTimesOutTheCheck) {
    // A deadline already in the past expires on the first query, before
    // any verdict can be reused. The check reports a timeout, with
    // nothing decided and no diagnostics, exactly as the flattened
    // reference does.
    auto c = compile(proc::quad_core_source());
    ASSERT_TRUE(c.ok()) << c.errors();
    check::CheckOptions opts;
    opts.solver.deadline =
        std::chrono::steady_clock::now() - std::chrono::milliseconds(1);
    DiagnosticEngine d_mod, d_flat;
    auto modular = check::check_design(*c.design, d_mod, opts);
    opts.modular = false;
    auto flat = check::check_design(*c.design, d_flat, opts);
    for (const auto* r : {&modular, &flat}) {
        EXPECT_TRUE(r->timed_out);
        EXPECT_FALSE(r->ok);
        EXPECT_EQ(r->failed, 0u);
        EXPECT_TRUE(r->obligations.empty());
    }
    EXPECT_EQ(modular.modular.groups, 1u);
    EXPECT_EQ(modular.modular.reused, 0u);
    EXPECT_FALSE(d_mod.has_errors());
    EXPECT_FALSE(d_flat.has_errors());
}

} // namespace
} // namespace svlc::test
