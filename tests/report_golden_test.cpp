// Golden outputs, compared byte for byte:
//   * `pipeline::check_report_json` for the built-in processors and the
//     hdl/ figures against tests/fixtures/reports/. The report carries
//     every obligation's verdict, witness, label pair and source
//     location, so a change to how equations, guards or facts are built
//     that moves any of them shows up here as a diff.
//   * `codegen::emit_verilog` for the labeled processor and the hdl/
//     figures against tests/fixtures/verilog/, so the emitter's operator
//     spelling, parenthesization and process lowering stay pinned.
//
// The fixtures are the output of the tool at the time they were
// committed. A change that is meant to alter them regenerates them and
// says why; a change that is not must leave them untouched.
#include "codegen/verilog.hpp"
#include "pipeline/compilation.hpp"
#include "proc/sources.hpp"
#include "support/fsutil.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace svlc::test {
namespace {

struct GoldenCase {
    const char* fixture; // file name under fixtures/reports/
    const char* label;   // buffer name: shows up in "file" and every "loc"
    std::string (*builtin)(); // null: read the hdl/ file the label names
};

const GoldenCase kCases[] = {
    {"labeled.json", "builtin:labeled", proc::labeled_cpu_source},
    {"vulnerable.json", "builtin:vulnerable", proc::vulnerable_cpu_source},
    {"quad.json", "builtin:quad", proc::quad_core_source},
    {"baseline.json", "builtin:baseline", proc::baseline_cpu_source},
    {"fig3_implicit_downgrade.json", "hdl/fig3_implicit_downgrade.svlc",
     nullptr},
    {"fig4_mode_switch.json", "hdl/fig4_mode_switch.svlc", nullptr},
    {"shared_counter.json", "hdl/shared_counter.svlc", nullptr},
};

void PrintTo(const GoldenCase& gc, std::ostream* os) { *os << gc.fixture; }

/// First line on which the two texts differ, for a readable failure.
std::string first_difference(const std::string& got, const std::string& want) {
    std::istringstream g(got), w(want);
    std::string gl, wl;
    for (int line = 1;; ++line) {
        bool has_g = static_cast<bool>(std::getline(g, gl));
        bool has_w = static_cast<bool>(std::getline(w, wl));
        if (!has_g && !has_w)
            return "texts differ only in the final newline";
        if (!has_g || !has_w || gl != wl)
            return "line " + std::to_string(line) + ":\n  got:  " +
                   (has_g ? gl : "<end>") + "\n  want: " +
                   (has_w ? wl : "<end>");
    }
}

/// The source text a case names: a built-in processor or an hdl/ file.
std::string case_source(const GoldenCase& gc) {
    if (gc.builtin)
        return gc.builtin();
    // label is "hdl/<file>"
    std::string path =
        std::string(SVLC_HDL_DIR) + std::string(gc.label).substr(3);
    std::string source;
    EXPECT_TRUE(read_file(path, source)) << path;
    return source;
}

void expect_fixture(const std::string& got, const std::string& dir,
                    const char* name) {
    std::string fixture = std::string(SVLC_FIXTURE_DIR) + "/" + dir + "/" +
                          name;
    std::string want;
    ASSERT_TRUE(read_file(fixture, want)) << fixture;
    EXPECT_TRUE(got == want) << name << " differs at "
                             << first_difference(got, want);
}

std::string case_name(const ::testing::TestParamInfo<GoldenCase>& info) {
    std::string name = info.param.fixture;
    return name.substr(0, name.find('.'));
}

class GoldenReport : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenReport, ByteIdenticalToFixture) {
    const GoldenCase& gc = GetParam();
    pipeline::Compilation comp;
    // Label the buffer with a checkout-independent name so locs are too.
    comp.load_text(case_source(gc), gc.label);
    const check::CheckResult* res = comp.check();
    ASSERT_NE(res, nullptr) << comp.render_diagnostics();
    expect_fixture(pipeline::check_report_json(comp, *res, gc.label),
                   "reports", gc.fixture);
}

INSTANTIATE_TEST_SUITE_P(Reports, GoldenReport, ::testing::ValuesIn(kCases),
                         case_name);

const GoldenCase kVerilogCases[] = {
    {"labeled.v", "builtin:labeled", proc::labeled_cpu_source},
    {"fig3_implicit_downgrade.v", "hdl/fig3_implicit_downgrade.svlc",
     nullptr},
    {"fig4_mode_switch.v", "hdl/fig4_mode_switch.svlc", nullptr},
    {"shared_counter.v", "hdl/shared_counter.svlc", nullptr},
};

class GoldenVerilog : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenVerilog, ByteIdenticalToFixture) {
    const GoldenCase& gc = GetParam();
    pipeline::Compilation comp;
    comp.load_text(case_source(gc), gc.label);
    ASSERT_NE(comp.elaborate(), nullptr) << comp.render_diagnostics();
    std::string got = codegen::emit_verilog(*comp.design(), comp.diags());
    ASSERT_FALSE(comp.diags().has_errors()) << comp.render_diagnostics();
    expect_fixture(got, "verilog", gc.fixture);
}

INSTANTIATE_TEST_SUITE_P(Verilog, GoldenVerilog,
                         ::testing::ValuesIn(kVerilogCases), case_name);

} // namespace
} // namespace svlc::test
