// Golden outputs, compared byte for byte:
//   * `pipeline::check_report_json` for the built-in processors and the
//     hdl/ figures against tests/fixtures/reports/. The report carries
//     every obligation's verdict, witness, label pair and source
//     location, so a change to how equations, guards or facts are built
//     that moves any of them shows up here as a diff.
//   * `codegen::emit_verilog` for the labeled processor and the hdl/
//     figures against tests/fixtures/verilog/, so the emitter's operator
//     spelling, parenthesization and process lowering stay pinned.
//   * the dynamic engines against tests/fixtures/dynamic/: each design
//     runs a fixed number of cycles on seeded stimulus under
//     TaintTracker and, for every observer level, under TaintSim; the
//     dump lists every violation and leak event, the final concrete
//     values and taints, and `hunt_json`. It pins what the simulator
//     and both taint domains compute on every expression they walk.
//
// The fixtures are the output of the tool at the time they were
// committed. A change that is meant to alter them regenerates them and
// says why; a change that is not must leave them untouched.
#include "codegen/verilog.hpp"
#include "fuzz/rng.hpp"
#include "hunt/hunter.hpp"
#include "pipeline/compilation.hpp"
#include "proc/assembler.hpp"
#include "proc/sources.hpp"
#include "proc/testvectors.hpp"
#include "support/fsutil.hpp"
#include "verify/taint.hpp"

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
    {"input_seq_port.json", "fixtures/modular/input_seq_port.svlc", nullptr},
    {"part_select_hold.json", "fixtures/partial_writes/part_select_hold.svlc",
     nullptr},
    {"part_select_label.json",
     "fixtures/partial_writes/part_select_label.svlc", nullptr},
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

/// The source text a case names: a built-in processor, an hdl/ file or
/// a fixtures/ file.
std::string case_source(const GoldenCase& gc) {
    if (gc.builtin)
        return gc.builtin();
    // label is "hdl/<file>" or "fixtures/<dir>/<file>"
    std::string label = gc.label;
    std::string path = label.starts_with("hdl/")
                           ? std::string(SVLC_HDL_DIR) + label.substr(3)
                           : std::string(SVLC_FIXTURE_DIR) + label.substr(8);
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

const GoldenCase kDynamicCases[] = {
    {"labeled.txt", "builtin:labeled", proc::labeled_cpu_source},
    {"vulnerable.txt", "builtin:vulnerable", proc::vulnerable_cpu_source},
    {"fig3_implicit_downgrade.txt", "hdl/fig3_implicit_downgrade.svlc",
     nullptr},
    {"fig4_mode_switch.txt", "hdl/fig4_mode_switch.svlc", nullptr},
    {"shared_counter.txt", "hdl/shared_counter.svlc", nullptr},
    {"next_array_leak.txt", "fixtures/dynamic/next_array_leak.svlc", nullptr},
};

constexpr uint64_t kDynamicCycles = 64;
constexpr uint64_t kDynamicSeed = 1;

/// Seeded stimulus: `rst`, where there is one, is high in the first
/// cycle only; every other primary input gets a fresh value each cycle.
/// Every engine replays the same stream.
template <typename SetInput>
void drive(const hir::Design& d, uint64_t cycle, fuzz::Rng& rng,
           SetInput set_input) {
    for (const hir::Net& n : d.nets) {
        if (!n.is_input)
            continue;
        uint64_t v = rng.next();
        set_input(n.id, BitVec(n.width, n.name == "rst" ? cycle == 0 : v));
    }
}

/// The processors run a program that enters and leaves user mode, so
/// the mode-dependent labels change mid-run; other designs start from
/// their declared initial state.
void preload(const hir::Design& d, sim::Simulator& sim) {
    if (d.find_net("imem_k") == hir::kInvalidNet)
        return;
    for (const proc::TestVector& v : proc::functional_test_vectors()) {
        if (v.name != "kernel_work_between_switches")
            continue;
        std::vector<uint32_t> kernel = proc::assemble(v.kernel_asm).words;
        std::vector<uint32_t> user = proc::assemble(v.user_asm).words;
        for (size_t i = 0; i < kernel.size(); ++i)
            sim.poke_elem("imem_k", i, kernel[i]);
        for (size_t i = 0; i < user.size(); ++i)
            sim.poke_elem("imem_u", i, user[i]);
    }
}

/// An array element in the dump: "net[i]".
std::string slot_name(const hir::Net& n, uint64_t index) {
    return n.name + "[" + std::to_string(index) + "]";
}

/// Runs the design under each dynamic engine and lists what they saw:
/// violations, leak events, the final values and every tainted slot,
/// then a short hunt's JSON report.
std::string dynamic_dump(const hir::Design& d) {
    const Lattice& lat = d.policy.lattice();
    std::ostringstream os;

    sim::Simulator sim(d);
    preload(d, sim);
    verify::TaintTracker tracker(d);
    fuzz::Rng rng(kDynamicSeed);
    for (uint64_t c = 0; c < kDynamicCycles; ++c) {
        drive(d, c, rng,
              [&](hir::NetId id, BitVec v) { sim.set_input(id, v); });
        tracker.step(sim);
    }
    for (const auto& v : tracker.violations())
        os << "tracker violation cycle " << v.cycle << " net "
           << d.net(v.net).name << " taint " << lat.name(v.taint)
           << " declared " << lat.name(v.declared) << "\n";
    for (const hir::Net& n : d.nets) {
        if (n.array_size == 0) {
            os << "value " << n.name << " " << sim.get(n.id).str() << "\n";
            if (!n.is_input && tracker.taint(n.id) != lat.bottom())
                os << "tracker taint " << n.name << " "
                   << lat.name(tracker.taint(n.id)) << "\n";
            continue;
        }
        for (uint64_t i = 0; i < n.array_size; ++i) {
            if (!sim.get_elem(n.id, i).is_zero())
                os << "value " << slot_name(n, i) << " "
                   << sim.get_elem(n.id, i).str() << "\n";
            if (tracker.array_taint(n.id, i) != lat.bottom())
                os << "tracker taint " << slot_name(n, i) << " "
                   << lat.name(tracker.array_taint(n.id, i)) << "\n";
        }
    }

    for (LevelId obs = 0; obs < lat.size(); ++obs) {
        std::string who = "observer " + lat.name(obs) + " ";
        hunt::TaintSim ts(d, obs);
        preload(d, ts.sim());
        fuzz::Rng orng(kDynamicSeed);
        for (uint64_t c = 0; c < kDynamicCycles; ++c) {
            drive(d, c, orng,
                  [&](hir::NetId id, BitVec v) { ts.set_input(id, v); });
            ts.step();
        }
        for (const auto& e : ts.leaks())
            os << who << "leak cycle " << e.cycle << " net "
               << d.net(e.net).name << " taint " << e.taint << " declared "
               << lat.name(e.declared) << "\n";
        for (const hir::Net& n : d.nets) {
            if (n.is_input)
                continue;
            if (n.array_size == 0 && ts.taint(n.id) != 0)
                os << who << "taint " << n.name << " " << ts.taint(n.id)
                   << "\n";
            for (uint64_t i = 0; i < n.array_size; ++i)
                if (ts.array_taint(n.id, i) != 0)
                    os << who << "taint " << slot_name(n, i) << " "
                       << ts.array_taint(n.id, i) << "\n";
        }
    }

    hunt::HuntOptions hopts;
    hopts.depth = 8;
    hopts.beam = 4;
    hopts.branch = 4;
    os << hunt::hunt_json(d, hunt::hunt(d, hopts)) << "\n";
    return os.str();
}

class GoldenDynamic : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenDynamic, ByteIdenticalToFixture) {
    const GoldenCase& gc = GetParam();
    pipeline::Compilation comp;
    comp.load_text(case_source(gc), gc.label);
    ASSERT_NE(comp.elaborate(), nullptr) << comp.render_diagnostics();
    expect_fixture(dynamic_dump(*comp.design()), "dynamic", gc.fixture);
}

INSTANTIATE_TEST_SUITE_P(Dynamic, GoldenDynamic,
                         ::testing::ValuesIn(kDynamicCases), case_name);

} // namespace
} // namespace svlc::test
