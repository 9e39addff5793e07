// E6: precision of label-change handling (paper §3.2) — "the designer
// only needs to take action on label changes that are dangerous": a label
// *upgrade* (SYSCALL, U->T) demands an explicit clear or endorse of every
// dependently-labeled register; a *downgrade* (SYSRET, T->U) needs no
// code at all. Dynamic clearing, by contrast, erases on any change.
#include "bench_util.hpp"
#include "xform/clearing.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace svlc;
using svlc::bench::compile;

std::string gpr_design(bool clear_on_upgrade, bool endorse_args,
                       bool upgrade_possible) {
    std::string src = R"(
lattice { level T; level U; flow T -> U; }
function lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} go_up, input com {T} go_down,
         input com [7:0] {U} udata, input com [1:0] {U} uaddr);
  reg seq {T} mode;
  reg seq [7:0] {lb(mode)} gpr[0:3];
  wire com {T} up;
  wire com {lb(mode)} down;
)";
    src += upgrade_possible
               ? "  assign up = go_up && (mode == 1'b1);\n"
               : "  assign up = 1'b0;\n";
    src += "  assign down = go_down && (mode == 1'b0);\n";
    src += R"(
  always @(seq) begin
    if (up) mode <= 1'b0;
    else if (down) mode <= 1'b1;
  end
  always @(seq) begin
)";
    if (clear_on_upgrade) {
        src += "    if (up) begin\n";
        if (endorse_args) {
            src += "      gpr[0] <= endorse(gpr[0], T);\n";
            src += "      gpr[1] <= endorse(gpr[1], T);\n";
        } else {
            src += "      gpr[0] <= 8'h0;\n      gpr[1] <= 8'h0;\n";
        }
        src += "      gpr[2] <= 8'h0;\n      gpr[3] <= 8'h0;\n";
        src += "    end\n    else if (mode == 1'b1) gpr[uaddr] <= udata;\n";
    } else {
        src += "    if (mode == 1'b1) gpr[uaddr] <= udata;\n";
    }
    src += "  end\nendmodule\n";
    return src;
}

void print_table() {
    svlc::bench::heading(
        "E6: precision of label-change obligations",
        "SYSCALL-direction changes (U->T) require explicit clearing or "
        "endorsement;\nSYSRET-direction changes (T->U) require nothing — "
        "unlike dynamic clearing,\nwhich erases on *any* label change");

    struct Case {
        const char* name;
        std::string src;
        const char* expected;
    } cases[] = {
        {"upgrade possible, registers untouched",
         gpr_design(false, false, true), "reject"},
        {"upgrade handled by clearing", gpr_design(true, false, true),
         "accept"},
        {"upgrade handled by clear + endorse args",
         gpr_design(true, true, true), "accept"},
        {"only downgrades possible, registers untouched",
         gpr_design(false, false, false), "accept"},
    };
    std::printf("%-46s %-10s %-10s\n", "design", "verdict", "expected");
    for (auto& c : cases) {
        auto design = compile(c.src);
        auto result = svlc::bench::check(*design);
        std::printf("%-46s %-10s %-10s\n", c.name,
                    result.ok ? "accept" : "reject", c.expected);
    }

    // Dynamic clearing is not precise: it inserts clears even for the
    // downgrade-only design.
    auto design = compile(gpr_design(false, false, false));
    auto report = xform::apply_dynamic_clearing(*design);
    std::printf("\ndynamic clearing on the downgrade-only design inserts "
                "%zu clears\n(%zu registers) although the type system "
                "proves none are needed.\n",
                report.inserted_writes, report.cleared.size());
}

void bm_check_precision_case(benchmark::State& state) {
    auto design = compile(gpr_design(true, true, true));
    for (auto _ : state) {
        DiagnosticEngine diags;
        auto result = check::check_design(*design, diags);
        benchmark::DoNotOptimize(result.failed);
    }
}
BENCHMARK(bm_check_precision_case);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
