// E10: dynamic clearing vs explicit downgrading (paper §1, §2.1) —
// the prior mitigation is secure but functionally destructive: it wipes
// the system-call argument registers on every mode switch ("automatically
// clearing the GPRs during this mode switch breaks the functionality of
// system calls"), while SecVerilogLC's explicit endorsement preserves
// exactly the registers the designer names.
#include "bench_util.hpp"
#include "proc/assembler.hpp"
#include "proc/sources.hpp"
#include "proc/testbench.hpp"
#include "sem/wellformed.hpp"
#include "verify/noninterference.hpp"
#include "xform/clearing.hpp"

#include <benchmark/benchmark.h>

namespace {

using namespace svlc;
using namespace svlc::proc;

const char* kKernel = R"(
        sysret
boot:   j boot
        .org 0x200
        addu $8, $4, $5
        sysret
khalt:  j khalt
)";
const char* kUser = R"(
        addiu $4, $0, 21
        addiu $5, $0, 14
        syscall
        addu $9, $4, $5      # after return
spin:   j spin
)";

uint32_t kernel_sum(const hir::Design& design) {
    auto kernel = assemble(kKernel);
    auto user = assemble(kUser);
    RtlCpu rtl(design);
    rtl.load_kernel(kernel.words);
    rtl.load_user(user.words);
    rtl.reset();
    rtl.run_cycles(200);
    return rtl.state().regs[8];
}

void print_table() {
    svlc::bench::heading(
        "E10: dynamic clearing breaks system calls; explicit downgrading "
        "does not",
        "\"Automatically clearing the GPRs during this mode switch breaks "
        "the\nfunctionality of system calls\" — the kernel must see the "
        "two endorsed\nargument registers ($4+$5 = 35 here)");

    // Explicit downgrading (this paper's mechanism).
    uint32_t endorsed = kernel_sum(*labeled_cpu_design());

    // Dynamic clearing (prior work): applied to a fresh design copy.
    auto cleared_design = compile_cpu(labeled_cpu_source());
    auto report = xform::apply_dynamic_clearing(*cleared_design);
    DiagnosticEngine diags;
    sem::analyze_wellformed(*cleared_design, diags);
    uint32_t cleared = kernel_sum(*cleared_design);

    std::printf("%-38s %-22s %-10s\n", "mechanism", "kernel sees $4+$5",
                "verdict");
    std::printf("%-38s %-22u %-10s\n", "explicit downgrading (SecVerilogLC)",
                endorsed, endorsed == 35 ? "works" : "BROKEN");
    std::printf("%-38s %-22u %-10s\n", "dynamic clearing (SecVerilog [15])",
                cleared, cleared == 35 ? "works" : "BROKEN");
    std::printf("\nclearing transform inserted %zu clear writes across %zu "
                "registers —\nhardware that exists in neither the source "
                "code nor the designer's intent.\n",
                report.inserted_writes, report.cleared.size());

    // Both mechanisms are *secure* under the dual-run observational-
    // determinism tester (the clearing design wins no functionality).
    verify::NIConfig cfg;
    cfg.observer = *labeled_cpu_design()->policy.lattice().find("T");
    cfg.cycles = 48;
    cfg.trials = 2;
    cfg.pinned.push_back(labeled_cpu_design()->find_net("rst"));
    auto ni_endorsed = verify::test_noninterference(*labeled_cpu_design(), cfg);
    verify::NIConfig cfg2 = cfg;
    cfg2.pinned.clear();
    cfg2.pinned.push_back(cleared_design->find_net("rst"));
    auto ni_cleared = verify::test_noninterference(*cleared_design, cfg2);
    std::printf("\ndual-run noninterference (trusted observer, random "
                "untrusted inputs):\n");
    std::printf("  explicit downgrading: %s\n",
                ni_endorsed.ok ? "no divergence" : "DIVERGED");
    std::printf("  dynamic clearing:     %s\n",
                ni_cleared.ok ? "no divergence" : "DIVERGED");
}

void bm_apply_clearing(benchmark::State& state) {
    std::string src = labeled_cpu_source();
    for (auto _ : state) {
        auto design = compile_cpu(src);
        auto report = xform::apply_dynamic_clearing(*design);
        benchmark::DoNotOptimize(report.inserted_writes);
    }
}
BENCHMARK(bm_apply_clearing)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char** argv) {
    print_table();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    return 0;
}
