// The dynamic flow: the engines that never run the checker. Seeded
// looping programs run on the labeled cpu and on quad through
// proc::RtlCpu, plain and under verify::TaintTracker, and each final
// architectural state is compared with the golden model; the functional
// test vectors run through proc::run_vector; dual-run noninterference
// runs on fig3 (must leak), fig4 and the cpu (must not); the leak hunter
// runs over planted/clean scenario twins and both processors.
#include "corpus.hpp"
#include "trace.hpp"

#include "hunt/corpus.hpp"
#include "hunt/hunter.hpp"
#include "proc/assembler.hpp"
#include "proc/golden.hpp"
#include "proc/sources.hpp"
#include "proc/testbench.hpp"
#include "proc/testvectors.hpp"
#include "verify/noninterference.hpp"
#include "verify/taint.hpp"

#include <functional>
#include <random>
#include <sstream>

namespace perfbench {

namespace {

using namespace svlc;

const char* kKernel = R"(
        sysret
boot:   j boot
        .org 0x200
        addiu $8, $0, 0x77
        sysret
kspin:  j kspin
)";

/// A counted loop around a seeded straight-line body, ending in the
/// `j .` spin every test program ends with. The body holds two of each
/// instruction kind in seeded order with seeded registers, so every seed
/// does about the same work per iteration.
std::string loop_program(std::mt19937_64& rng, unsigned iterations) {
    std::vector<int> kinds;
    for (int k = 0; k < 8; ++k)
        kinds.insert(kinds.end(), 2, k);
    for (size_t i = kinds.size(); i > 1; --i)
        std::swap(kinds[i - 1], kinds[rng() % i]);
    std::ostringstream os;
    auto reg = [&] { return 1 + rng() % 15; };
    os << "  addiu $20, $0, " << iterations << "\nloop:\n";
    for (size_t i = 0; i < kinds.size(); ++i) {
        unsigned rd = reg(), ra = reg(), rb = reg();
        switch (kinds[i]) {
        case 0:
            os << "  addiu $" << rd << ", $" << ra << ", "
               << static_cast<int>(rng() % 512) - 256 << "\n";
            break;
        case 1:
            os << "  addu $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 2:
            os << "  subu $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 3:
            os << "  xor $" << rd << ", $" << ra << ", $" << rb << "\n";
            break;
        case 4:
            os << "  sll $" << rd << ", $" << ra << ", " << rng() % 32 << "\n";
            break;
        case 5:
            os << "  sw $" << ra << ", " << (rng() % 64) * 4 << "($0)\n";
            break;
        case 6:
            os << "  lw $" << rd << ", " << (rng() % 64) * 4 << "($0)\n";
            break;
        case 7: // forward branch over one instruction
            os << "  bne $" << ra << ", $" << rb << ", skip" << i << "\n"
               << "  addiu $" << rd << ", $" << rd << ", 1\nskip" << i << ":\n";
            break;
        }
    }
    os << "  addiu $20, $20, -1\n  bne $20, $0, loop\nspin: j spin\n";
    return os.str();
}

struct Program {
    std::vector<uint32_t> kernel;
    std::vector<uint32_t> user;
    proc::ArchState expected;
    uint64_t cycles = 0;
};

/// Stimulus for dual-run noninterference on the cpu: loads the program
/// image, resets once, and holds fstall at 0 while its label lb(mode) is
/// trusted. The tester treats a dependent-label input as high in every
/// mode; varying it in kernel mode would vary a trusted input.
std::function<void(sim::Simulator&, uint64_t)> cpu_driver(const Program& p) {
    return [&p](sim::Simulator& s, uint64_t cycle) {
        if (cycle == 0)
            for (uint64_t i = 0; i < proc::ArchParams::kImemWords; ++i) {
                s.poke_elem("imem_k", i, i < p.kernel.size() ? p.kernel[i] : 0);
                s.poke_elem("imem_u", i, i < p.user.size() ? p.user[i] : 0);
            }
        s.set_input("rst", cycle == 0 ? 1 : 0);
        if (s.get("mode").value() == 0)
            s.set_input("fstall", 0);
    };
}

struct HuntCase {
    std::string name;
    std::shared_ptr<hir::Design> design;
    bool scored = true;
    bool planted = false;
};

struct NiCase {
    std::string name;
    std::shared_ptr<hir::Design> design;
    bool leaks = false;
    uint64_t cycles = 0;
    uint64_t trials = 0;
    /// Runs a program on the cpu (see cpu_driver); empty for the figures.
    const Program* program = nullptr;
};

struct Cores {
    const char* span;
    const hir::Design* design;
    const char* prefix;
};

class DynamicFlow final : public Flow {
public:
    DynamicFlow(Scale scale, uint64_t seed) : scale_(scale), seed_(seed) {}

    void setup() override {
        bool full = scale_ == Scale::Full;
        labeled_ = proc::compile_cpu(proc::labeled_cpu_source(), "cpu");
        quad_ = proc::compile_cpu(proc::quad_core_source(), "quad");

        std::mt19937_64 rng(seed_);
        programs_.clear();
        for (int i = 0; i < (full ? 4 : 1); ++i)
            programs_.push_back(make_program(rng, full ? 100 : 60));

        vectors_ = proc::functional_test_vectors();
        if (!full) {
            std::vector<proc::TestVector> picked;
            for (int i = 0; i < 6; ++i)
                picked.push_back(vectors_[rng() % vectors_.size()]);
            vectors_ = std::move(picked);
        }

        ni_.clear();
        ni_.push_back({"fig3", compile(hdl_source("fig3_implicit_downgrade.svlc")),
                       true, 64, 4});
        ni_.push_back({"fig4", compile(hdl_source("fig4_mode_switch.svlc")),
                       false, full ? 256u : 64u, 4});
        if (full)
            ni_.push_back({"cpu", labeled_, false, 256, 2, &programs_[0]});

        hunts_.clear();
        // The probe hunts the hunter's largest builtin scenarios; the full
        // flow twice and four times those sizes.
        std::vector<size_t> rings = full ? std::vector<size_t>{16, 32}
                                         : std::vector<size_t>{8};
        std::vector<size_t> caches = full ? std::vector<size_t>{128, 256}
                                          : std::vector<size_t>{64};
        for (bool planted : {true, false}) {
            for (size_t n : rings)
                hunts_.push_back({"ring" + std::to_string(n),
                                  compile(hunt::ring_scenario_source(n, planted),
                                          "ring" + std::to_string(n)),
                                  true, planted});
            for (size_t n : caches)
                hunts_.push_back({"cache" + std::to_string(n),
                                  compile(hunt::cache_scenario_source(n, planted),
                                          "cache" + std::to_string(n)),
                                  true, planted});
        }
        if (full) {
            hunts_.push_back({"proc_labeled", labeled_, true, false});
            // The hunter's beam misses the stall-gated pc leak the checker
            // refutes; its verdict here is reported, not scored.
            hunts_.push_back({"proc_vulnerable",
                              compile(proc::vulnerable_cpu_source(), "cpu"),
                              false, true});
        }
        hunt_opts_ = hunt::HuntOptions();
        hunt_opts_.depth = 32;
        hunt_opts_.beam = 16;
        hunt_opts_.branch = 8;
        hunt_opts_.seed = seed_;

        sim_rate_.clear();
        taint_rate_.clear();
        hunt_ms_.clear();
    }

    void round(Tracer* tr, Tally& tally) override {
        const Cores cores[] = {{"sim.cpu", labeled_.get(), ""},
                               {"sim.ring", quad_.get(), "c0."}};
        double sim_cycles = 0, sim_ms = 0, taint_cycles = 0, taint_ms = 0;
        for (const Program& p : programs_) {
            for (const Cores& c : cores) {
                if (tr)
                    tr->new_request();
                sim_ms += run_program(tr, tally, c, p, false);
                sim_cycles += static_cast<double>(p.cycles);
                taint_ms += run_program(tr, tally, c, p, true);
                taint_cycles += static_cast<double>(p.cycles);
            }
        }
        sim_rate_.push_back(sim_cycles / (sim_ms / 1000.0));
        taint_rate_.push_back(taint_cycles / (taint_ms / 1000.0));

        run_vectors(tr, tally);
        run_ni(tr, tally);
        hunt_ms_.push_back(run_hunts(tr, tally));
        if (tr)
            tr->add("dynamic.rounds", 1);
    }

    void traced_probes(Tracer&, Tally&) override {}

    void end_to_end(Metrics& out) const override {
        out.set("sim_cycles_per_s", median(sim_rate_));
        out.set("taint_cycles_per_s", median(taint_rate_));
        out.set("hunt_s", median(hunt_ms_) / 1000.0);
    }

private:
    static std::shared_ptr<hir::Design> compile(const std::string& source,
                                                const std::string& top = "") {
        return proc::compile_cpu(source, top);
    }

    static Program make_program(std::mt19937_64& rng, unsigned iterations) {
        Program p;
        proc::AsmResult k = proc::assemble(kKernel);
        proc::AsmResult u = proc::assemble(loop_program(rng, iterations));
        if (!k.ok || !u.ok)
            throw std::runtime_error("program assembly failed: " + k.error +
                                     u.error);
        p.kernel = k.words;
        p.user = u.words;
        proc::GoldenCpu golden;
        golden.load_kernel(p.kernel);
        golden.load_user(p.user);
        uint64_t instret = proc::golden_run_to_spin(golden, 1000000);
        p.expected = proc::golden_state(golden);
        // Two cycles per instruction covers the loop's stalls and branch
        // squashes; the rest drains the pipeline into the spin loop.
        p.cycles = instret * 2 + 40;
        return p;
    }

    /// Runs `p` on one core (plain or under the taint tracker); returns
    /// the simulated time in reference ms and checks the final state.
    double run_program(Tracer* tr, Tally& tally, const Cores& c,
                       const Program& p, bool taint) {
        proc::RtlCpu rtl(*c.design, c.prefix);
        rtl.load_kernel(p.kernel);
        rtl.load_user(p.user);
        rtl.reset();
        double ms;
        if (taint) {
            verify::TaintTracker tracker(*c.design);
            ms = timed_ms([&] {
                Tracer::Scope s(tr, "verify.taint");
                for (uint64_t i = 0; i < p.cycles; ++i)
                    tracker.step(rtl.sim());
            });
            if (tr)
                tr->add("verify.taint.cycles", static_cast<double>(p.cycles));
        } else {
            ms = timed_ms([&] {
                Tracer::Scope s(tr, c.span);
                rtl.run_cycles(p.cycles);
            });
            if (tr)
                tr->add(std::string(c.span) + ".cycles",
                        static_cast<double>(p.cycles));
        }
        std::string what = std::string(taint ? "taint " : "sim ") + c.span;
        tally.op(true, what);
        tally.verdict(proc::ArchState::diff(p.expected, rtl.state(), false)
                          .empty(),
                      what + " final state");
        return ms;
    }

    void run_vectors(Tracer* tr, Tally& tally) {
        if (tr)
            tr->new_request();
        Tracer::Scope s(tr, "proc.vectors");
        for (const proc::TestVector& v : vectors_) {
            std::string diff = proc::run_vector(*labeled_, v);
            tally.op(true, "vector " + v.name);
            tally.verdict(diff.empty(), "vector " + diff);
            if (tr && !diff.empty())
                tr->add("proc.vectors_failed", 1);
        }
    }

    void run_ni(Tracer* tr, Tally& tally) {
        for (const NiCase& c : ni_) {
            verify::NIConfig cfg;
            cfg.observer = *c.design->policy.lattice().find("T");
            cfg.cycles = c.cycles;
            cfg.trials = c.trials;
            cfg.seed = seed_;
            if (c.program)
                cfg.driver = cpu_driver(*c.program);
            verify::NIResult r;
            if (tr)
                tr->new_request();
            {
                Tracer::Scope s(tr, "verify.ni");
                r = verify::test_noninterference(*c.design, cfg);
            }
            if (tr)
                tr->add("verify.ni.cycles", static_cast<double>(r.cycles_run));
            tally.op(true, "ni " + c.name);
            tally.verdict(r.ok != c.leaks,
                          "ni " + c.name +
                              (r.violations.empty()
                                   ? ""
                                   : ": " + r.violations[0].description));
        }
    }

    double run_hunts(Tracer* tr, Tally& tally) {
        double total = 0;
        for (const HuntCase& c : hunts_) {
            if (tr)
                tr->new_request();
            hunt::HuntResult r;
            total += timed_ms([&] {
                Tracer::Scope s(tr, "hunt");
                r = hunt::hunt(*c.design, hunt_opts_);
            });
            bool leak = r.verdict == hunt::HuntVerdict::Leak;
            tally.op(true, "hunt " + c.name);
            if (c.scored)
                tally.verdict(leak == c.planted, "hunt " + c.name);
            tally.verdict(r.unconfirmed_candidates == 0,
                          "hunt " + c.name + " unconfirmed candidates");
            if (leak) {
                hunt::ReplayWitness w;
                {
                    Tracer::Scope s(tr, "hunt.replay");
                    w = hunt::replay_trace(*c.design, r.trace, r.observer);
                }
                tally.verdict(w.confirmed, "hunt " + c.name + " replay");
            }
            if (tr) {
                tr->add("hunt.states", static_cast<double>(r.states_explored));
                tr->add("hunt.assignments",
                        static_cast<double>(r.assignments_tried));
                tr->add("hunt.minimize_replays",
                        static_cast<double>(r.minimize_replays));
                tr->add("hunt.unconfirmed",
                        static_cast<double>(r.unconfirmed_candidates));
            }
        }
        return total;
    }

    Scale scale_;
    uint64_t seed_;
    std::shared_ptr<hir::Design> labeled_;
    std::shared_ptr<hir::Design> quad_;
    std::vector<Program> programs_;
    std::vector<proc::TestVector> vectors_;
    std::vector<NiCase> ni_;
    std::vector<HuntCase> hunts_;
    hunt::HuntOptions hunt_opts_;
    std::vector<double> sim_rate_;
    std::vector<double> taint_rate_;
    std::vector<double> hunt_ms_;
};

} // namespace

std::unique_ptr<Flow> make_dynamic_flow(Scale scale, uint64_t seed) {
    return std::make_unique<DynamicFlow>(scale, seed);
}

} // namespace perfbench
