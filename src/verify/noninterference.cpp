#include "verify/noninterference.hpp"

#include <algorithm>
#include <random>

namespace svlc::verify {

using namespace hir;

NIResult test_noninterference(const Design& design, const NIConfig& cfg) {
    NIResult result;
    const Lattice& lat = design.policy.lattice();

    // Partition primary inputs. An input whose label is static is low
    // (held identical) or high (varied) for the whole run; one whose
    // label is a function of state is classified again every cycle.
    std::vector<NetId> low_inputs, high_inputs, dependent_inputs;
    for (const Net& net : design.nets) {
        if (!net.is_input)
            continue;
        bool pinned = std::find(cfg.pinned.begin(), cfg.pinned.end(),
                                net.id) != cfg.pinned.end();
        // A dependent label whose whole function range flows to the
        // observer is low in every state.
        bool low = true;
        bool dependent = false;
        for (const LabelAtom& atom : net.label.atoms) {
            if (atom.kind == LabelAtom::Kind::Level) {
                low = low && lat.flows(atom.level, cfg.observer);
            } else {
                const LabelFunction& fn = design.policy.function(atom.func);
                bool range_low = lat.flows(fn.default_level(), cfg.observer);
                for (const auto& e : fn.entries())
                    range_low = range_low && lat.flows(e.level, cfg.observer);
                low = low && range_low;
                dependent = true;
            }
        }
        if (pinned || low)
            low_inputs.push_back(net.id);
        else if (dependent)
            dependent_inputs.push_back(net.id);
        else
            high_inputs.push_back(net.id);
    }

    std::mt19937_64 rng(cfg.seed);
    for (uint64_t trial = 0; trial < cfg.trials; ++trial) {
        sim::Simulator a(design), b(design);
        for (uint64_t cycle = 0; cycle < cfg.cycles; ++cycle) {
            for (NetId in : low_inputs) {
                BitVec v(design.net(in).width, rng());
                a.set_input(in, v);
                b.set_input(in, v);
            }
            for (NetId in : high_inputs) {
                a.set_input(in, BitVec(design.net(in).width, rng()));
                b.set_input(in, BitVec(design.net(in).width, rng()));
            }
            // A dependent-label input is low this cycle exactly when its
            // label, evaluated in each run's current state, flows to the
            // observer in both runs.
            for (NetId in : dependent_inputs) {
                uint32_t width = design.net(in).width;
                BitVec v(width, rng());
                a.set_input(in, v);
                if (lat.flows(a.current_label(in), cfg.observer) &&
                    lat.flows(b.current_label(in), cfg.observer))
                    b.set_input(in, v);
                else
                    b.set_input(in, BitVec(width, rng()));
            }
            if (cfg.driver) {
                cfg.driver(a, cycle);
                cfg.driver(b, cycle);
            }
            a.step();
            b.step();
            ++result.cycles_run;

            for (const Net& net : design.nets) {
                if (net.is_input || net.array_size != 0)
                    continue;
                LevelId la = a.current_label(net.id);
                LevelId lb = b.current_label(net.id);
                bool visible_a = lat.flows(la, cfg.observer);
                bool visible_b = lat.flows(lb, cfg.observer);
                if (visible_a != visible_b) {
                    result.ok = false;
                    result.violations.push_back(
                        {trial, cycle, net.id,
                         "label of '" + net.name +
                             "' diverges between low-equivalent runs"});
                } else if (visible_a &&
                           a.get(net.id).value() != b.get(net.id).value()) {
                    result.ok = false;
                    result.violations.push_back(
                        {trial, cycle, net.id,
                         "observable net '" + net.name +
                             "' differs between low-equivalent runs (" +
                             a.get(net.id).str() + " vs " +
                             b.get(net.id).str() + ")"});
                }
            }
            if (!result.ok)
                return result; // first divergence is enough
        }
    }
    return result;
}

} // namespace svlc::verify
