#include "sim/simulator.hpp"

#include <stdexcept>

namespace svlc::sim {

using namespace hir;

Simulator::Simulator(const Design& design) : design_(design) { reset(); }

NetId Simulator::net_id(const std::string& name) const {
    NetId id = design_.find_net(name);
    if (id == kInvalidNet)
        throw std::invalid_argument("no net named '" + name + "'");
    return id;
}

void Simulator::reset() {
    cycle_ = 0;
    violations_.clear();
    store_.reset(
        design_,
        [](const Net& net) {
            return net.has_init ? net.init : BitVec(net.width, 0);
        },
        [](const Net& net) { return BitVec(net.width, 0); });
}

void Simulator::set_input(NetId net, BitVec value) {
    store_.current(net) = value.resize(design_.net(net).width);
}

void Simulator::set_input(const std::string& name, uint64_t value) {
    NetId id = net_id(name);
    set_input(id, BitVec(design_.net(id).width, value));
}

void Simulator::poke(NetId net, BitVec value) {
    store_.current(net) = value.resize(design_.net(net).width);
    store_.pending(net) = store_.current(net);
}

void Simulator::poke(const std::string& name, uint64_t value) {
    NetId id = net_id(name);
    poke(id, BitVec(design_.net(id).width, value));
}

void Simulator::poke_elem(NetId net, uint64_t index, BitVec value) {
    auto& arr = store_.elems(net);
    if (arr.empty())
        throw std::invalid_argument("net '" + design_.net(net).name +
                                    "' is not an array");
    arr[index % arr.size()] = value.resize(design_.net(net).width);
}

void Simulator::poke_elem(const std::string& name, uint64_t index,
                          uint64_t value) {
    NetId id = net_id(name);
    poke_elem(id, index, BitVec(design_.net(id).width, value));
}

BitVec Simulator::get(NetId net) const { return store_.get(net, false); }

BitVec Simulator::get(const std::string& name) const {
    return get(net_id(name));
}

BitVec Simulator::get_elem(NetId net, uint64_t index) const {
    const auto& arr = store_.elems(net);
    if (arr.empty())
        throw std::invalid_argument("net '" + design_.net(net).name +
                                    "' is not an array");
    return arr[index % arr.size()];
}

BitVec Simulator::get_elem(const std::string& name, uint64_t index) const {
    return get_elem(net_id(name), index);
}

void Simulator::write_scalar(NetId net, const LValue& lv, BitVec value,
                             ProcessKind kind) {
    BitVec& slot = store_.target(net, kind);
    uint32_t width = design_.net(net).width;
    if (lv.has_range) {
        // Rebuild the word through BitVec slice/concat: a raw
        // `mask(w) << lsb` merge is shift-overflow UB for a full-width
        // 64-bit range write (mask already 2^64-1, lsb possibly != 0 on
        // narrower fields reaching bit 63).
        BitVec old = slot;
        BitVec merged = value.resize(lv.msb - lv.lsb + 1);
        if (lv.lsb > 0)
            merged = merged.concat(old.slice(lv.lsb - 1, 0));
        if (lv.msb + 1 < width)
            merged = old.slice(width - 1, lv.msb + 1).concat(merged);
        slot = merged;
    } else {
        slot = value.resize(width);
    }
}

void Simulator::exec(const Stmt& s, ProcessKind kind) {
    switch (s.kind) {
    case StmtKind::Block:
        for (const auto& st : s.stmts)
            exec(*st, kind);
        break;
    case StmtKind::If:
        if (eval(*s.cond).to_bool())
            exec(*s.then_stmt, kind);
        else if (s.else_stmt)
            exec(*s.else_stmt, kind);
        break;
    case StmtKind::Assign: {
        const Net& net = design_.net(s.lhs.net);
        BitVec value = eval(*s.rhs);
        if (net.array_size != 0) {
            uint64_t idx = eval(*s.lhs.index).value() % net.array_size;
            store_.write_elem(net.id, idx, value.resize(net.width), kind);
        } else {
            write_scalar(net.id, s.lhs, value, kind);
        }
        break;
    }
    case StmtKind::Assume:
        if (!eval(*s.pred).to_bool())
            violations_.push_back({cycle_, s.loc});
        break;
    }
}

void Simulator::begin_step() { store_.hold(design_); }

void Simulator::exec_process(size_t process_index) {
    exec(*design_.processes[process_index].body,
         design_.processes[process_index].kind);
}

void Simulator::end_step() {
    store_.commit(design_);
    ++cycle_;
}

void Simulator::step() {
    begin_step();
    for (size_t pi : design_.schedule)
        exec_process(pi);
    end_step();
}

void Simulator::run(uint64_t cycles) {
    for (uint64_t i = 0; i < cycles; ++i)
        step();
}

void Simulator::settle() {
    for (size_t pi : design_.schedule)
        if (design_.processes[pi].kind == ProcessKind::Comb)
            exec(*design_.processes[pi].body, ProcessKind::Comb);
}

LevelId Simulator::eval_label(const Label& label, bool next) const {
    const Lattice& lat = design_.policy.lattice();
    LevelId acc = lat.bottom();
    for (const auto& atom : label.atoms) {
        if (atom.kind == LabelAtom::Kind::Level) {
            acc = lat.join(acc, atom.level);
        } else {
            std::vector<uint64_t> args;
            for (NetId a : atom.args) {
                bool primed = next && design_.net(a).kind == NetKind::Seq;
                args.push_back(store_.get(a, primed).value());
            }
            acc = lat.join(acc,
                           design_.policy.function(atom.func).evaluate(args));
        }
    }
    return acc;
}

} // namespace svlc::sim
