// Per-net state of the cycle model (paper Fig. 6): every net's current
// value r, every register's pending next-cycle value r', array elements,
// and the array writes sequential processes stage for the TICK. The
// simulator keeps concrete BitVec values in one; the taint engines keep
// their shadow taints in another, so all three step the same store
// through the same hold / write / commit schedule.
#pragma once

#include "sem/hir.hpp"

#include <cstdint>
#include <utility>
#include <vector>

namespace svlc::sim {

template <typename T>
class NetStore {
public:
    /// Sizes the store for `design`: every scalar starts at
    /// `scalar(net)` (current and pending alike), every array element at
    /// `elem(net)`, and no writes are staged.
    template <typename Scalar, typename Elem>
    void reset(const hir::Design& design, Scalar scalar, Elem elem) {
        current_.resize(design.nets.size());
        pending_.resize(design.nets.size());
        arrays_.resize(design.nets.size());
        staged_.clear();
        for (const hir::Net& net : design.nets) {
            current_[net.id] = scalar(net);
            pending_[net.id] = current_[net.id];
            if (net.array_size != 0)
                arrays_[net.id].assign(net.array_size, elem(net));
        }
    }

    /// r, or r' for a primed read.
    [[nodiscard]] const T& get(hir::NetId net, bool primed) const {
        return primed ? pending_[net] : current_[net];
    }
    [[nodiscard]] T& current(hir::NetId net) { return current_[net]; }
    [[nodiscard]] T& pending(hir::NetId net) { return pending_[net]; }
    /// Where a process writes a scalar: r from a combinational process,
    /// r' from a sequential one.
    [[nodiscard]] T& target(hir::NetId net, hir::ProcessKind kind) {
        return kind == hir::ProcessKind::Comb ? current_[net] : pending_[net];
    }

    /// The committed elements of an array net (empty for a scalar).
    [[nodiscard]] const std::vector<T>& elems(hir::NetId net) const {
        return arrays_[net];
    }
    [[nodiscard]] std::vector<T>& elems(hir::NetId net) { return arrays_[net]; }
    /// Element `index` (already reduced modulo the array size). The
    /// primed view is the committed element unless a write to it is
    /// staged this cycle, in which case the last staged write wins.
    [[nodiscard]] const T& elem(hir::NetId net, uint64_t index,
                                bool primed) const {
        if (primed)
            for (auto it = staged_.rbegin(); it != staged_.rend(); ++it)
                if (it->net == net && it->index == index)
                    return it->value;
        return arrays_[net][index];
    }
    /// A combinational process writes the element at once; a sequential
    /// one stages the write for commit().
    void write_elem(hir::NetId net, uint64_t index, T value,
                    hir::ProcessKind kind) {
        if (kind == hir::ProcessKind::Comb)
            arrays_[net][index] = std::move(value);
        else
            staged_.push_back({net, index, std::move(value)});
    }

    /// Start of a cycle: registers hold by default (r' = r) and no array
    /// write is staged.
    void hold(const hir::Design& design) {
        for (const hir::Net& net : design.nets)
            if (net.kind == hir::NetKind::Seq)
                pending_[net.id] = current_[net.id];
        staged_.clear();
    }

    /// TICK: every scalar register takes r', then the staged array
    /// writes land in the order they were made.
    void commit(const hir::Design& design) {
        for (const hir::Net& net : design.nets)
            if (net.kind == hir::NetKind::Seq && net.array_size == 0)
                current_[net.id] = pending_[net.id];
        for (const auto& w : staged_)
            arrays_[w.net][w.index] = w.value;
        staged_.clear();
    }

private:
    std::vector<T> current_;
    std::vector<T> pending_;
    std::vector<std::vector<T>> arrays_;
    struct Staged {
        hir::NetId net;
        uint64_t index;
        T value;
    };
    std::vector<Staged> staged_;
};

} // namespace svlc::sim
