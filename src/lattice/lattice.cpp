#include "lattice/lattice.hpp"

#include <cassert>

namespace svlc {

LevelId Lattice::add_level(std::string name) {
    if (auto existing = find(name))
        return *existing;
    names_.push_back(std::move(name));
    finalized_ = false;
    return static_cast<LevelId>(names_.size() - 1);
}

void Lattice::add_flow(LevelId lo, LevelId hi) {
    assert(lo < names_.size() && hi < names_.size());
    edges_.emplace_back(lo, hi);
    finalized_ = false;
}

std::optional<LevelId> Lattice::find(std::string_view name) const {
    for (size_t i = 0; i < names_.size(); ++i)
        if (names_[i] == name)
            return static_cast<LevelId>(i);
    return std::nullopt;
}

bool Lattice::finalize(std::string* error) {
    const size_t n = names_.size();
    if (n == 0) {
        if (error)
            *error = "lattice has no levels";
        return false;
    }
    leq_.assign(n, std::vector<uint8_t>(n, 0));
    for (size_t i = 0; i < n; ++i)
        leq_[i][i] = 1;
    for (auto [lo, hi] : edges_)
        leq_[lo][hi] = 1;
    // Floyd–Warshall transitive closure.
    for (size_t k = 0; k < n; ++k)
        for (size_t i = 0; i < n; ++i)
            for (size_t j = 0; j < n; ++j)
                if (leq_[i][k] && leq_[k][j])
                    leq_[i][j] = 1;
    // Antisymmetry: distinct mutually-ordered levels mean a cycle.
    for (size_t i = 0; i < n; ++i)
        for (size_t j = i + 1; j < n; ++j)
            if (leq_[i][j] && leq_[j][i]) {
                if (error)
                    *error = "flow cycle between levels '" + names_[i] +
                             "' and '" + names_[j] + "'";
                return false;
            }
    // Join/meet tables via unique minimal upper / maximal lower bounds.
    join_.assign(n, std::vector<LevelId>(n, kInvalidLevel));
    meet_.assign(n, std::vector<LevelId>(n, kInvalidLevel));
    for (size_t a = 0; a < n; ++a) {
        for (size_t b = 0; b < n; ++b) {
            // Join: least upper bound.
            LevelId lub = kInvalidLevel;
            for (size_t c = 0; c < n; ++c) {
                if (!leq_[a][c] || !leq_[b][c])
                    continue;
                if (lub == kInvalidLevel || leq_[c][lub])
                    lub = static_cast<LevelId>(c);
            }
            if (lub == kInvalidLevel) {
                if (error)
                    *error = "levels '" + names_[a] + "' and '" + names_[b] +
                             "' have no upper bound";
                return false;
            }
            // Verify LUB is below every upper bound (uniqueness).
            for (size_t c = 0; c < n; ++c)
                if (leq_[a][c] && leq_[b][c] && !leq_[lub][c]) {
                    if (error)
                        *error = "levels '" + names_[a] + "' and '" +
                                 names_[b] + "' lack a unique join";
                    return false;
                }
            join_[a][b] = lub;
            // Meet: greatest lower bound.
            LevelId glb = kInvalidLevel;
            for (size_t c = 0; c < n; ++c) {
                if (!leq_[c][a] || !leq_[c][b])
                    continue;
                if (glb == kInvalidLevel || leq_[glb][c])
                    glb = static_cast<LevelId>(c);
            }
            if (glb == kInvalidLevel) {
                if (error)
                    *error = "levels '" + names_[a] + "' and '" + names_[b] +
                             "' have no lower bound";
                return false;
            }
            for (size_t c = 0; c < n; ++c)
                if (leq_[c][a] && leq_[c][b] && !leq_[c][glb]) {
                    if (error)
                        *error = "levels '" + names_[a] + "' and '" +
                                 names_[b] + "' lack a unique meet";
                    return false;
                }
            meet_[a][b] = glb;
        }
    }
    // Bottom/top: fold joins/meets.
    bottom_ = 0;
    top_ = 0;
    for (size_t i = 1; i < n; ++i) {
        bottom_ = meet_[bottom_][i];
        top_ = join_[top_][i];
    }
    finalized_ = true;
    return true;
}


Lattice Lattice::two_point_integrity() {
    Lattice l;
    LevelId t = l.add_level("T");
    LevelId u = l.add_level("U");
    l.add_flow(t, u);
    [[maybe_unused]] bool ok = l.finalize();
    assert(ok);
    return l;
}

Lattice Lattice::two_point_confidentiality() {
    Lattice l;
    LevelId p = l.add_level("P");
    LevelId s = l.add_level("S");
    l.add_flow(p, s);
    [[maybe_unused]] bool ok = l.finalize();
    assert(ok);
    return l;
}

Lattice Lattice::diamond() {
    Lattice l;
    LevelId lo = l.add_level("LOW");
    LevelId m1 = l.add_level("M1");
    LevelId m2 = l.add_level("M2");
    LevelId hi = l.add_level("HIGH");
    l.add_flow(lo, m1);
    l.add_flow(lo, m2);
    l.add_flow(m1, hi);
    l.add_flow(m2, hi);
    [[maybe_unused]] bool ok = l.finalize();
    assert(ok);
    return l;
}

} // namespace svlc
