// Security lattices (Denning 1976): a finite set of levels with a partial
// order ⊑ ("may flow to") closed under join/meet. The type system only
// needs: membership, the flow relation, and joins; meets are provided for
// completeness and for policy sanity checks.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace svlc {

/// Index of a level within its Lattice.
using LevelId = uint32_t;
constexpr LevelId kInvalidLevel = ~LevelId{0};

/// A finite security lattice built from named levels and declared flow
/// edges. Call `finalize` after declaring all levels/edges; it computes
/// the reflexive-transitive closure and join/meet tables and verifies the
/// order is a lattice (unique LUB/GLB for every pair).
class Lattice {
public:
    /// Declares a level; returns its id. Duplicate names return the
    /// existing id.
    LevelId add_level(std::string name);

    /// Declares that information may flow from `lo` to `hi` (lo ⊑ hi).
    void add_flow(LevelId lo, LevelId hi);

    /// Computes closure and join/meet tables. Returns false (and sets
    /// `error`) if the declared order is cyclic between distinct levels or
    /// some pair lacks a unique join or meet.
    bool finalize(std::string* error = nullptr);

    [[nodiscard]] bool finalized() const { return finalized_; }
    [[nodiscard]] size_t size() const { return names_.size(); }
    [[nodiscard]] const std::string& name(LevelId l) const { return names_[l]; }
    [[nodiscard]] std::optional<LevelId> find(std::string_view name) const;

    /// lo ⊑ hi ? Inline table lookups: the taint engines join on every
    /// expression node they walk.
    [[nodiscard]] bool flows(LevelId lo, LevelId hi) const {
        assert(finalized_);
        return leq_[lo][hi] != 0;
    }
    [[nodiscard]] LevelId join(LevelId a, LevelId b) const {
        assert(finalized_);
        return join_[a][b];
    }
    [[nodiscard]] LevelId meet(LevelId a, LevelId b) const {
        assert(finalized_);
        return meet_[a][b];
    }
    /// Global bottom/top (exist for every finite lattice once finalized).
    [[nodiscard]] LevelId bottom() const { return bottom_; }
    [[nodiscard]] LevelId top() const { return top_; }

    /// Standard policies used throughout the paper and tests.
    /// Two points with T ⊑ U: integrity (trusted may flow to untrusted).
    static Lattice two_point_integrity();
    /// Two points with P ⊑ S: confidentiality (public may flow to secret).
    static Lattice two_point_confidentiality();
    /// Four-point diamond: LOW ⊑ {M1, M2} ⊑ HIGH, M1 and M2 incomparable.
    static Lattice diamond();

private:
    std::vector<std::string> names_;
    std::vector<std::vector<uint8_t>> leq_; // leq_[a][b]: a ⊑ b
    std::vector<std::vector<LevelId>> join_;
    std::vector<std::vector<LevelId>> meet_;
    LevelId bottom_ = kInvalidLevel;
    LevelId top_ = kInvalidLevel;
    std::vector<std::pair<LevelId, LevelId>> edges_;
    bool finalized_ = false;
};

} // namespace svlc
