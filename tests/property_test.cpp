// Algebraic property sweeps: lattice laws on randomized finite lattices,
// BitVec semantics against a 64-bit reference model across widths, and
// solver-label algebra.
#include "lattice/lattice.hpp"
#include "solver/label.hpp"
#include "support/bitvec.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>

namespace svlc::test {
namespace {

// ---------------------------------------------------------------------------
// Lattice laws on random DAG-generated lattices
// ---------------------------------------------------------------------------

/// Builds a random lattice by layering levels between a bottom and a top
/// (guaranteeing joins/meets exist) with random cross edges.
Lattice random_lattice(std::mt19937_64& rng) {
    Lattice l;
    LevelId bot = l.add_level("BOT");
    int mids = 1 + static_cast<int>(rng() % 4);
    std::vector<LevelId> middle;
    for (int i = 0; i < mids; ++i)
        middle.push_back(l.add_level('M' + std::to_string(i)));
    LevelId top = l.add_level("TOP");
    for (LevelId m : middle) {
        l.add_flow(bot, m);
        l.add_flow(m, top);
    }
    // Random order edges between middle levels (respecting index order to
    // stay acyclic).
    for (size_t i = 0; i < middle.size(); ++i)
        for (size_t j = i + 1; j < middle.size(); ++j)
            if (rng() % 3 == 0)
                l.add_flow(middle[i], middle[j]);
    return l;
}

class LatticeLaws : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LatticeLaws, JoinMeetAlgebra) {
    std::mt19937_64 rng(GetParam());
    for (int trial = 0; trial < 30; ++trial) {
        Lattice l = random_lattice(rng);
        std::string err;
        if (!l.finalize(&err))
            continue; // random order wasn't a lattice; fine
        size_t n = l.size();
        for (LevelId a = 0; a < n; ++a) {
            for (LevelId b = 0; b < n; ++b) {
                // Commutativity.
                EXPECT_EQ(l.join(a, b), l.join(b, a));
                EXPECT_EQ(l.meet(a, b), l.meet(b, a));
                // Join/meet are bounds.
                EXPECT_TRUE(l.flows(a, l.join(a, b)));
                EXPECT_TRUE(l.flows(b, l.join(a, b)));
                EXPECT_TRUE(l.flows(l.meet(a, b), a));
                EXPECT_TRUE(l.flows(l.meet(a, b), b));
                // Absorption.
                EXPECT_EQ(l.join(a, l.meet(a, b)), a);
                EXPECT_EQ(l.meet(a, l.join(a, b)), a);
                // Consistency: a ⊑ b iff join(a,b) == b.
                EXPECT_EQ(l.flows(a, b), l.join(a, b) == b);
                // Idempotence.
                EXPECT_EQ(l.join(a, a), a);
                for (LevelId c = 0; c < n; ++c) {
                    // Associativity.
                    EXPECT_EQ(l.join(l.join(a, b), c),
                              l.join(a, l.join(b, c)));
                    EXPECT_EQ(l.meet(l.meet(a, b), c),
                              l.meet(a, l.meet(b, c)));
                    // Monotonicity of join.
                    if (l.flows(a, b)) {
                        EXPECT_TRUE(l.flows(l.join(a, c), l.join(b, c)));
                    }
                }
            }
            EXPECT_TRUE(l.flows(l.bottom(), a));
            EXPECT_TRUE(l.flows(a, l.top()));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeLaws,
                         ::testing::Values(101, 202, 303, 404));

// ---------------------------------------------------------------------------
// BitVec vs. a reference model, across widths
// ---------------------------------------------------------------------------

class BitVecWidths : public ::testing::TestWithParam<uint32_t> {};

TEST_P(BitVecWidths, OpsMatchReferenceModulo2W) {
    uint32_t w = GetParam();
    uint64_t mask = BitVec::mask(w);
    std::mt19937_64 rng(w * 7 + 1);
    for (int trial = 0; trial < 200; ++trial) {
        uint64_t x = rng() & mask, y = rng() & mask;
        BitVec a(w, x), b(w, y);
        EXPECT_EQ((a + b).value(), (x + y) & mask);
        EXPECT_EQ((a - b).value(), (x - y) & mask);
        EXPECT_EQ((a * b).value(), (x * y) & mask);
        EXPECT_EQ((a & b).value(), x & y);
        EXPECT_EQ((a | b).value(), x | y);
        EXPECT_EQ((a ^ b).value(), x ^ y);
        EXPECT_EQ(a.bit_not().value(), ~x & mask);
        EXPECT_EQ(a.lt(b).value(), x < y ? 1u : 0u);
        EXPECT_EQ(a.eq(b).value(), x == y ? 1u : 0u);
        if (y != 0) {
            EXPECT_EQ((a / b).value(), x / y);
            EXPECT_EQ((a % b).value(), x % y);
        }
        uint64_t sh = y % (w + 4); // sometimes >= w
        BitVec shv(w, sh);
        // Our shift amount is the operand's masked value.
        uint64_t shm = sh & mask;
        EXPECT_EQ((a << shv).value(),
                  shm >= w ? 0u : (x << shm) & mask);
        EXPECT_EQ((a >> shv).value(), shm >= w ? 0u : x >> shm);
        // Reductions.
        EXPECT_EQ(a.red_or().value(), x != 0 ? 1u : 0u);
        EXPECT_EQ(a.red_and().value(), x == mask ? 1u : 0u);
        EXPECT_EQ(a.red_xor().value(),
                  static_cast<uint64_t>(__builtin_popcountll(x) & 1));
        // Slice/concat round trip.
        if (w >= 2) {
            uint32_t cut = 1 + static_cast<uint32_t>(rng() % (w - 1));
            BitVec hi = a.slice(w - 1, cut);
            BitVec lo = a.slice(cut - 1, 0);
            EXPECT_EQ(hi.concat(lo).value(), x);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Widths, BitVecWidths,
                         ::testing::Values(1, 2, 5, 8, 13, 16, 31, 32, 47,
                                           63, 64));

// ---------------------------------------------------------------------------
// Solver-label algebra
// ---------------------------------------------------------------------------

TEST(SolverLabelAlgebra, JoinDeduplicatesAtoms) {
    auto c = compile(policy_header() + R"(
module m(input com {T} a);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    const auto& design = *c.design;
    auto lab = solver::SolverLabel::from_hir(
        design.net(design.find_net("r")).label, design, false);
    ASSERT_EQ(lab.atoms.size(), 1u);
    solver::SolverLabel joined = lab;
    joined.join_with(lab);
    EXPECT_EQ(joined.atoms.size(), 1u); // identical atom not duplicated
    auto primed = solver::SolverLabel::from_hir(
        design.net(design.find_net("r")).label, design, true);
    joined.join_with(primed);
    EXPECT_EQ(joined.atoms.size(), 2u); // primed atom is distinct
    EXPECT_FALSE(joined.is_static());
    // Pretty form mentions the primed argument.
    EXPECT_NE(joined.str(design).find("mode'"), std::string::npos);
}

TEST(SolverLabelAlgebra, PrimedSubstitutionSkipsComArguments) {
    auto c = compile(policy_header() + R"(
module m(input com {T} w);
  wire com {T} cw;
  assign cw = w;
  reg seq [7:0] {mode_to_lb(cw)} r;
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    const auto& design = *c.design;
    auto primed = solver::SolverLabel::from_hir(
        design.net(design.find_net("r")).label, design, true);
    // The com argument keeps its current-cycle meaning: Γ(r){r⃗'/r⃗}
    // substitutes sequential variables only.
    ASSERT_EQ(primed.atoms.size(), 1u);
    ASSERT_EQ(primed.atoms[0].args.size(), 1u);
    EXPECT_FALSE(primed.atoms[0].args[0].primed);
}

} // namespace
} // namespace svlc::test
