#include "support/bitvec.hpp"

#include <gtest/gtest.h>

namespace svlc {
namespace {

TEST(BitVec, ConstructionMasksToWidth) {
    BitVec v(4, 0xFF);
    EXPECT_EQ(v.width(), 4u);
    EXPECT_EQ(v.value(), 0xFu);
}

TEST(BitVec, FullWidth64) {
    BitVec v(64, ~uint64_t{0});
    EXPECT_EQ(v.value(), ~uint64_t{0});
    EXPECT_EQ(v.red_and().value(), 1u);
}

TEST(BitVec, ArithmeticWraps) {
    BitVec a(8, 0xFF), b(8, 1);
    EXPECT_EQ((a + b).value(), 0u);
    EXPECT_EQ((b - a).value(), 2u);
    EXPECT_EQ((a * a).value(), 1u); // 255*255 = 65025 & 0xFF = 1
}

TEST(BitVec, DivisionByZeroIsDeterministic) {
    BitVec a(8, 42), z(8, 0);
    EXPECT_EQ((a / z).value(), 0xFFu);
    EXPECT_EQ((a % z).value(), 42u);
}

TEST(BitVec, MixedWidthTakesMax) {
    BitVec a(4, 0xF), b(8, 0x10);
    BitVec s = a + b;
    EXPECT_EQ(s.width(), 8u);
    EXPECT_EQ(s.value(), 0x1Fu);
}

TEST(BitVec, ShiftsBeyondWidthYieldZero) {
    BitVec a(8, 0xAB);
    EXPECT_EQ((a << BitVec(8, 8)).value(), 0u);
    EXPECT_EQ((a >> BitVec(8, 9)).value(), 0u);
    EXPECT_EQ((a << BitVec(8, 4)).value(), 0xB0u);
}

TEST(BitVec, Comparisons) {
    BitVec a(8, 5), b(8, 9);
    EXPECT_TRUE(a.lt(b).to_bool());
    EXPECT_TRUE(a.le(a).to_bool());
    EXPECT_FALSE(a.gt(b).to_bool());
    EXPECT_TRUE(a.ne(b).to_bool());
    EXPECT_TRUE(a.eq(a).to_bool());
}

TEST(BitVec, Reductions) {
    EXPECT_EQ(BitVec(4, 0xF).red_and().value(), 1u);
    EXPECT_EQ(BitVec(4, 0x7).red_and().value(), 0u);
    EXPECT_EQ(BitVec(4, 0x0).red_or().value(), 0u);
    EXPECT_EQ(BitVec(4, 0x8).red_or().value(), 1u);
    EXPECT_EQ(BitVec(4, 0x3).red_xor().value(), 0u);
    EXPECT_EQ(BitVec(4, 0x7).red_xor().value(), 1u);
}

TEST(BitVec, SliceAndConcat) {
    BitVec v(16, 0xABCD);
    EXPECT_EQ(v.slice(15, 8).value(), 0xABu);
    EXPECT_EQ(v.slice(7, 0).value(), 0xCDu);
    EXPECT_EQ(v.slice(11, 4).value(), 0xBCu);
    BitVec hi(8, 0xAB), lo(8, 0xCD);
    BitVec cat = hi.concat(lo);
    EXPECT_EQ(cat.width(), 16u);
    EXPECT_EQ(cat.value(), 0xABCDu);
}

TEST(BitVec, ParseSizedLiterals) {
    BitVec v;
    ASSERT_TRUE(BitVec::parse("16'h8000", v));
    EXPECT_EQ(v.width(), 16u);
    EXPECT_EQ(v.value(), 0x8000u);
    ASSERT_TRUE(BitVec::parse("4'b1010", v));
    EXPECT_EQ(v.value(), 0xAu);
    ASSERT_TRUE(BitVec::parse("8'd255", v));
    EXPECT_EQ(v.value(), 255u);
    ASSERT_TRUE(BitVec::parse("6'o77", v));
    EXPECT_EQ(v.value(), 63u);
    ASSERT_TRUE(BitVec::parse("32'hdead_beef", v));
    EXPECT_EQ(v.value(), 0xDEADBEEFu);
}

TEST(BitVec, ParsePlainDecimalDefaults32Bits) {
    BitVec v;
    ASSERT_TRUE(BitVec::parse("42", v));
    EXPECT_EQ(v.width(), 32u);
    EXPECT_EQ(v.value(), 42u);
}

TEST(BitVec, ParseRejectsMalformed) {
    BitVec v;
    EXPECT_FALSE(BitVec::parse("", v));
    EXPECT_FALSE(BitVec::parse("8'", v));
    EXPECT_FALSE(BitVec::parse("8'q12", v));
    EXPECT_FALSE(BitVec::parse("4'b102", v));
    EXPECT_FALSE(BitVec::parse("0'h1", v));
    EXPECT_FALSE(BitVec::parse("65'h0", v));
    EXPECT_FALSE(BitVec::parse("8'hXZ", v));
}

TEST(BitVec, ValueTruncatesOnParseToWidth) {
    BitVec v;
    ASSERT_TRUE(BitVec::parse("4'hFF", v));
    EXPECT_EQ(v.value(), 0xFu);
}

// Width-invariant violations must be checked errors in EVERY build mode:
// these used to be asserts, which vanish under NDEBUG and let a 65-bit
// concat silently wrap its shift amount.
TEST(BitVec, OutOfRangeWidthThrows) {
    EXPECT_THROW(BitVec(0, 0), BitVecError);
    EXPECT_THROW(BitVec(65, 0), BitVecError);
    EXPECT_THROW(BitVec(1u << 20, 0), BitVecError);
    EXPECT_NO_THROW(BitVec(1, 1));
    EXPECT_NO_THROW(BitVec(64, ~uint64_t{0}));
}

TEST(BitVec, ConcatAtSixtyFourBitBoundary) {
    BitVec hi(32, 0xDEADBEEF), lo(32, 0xCAFEF00D);
    BitVec full = hi.concat(lo);
    EXPECT_EQ(full.width(), 64u);
    EXPECT_EQ(full.value(), 0xDEADBEEFCAFEF00Dull);

    BitVec one(1, 1);
    EXPECT_EQ(one.concat(BitVec(63, 0)).width(), 64u);
    // 64 + 1 = 65 bits: must throw, not wrap.
    EXPECT_THROW((void)full.concat(one), BitVecError);
    EXPECT_THROW((void)one.concat(full), BitVecError);
}

TEST(BitVec, SliceBoundsAreChecked) {
    BitVec v(8, 0xA5);
    EXPECT_EQ(v.slice(7, 0).value(), 0xA5u);
    EXPECT_EQ(v.slice(3, 0).value(), 0x5u);
    EXPECT_THROW((void)v.slice(8, 0), BitVecError);  // hi >= width
    EXPECT_THROW((void)v.slice(2, 5), BitVecError);  // hi < lo
}

} // namespace
} // namespace svlc
