// The operator table (ast/ops.hpp) is the one meaning of every operator.
// For each UnaryOp and BinaryOp, over edge operands (0, 1, all-ones,
// division and modulo by zero, shift amounts at and past the width) and
// over equal and mixed operand widths, four evaluations must agree:
//   * the elaborator folding a constant expression `(A) op (B)`;
//   * the simulator evaluating `a op b` with A and B on its inputs;
//   * eval3 and eval_term on that same expression under the full
//     assignment {a = A, b = B};
//   * a plain uint64_t model of the operator, written independently of
//     BitVec, so a wrong table entry cannot hide behind agreement.
#include "sim/simulator.hpp"
#include "solver/arena.hpp"
#include "solver/eval3.hpp"
#include "solver/term.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace svlc::test {
namespace {

using ast::BinaryOp;
using ast::UnaryOp;
using Op = std::variant<UnaryOp, BinaryOp>;

std::vector<Op> all_ops() {
    std::vector<Op> ops;
    for (int i = 0; i <= static_cast<int>(UnaryOp::RedXor); ++i)
        ops.push_back(static_cast<UnaryOp>(i));
    for (int i = 0; i <= static_cast<int>(BinaryOp::LogOr); ++i)
        ops.push_back(static_cast<BinaryOp>(i));
    return ops;
}

bool is_unary(const Op& op) { return std::holds_alternative<UnaryOp>(op); }

std::string op_text(const Op& op) {
    return is_unary(op) ? ast::unary_op_text(std::get<UnaryOp>(op))
                        : ast::binary_op_text(std::get<BinaryOp>(op));
}

uint64_t mask(uint32_t w) {
    return w >= 64 ? ~uint64_t{0} : (uint64_t{1} << w) - 1;
}

/// The expected result, as (width, value), from uint64_t arithmetic.
/// Binary operands other than shifts are zero-extended to the wider
/// width first, as elaboration does.
std::pair<uint32_t, uint64_t> model(const Op& op, uint32_t wa, uint64_t a,
                                    uint32_t wb, uint64_t b) {
    if (is_unary(op)) {
        uint64_t m = mask(wa);
        switch (std::get<UnaryOp>(op)) {
        case UnaryOp::Neg: return {wa, (0 - a) & m};
        case UnaryOp::BitNot: return {wa, ~a & m};
        case UnaryOp::LogNot: return {1, a == 0};
        case UnaryOp::RedAnd: return {1, a == m};
        case UnaryOp::RedOr: return {1, a != 0};
        case UnaryOp::RedXor: {
            uint64_t parity = 0;
            for (uint64_t v = a; v != 0; v >>= 1)
                parity ^= v & 1;
            return {1, parity};
        }
        }
    }
    uint32_t w = std::max(wa, wb);
    uint64_t m = mask(w);
    switch (std::get<BinaryOp>(op)) {
    case BinaryOp::Add: return {w, (a + b) & m};
    case BinaryOp::Sub: return {w, (a - b) & m};
    case BinaryOp::Mul: return {w, (a * b) & m};
    case BinaryOp::Div: return {w, b == 0 ? m : a / b};
    case BinaryOp::Mod: return {w, b == 0 ? a : a % b};
    case BinaryOp::And: return {w, a & b};
    case BinaryOp::Or: return {w, a | b};
    case BinaryOp::Xor: return {w, a ^ b};
    case BinaryOp::Shl: return {wa, b >= wa ? 0 : (a << b) & mask(wa)};
    case BinaryOp::Shr: return {wa, b >= wa ? 0 : a >> b};
    case BinaryOp::Eq: return {1, a == b};
    case BinaryOp::Ne: return {1, a != b};
    case BinaryOp::Lt: return {1, a < b};
    case BinaryOp::Le: return {1, a <= b};
    case BinaryOp::Gt: return {1, a > b};
    case BinaryOp::Ge: return {1, a >= b};
    case BinaryOp::LogAnd: return {1, a != 0 && b != 0};
    case BinaryOp::LogOr: return {1, a != 0 || b != 0};
    }
    return {0, 0};
}

/// Edge operands for width w: 0, 1, 2, shift amounts just below, at and
/// past the width, a middle value and all-ones.
std::vector<uint64_t> edge_values(uint32_t w) {
    std::vector<uint64_t> vals = {0, 1, 2, w - 1u, w, w + 1u, mask(w) >> 1,
                                  mask(w)};
    for (uint64_t& v : vals)
        v &= mask(w);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    return vals;
}

std::string literal(uint32_t w, uint64_t v) {
    std::ostringstream os;
    os << w << "'h" << std::hex << v;
    return os.str();
}

std::string range(uint32_t w) {
    return '[' + std::to_string(w - 1) + ":0]";
}

const hir::Expr& rhs_of(const hir::Design& d, const std::string& net) {
    hir::NetId id = d.find_net(net);
    for (const auto& p : d.processes)
        if (p.body->kind == hir::StmtKind::Assign && p.body->lhs.net == id)
            return *p.body->rhs;
    ADD_FAILURE() << "no assign drives " << net;
    static const hir::ExprPtr none = hir::Expr::make_const(BitVec(1, 0));
    return *none;
}

/// Parameter: an index into all_ops().
class OperatorTable : public ::testing::TestWithParam<size_t> {};

TEST_P(OperatorTable, FoldSimulatorAndSolverAgree) {
    const Op op = all_ops()[GetParam()];
    const std::vector<std::pair<uint32_t, uint32_t>> widths =
        is_unary(op) ? std::vector<std::pair<uint32_t, uint32_t>>{
                           {1, 1}, {3, 1}, {8, 1}, {32, 1}, {64, 1}}
                     : std::vector<std::pair<uint32_t, uint32_t>>{
                           {1, 1}, {8, 8}, {3, 8}, {8, 3}, {32, 32},
                           {64, 64}, {64, 7}};
    for (auto [wa, wb] : widths) {
        SCOPED_TRACE("widths " + std::to_string(wa) + "," +
                     std::to_string(wb));
        // One design per width pair: `o` evaluates the inputs, and each
        // c<k> is the same operator over constants, folded at elaboration.
        std::vector<std::pair<uint64_t, uint64_t>> cases;
        for (uint64_t a : edge_values(wa))
            for (uint64_t b : is_unary(op) ? std::vector<uint64_t>{0}
                                           : edge_values(wb))
                cases.emplace_back(a, b);
        uint32_t wo = model(op, wa, 0, wb, 0).first;
        auto apply = [&](const std::string& a, const std::string& b) {
            return is_unary(op) ? op_text(op) + "(" + a + ")"
                                : "(" + a + ") " + op_text(op) + " (" + b +
                                      ")";
        };
        std::ostringstream src;
        src << policy_header() << "module m(input com " << range(wa)
            << " {T} a, input com " << range(wb) << " {T} b, output com "
            << range(wo) << " {T} o);\n";
        for (size_t k = 0; k < cases.size(); ++k)
            src << "  wire com " << range(wo) << " {T} c" << k << ";\n";
        src << "  assign o = " << apply("a", "b") << ";\n";
        for (size_t k = 0; k < cases.size(); ++k)
            src << "  assign c" << k << " = "
                << apply(literal(wa, cases[k].first),
                         literal(wb, cases[k].second))
                << ";\n";
        src << "endmodule\n";
        auto c = compile(src.str());
        ASSERT_TRUE(c.ok()) << c.errors() << src.str();
        const hir::Design& d = *c.design;

        const hir::Expr& expr = rhs_of(d, "o");
        hir::NetId na = d.find_net("a"), nb = d.find_net("b");
        solver::BitLayout layout;
        layout.fields.push_back({na, false, wa, 0});
        if (!is_unary(op))
            layout.fields.push_back({nb, false, wb, wa});
        layout.nbits = wa + (is_unary(op) ? 0 : wb);
        // eval_term packs every variable into one 64-bit word.
        const bool packed = layout.nbits <= 64;
        solver::Arena arena;
        solver::TermScratch scratch;
        std::optional<solver::TermProgram> prog;
        if (packed)
            prog = solver::compile_term(expr, layout, arena);

        sim::Simulator sim(d);
        for (size_t k = 0; k < cases.size(); ++k) {
            auto [a, b] = cases[k];
            SCOPED_TRACE("a=" + literal(wa, a) + " b=" + literal(wb, b));
            auto [w, v] = model(op, wa, a, wb, b);
            const BitVec want(w, v);

            const hir::Expr& folded = rhs_of(d, 'c' + std::to_string(k));
            ASSERT_EQ(folded.kind, hir::ExprKind::Const);
            EXPECT_EQ(folded.value, want) << "fold " << folded.value.str();

            sim.set_input("a", a);
            sim.set_input("b", b);
            sim.settle();
            EXPECT_EQ(sim.get("o"), want) << "sim " << sim.get("o").str();

            solver::Assignment asg;
            asg.set(na, false, BitVec(wa, a));
            asg.set(nb, false, BitVec(wb, b));
            auto e3 = solver::eval3(expr, asg);
            ASSERT_TRUE(e3.has_value());
            EXPECT_EQ(*e3, want) << "eval3 " << e3->str();

            if (packed) {
                uint64_t values = a | (is_unary(op) ? 0 : b << wa);
                auto term = solver::eval_term(*prog, layout, values,
                                              layout.full_mask(), scratch);
                ASSERT_TRUE(term.has_value());
                EXPECT_EQ(*term, want) << "eval_term " << term->str();
            }
        }
    }
}

std::string op_name(const ::testing::TestParamInfo<size_t>& info) {
    const Op op = all_ops()[info.param];
    static const char* const kUnary[] = {"Neg",    "BitNot", "LogNot",
                                         "RedAnd", "RedOr",  "RedXor"};
    static const char* const kBinary[] = {
        "Add", "Sub", "Mul", "Div", "Mod", "And", "Or",     "Xor",  "Shl",
        "Shr", "Eq",  "Ne",  "Lt",  "Le",  "Gt",  "Ge", "LogAnd", "LogOr"};
    if (is_unary(op))
        return std::string("Unary") +
               kUnary[static_cast<int>(std::get<UnaryOp>(op))];
    return std::string("Binary") +
           kBinary[static_cast<int>(std::get<BinaryOp>(op))];
}

INSTANTIATE_TEST_SUITE_P(AllOps, OperatorTable,
                         ::testing::Range<size_t>(0, all_ops().size()),
                         op_name);

} // namespace
} // namespace svlc::test
