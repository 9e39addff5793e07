// The operator table: the one definition of SecVerilogLC's unary and
// binary operators, shared by the AST and the HIR. It fixes each
// operator's spelling (HIR dump and Verilog emitter) and its
// bit-vector value (constant folding, the simulator and both solver
// evaluators), so the checker's equations, the simulated hardware and the
// emitted Verilog cannot disagree on what an operator computes.
//
// The switches below have no `default:`, so an operator added to an enum
// and missed here is a -Wswitch warning, which CI builds as an error.
#pragma once

#include "support/bitvec.hpp"

namespace svlc::ast {

enum class UnaryOp { Neg, BitNot, LogNot, RedAnd, RedOr, RedXor };
enum class BinaryOp {
    Add, Sub, Mul, Div, Mod,
    And, Or, Xor,
    Shl, Shr,
    Eq, Ne, Lt, Le, Gt, Ge,
    LogAnd, LogOr,
};

const char* unary_op_text(UnaryOp op);
const char* binary_op_text(BinaryOp op);

/// The value of `op v`. Inline so that the cdcl and simulator hot loops
/// compile the same switch they always did.
inline BitVec eval_unary(UnaryOp op, BitVec v) {
    switch (op) {
    case UnaryOp::Neg: return BitVec(v.width(), 0) - v;
    case UnaryOp::BitNot: return v.bit_not();
    case UnaryOp::LogNot: return v.log_not();
    case UnaryOp::RedAnd: return v.red_and();
    case UnaryOp::RedOr: return v.red_or();
    case UnaryOp::RedXor: return v.red_xor();
    }
    return v; // unreachable: the switch covers every UnaryOp
}

/// The value of `a op b`, evaluating both operands: `&&` and `||` are
/// `log_and` and `log_or`. Callers that short-circuit, or that know only
/// one operand, decide those cases before calling.
inline BitVec eval_binary(BinaryOp op, BitVec a, BitVec b) {
    switch (op) {
    case BinaryOp::Add: return a + b;
    case BinaryOp::Sub: return a - b;
    case BinaryOp::Mul: return a * b;
    case BinaryOp::Div: return a / b;
    case BinaryOp::Mod: return a % b;
    case BinaryOp::And: return a & b;
    case BinaryOp::Or: return a | b;
    case BinaryOp::Xor: return a ^ b;
    case BinaryOp::Shl: return a << b;
    case BinaryOp::Shr: return a >> b;
    case BinaryOp::Eq: return a.eq(b);
    case BinaryOp::Ne: return a.ne(b);
    case BinaryOp::Lt: return a.lt(b);
    case BinaryOp::Le: return a.le(b);
    case BinaryOp::Gt: return a.gt(b);
    case BinaryOp::Ge: return a.ge(b);
    case BinaryOp::LogAnd: return a.log_and(b);
    case BinaryOp::LogOr: return a.log_or(b);
    }
    return a; // unreachable: the switch covers every BinaryOp
}

} // namespace svlc::ast
