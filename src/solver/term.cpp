#include "solver/term.hpp"

#include <cassert>

namespace svlc::solver {

using namespace hir;

namespace {

struct Compiler {
    const BitLayout& layout;
    std::vector<TermInstr> code;
    uint64_t support = 0;
    uint32_t depth = 0, max_depth = 0;

    void push(TermInstr instr, int stack_delta) {
        code.push_back(instr);
        depth = static_cast<uint32_t>(static_cast<int>(depth) + stack_delta);
        if (depth > max_depth)
            max_depth = depth;
    }

    void compile(const Expr& e) {
        switch (e.kind) {
        case ExprKind::Const: {
            TermInstr i;
            i.op = TermOp::Const;
            i.width = e.value.width();
            i.imm = e.value.value();
            push(i, +1);
            return;
        }
        case ExprKind::NetRef: {
            int f = layout.find(e.net, e.primed);
            TermInstr i;
            if (f < 0) {
                // Not enumerated: unknown under every backend assignment,
                // exactly as eval3 over an assignment covering the
                // enumeration set.
                i.op = TermOp::Unknown;
            } else {
                i.op = TermOp::Var;
                i.var = f;
                i.width = layout.fields[static_cast<size_t>(f)].width;
                support |= layout.field_mask(static_cast<size_t>(f));
            }
            push(i, +1);
            return;
        }
        case ExprKind::ArrayRead: {
            // eval3 returns unknown without evaluating the index, so the
            // value depends on nothing; compile a bare Unknown.
            TermInstr i;
            i.op = TermOp::Unknown;
            push(i, +1);
            return;
        }
        case ExprKind::Slice: {
            compile(*e.a);
            TermInstr i;
            i.op = TermOp::Slice;
            i.a = e.msb;
            i.b = e.lsb;
            push(i, 0);
            return;
        }
        case ExprKind::Unary: {
            compile(*e.a);
            TermInstr i;
            i.op = TermOp::Unary;
            i.sub = static_cast<uint8_t>(e.un_op);
            push(i, 0);
            return;
        }
        case ExprKind::Binary: {
            compile(*e.a);
            compile(*e.b);
            TermInstr i;
            i.op = TermOp::Binary;
            i.sub = static_cast<uint8_t>(e.bin_op);
            i.width = e.width; // And/Mul zero-shortcut result width
            push(i, -1);
            return;
        }
        case ExprKind::Cond: {
            compile(*e.a);
            compile(*e.b);
            compile(*e.c);
            TermInstr i;
            i.op = TermOp::Cond;
            push(i, -2);
            return;
        }
        case ExprKind::Concat: {
            for (const auto& p : e.parts)
                compile(*p);
            TermInstr i;
            i.op = TermOp::Concat;
            i.a = static_cast<uint32_t>(e.parts.size());
            push(i, -(static_cast<int>(e.parts.size()) - 1));
            return;
        }
        case ExprKind::Downgrade:
            // Transparent to evaluation (eval3 recurses straight through).
            compile(*e.a);
            return;
        }
        assert(false && "unreachable");
    }
};

} // namespace

TermProgram compile_term(const Expr& e, const BitLayout& layout,
                         Arena& arena) {
    Compiler c{layout, {}, 0, 0, 0};
    c.compile(e);
    TermProgram p;
    p.size = static_cast<uint32_t>(c.code.size());
    p.max_stack = c.max_depth;
    p.support = c.support;
    TermInstr* code = arena.allocate<TermInstr>(c.code.size());
    for (size_t i = 0; i < c.code.size(); ++i)
        code[i] = c.code[i];
    p.code = code;
    return p;
}

/// Replicates eval3's rules instruction for instruction; a variable reads
/// as known iff every bit of its field is assigned.
std::optional<BitVec> eval_term(const TermProgram& p, const BitLayout& layout,
                                uint64_t values, uint64_t assigned,
                                TermScratch& scratch) {
    auto& st = scratch.stack;
    st.clear();
    if (st.capacity() < p.max_stack)
        st.reserve(p.max_stack);
    using Val = TermScratch::Val;

    for (uint32_t pc = 0; pc < p.size; ++pc) {
        const TermInstr& i = p.code[pc];
        switch (i.op) {
        case TermOp::Const:
            st.push_back(Val{true, BitVec(i.width, i.imm)});
            break;
        case TermOp::Var: {
            const BitLayout::Field& f =
                layout.fields[static_cast<size_t>(i.var)];
            uint64_t fmask = BitVec::mask(f.width);
            bool known = ((assigned >> f.offset) & fmask) == fmask;
            st.push_back(Val{known, known ? BitVec(f.width,
                                                   (values >> f.offset) & fmask)
                                          : BitVec()});
            break;
        }
        case TermOp::Unknown:
            st.push_back(Val{false, BitVec()});
            break;
        case TermOp::Slice: {
            Val& v = st.back();
            if (v.known)
                v.v = v.v.slice(i.a, i.b);
            break;
        }
        case TermOp::Unary: {
            Val& v = st.back();
            if (!v.known)
                break;
            switch (static_cast<UnaryOp>(i.sub)) {
            case UnaryOp::Neg: v.v = BitVec(v.v.width(), 0) - v.v; break;
            case UnaryOp::BitNot: v.v = v.v.bit_not(); break;
            case UnaryOp::LogNot: v.v = v.v.log_not(); break;
            case UnaryOp::RedAnd: v.v = v.v.red_and(); break;
            case UnaryOp::RedOr: v.v = v.v.red_or(); break;
            case UnaryOp::RedXor: v.v = v.v.red_xor(); break;
            }
            break;
        }
        case TermOp::Binary: {
            Val b = st.back();
            st.pop_back();
            Val& a = st.back();
            auto op = static_cast<BinaryOp>(i.sub);
            // Short-circuit rules, exactly eval3's.
            if (op == BinaryOp::LogAnd) {
                if ((a.known && a.v.is_zero()) || (b.known && b.v.is_zero()))
                    a = Val{true, BitVec(1, 0)};
                else if (a.known && b.known)
                    a.v = a.v.log_and(b.v);
                else
                    a.known = false;
                break;
            }
            if (op == BinaryOp::LogOr) {
                if ((a.known && a.v.to_bool()) || (b.known && b.v.to_bool()))
                    a = Val{true, BitVec(1, 1)};
                else if (a.known && b.known)
                    a.v = a.v.log_or(b.v);
                else
                    a.known = false;
                break;
            }
            if (op == BinaryOp::And || op == BinaryOp::Mul) {
                if ((a.known && a.v.is_zero()) || (b.known && b.v.is_zero())) {
                    a = Val{true, BitVec(i.width, 0)};
                    break;
                }
            }
            if (!a.known || !b.known) {
                a.known = false;
                break;
            }
            switch (op) {
            case BinaryOp::Add: a.v = a.v + b.v; break;
            case BinaryOp::Sub: a.v = a.v - b.v; break;
            case BinaryOp::Mul: a.v = a.v * b.v; break;
            case BinaryOp::Div: a.v = a.v / b.v; break;
            case BinaryOp::Mod: a.v = a.v % b.v; break;
            case BinaryOp::And: a.v = a.v & b.v; break;
            case BinaryOp::Or: a.v = a.v | b.v; break;
            case BinaryOp::Xor: a.v = a.v ^ b.v; break;
            case BinaryOp::Shl: a.v = a.v << b.v; break;
            case BinaryOp::Shr: a.v = a.v >> b.v; break;
            case BinaryOp::Eq: a.v = a.v.eq(b.v); break;
            case BinaryOp::Ne: a.v = a.v.ne(b.v); break;
            case BinaryOp::Lt: a.v = a.v.lt(b.v); break;
            case BinaryOp::Le: a.v = a.v.le(b.v); break;
            case BinaryOp::Gt: a.v = a.v.gt(b.v); break;
            case BinaryOp::Ge: a.v = a.v.ge(b.v); break;
            case BinaryOp::LogAnd:
            case BinaryOp::LogOr: break; // handled above
            }
            break;
        }
        case TermOp::Cond: {
            Val f = st.back();
            st.pop_back();
            Val t = st.back();
            st.pop_back();
            Val& c = st.back();
            if (c.known)
                c = c.v.to_bool() ? t : f;
            else if (t.known && f.known && t.v == f.v)
                c = t; // both branches agree; selector irrelevant
            else
                c.known = false;
            break;
        }
        case TermOp::Concat: {
            size_t base = st.size() - i.a;
            Val acc = st[base];
            for (uint32_t k = 1; k < i.a && acc.known; ++k) {
                const Val& part = st[base + k];
                if (!part.known)
                    acc.known = false;
                else
                    acc.v = acc.v.concat(part.v);
            }
            st.resize(base);
            st.push_back(acc);
            break;
        }
        }
    }

    assert(st.size() == 1);
    if (!st.back().known)
        return std::nullopt;
    return st.back().v;
}

} // namespace svlc::solver
