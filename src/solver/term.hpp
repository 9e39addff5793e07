// Compiled solver terms.
//
// The cdcl backend evaluates the same fact expressions millions of
// times with only the candidate assignment changing. This module compiles
// an hir::Expr once into a flat postfix instruction sequence (bump-
// allocated in an Arena, so a whole fact set is contiguous in memory) and
// evaluates it against a *bit-packed* candidate word.
//
// Bit packing: every enumerated variable owns a contiguous field of one
// uint64_t, least-significant digit first. Because enumerated widths are
// powers of two, the packed word of a candidate IS its mixed-radix index —
// integer order on words is exactly the mixed-radix enumeration order the
// backend contract's witness rule is defined over, and a partial
// assignment is just a (values, assigned-mask) pair of words.
//
// Equivalence contract (tests/cdcl_test.cpp checks this exhaustively):
// eval_term over (values, assigned) returns exactly what eval3 returns
// over the Assignment holding the *complete* variables of `assigned` —
// same values, same knownness. Knownness is variable-granular (a variable
// is known only when every bit of its field is assigned) and the operator
// shortcut rules replicate eval3's literally, so the compiled form is
// neither more nor less precise than the reference evaluator. That
// equivalence is what keeps the CDCL backend verdict-equivalent to enum.
#pragma once

#include "sem/hir.hpp"
#include "solver/arena.hpp"
#include "solver/eval3.hpp"
#include "support/bitvec.hpp"

#include <cstdint>
#include <optional>
#include <vector>

namespace svlc::solver {

/// Bit layout of an enumeration problem over packed uint64_t words.
struct BitLayout {
    struct Field {
        hir::NetId net = hir::kInvalidNet;
        bool primed = false;
        uint32_t width = 0;
        uint32_t offset = 0; ///< low bit position in the packed word
    };
    std::vector<Field> fields;
    uint32_t nbits = 0;

    [[nodiscard]] int find(hir::NetId net, bool primed) const {
        for (size_t i = 0; i < fields.size(); ++i)
            if (fields[i].net == net && fields[i].primed == primed)
                return static_cast<int>(i);
        return -1;
    }
    [[nodiscard]] uint64_t field_mask(size_t i) const {
        const Field& f = fields[i];
        return (BitVec::mask(f.width)) << f.offset;
    }
    [[nodiscard]] uint64_t full_mask() const {
        return nbits == 0 ? 0 : BitVec::mask(nbits);
    }
};

enum class TermOp : uint8_t {
    Const,   ///< push immediate (imm, width)
    Var,     ///< push enumerated variable (var = field index)
    Unknown, ///< push unknown (array reads, out-of-set nets)
    Slice,   ///< pop v, push v[a:b]
    Unary,   ///< pop v, push op(v); sub = UnaryOp
    Binary,  ///< pop b, a; push a op b; sub = BinaryOp, width = expr width
    Cond,    ///< pop f, t, c; push c ? t : f
    Concat,  ///< pop a parts (a = count, part 0 most significant)
};

struct TermInstr {
    TermOp op = TermOp::Unknown;
    uint8_t sub = 0;
    uint32_t width = 1;
    uint32_t a = 0, b = 0;
    uint64_t imm = 0;
    int32_t var = -1;
};

/// One compiled term: an instruction span living in an Arena.
struct TermProgram {
    const TermInstr* code = nullptr;
    uint32_t size = 0;
    uint32_t max_stack = 0;
    /// Packed-word mask of every enumerated bit the term's value can
    /// depend on (array-read indices excluded: the read is unknown
    /// regardless of the index, so the value never depends on them).
    uint64_t support = 0;
};

/// Compiles `e` against `layout`, bump-allocating the code into `arena`.
TermProgram compile_term(const hir::Expr& e, const BitLayout& layout,
                         Arena& arena);

/// Reusable evaluation scratch (avoids a per-call allocation).
struct TermScratch {
    struct Val {
        bool known = false;
        BitVec v;
    };
    std::vector<Val> stack;
};

/// Evaluates a compiled term over a packed partial assignment: a variable
/// reads as known iff every bit of its field is set in `assigned`.
/// nullopt = unknown, exactly as eval3.
std::optional<BitVec> eval_term(const TermProgram& p, const BitLayout& layout,
                                uint64_t values, uint64_t assigned,
                                TermScratch& scratch);

} // namespace svlc::solver
