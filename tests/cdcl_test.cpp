// CDCL backend tests: the compiled-term/eval3 equivalence contract, the
// adversarial corners of the conflict-driven search (empty enumeration
// set, deadline expiry mid-search, closure truncation), search-telemetry
// counters (zero for enum), and learned-clause reuse across repeated and
// label-changed queries.
#include "sem/updates.hpp"
#include "solver/arena.hpp"
#include "solver/backend.hpp"
#include "solver/backend_cdcl.hpp"
#include "solver/entail.hpp"
#include "solver/term.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <random>

namespace svlc::test {
namespace {

using hir::BinaryOp;
using hir::Expr;
using hir::ExprPtr;
using hir::UnaryOp;
using solver::Assignment;
using solver::BackendKind;
using solver::EntailmentEngine;
using solver::EntailOptions;
using solver::EntailResult;
using solver::EntailStatus;
using solver::EnumProblem;
using solver::SolverLabel;

// ---------------------------------------------------------------------------
// Compiled terms vs eval3
// ---------------------------------------------------------------------------

/// Random expressions over 3 nets (plain and primed, 8-bit), covering
/// every operator class the compiler lowers.
ExprPtr random_term(std::mt19937_64& rng, int depth) {
    if (depth == 0 || rng() % 4 == 0) {
        if (rng() % 2)
            return Expr::make_const(BitVec(8, rng()));
        return Expr::make_net(static_cast<hir::NetId>(rng() % 3), 8,
                              rng() % 2 == 0);
    }
    auto sub = [&] { return random_term(rng, depth - 1); };
    switch (rng() % 12) {
    case 0: return Expr::make_unary(UnaryOp::BitNot, sub());
    case 1: return Expr::make_unary(UnaryOp::LogNot, sub());
    case 2: return Expr::make_unary(UnaryOp::Neg, sub());
    case 3: return Expr::make_binary(BinaryOp::Add, sub(), sub());
    case 4: return Expr::make_binary(BinaryOp::Sub, sub(), sub());
    case 5: return Expr::make_binary(BinaryOp::Mul, sub(), sub());
    case 6: return Expr::make_binary(BinaryOp::And, sub(), sub());
    case 7: return Expr::make_binary(BinaryOp::Xor, sub(), sub());
    case 8: return Expr::make_binary(BinaryOp::Eq, sub(), sub());
    case 9: return Expr::make_binary(BinaryOp::LogAnd, sub(), sub());
    case 10: return Expr::make_binary(BinaryOp::LogOr, sub(), sub());
    default: return Expr::make_cond(sub(), sub(), sub());
    }
}

TEST(CompiledTerms, EquivalentToEval3UnderPartialAssignments) {
    // The equivalence contract of term.hpp: for any expression and any
    // partial assignment, eval_term over the packed words returns exactly
    // what eval3 returns over the Assignment holding the *complete*
    // fields — same knownness, same value. A partially-assigned field
    // must read as unknown (knownness is variable-granular), which is
    // what keeps the CDCL backend neither more nor less precise than the
    // enum reference.
    solver::BitLayout layout;
    uint32_t off = 0;
    for (hir::NetId n = 0; n < 3; ++n)
        for (bool primed : {false, true}) {
            layout.fields.push_back({n, primed, 8, off});
            off += 8;
        }
    layout.nbits = off;

    std::mt19937_64 rng(20260809);
    solver::Arena arena;
    solver::TermScratch scratch;
    for (int trial = 0; trial < 400; ++trial) {
        ExprPtr e = random_term(rng, 4);
        solver::TermProgram prog = solver::compile_term(*e, layout, arena);
        for (int asg_trial = 0; asg_trial < 8; ++asg_trial) {
            Assignment asg;
            uint64_t values = 0, assigned = 0;
            for (size_t i = 0; i < layout.fields.size(); ++i) {
                const auto& f = layout.fields[i];
                uint64_t fmask = layout.field_mask(i);
                switch (rng() % 3) {
                case 0: // fully assigned: known in both evaluators
                {
                    uint64_t v = rng() & 0xFF;
                    asg.set(f.net, f.primed, BitVec(8, v));
                    values |= v << f.offset;
                    assigned |= fmask;
                    break;
                }
                case 1: // partially assigned: unknown in both
                {
                    uint64_t sub = (rng() << f.offset) & fmask;
                    if (sub == fmask)
                        sub &= fmask >> 1; // keep it a proper subset
                    assigned |= sub;
                    values |= rng() & sub;
                    break;
                }
                default: // unassigned
                    break;
                }
            }
            auto ref = eval3(*e, asg);
            auto packed =
                solver::eval_term(prog, layout, values, assigned, scratch);
            ASSERT_EQ(ref.has_value(), packed.has_value())
                << "trial " << trial << " packed knownness diverged";
            if (ref) {
                EXPECT_EQ(ref->value(), packed->value()) << "trial " << trial;
                EXPECT_EQ(ref->width(), packed->width()) << "trial " << trial;
            }
        }
        if (trial % 50 == 49)
            arena.reset(); // exercise arena reuse mid-campaign
    }
}

// ---------------------------------------------------------------------------
// Backend-level adversarial problems
// ---------------------------------------------------------------------------

struct ProblemFixture {
    Compiled compiled;
    LevelId t, u;

    ProblemFixture()
        : compiled(compile(R"(
lattice { level T; level U; flow T -> U; }
module m(input com {T} a, input com [4:0] {T} x5, input com [4:0] {T} y5,
         input com [7:0] {T} x8, input com [7:0] {T} y8);
endmodule
)")) {
        EXPECT_TRUE(compiled.ok()) << compiled.errors();
        t = *compiled.design->policy.lattice().find("T");
        u = *compiled.design->policy.lattice().find("U");
    }
    hir::Design& design() { return *compiled.design; }
    hir::NetId net(const char* name) { return compiled.design->find_net(name); }
};

void expect_same_result(const EntailResult& ref, const EntailResult& got,
                        const char* what) {
    EXPECT_EQ(ref.status, got.status) << what;
    EXPECT_EQ(ref.detail, got.detail) << what;
    EXPECT_EQ(ref.timed_out, got.timed_out) << what;
    ASSERT_EQ(ref.witness.has_value(), got.witness.has_value()) << what;
    if (ref.witness) {
        EXPECT_EQ(ref.witness->lhs_level, got.witness->lhs_level) << what;
        EXPECT_EQ(ref.witness->rhs_level, got.witness->rhs_level) << what;
        ASSERT_EQ(ref.witness->bindings.size(), got.witness->bindings.size())
            << what;
        for (size_t i = 0; i < ref.witness->bindings.size(); ++i) {
            EXPECT_EQ(ref.witness->bindings[i].net,
                      got.witness->bindings[i].net) << what;
            EXPECT_EQ(ref.witness->bindings[i].primed,
                      got.witness->bindings[i].primed) << what;
            EXPECT_EQ(ref.witness->bindings[i].value.value(),
                      got.witness->bindings[i].value.value()) << what;
        }
    }
}

TEST(CdclAdversarial, EmptyEnumerationSetMatchesEnum) {
    // domain == 1: a single empty candidate. The CDCL backend must reach
    // the same three verdict shapes as enum — flows (Proven), a definite
    // violation (Refuted, empty witness), and an undecidable fact
    // (Unknown with enum's exact note).
    ProblemFixture fx;
    SolverLabel lt = SolverLabel::level(fx.t), lu = SolverLabel::level(fx.u);
    auto enum_be = solver::make_backend(BackendKind::Enum);
    auto cdcl_be = solver::make_cdcl_backend();

    std::vector<const Expr*> no_facts;
    {
        EnumProblem p{fx.design(), lt, lu, no_facts, {}, 1, {}};
        EntailResult ref = enum_be->enumerate(p);
        EXPECT_EQ(ref.status, EntailStatus::Proven);
        expect_same_result(ref, cdcl_be->enumerate(p), "flows/empty");
    }
    {
        EnumProblem p{fx.design(), lu, lt, no_facts, {}, 1, {}};
        EntailResult ref = enum_be->enumerate(p);
        EXPECT_EQ(ref.status, EntailStatus::Refuted);
        ASSERT_TRUE(ref.witness.has_value());
        EXPECT_TRUE(ref.witness->bindings.empty());
        expect_same_result(ref, cdcl_be->enumerate(p), "refuted/empty");
    }
    {
        // The fact reads a net outside the (empty) enumeration set: it is
        // permanently unknown, so the single candidate is only possibly
        // reachable.
        ExprPtr fact = Expr::make_net(fx.net("a"), 1, false);
        std::vector<const Expr*> facts{fact.get()};
        EnumProblem p{fx.design(), lu, lt, facts, {}, 1, {}};
        EntailResult ref = enum_be->enumerate(p);
        EXPECT_EQ(ref.status, EntailStatus::Unknown);
        EXPECT_NE(ref.detail.find("possibly-reachable violation"),
                  std::string::npos) << ref.detail;
        expect_same_result(ref, cdcl_be->enumerate(p), "unknown/empty");
    }
}

TEST(CdclAdversarial, DeadlineExpiryMidSearchFiresWithin1024) {
    // An expired deadline must surface as enum's exact timeout verdict in
    // every backend, even though the check is amortized to every 1024th
    // candidate (the DeadlineGate hoist). The fact (x8 & y8) == 255 puts
    // the only satisfying candidate at the very top of the 2^16 space and
    // its support spans every bit, which defeats cdcl's clause-guided
    // sweep jumps — every backend must walk candidate by candidate and
    // hit the gate.
    ProblemFixture fx;
    SolverLabel lt = SolverLabel::level(fx.t), lu = SolverLabel::level(fx.u);
    ExprPtr fact = Expr::make_binary(
        BinaryOp::Eq,
        Expr::make_binary(BinaryOp::And, Expr::make_net(fx.net("x8"), 8, false),
                          Expr::make_net(fx.net("y8"), 8, false)),
        Expr::make_const(BitVec(8, 255)));
    std::vector<const Expr*> facts{fact.get()};
    EnumProblem p{fx.design(), lu, lt, facts, {}, 1, {}};
    p.vars = {{fx.net("x8"), false, 8}, {fx.net("y8"), false, 8}};
    p.domain = uint64_t{1} << 16;

    // Sanity first: without a deadline both agree on the refutation at
    // the top of the space (x8=255 y8=255).
    EntailResult ref = solver::make_backend(BackendKind::Enum)->enumerate(p);
    EXPECT_EQ(ref.status, EntailStatus::Refuted);
    ASSERT_TRUE(ref.witness.has_value());
    expect_same_result(ref,
                       solver::make_backend(BackendKind::Cdcl)->enumerate(p),
                       "cdcl");

    p.deadline = std::chrono::steady_clock::now() - std::chrono::seconds(1);
    for (BackendKind kind : {BackendKind::Enum, BackendKind::Cdcl}) {
        auto be = solver::make_backend(kind);
        EntailResult r = be->enumerate(p);
        EXPECT_EQ(r.status, EntailStatus::Unknown) << be->id();
        EXPECT_TRUE(r.timed_out) << be->id();
        EXPECT_EQ(r.detail, "entailment deadline exceeded mid-enumeration")
            << be->id();
        if (kind != BackendKind::Cdcl) {
            EXPECT_LE(r.candidates, 1024u)
                << be->id() << ": gate fired later than one amortization "
                << "window after expiry";
        }
    }
}

TEST(DeadlineGate, ExpiredDeadlineFiresExactlyAtTheWindow) {
    // Regression for the hoisted per-candidate deadline check: with an
    // already-expired deadline the gate must report expiry no later than
    // the 1024th tick, and stay expired forever after.
    solver::backend_detail::DeadlineGate gate(
        std::chrono::steady_clock::now() - std::chrono::seconds(1));
    for (int i = 1; i < 1024; ++i)
        EXPECT_FALSE(gate.tick()) << "tick " << i;
    EXPECT_TRUE(gate.tick());
    EXPECT_TRUE(gate.tick());
}

TEST(DeadlineGate, UnsetDeadlineNeverFires) {
    solver::backend_detail::DeadlineGate gate({});
    for (int i = 0; i < 4096; ++i)
        ASSERT_FALSE(gate.tick());
}

// ---------------------------------------------------------------------------
// Engine-level behaviour
// ---------------------------------------------------------------------------

struct EngineFixture {
    Compiled compiled;
    sem::Equations eqs;

    explicit EngineFixture(const std::string& src) {
        compiled = compile(src);
        EXPECT_TRUE(compiled.ok()) << compiled.errors();
        eqs = sem::build_equations(*compiled.design);
    }
    hir::Design& design() { return *compiled.design; }
    LevelId level(const char* name) {
        return *design().policy.lattice().find(name);
    }
};

const char* kTwoFiveBit = R"(
lattice { level T; level U; flow T -> U; }
module m(input com [4:0] {T} x, input com [4:0] {T} y);
endmodule
)";

TEST(CdclCounters, SearchTelemetryIsObservableAndZeroForEnumPrune) {
    // 2^10 candidates (above the direct-sweep cutoff) with two pinning
    // equality facts: the CDCL backend must propagate the pins, and every
    // backend must agree on the witness x=5 y=7.
    EngineFixture fx(kTwoFiveBit);
    hir::NetId x = fx.design().find_net("x"), y = fx.design().find_net("y");
    auto f1 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(x, 5, false),
                                Expr::make_const(BitVec(5, 5)));
    auto f2 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(y, 5, false),
                                Expr::make_const(BitVec(5, 7)));
    std::vector<const Expr*> facts{f1.get(), f2.get()};
    SolverLabel lu = SolverLabel::level(fx.level("U"));
    SolverLabel lt = SolverLabel::level(fx.level("T"));

    EntailResult reference;
    for (BackendKind kind : {BackendKind::Enum, BackendKind::Cdcl}) {
        EntailOptions opts;
        opts.backend = kind;
        EntailmentEngine engine(fx.design(), fx.eqs, opts);
        EntailResult r = engine.check_flow(lu, lt, facts);
        EXPECT_EQ(r.status, EntailStatus::Refuted);
        if (kind == BackendKind::Enum)
            reference = r;
        else
            expect_same_result(reference, r, solver::backend_id(kind));
        const auto& st = engine.stats();
        if (kind == BackendKind::Cdcl) {
            EXPECT_GT(st.propagations, 0u) << "pins must propagate";
            EXPECT_EQ(st.propagations, r.propagations);
        } else {
            EXPECT_EQ(st.conflicts, 0u) << solver::backend_id(kind);
            EXPECT_EQ(st.propagations, 0u) << solver::backend_id(kind);
            EXPECT_EQ(st.learned_clauses, 0u) << solver::backend_id(kind);
            EXPECT_EQ(st.restarts, 0u) << solver::backend_id(kind);
        }
    }
}

const char* kModeSwitch = R"(
lattice { level T; level U; flow T -> U; }
function lb(x:1) { 0 -> T; default -> U; }
module m(input com {T} go, input com [7:0] {U} din);
  reg seq {T} mode;
  reg seq [7:0] {lb(mode)} r;
  wire com {T} flip;
  assign flip = go;
  always @(seq) begin
    if (flip) mode <= ~mode;
  end
endmodule
)";

/// The next-cycle query of solver_test's PrimedTargetUsesEquations: U data
/// into lb(mode') under facts mode == 1 and ¬flip, provable only through
/// the defining-equation closure.
EntailResult primed_query(EngineFixture& fx, EntailOptions opts) {
    EntailmentEngine engine(fx.design(), fx.eqs, opts);
    FuncId lb = *fx.design().policy.find_function("lb");
    hir::NetId mode = fx.design().find_net("mode");
    hir::NetId flip = fx.design().find_net("flip");
    SolverLabel next_dep;
    solver::SolverAtom atom;
    atom.kind = solver::SolverAtom::Kind::Func;
    atom.func = lb;
    atom.args.push_back({mode, true});
    next_dep.atoms.push_back(atom);
    auto f1 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(mode, 1, false),
                                Expr::make_const(BitVec(1, 1)));
    auto f2 = Expr::make_unary(UnaryOp::LogNot,
                               Expr::make_net(flip, 1, false));
    std::vector<const Expr*> facts{f1.get(), f2.get()};
    return engine.check_flow(SolverLabel::level(*fx.design()
                                                     .policy.lattice()
                                                     .find("U")),
                             next_dep, facts);
}

TEST(CdclAdversarial, ClosureTruncationDegradesIdenticallyToEnum) {
    // Dropping the defining-equation closure surrenders the proof — and
    // must surrender it the same way in every backend: Proven with the
    // closure, the identical non-Proven verdict without it. A backend
    // that "proves" past a truncated closure would be unsound.
    EngineFixture fx(kModeSwitch);
    for (bool ablate : {false, true}) {
        EntailResult by_kind[2];
        int i = 0;
        for (BackendKind kind : {BackendKind::Enum, BackendKind::Cdcl}) {
            EntailOptions opts;
            opts.backend = kind;
            opts.use_equations = !ablate;
            by_kind[i++] = primed_query(fx, opts);
        }
        if (!ablate)
            EXPECT_EQ(by_kind[0].status, EntailStatus::Proven);
        else
            EXPECT_NE(by_kind[0].status, EntailStatus::Proven);
        expect_same_result(by_kind[0], by_kind[1], "cdcl");
    }
}

TEST(CdclClauses, ReuseAcrossRepeatAndLabelChangedQueries) {
    // One engine, many obligations: the per-job ClauseDB must survive a
    // repeated query (same facts, same labels), survive a label-only
    // change (label-dependent clauses dropped, fact clauses kept), and
    // still answer every query exactly as a fresh enum engine does.
    EngineFixture fx(kTwoFiveBit);
    hir::NetId x = fx.design().find_net("x"), y = fx.design().find_net("y");
    auto f1 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(x, 5, false),
                                Expr::make_const(BitVec(5, 5)));
    auto f2 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(y, 5, false),
                                Expr::make_const(BitVec(5, 7)));
    std::vector<const Expr*> facts{f1.get(), f2.get()};
    SolverLabel lu = SolverLabel::level(fx.level("U"));
    SolverLabel lt = SolverLabel::level(fx.level("T"));

    EntailOptions copts;
    copts.backend = BackendKind::Cdcl;
    EntailmentEngine cdcl(fx.design(), fx.eqs, copts);

    // (lhs, rhs) sequence: refuted, repeated, label-flipped, repeated.
    std::vector<std::pair<SolverLabel, SolverLabel>> queries{
        {lu, lt}, {lu, lt}, {lt, lu}, {lu, lt}};
    for (size_t qi = 0; qi < queries.size(); ++qi) {
        EntailOptions eopts;
        eopts.backend = BackendKind::Enum;
        EntailmentEngine fresh_enum(fx.design(), fx.eqs, eopts);
        EntailResult ref = fresh_enum.check_flow(queries[qi].first,
                                                 queries[qi].second, facts);
        EntailResult got =
            cdcl.check_flow(queries[qi].first, queries[qi].second, facts);
        expect_same_result(ref, got,
                           ("query " + std::to_string(qi)).c_str());
    }
}

} // namespace
} // namespace svlc::test
