// Solver unit tests: three-valued evaluation soundness (property-based),
// label evaluation, syntactic coverage, congruence, enumeration behaviour
// and budgets, and counterexample reporting.
#include "sem/updates.hpp"
#include "sim/simulator.hpp"
#include "solver/entail.hpp"
#include "solver/eval3.hpp"
#include "test_util.hpp"

#include <gtest/gtest.h>

#include <random>

namespace svlc::test {
namespace {

using hir::BinaryOp;
using hir::Expr;
using hir::ExprPtr;
using hir::UnaryOp;
using solver::Assignment;
using solver::EntailmentEngine;
using solver::EntailStatus;
using solver::SolverLabel;

// ---------------------------------------------------------------------------
// eval3 — unit + property
// ---------------------------------------------------------------------------

TEST(Eval3, ConstantsAndUnknowns) {
    Assignment asg;
    auto c = Expr::make_const(BitVec(8, 42));
    EXPECT_EQ(eval3(*c, asg)->value(), 42u);
    auto n = Expr::make_net(3, 8, false);
    EXPECT_FALSE(eval3(*n, asg).has_value());
    asg.set(3, false, BitVec(8, 7));
    EXPECT_EQ(eval3(*n, asg)->value(), 7u);
    // Primed and plain values are distinct.
    auto np = Expr::make_net(3, 8, true);
    EXPECT_FALSE(eval3(*np, asg).has_value());
}

TEST(Eval3, ShortCircuitsStaySoundUnderUnknowns) {
    Assignment asg;
    auto unknown = [] { return Expr::make_net(9, 1, false); };
    auto f = Expr::make_const(BitVec(1, 0));
    auto t = Expr::make_const(BitVec(1, 1));
    // unknown && false == false
    auto e1 = Expr::make_binary(BinaryOp::LogAnd, unknown(), f->clone());
    EXPECT_EQ(eval3(*e1, asg)->value(), 0u);
    // unknown || true == true
    auto e2 = Expr::make_binary(BinaryOp::LogOr, unknown(), t->clone());
    EXPECT_EQ(eval3(*e2, asg)->value(), 1u);
    // unknown & 0 == 0 (bitwise)
    auto e3 = Expr::make_binary(BinaryOp::And, Expr::make_net(9, 8, false),
                                Expr::make_const(BitVec(8, 0)));
    EXPECT_EQ(eval3(*e3, asg)->value(), 0u);
    // unknown + 0 is unknown
    auto e4 = Expr::make_binary(BinaryOp::Add, Expr::make_net(9, 8, false),
                                Expr::make_const(BitVec(8, 0)));
    EXPECT_FALSE(eval3(*e4, asg).has_value());
}

TEST(Eval3, CondWithEqualBranchesIgnoresSelector) {
    Assignment asg;
    auto e = Expr::make_cond(Expr::make_net(5, 1, false),
                             Expr::make_const(BitVec(8, 9)),
                             Expr::make_const(BitVec(8, 9)));
    EXPECT_EQ(eval3(*e, asg)->value(), 9u);
}

/// Property: whenever eval3 returns a value under a *partial* assignment,
/// the concrete evaluation under every random total extension agrees.
class Eval3Soundness : public ::testing::TestWithParam<uint64_t> {};

ExprPtr random_expr(std::mt19937_64& rng, int depth) {
    if (depth == 0 || rng() % 4 == 0) {
        if (rng() % 2)
            return Expr::make_const(BitVec(8, rng()));
        return Expr::make_net(static_cast<hir::NetId>(rng() % 4), 8,
                              rng() % 2 == 0);
    }
    switch (rng() % 8) {
    case 0:
        return Expr::make_unary(UnaryOp::BitNot, random_expr(rng, depth - 1));
    case 1:
        return Expr::make_unary(UnaryOp::LogNot, random_expr(rng, depth - 1));
    case 2:
        return Expr::make_binary(BinaryOp::Add, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1));
    case 3:
        return Expr::make_binary(BinaryOp::And, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1));
    case 4:
        return Expr::make_binary(BinaryOp::LogOr, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1));
    case 5:
        return Expr::make_binary(BinaryOp::Eq, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1));
    case 6:
        return Expr::make_cond(random_expr(rng, depth - 1),
                               random_expr(rng, depth - 1),
                               random_expr(rng, depth - 1));
    default:
        return Expr::make_binary(BinaryOp::Mul, random_expr(rng, depth - 1),
                                 random_expr(rng, depth - 1));
    }
}

TEST_P(Eval3Soundness, PartialResultAgreesWithEveryExtension) {
    std::mt19937_64 rng(GetParam());
    for (int trial = 0; trial < 50; ++trial) {
        ExprPtr e = random_expr(rng, 4);
        // Partial assignment: each of the 4 nets known with prob 1/2
        // (independently for plain and primed).
        Assignment partial;
        for (hir::NetId n = 0; n < 4; ++n) {
            if (rng() % 2)
                partial.set(n, false, BitVec(8, rng()));
            if (rng() % 2)
                partial.set(n, true, BitVec(8, rng()));
        }
        auto partial_result = eval3(*e, partial);
        if (!partial_result)
            continue; // unknown never claims anything
        for (int ext = 0; ext < 8; ++ext) {
            Assignment total = partial;
            for (hir::NetId n = 0; n < 4; ++n) {
                if (!total.get(n, false))
                    total.set(n, false, BitVec(8, rng()));
                if (!total.get(n, true))
                    total.set(n, true, BitVec(8, rng()));
            }
            auto total_result = eval3(*e, total);
            ASSERT_TRUE(total_result.has_value());
            EXPECT_EQ(total_result->value(), partial_result->value())
                << "seed " << GetParam() << " trial " << trial;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Eval3Soundness,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ---------------------------------------------------------------------------
// Entailment engine
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

const char* kTwoRegs = R"(
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

TEST(Entailment, SyntacticBottomAndIdentity) {
    EngineFixture fx(kTwoRegs);
    EntailmentEngine engine(fx.design(), fx.eqs);
    auto bot = SolverLabel::bottom();
    auto t = SolverLabel::level(fx.level("T"));
    auto u = SolverLabel::level(fx.level("U"));
    EXPECT_TRUE(engine.check_flow(bot, u, {}).proven());
    EXPECT_TRUE(engine.check_flow(t, t, {}).proven());
    EXPECT_TRUE(engine.check_flow(t, u, {}).syntactic);
    auto res = engine.check_flow(u, t, {});
    EXPECT_EQ(res.status, EntailStatus::Refuted);
}

TEST(Entailment, FunctionRangeBound) {
    EngineFixture fx(kTwoRegs);
    EntailmentEngine engine(fx.design(), fx.eqs);
    FuncId lb = *fx.design().policy.find_function("lb");
    hir::NetId mode = fx.design().find_net("mode");
    SolverLabel dep;
    solver::SolverAtom atom;
    atom.kind = solver::SolverAtom::Kind::Func;
    atom.func = lb;
    atom.args.push_back({mode, false});
    dep.atoms.push_back(atom);
    // lb's whole range flows to U: syntactic.
    auto res = engine.check_flow(dep, SolverLabel::level(fx.level("U")), {});
    EXPECT_TRUE(res.proven());
    EXPECT_TRUE(res.syntactic);
    // But not to T.
    EXPECT_FALSE(
        engine.check_flow(dep, SolverLabel::level(fx.level("T")), {})
            .proven());
}

TEST(Entailment, FactsPruneCandidates) {
    EngineFixture fx(kTwoRegs);
    EntailmentEngine engine(fx.design(), fx.eqs);
    FuncId lb = *fx.design().policy.find_function("lb");
    hir::NetId mode = fx.design().find_net("mode");
    SolverLabel dep;
    solver::SolverAtom atom;
    atom.kind = solver::SolverAtom::Kind::Func;
    atom.func = lb;
    atom.args.push_back({mode, false});
    dep.atoms.push_back(atom);
    // Under the fact mode == 0, lb(mode) ⊑ T.
    auto fact = Expr::make_binary(BinaryOp::Eq,
                                  Expr::make_net(mode, 1, false),
                                  Expr::make_const(BitVec(1, 0)));
    std::vector<const Expr*> facts{fact.get()};
    EXPECT_TRUE(
        engine.check_flow(dep, SolverLabel::level(fx.level("T")), facts)
            .proven());
}

TEST(Entailment, PrimedTargetUsesEquations) {
    EngineFixture fx(kTwoRegs);
    EntailmentEngine engine(fx.design(), fx.eqs);
    FuncId lb = *fx.design().policy.find_function("lb");
    hir::NetId mode = fx.design().find_net("mode");
    SolverLabel next_dep;
    solver::SolverAtom atom;
    atom.kind = solver::SolverAtom::Kind::Func;
    atom.func = lb;
    atom.args.push_back({mode, true}); // next-cycle label
    next_dep.atoms.push_back(atom);

    // Facts: mode == 1 and flip (so mode' == 0): U data must NOT flow.
    hir::NetId flip = fx.design().find_net("flip");
    auto f1 = Expr::make_binary(BinaryOp::Eq, Expr::make_net(mode, 1, false),
                                Expr::make_const(BitVec(1, 1)));
    auto f2 = Expr::make_net(flip, 1, false);
    std::vector<const Expr*> facts{f1.get(), f2.get()};
    auto res = engine.check_flow(SolverLabel::level(fx.level("U")), next_dep,
                                 facts);
    EXPECT_EQ(res.status, EntailStatus::Refuted);
    EXPECT_NE(res.detail.find("U ⋢ T"), std::string::npos) << res.detail;

    // With ¬flip instead, mode' == mode == 1: U flows into lb(1) = U.
    auto f3 = Expr::make_unary(UnaryOp::LogNot, Expr::make_net(flip, 1, false));
    std::vector<const Expr*> facts2{f1.get(), f3.get()};
    EXPECT_TRUE(engine.check_flow(SolverLabel::level(fx.level("U")), next_dep,
                                  facts2)
                    .proven());
}

TEST(Entailment, EquationAblationLosesThePrimedProof) {
    EngineFixture fx(kTwoRegs);
    solver::EntailOptions opts;
    opts.use_equations = false;
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
    auto f3 = Expr::make_unary(UnaryOp::LogNot, Expr::make_net(flip, 1, false));
    std::vector<const Expr*> facts{f1.get(), f3.get()};
    // Without equations mode' is unconstrained: cannot prove U ⊑ lb(mode').
    EXPECT_FALSE(engine.check_flow(SolverLabel::level(fx.level("U")),
                                   next_dep, facts)
                     .proven());
}

TEST(Entailment, WideNetsStayUnknownButSoundnessHolds) {
    EngineFixture fx(R"(
lattice { level T; level U; flow T -> U; }
module m(input com [31:0] {T} wide);
  wire com {T} w;
  assign w = wide == 32'h0;
endmodule
)");
    solver::EntailOptions opts;
    opts.max_enum_width = 8; // the 32-bit net is not enumerable
    EntailmentEngine engine(fx.design(), fx.eqs, opts);
    LevelId t = fx.level("T"), u = fx.level("U");
    // A fact over the wide net cannot prune, but T ⊑ U holds anyway.
    hir::NetId wide = fx.design().find_net("wide");
    auto fact = Expr::make_binary(BinaryOp::Eq,
                                  Expr::make_net(wide, 32, false),
                                  Expr::make_const(BitVec(32, 5)));
    std::vector<const Expr*> facts{fact.get()};
    EXPECT_TRUE(engine.check_flow(SolverLabel::level(t),
                                  SolverLabel::level(u), facts)
                    .proven());
    // And U ⊑ T is refuted even though the fact is undecidable.
    auto res = engine.check_flow(SolverLabel::level(u), SolverLabel::level(t),
                                 facts);
    EXPECT_NE(res.status, EntailStatus::Proven);
}

TEST(Entailment, StatsAccumulate) {
    EngineFixture fx(kTwoRegs);
    EntailmentEngine engine(fx.design(), fx.eqs);
    auto t = SolverLabel::level(fx.level("T"));
    auto u = SolverLabel::level(fx.level("U"));
    engine.check_flow(t, u, {});
    engine.check_flow(u, t, {});
    EXPECT_EQ(engine.stats().queries, 2u);
    EXPECT_EQ(engine.stats().syntactic_hits, 1u);
    EXPECT_EQ(engine.stats().enumerations, 1u);
}

TEST(ExprEqual, StructuralEquality) {
    auto a = Expr::make_binary(BinaryOp::Add, Expr::make_net(1, 8, false),
                               Expr::make_const(BitVec(8, 3)));
    auto b = Expr::make_binary(BinaryOp::Add, Expr::make_net(1, 8, false),
                               Expr::make_const(BitVec(8, 3)));
    auto c = Expr::make_binary(BinaryOp::Add, Expr::make_net(1, 8, true),
                               Expr::make_const(BitVec(8, 3)));
    EXPECT_TRUE(solver::expr_equal(*a, *b));
    EXPECT_FALSE(solver::expr_equal(*a, *c)); // primed differs
}

// ---------------------------------------------------------------------------
// Defining equations (sem/updates)
// ---------------------------------------------------------------------------

TEST(Equations, RegisterHoldIsTheDefault) {
    auto c = compile(R"(
module m(input com {T} en, input com [7:0] {T} d);
  reg seq [7:0] {T} r;
  always @(seq) begin
    if (en) r <= d;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto eqs = sem::build_equations(*c.design);
    const Expr* def = eqs.def(c.design->find_net("r"));
    ASSERT_NE(def, nullptr);
    // r' = en ? d : r
    ASSERT_EQ(def->kind, hir::ExprKind::Cond);
    EXPECT_EQ(def->c->kind, hir::ExprKind::NetRef);
    EXPECT_EQ(def->c->net, c.design->find_net("r"));
    EXPECT_FALSE(def->c->primed);
}

TEST(Equations, LastWriteWinsInEquations) {
    auto c = compile(R"(
module m(input com {T} a, input com {T} b);
  reg seq [7:0] {T} r;
  always @(seq) begin
    r <= 8'h11;
    if (b) r <= 8'h22;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto eqs = sem::build_equations(*c.design);
    const Expr* def = eqs.def(c.design->find_net("r"));
    ASSERT_NE(def, nullptr);
    // Equation must evaluate like the simulator: b ? 0x22 : 0x11.
    Assignment asg;
    asg.set(c.design->find_net("b"), false, BitVec(1, 1));
    EXPECT_EQ(eval3(*def, asg)->value(), 0x22u);
    asg.set(c.design->find_net("b"), false, BitVec(1, 0));
    EXPECT_EQ(eval3(*def, asg)->value(), 0x11u);
}

TEST(Equations, BlockingSubstitutionInCombProcesses) {
    auto c = compile(R"(
module m(input com [7:0] {T} a);
  wire com [7:0] {T} x;
  wire com [7:0] {T} y;
  always @(*) begin
    x = a + 8'h1;
    y = x + 8'h1;   // reads the freshly-written x
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto eqs = sem::build_equations(*c.design);
    const Expr* ydef = eqs.def(c.design->find_net("y"));
    ASSERT_NE(ydef, nullptr);
    Assignment asg;
    asg.set(c.design->find_net("a"), false, BitVec(8, 5));
    // y = (a+1)+1 = 7: x must have been inlined, not left symbolic.
    EXPECT_EQ(eval3(*ydef, asg)->value(), 7u);
}

TEST(Equations, ArraysAndInputsHaveNoEquations) {
    auto c = compile(R"(
module m(input com [7:0] {T} a, input com [1:0] {T} i);
  reg seq [7:0] {T} mem[0:3];
  always @(seq) begin
    mem[i] <= a;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto eqs = sem::build_equations(*c.design);
    EXPECT_EQ(eqs.def(c.design->find_net("mem")), nullptr);
    EXPECT_EQ(eqs.def(c.design->find_net("a")), nullptr);
}

/// Node-for-node equality, source locations included (expr_equal ignores
/// locs, but diagnostics and reports resolve them).
void expect_same_tree(const Expr& got, const Expr& want) {
    ASSERT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.width, want.width);
    EXPECT_EQ(got.loc, want.loc);
    EXPECT_EQ(got.net, want.net);
    EXPECT_EQ(got.primed, want.primed);
    EXPECT_EQ(got.value.value(), want.value.value());
    EXPECT_EQ(got.un_op, want.un_op);
    EXPECT_EQ(got.bin_op, want.bin_op);
    const Expr* gc[] = {got.index.get(), got.a.get(), got.b.get(),
                        got.c.get()};
    const Expr* wc[] = {want.index.get(), want.a.get(), want.b.get(),
                        want.c.get()};
    for (int i = 0; i < 4; ++i) {
        ASSERT_EQ(gc[i] == nullptr, wc[i] == nullptr);
        if (gc[i])
            expect_same_tree(*gc[i], *wc[i]);
    }
    ASSERT_EQ(got.parts.size(), want.parts.size());
    for (size_t i = 0; i < got.parts.size(); ++i)
        expect_same_tree(*got.parts[i], *want.parts[i]);
}

/// The process that writes `net`.
const hir::Process& writer_of(const hir::Design& d, hir::NetId net) {
    for (const auto& p : d.processes)
        for (hir::NetId w : p.writes)
            if (w == net)
                return p;
    ADD_FAILURE() << "no process writes net " << net;
    return d.processes.front();
}

TEST(Equations, ElseIfChainGuardsAreLeftFoldedWithCondLocs) {
    auto c = compile(R"(
module m(input com {T} c1, input com {T} c2, input com {T} c3,
         input com [7:0] {T} d);
  reg seq [7:0] {T} r;
  always @(seq) begin
    if (c1) r <= 8'h1;
    else if (c2) r <= 8'h2;
    else if (c3) r <= d;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    hir::NetId r = c.design->find_net("r");
    const hir::Design& d = *c.design;

    // The if statements of the chain, outermost first.
    std::vector<const hir::Stmt*> ifs;
    for (const hir::Stmt* s = writer_of(*c.design, r).body->stmts[0].get();
         s; s = s->else_stmt.get()) {
        while (s->kind == hir::StmtKind::Block && s->stmts.size() == 1)
            s = s->stmts[0].get();
        ASSERT_EQ(s->kind, hir::StmtKind::If);
        ifs.push_back(s);
    }
    ASSERT_EQ(ifs.size(), 3u);
    SourceLoc l1 = ifs[0]->cond->loc, l2 = ifs[1]->cond->loc,
              l3 = ifs[2]->cond->loc;
    ASSERT_TRUE(l1.valid() && l2.valid() && l3.valid());
    EXPECT_NE(l1, l2);
    EXPECT_NE(l2, l3);

    // ((!c1 && !c2) && c3): negations keep their cond's loc; each LogAnd
    // takes its left operand's loc.
    auto check_deepest = [&](const Expr& g) {
        ASSERT_EQ(to_string(g, d), "((!(c1) && !(c2)) && c3)");
        EXPECT_EQ(g.loc, l1);
        EXPECT_EQ(g.a->loc, l1);
        EXPECT_EQ(g.a->a->loc, l1);
        EXPECT_EQ(g.a->a->a->loc, l1);
        EXPECT_EQ(g.a->b->loc, l2);
        EXPECT_EQ(g.a->b->a->loc, l2);
        EXPECT_EQ(g.b->loc, l3);
    };

    auto eqs = sem::build_equations(*c.design);
    const Expr* def = eqs.def(r);
    ASSERT_NE(def, nullptr);
    ASSERT_EQ(def->kind, hir::ExprKind::Cond);
    check_deepest(*def->a);
    EXPECT_EQ(to_string(*def, d),
              "(((!(c1) && !(c2)) && c3) ? d : ((!(c1) && c2) ? 8'h2 : "
              "(c1 ? 8'h1 : r)))");

    auto writes = eqs.writes(r);
    ASSERT_EQ(writes.size(), 3u);
    std::vector<ExprPtr> guards;
    for (const sem::Write& w : writes)
        guards.push_back(sem::conjoin(w.path));
    ASSERT_TRUE(guards[0] && guards[1] && guards[2]);
    EXPECT_EQ(to_string(*guards[0], d), "c1");
    EXPECT_EQ(to_string(*guards[1], d), "(!(c1) && c2)");
    check_deepest(*guards[2]);
    // The recorded paths conjoin to the equation's guards, node for node.
    const Expr* level = def;
    for (size_t i = writes.size(); i-- > 0; level = level->c.get()) {
        ASSERT_EQ(level->kind, hir::ExprKind::Cond);
        expect_same_tree(*guards[i], *level->a);
    }
}

TEST(Equations, GuardsAreSubstitutedInCombButNotInSeqProcesses) {
    auto c = compile(R"(
module m(input com [7:0] {T} a);
  wire com [7:0] {T} x;
  wire com [7:0] {T} y;
  reg seq [7:0] {T} r;
  reg seq [7:0] {T} s;
  always @(*) begin
    x = a;
    y = 8'h2;
    if (x == 8'h0) y = 8'h1;
  end
  always @(seq) begin
    r <= a;
    if (r == 8'h0) s <= 8'h1;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    const hir::Design& d = *c.design;
    auto eqs = sem::build_equations(*c.design);
    // Comb: the guard sees the freshly written x, i.e. a.
    const Expr* y = eqs.def(c.design->find_net("y"));
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(to_string(*y, d), "((a == 8'h0) ? 8'h1 : 8'h2)");
    // Seq: reads see pre-tick values, so the guard keeps r.
    const Expr* s = eqs.def(c.design->find_net("s"));
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(to_string(*s, d), "((r == 8'h0) ? 8'h1 : s)");
    // The recorded write keeps the guard as written in the source.
    auto sw = eqs.writes(c.design->find_net("s"));
    ASSERT_EQ(sw.size(), 1u);
    ExprPtr guard = sem::conjoin(sw[0].path);
    ASSERT_NE(guard, nullptr);
    ASSERT_EQ(s->kind, hir::ExprKind::Cond);
    expect_same_tree(*guard, *s->a);
}

TEST(Equations, PreviousValueChainsAcrossGuardedWrites) {
    auto c = compile(R"(
module m(input com {T} a, input com {T} b, input com {T} e);
  reg seq [7:0] {T} r;
  wire com [7:0] {T} w;
  always @(seq) begin
    if (a) r <= 8'h1;
    if (b) r <= 8'h2;
    if (e) begin
      r <= 8'h3;
      if (a) r <= 8'h4;
    end
  end
  always @(*) begin
    w = 8'h0;
    if (a) w = 8'h1;
    w = w + 8'h1;
    if (b) w = 8'h5;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    const hir::Design& d = *c.design;
    auto eqs = sem::build_equations(*c.design);
    hir::NetId r = c.design->find_net("r");
    const Expr* rd = eqs.def(r);
    ASSERT_NE(rd, nullptr);
    EXPECT_EQ(to_string(*rd, d),
              "((e && a) ? 8'h4 : (e ? 8'h3 : (b ? 8'h2 : (a ? 8'h1 : r))))");
    // Each Cond carries its assignment's loc; the innermost hold reads r.
    auto writes = eqs.writes(r);
    ASSERT_EQ(writes.size(), 4u);
    const Expr* level = rd;
    for (size_t i = writes.size(); i-- > 0;) {
        ASSERT_EQ(level->kind, hir::ExprKind::Cond);
        EXPECT_EQ(level->loc, writes[i].loc);
        ExprPtr guard = sem::conjoin(writes[i].path);
        ASSERT_NE(guard, nullptr);
        expect_same_tree(*level->a, *guard);
        level = level->c.get();
    }
    EXPECT_EQ(level->kind, hir::ExprKind::NetRef);
    EXPECT_EQ(level->net, r);
    EXPECT_FALSE(level->primed);
    EXPECT_EQ(level->loc, writes[0].loc);

    // Comb: a later read inlines the chain built so far.
    const Expr* wd = eqs.def(c.design->find_net("w"));
    ASSERT_NE(wd, nullptr);
    EXPECT_EQ(to_string(*wd, d),
              "(b ? 8'h5 : ((a ? 8'h1 : 8'h0) + 8'h1))");
}

/// Property: for every scalar register of a random-ish design, stepping
/// the simulator agrees with evaluating the extracted equation on the
/// pre-step state.
TEST(Equations, AgreeWithSimulatorOnModeSwitchDesign) {
    auto c = compile(policy_header() + R"(
module m(input com {T} go, input com [7:0] {U} d);
  reg seq {T} mode;
  reg seq [7:0] {mode_to_lb(mode)} r;
  always @(seq) begin
    if (go) mode <= ~mode;
  end
  always @(seq) begin
    if (go && (mode == 1'b1) && (next(mode) == 1'b0)) r <= 8'h0;
    else if (mode == 1'b1) r <= d;
  end
endmodule
)");
    ASSERT_TRUE(c.ok()) << c.errors();
    auto eqs = sem::build_equations(*c.design);
    sim::Simulator sim(*c.design);
    std::mt19937_64 rng(99);
    std::vector<hir::NetId> regs{c.design->find_net("mode"),
                                 c.design->find_net("r")};
    for (int cycle = 0; cycle < 200; ++cycle) {
        uint64_t go = rng() & 1, d = rng() & 0xFF;
        sim.set_input("go", go);
        sim.set_input("d", d);
        // Snapshot pre-step state into an assignment.
        Assignment asg;
        for (const auto& net : c.design->nets)
            if (net.array_size == 0)
                asg.set(net.id, false, sim.get(net.id));
        // The equations reference primed values of *other* registers;
        // provide them by evaluating in dependency order (mode first).
        for (hir::NetId r : regs) {
            const Expr* def = eqs.def(r);
            ASSERT_NE(def, nullptr);
            auto v = eval3(*def, asg);
            ASSERT_TRUE(v.has_value());
            asg.set(r, true, *v);
        }
        sim.step();
        for (hir::NetId r : regs)
            EXPECT_EQ(sim.get(r).value(), asg.get(r, true)->value())
                << "cycle " << cycle;
    }
}

} // namespace
} // namespace svlc::test
