#include <gtest/gtest.h>

#include "common/rng.h"
#include "query/analyzer.h"

namespace aspen {
namespace query {
namespace {

ExprPtr S(int attr) { return Expr::Attr(Side::kS, attr); }
ExprPtr T(int attr) { return Expr::Attr(Side::kT, attr); }

// Truth-equivalence check over random tuples: CNF must preserve semantics.
void ExpectEquivalent(const ExprPtr& original) {
  auto cnf = ToCnf(original);
  ExprPtr rebuilt = Expr::AndAll(cnf);
  Rng rng(77);
  for (int trial = 0; trial < 200; ++trial) {
    Tuple s = Schema::Sensor().MakeTuple();
    Tuple t = Schema::Sensor().MakeTuple();
    for (int a = 0; a < kNumAttrs; ++a) {
      s[a] = static_cast<int32_t>(rng.UniformRange(0, 8));
      t[a] = static_cast<int32_t>(rng.UniformRange(0, 8));
    }
    EXPECT_EQ(original->EvalBool(&s, &t), rebuilt->EvalBool(&s, &t));
  }
}

TEST(CnfTest, ConjunctionSplitsIntoClauses) {
  auto e = Expr::And(Expr::Eq(S(kAttrId), Expr::Const(1)),
                     Expr::And(Expr::Eq(T(kAttrId), Expr::Const(2)),
                               Expr::Eq(S(kAttrU), T(kAttrU))));
  EXPECT_EQ(ToCnf(e).size(), 3u);
  ExpectEquivalent(e);
}

TEST(CnfTest, DistributesOrOverAnd) {
  // (A ∧ B) ∨ C -> (A ∨ C) ∧ (B ∨ C)
  auto a = Expr::Eq(S(kAttrId), Expr::Const(1));
  auto b = Expr::Eq(S(kAttrX), Expr::Const(2));
  auto c = Expr::Eq(S(kAttrY), Expr::Const(3));
  auto e = Expr::Or(Expr::And(a, b), c);
  EXPECT_EQ(ToCnf(e).size(), 2u);
  ExpectEquivalent(e);
}

TEST(CnfTest, DeMorganPushesNegation) {
  auto a = Expr::Lt(S(kAttrId), Expr::Const(5));
  auto b = Expr::Gt(T(kAttrId), Expr::Const(7));
  auto e = Expr::Not(Expr::Or(a, b));  // -> !a ∧ !b
  auto cnf = ToCnf(e);
  EXPECT_EQ(cnf.size(), 2u);
  // Negations became flipped comparisons, not kNot wrappers.
  for (const auto& clause : cnf) {
    EXPECT_NE(clause->op(), ExprOp::kNot);
  }
  ExpectEquivalent(e);
}

TEST(CnfTest, DoubleNegationCancels) {
  auto a = Expr::Eq(S(kAttrId), Expr::Const(1));
  ExpectEquivalent(Expr::Not(Expr::Not(a)));
}

TEST(CnfTest, DeepNesting) {
  auto a = Expr::Eq(S(kAttrId), Expr::Const(1));
  auto b = Expr::Eq(S(kAttrX), Expr::Const(2));
  auto c = Expr::Eq(T(kAttrY), Expr::Const(3));
  auto d = Expr::Eq(T(kAttrId), Expr::Const(4));
  ExpectEquivalent(Expr::Or(Expr::And(a, Expr::Not(b)),
                            Expr::Not(Expr::And(c, Expr::Or(d, a)))));
}

JoinQuery Query1Like() {
  JoinQuery q;
  q.where = Expr::AndAll(
      {Expr::Lt(S(kAttrId), Expr::Const(25)),
       Expr::Gt(T(kAttrId), Expr::Const(50)),
       Expr::Eq(S(kAttrX), Expr::Add(T(kAttrY), Expr::Const(5))),
       Expr::Eq(S(kAttrU), T(kAttrU)),
       Expr::Eq(Expr::Mod(Expr::Hash(S(kAttrU)), Expr::Const(2)),
                Expr::Const(0))});
  q.window.size = 3;
  return q;
}

TEST(AnalyzerTest, ClassifiesQuery1Clauses) {
  auto analysis = Analyze(Query1Like());
  ASSERT_TRUE(analysis.ok());
  EXPECT_EQ(analysis->s_static_selection.size(), 1u);
  EXPECT_EQ(analysis->t_static_selection.size(), 1u);
  EXPECT_EQ(analysis->s_dynamic_selection.size(), 1u);  // hash gate
  EXPECT_TRUE(analysis->t_dynamic_selection.empty());
  EXPECT_EQ(analysis->static_join.size(), 1u);   // x = y + 5
  EXPECT_EQ(analysis->dynamic_join.size(), 1u);  // u = u
}

TEST(AnalyzerTest, PatternMatcherFindsEqualityPrimary) {
  auto analysis = Analyze(Query1Like());
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->primary.has_value());
  EXPECT_FALSE(analysis->primary->region_radius_dm.has_value());
  ASSERT_NE(analysis->primary->probe_expr, nullptr);
  ASSERT_NE(analysis->primary->target_expr, nullptr);
  // probe over S evaluates x; target (rebound to single-tuple form)
  // evaluates y + 5.
  Tuple s = Schema::Sensor().MakeTuple();
  s[kAttrX] = 33;
  EXPECT_EQ(analysis->primary->probe_expr->Eval(&s, nullptr), 33);
  Tuple t = Schema::Sensor().MakeTuple();
  t[kAttrY] = 4;
  EXPECT_EQ(analysis->primary->target_expr->Eval(&t, nullptr), 9);
}

TEST(AnalyzerTest, PatternMatcherHandlesSwappedSides) {
  JoinQuery q;
  q.where = Expr::Eq(T(kAttrY), S(kAttrX));  // T-side on the left
  auto analysis = Analyze(q);
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->primary.has_value());
  Tuple s = Schema::Sensor().MakeTuple();
  s[kAttrX] = 12;
  EXPECT_EQ(analysis->primary->probe_expr->Eval(&s, nullptr), 12);
}

TEST(AnalyzerTest, RegionPrimaryDetected) {
  JoinQuery q;
  q.where = Expr::AndAll(
      {Expr::Lt(Expr::Dist(), Expr::Const(50)),
       Expr::Lt(S(kAttrId), T(kAttrId)),
       Expr::Gt(Expr::Abs(Expr::Sub(S(kAttrV), T(kAttrV))),
                Expr::Const(1000))});
  auto analysis = Analyze(q);
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->primary.has_value());
  ASSERT_TRUE(analysis->primary->region_radius_dm.has_value());
  EXPECT_EQ(*analysis->primary->region_radius_dm, 50);
  // s.id < t.id is static but not routable: a secondary filter.
  EXPECT_EQ(analysis->secondary_static_join.size(), 1u);
  EXPECT_EQ(analysis->dynamic_join.size(), 1u);
}

TEST(AnalyzerTest, SecondaryStaticJoinKept) {
  JoinQuery q;
  q.where = Expr::AndAll(
      {Expr::Eq(S(kAttrCid), T(kAttrCid)),
       Expr::Eq(Expr::Mod(S(kAttrId), Expr::Const(4)),
                Expr::Mod(T(kAttrId), Expr::Const(4)))});
  auto analysis = Analyze(q);
  ASSERT_TRUE(analysis.ok());
  ASSERT_TRUE(analysis->primary.has_value());
  // The first routable clause (cid = cid) wins; the second stays secondary
  // even though it is also routable in principle.
  EXPECT_EQ(analysis->secondary_static_join.size(), 1u);
}

TEST(AnalyzerTest, EligibilityHelpers) {
  auto analysis = Analyze(Query1Like());
  ASSERT_TRUE(analysis.ok());
  Tuple in = Schema::Sensor().MakeTuple();
  in[kAttrId] = 10;
  Tuple out = Schema::Sensor().MakeTuple();
  out[kAttrId] = 30;
  EXPECT_TRUE(analysis->SEligible(in));
  EXPECT_FALSE(analysis->SEligible(out));
  Tuple t_in = Schema::Sensor().MakeTuple();
  t_in[kAttrId] = 60;
  EXPECT_TRUE(analysis->TEligible(t_in));
  EXPECT_FALSE(analysis->TEligible(in));
}

TEST(AnalyzerTest, FullPassMatchesOriginalPredicate) {
  JoinQuery q = Query1Like();
  auto analysis = Analyze(q);
  ASSERT_TRUE(analysis.ok());
  Rng rng(5);
  for (int trial = 0; trial < 300; ++trial) {
    Tuple s = Schema::Sensor().MakeTuple();
    Tuple t = Schema::Sensor().MakeTuple();
    s[kAttrId] = static_cast<int32_t>(rng.UniformRange(0, 100));
    t[kAttrId] = static_cast<int32_t>(rng.UniformRange(0, 100));
    s[kAttrX] = static_cast<int32_t>(rng.UniformRange(7, 60));
    t[kAttrY] = static_cast<int32_t>(rng.UniformRange(0, 10));
    s[kAttrU] = static_cast<int32_t>(rng.UniformRange(0, 5));
    t[kAttrU] = static_cast<int32_t>(rng.UniformRange(0, 5));
    EXPECT_EQ(analysis->FullPass(s, t), q.where->EvalBool(&s, &t));
  }
}

TEST(AnalyzerTest, RejectsNullAndBadWindow) {
  JoinQuery q;
  EXPECT_FALSE(Analyze(q).ok());
  q.where = Expr::Const(1);
  q.window.size = 0;
  EXPECT_FALSE(Analyze(q).ok());
}

// k ORed two-clause conjunctions: 2^k clauses once OR distributes.
ExprPtr OrOfConjunctions(int k) {
  ExprPtr e;
  for (int i = 0; i < k; ++i) {
    ExprPtr both = Expr::And(Expr::Eq(S(kAttrX), Expr::Const(i)),
                             Expr::Eq(T(kAttrY), Expr::Const(i)));
    e = e == nullptr ? both : Expr::Or(e, both);
  }
  return e;
}

TEST(AnalyzerTest, CnfClauseCapAcceptsLimitRejectsLimitPlusOne) {
  static_assert(kMaxCnfClauses == 1024, "the cases below assume 2^10");
  JoinQuery q;
  q.where = OrOfConjunctions(10);
  auto at_limit = Analyze(q);
  ASSERT_TRUE(at_limit.ok()) << at_limit.status().ToString();
  EXPECT_EQ(at_limit->cnf.size(), kMaxCnfClauses);
  // One more conjunct: 1,024 + 1 clauses.
  q.where = Expr::And(q.where, Expr::Eq(S(kAttrU), T(kAttrU)));
  auto over = Analyze(q);
  EXPECT_TRUE(over.status().IsInvalidArgument()) << over.status().ToString();
  // Distribution doubles the count, so one more disjunct is also over.
  q.where = OrOfConjunctions(11);
  EXPECT_TRUE(Analyze(q).status().IsInvalidArgument());
}

TEST(AnalyzerTest, NoRoutablePrimaryForDynamicOnlyJoin) {
  JoinQuery q;
  q.where = Expr::Eq(S(kAttrU), T(kAttrU));
  auto analysis = Analyze(q);
  ASSERT_TRUE(analysis.ok());
  EXPECT_FALSE(analysis->primary.has_value());
  EXPECT_EQ(analysis->dynamic_join.size(), 1u);
}

}  // namespace
}  // namespace query
}  // namespace aspen
