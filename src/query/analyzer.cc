#include "query/analyzer.h"

#include <algorithm>
#include <string>

#include "common/logging.h"

namespace aspen {
namespace query {

namespace {

// Pushes negations down to the leaves (negation normal form). Comparison
// leaves are negated by flipping the operator, so no kNot survives above a
// comparison.
ExprPtr ToNnf(const ExprPtr& e, bool negate) {
  switch (e->op()) {
    case ExprOp::kAnd: {
      auto a = ToNnf(e->children()[0], negate);
      auto b = ToNnf(e->children()[1], negate);
      return negate ? Expr::Or(a, b) : Expr::And(a, b);
    }
    case ExprOp::kOr: {
      auto a = ToNnf(e->children()[0], negate);
      auto b = ToNnf(e->children()[1], negate);
      return negate ? Expr::And(a, b) : Expr::Or(a, b);
    }
    case ExprOp::kNot:
      return ToNnf(e->children()[0], !negate);
    case ExprOp::kEq:
      return negate ? Expr::Ne(e->children()[0], e->children()[1]) : e;
    case ExprOp::kNe:
      return negate ? Expr::Eq(e->children()[0], e->children()[1]) : e;
    case ExprOp::kLt:
      return negate ? Expr::Ge(e->children()[0], e->children()[1]) : e;
    case ExprOp::kLe:
      return negate ? Expr::Gt(e->children()[0], e->children()[1]) : e;
    case ExprOp::kGt:
      return negate ? Expr::Le(e->children()[0], e->children()[1]) : e;
    case ExprOp::kGe:
      return negate ? Expr::Lt(e->children()[0], e->children()[1]) : e;
    default:
      // Non-boolean leaf used as a truth value.
      return negate ? Expr::Not(e) : e;
  }
}

// Clauses CnfClauses(e) would return for an NNF expression, saturated at
// kMaxCnfClauses + 1 so the count stays small whatever the nesting.
size_t CnfClauseCount(const ExprPtr& e) {
  constexpr size_t kOver = kMaxCnfClauses + 1;
  if (e->op() == ExprOp::kAnd) {
    return std::min(kOver, CnfClauseCount(e->children()[0]) +
                               CnfClauseCount(e->children()[1]));
  }
  if (e->op() == ExprOp::kOr) {
    return std::min(kOver, CnfClauseCount(e->children()[0]) *
                               CnfClauseCount(e->children()[1]));
  }
  return 1;
}

// CNF of an NNF expression, as a list of clauses.
std::vector<ExprPtr> CnfClauses(const ExprPtr& e) {
  if (e->op() == ExprOp::kAnd) {
    auto left = CnfClauses(e->children()[0]);
    auto right = CnfClauses(e->children()[1]);
    left.insert(left.end(), right.begin(), right.end());
    return left;
  }
  if (e->op() == ExprOp::kOr) {
    // (A ∧ B) ∨ C  →  (A ∨ C) ∧ (B ∨ C), recursively on both sides.
    auto left = CnfClauses(e->children()[0]);
    auto right = CnfClauses(e->children()[1]);
    std::vector<ExprPtr> out;
    out.reserve(left.size() * right.size());
    for (const auto& l : left) {
      for (const auto& r : right) {
        out.push_back(Expr::Or(l, r));
      }
    }
    return out;
  }
  return {e};
}

bool EvalAll(const std::vector<ExprPtr>& clauses, const Tuple* s,
             const Tuple* t) {
  for (const auto& c : clauses) {
    if (!c->EvalBool(s, t)) return false;
  }
  return true;
}

// Rebinds every attribute reference in `e` to side kS, so an expression over
// T-only can be evaluated against a single tuple (used when indexing derived
// attributes at T nodes).
ExprPtr RebindToS(const ExprPtr& e) {
  switch (e->op()) {
    case ExprOp::kConst:
      return e;
    case ExprOp::kAttr:
      return Expr::Attr(Side::kS, e->attr());
    default: {
      ASPEN_CHECK(e->op() != ExprOp::kDist);
      std::vector<ExprPtr> kids;
      for (const auto& c : e->children()) kids.push_back(RebindToS(c));
      // Rebuild with the same operator.
      switch (e->op()) {
        case ExprOp::kAdd:
          return Expr::Add(kids[0], kids[1]);
        case ExprOp::kSub:
          return Expr::Sub(kids[0], kids[1]);
        case ExprOp::kMul:
          return Expr::Mul(kids[0], kids[1]);
        case ExprOp::kDiv:
          return Expr::Div(kids[0], kids[1]);
        case ExprOp::kMod:
          return Expr::Mod(kids[0], kids[1]);
        case ExprOp::kAbs:
          return Expr::Abs(kids[0]);
        case ExprOp::kHash:
          return Expr::Hash(kids[0]);
        case ExprOp::kEq:
          return Expr::Eq(kids[0], kids[1]);
        case ExprOp::kNe:
          return Expr::Ne(kids[0], kids[1]);
        case ExprOp::kLt:
          return Expr::Lt(kids[0], kids[1]);
        case ExprOp::kLe:
          return Expr::Le(kids[0], kids[1]);
        case ExprOp::kGt:
          return Expr::Gt(kids[0], kids[1]);
        case ExprOp::kGe:
          return Expr::Ge(kids[0], kids[1]);
        case ExprOp::kAnd:
          return Expr::And(kids[0], kids[1]);
        case ExprOp::kOr:
          return Expr::Or(kids[0], kids[1]);
        case ExprOp::kNot:
          return Expr::Not(kids[0]);
        default:
          ASPEN_CHECK(false);
      }
    }
  }
  return e;
}

}  // namespace

std::vector<ExprPtr> ToCnf(const ExprPtr& expr) {
  return CnfClauses(ToNnf(expr, /*negate=*/false));
}

bool QueryAnalysis::SEligible(const Tuple& st) const {
  return EvalAll(s_static_selection, &st, nullptr);
}
bool QueryAnalysis::TEligible(const Tuple& st) const {
  return EvalAll(t_static_selection, nullptr, &st);
}
bool QueryAnalysis::SecondaryStaticPass(const Tuple& s, const Tuple& t) const {
  return EvalAll(secondary_static_join, &s, &t);
}
bool QueryAnalysis::DynamicJoinPass(const Tuple& s, const Tuple& t) const {
  return EvalAll(dynamic_join, &s, &t);
}
bool QueryAnalysis::FullPass(const Tuple& s, const Tuple& t) const {
  return EvalAll(cnf, &s, &t);
}

Result<QueryAnalysis> Analyze(const JoinQuery& q) {
  if (q.where == nullptr) {
    return Status::InvalidArgument("Analyze: query has no WHERE predicate");
  }
  if (q.window.size < 1) {
    return Status::InvalidArgument("Analyze: window size must be >= 1");
  }
  const ExprPtr nnf = ToNnf(q.where, /*negate=*/false);
  if (CnfClauseCount(nnf) > kMaxCnfClauses) {
    return Status::InvalidArgument(
        "Analyze: WHERE predicate expands to more than " +
        std::to_string(kMaxCnfClauses) + " CNF clauses");
  }
  QueryAnalysis out;
  out.cnf = CnfClauses(nnf);

  for (const auto& clause : out.cnf) {
    const bool refs_s = clause->ReferencesSide(Side::kS);
    const bool refs_t = clause->ReferencesSide(Side::kT);
    const bool is_static = clause->IsStatic();
    if (refs_s && refs_t) {
      if (is_static) {
        out.static_join.push_back(clause);
      } else {
        out.dynamic_join.push_back(clause);
      }
    } else if (refs_s) {
      (is_static ? out.s_static_selection : out.s_dynamic_selection)
          .push_back(clause);
    } else if (refs_t) {
      (is_static ? out.t_static_selection : out.t_dynamic_selection)
          .push_back(clause);
    } else {
      // Constant clause: keep with static joins so FullPass sees it; a
      // constant-false query simply produces nothing.
      out.static_join.push_back(clause);
    }
  }

  // Pattern matcher: pick the first routable static join clause as primary.
  // Routable forms:
  //   (a) expr_over_S == expr_over_T        (content routing on a derived
  //                                          static attribute)
  //   (b) Dst < c  /  Dst <= c              (region routing via R-trees)
  for (const auto& clause : out.static_join) {
    if (out.primary.has_value()) {
      out.secondary_static_join.push_back(clause);
      continue;
    }
    if (clause->op() == ExprOp::kEq) {
      const ExprPtr& lhs = clause->children()[0];
      const ExprPtr& rhs = clause->children()[1];
      auto pure = [](const ExprPtr& e, Side side) {
        Side other = side == Side::kS ? Side::kT : Side::kS;
        return e->ReferencesSide(side) && !e->ReferencesSide(other) &&
               e->op() != ExprOp::kDist;
      };
      if (pure(lhs, Side::kS) && pure(rhs, Side::kT)) {
        out.primary = PrimaryJoin{lhs, RebindToS(rhs), std::nullopt};
        continue;
      }
      if (pure(lhs, Side::kT) && pure(rhs, Side::kS)) {
        out.primary = PrimaryJoin{rhs, RebindToS(lhs), std::nullopt};
        continue;
      }
    }
    if ((clause->op() == ExprOp::kLt || clause->op() == ExprOp::kLe) &&
        clause->children()[0]->op() == ExprOp::kDist &&
        clause->children()[1]->op() == ExprOp::kConst) {
      out.primary =
          PrimaryJoin{nullptr, nullptr, clause->children()[1]->const_value()};
      continue;
    }
    out.secondary_static_join.push_back(clause);
  }
  return out;
}

}  // namespace query
}  // namespace aspen
