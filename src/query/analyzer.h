// Query analysis pipeline (Appendix B): convert the WHERE predicate to CNF,
// split clauses into selection vs. join and static vs. dynamic, and run the
// pattern matcher that separates the *primary* join predicate (usable for
// content routing) from *secondary* predicates evaluated after routing.

#ifndef ASPEN_QUERY_ANALYZER_H_
#define ASPEN_QUERY_ANALYZER_H_

#include <cstddef>
#include <optional>
#include <vector>

#include "common/status.h"
#include "query/expr.h"

namespace aspen {
namespace query {

/// \brief Join window specification (Appendix B's
/// `[windowsize=3 sampleinterval=100]`).
struct WindowSpec {
  /// Window size w: tuples (default) or sampling cycles (time_based).
  int size = 1;
  /// Transmission cycles per sampling cycle.
  int sample_interval = 100;
  /// Footnote 5: time-based windows keep every tuple sampled within the
  /// last `size` cycles; buffers are sized for the maximum expected rate.
  bool time_based = false;
};

/// \brief A select-project-single-join query over sensor relations S and T.
struct JoinQuery {
  ExprPtr where;  ///< full predicate over (s, t)
  WindowSpec window;
  /// Attributes projected into results (ids + timestamp by default).
  int projected_attrs = 3;
};

/// \brief Converts a boolean expression to conjunctive normal form:
/// NOTs pushed to leaves (De Morgan), OR distributed over AND. Returns the
/// list of conjunct clauses (each clause may contain ORs but no ANDs).
/// The clause count is unbounded here; Analyze caps it.
std::vector<ExprPtr> ToCnf(const ExprPtr& expr);

/// Most CNF clauses a WHERE predicate may expand to. Distributing OR over
/// AND multiplies clause counts, so k ORed two-clause conjunctions expand
/// to 2^k clauses; Analyze rejects a predicate past this cap, before
/// building any clause.
constexpr size_t kMaxCnfClauses = 1024;

/// \brief The routable primary join predicate identified by the pattern
/// matcher.
struct PrimaryJoin {
  /// Equality form: probe_expr(s) == target_expr(t), both static.
  /// The substrate indexes target_expr as a derived static attribute and
  /// routes from each s toward nodes where it equals probe_expr(s).
  ExprPtr probe_expr;   ///< over S only
  ExprPtr target_expr;  ///< over T only
  /// Region form (Query 3): Dst < radius_dm (decimeters). When set,
  /// probe/target exprs are null and routing uses the position R-trees.
  std::optional<int32_t> region_radius_dm;
};

/// \brief Full analysis of a JoinQuery.
struct QueryAnalysis {
  std::vector<ExprPtr> cnf;

  // Selections referencing one side only.
  std::vector<ExprPtr> s_static_selection;
  std::vector<ExprPtr> t_static_selection;
  std::vector<ExprPtr> s_dynamic_selection;
  std::vector<ExprPtr> t_dynamic_selection;

  // Join clauses referencing both sides.
  std::vector<ExprPtr> static_join;   ///< all static join clauses
  std::vector<ExprPtr> dynamic_join;  ///< evaluated per sample at join node

  /// The routable primary predicate, if the pattern matcher found one among
  /// static_join; remaining static join clauses become secondary filters.
  std::optional<PrimaryJoin> primary;
  std::vector<ExprPtr> secondary_static_join;

  /// Conjunction of s_static_selection (node eligibility for S); likewise T.
  bool SEligible(const Tuple& static_tuple) const;
  bool TEligible(const Tuple& static_tuple) const;

  /// Secondary static join clauses over an (s, t) static-tuple pair.
  bool SecondaryStaticPass(const Tuple& s, const Tuple& t) const;

  /// Dynamic join clauses over a full (s, t) pair.
  bool DynamicJoinPass(const Tuple& s, const Tuple& t) const;

  /// The complete join predicate (all clauses) over a full (s, t) pair —
  /// ground truth used by tests and the Naive executor.
  bool FullPass(const Tuple& s, const Tuple& t) const;
};

/// \brief Analyzes a query. Fails if `where` is null.
Result<QueryAnalysis> Analyze(const JoinQuery& q);

}  // namespace query
}  // namespace aspen

#endif  // ASPEN_QUERY_ANALYZER_H_
