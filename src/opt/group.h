// Group discovery and the GROUPOPT decision (Section 5.2, Algorithm 1).
//
// For commutative+transitive join predicates (e.g. equijoins), the bipartite
// graph of joining (s, t) pairs decomposes into complete bipartite subgraphs
// — the *groups*. Each group independently elects a coordinator (its
// smallest-id member), gathers every member's cost difference dCp, and
// decides between a fully in-network (pairwise) join and a grouped join at
// the base station.

#ifndef ASPEN_OPT_GROUP_H_
#define ASPEN_OPT_GROUP_H_

#include <vector>

#include "net/topology.h"

namespace aspen {
namespace opt {

/// \brief One join group: a connected component of the static join graph.
struct JoinGroup {
  std::vector<net::NodeId> s_members;
  std::vector<net::NodeId> t_members;
  net::NodeId coordinator = -1;  ///< smallest id across both member lists
  /// Every (s, t) pair in the component (the complete bipartite edge set
  /// when the predicate is transitive).
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
};

/// \brief Partitions the statically-joining pairs into groups (connected
/// components of the bipartite join graph) and elects coordinators.
std::vector<JoinGroup> DiscoverGroups(
    const std::vector<std::pair<net::NodeId, net::NodeId>>& pairs);

/// \brief True iff the component's edge set is the full cross product of
/// its member lists — the paper's complete-bipartite assumption. A test
/// diagnostic only: the executor applies one group decision to every
/// component's own pairs, complete or not, with no pairwise fallback for
/// non-transitive predicates.
bool IsCompleteBipartite(const JoinGroup& group);

/// \brief GROUPOPT decision: in-network iff the summed member cost
/// differences are negative (Algorithm 1, line 4).
enum class GroupDecision { kInNetwork, kAtBase };
GroupDecision DecideGroup(const std::vector<double>& member_delta_cp);

}  // namespace opt
}  // namespace aspen

#endif  // ASPEN_OPT_GROUP_H_
