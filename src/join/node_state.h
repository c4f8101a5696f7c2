// Per-node join-execution state of one query.
//
// The executor keeps one NodeState per node of the query's footprint — its
// producers, the base, its join sites and, under path collapsing, the path
// nodes whose flow tables snooping reads — reached from a NodeId through
// an n-entry slot table (JoinExecutor::slot_of_); a node outside the
// footprint costs the query 4 bytes. Producers hold the first slots in
// ascending id. Everything the per-cycle hot path touches — which pairs a
// producer serves, the join windows held at a node, the producer's cached
// multicast route and precomputed send plan — is two array indexes away;
// the small per-node pair tables are sorted vectors, so iteration order
// stays deterministic ((node, pair) ascending, exactly the order the old
// ordered maps produced).

#ifndef ASPEN_JOIN_NODE_STATE_H_
#define ASPEN_JOIN_NODE_STATE_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/sorted_vec.h"
#include "join/pair_state.h"
#include "join/types.h"
#include "net/network.h"
#include "query/schema.h"

namespace aspen {
namespace join {

/// \brief One destination of a producer's precomputed send plan: a join
/// node this producer ships samples to, with the interned route per role.
/// Entries are sorted by `dest`, reproducing the ordered-map iteration of
/// the former per-cycle destination collection.
struct SendPlanEntry {
  net::NodeId dest = -1;
  /// Which of the producer's roles route samples to `dest`.
  bool has_s = false;
  bool has_t = false;
  /// Route taken when the S (resp. T) role fires; when both fire the S
  /// route wins, matching the historical first-collected-path behavior.
  net::RouteId route_s = net::kInvalidRoute;
  net::RouteId route_t = net::kInvalidRoute;
};

/// \brief Fixed-capacity ring of the last `w` tuples a producer sent in one
/// role (window reconstruction on failover, Section 7). Slots are recycled
/// with their capacity, so steady-state remembering allocates nothing.
class RecentRing {
 public:
  /// Appends a copy of `t`, evicting the oldest entry once `cap` entries
  /// are held. `cap` is fixed per run (the window size).
  void Push(const query::Tuple& t, int cap) {
    if (static_cast<int>(slots_.size()) != cap) slots_.resize(cap);
    if (count_ == cap) {
      slots_[head_] = t;
      head_ = Next(head_);
    } else {
      slots_[Index(count_)] = t;
      ++count_;
    }
  }

  /// Pre-grows the ring to `cap` slots of `width` ints each so that every
  /// later Push reuses slot capacity. Without this, a slot's first-ever
  /// Push allocates its tuple buffer — a first-touch tail that can land in
  /// a measured block when the warmup is short. Holds no tuples afterwards.
  void Warm(int cap, int width) {
    slots_.resize(cap);
    for (query::Tuple& t : slots_) t.reserve(width);
  }

  int size() const { return count_; }
  /// The i-th remembered tuple, oldest first.
  const query::Tuple& at(int i) const { return slots_[Index(i)]; }
  void Clear() {
    head_ = 0;
    count_ = 0;
  }

 private:
  int Next(int i) const {
    return i + 1 == static_cast<int>(slots_.size()) ? 0 : i + 1;
  }
  int Index(int i) const {
    int idx = head_ + i;
    const int cap = static_cast<int>(slots_.size());
    return idx >= cap ? idx - cap : idx;
  }

  std::vector<query::Tuple> slots_;
  int head_ = 0;
  int count_ = 0;
};

/// \brief All node-local state of one query at one node.
struct NodeState {
  /// Placement-table indices of the pairs this node produces for, per role
  /// (in workload pair order, matching the old map<NodeId, vector<PairKey>>).
  std::vector<int32_t> s_pairs;
  std::vector<int32_t> t_pairs;

  /// Join windows + estimators for the pairs currently joined AT this node,
  /// sorted by pair key for deterministic iteration.
  std::vector<PairState> states;

  /// Last w tuples this producer sent per role (failover replay). Indexed
  /// by as_s.
  RecentRing recent_sent[2];

  /// Precomputed per-producer destinations (sorted by dest) with interned
  /// routes; rebuilt lazily when placements change. base_s/base_t mark
  /// whether any pair of the role joins at the base.
  std::vector<SendPlanEntry> plan;
  bool plan_base_s = false;
  bool plan_base_t = false;

  /// Cached multicast tree rooted at this producer (Innet-m), interned in
  /// the network's route table.
  net::McastId mcast_route = net::kInvalidRoute;

  /// Links discovered by path-collapse snooping for this producer.
  std::set<std::pair<net::NodeId, net::NodeId>> extra_links;

  /// Producers whose data paths this node forwards (flow buffer for
  /// opportunistic snooping). Sorted unique.
  std::vector<net::NodeId> flows_through;

  PairState* FindState(const PairKey& pair) {
    auto it = StateLowerBound(pair);
    if (it == states.end() || !(it->pair == pair)) return nullptr;
    return &*it;
  }

  PairState& StateAt(const PairKey& pair, int window, bool time_based) {
    auto it = StateLowerBound(pair);
    if (it != states.end() && it->pair == pair) return *it;
    it = states.insert(it, PairState(pair, window, time_based));
    return *it;
  }

  /// Inserts a fully-formed state (window handoff), keeping sort order.
  PairState& AdoptState(PairState state) {
    auto it = states.insert(StateLowerBound(state.pair), std::move(state));
    return *it;
  }

  /// Removes and returns the state for `pair`, if present.
  std::optional<PairState> TakeState(const PairKey& pair) {
    auto it = StateLowerBound(pair);
    if (it == states.end() || !(it->pair == pair)) return std::nullopt;
    std::optional<PairState> out(std::move(*it));
    states.erase(it);
    return out;
  }

  bool FlowsThrough(net::NodeId producer) const {
    return common::ContainsSorted(flows_through, producer);
  }

  void AddFlow(net::NodeId producer) {
    common::InsertSortedUnique(&flows_through, producer);
  }

 private:
  /// First state whose pair key is >= `pair` (the single ordering
  /// definition every state accessor shares).
  std::vector<PairState>::iterator StateLowerBound(const PairKey& pair) {
    return std::lower_bound(
        states.begin(), states.end(), pair,
        [](const PairState& st, const PairKey& key) { return st.pair < key; });
  }
};

}  // namespace join
}  // namespace aspen

#endif  // ASPEN_JOIN_NODE_STATE_H_
