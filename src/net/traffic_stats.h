// Per-node traffic accounting: the paper's evaluation metrics (total
// traffic, base-station load, per-node load ranking) all derive from the
// counters collected here.

#ifndef ASPEN_NET_TRAFFIC_STATS_H_
#define ASPEN_NET_TRAFFIC_STATS_H_

#include <array>
#include <cstdint>
#include <vector>

#include "net/message.h"

namespace aspen {
namespace net {

/// \brief Counters for one node.
struct NodeTraffic {
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_received = 0;
};

/// \brief Per-query send counters (multi-query media attribute every
/// transmission to the query whose message is on the air).
///
/// Exact when packet merging is disabled. With cross-query merging, the
/// shared link header of a merged physical packet is charged to the first
/// merged frame's query (a shared header has no unique owner); medium-wide
/// totals are always exact.
struct QueryTraffic {
  uint64_t bytes_sent = 0;
  uint64_t messages_sent = 0;
};

/// \brief Accumulates per-node, per-kind and per-query traffic over a run.
///
/// "Sent" counters include retransmissions (every radio transmission costs
/// energy and airtime whether or not it is received).
class TrafficStats {
 public:
  explicit TrafficStats(int num_nodes)
      : per_node_(num_nodes),
        bytes_by_kind_{},
        messages_by_kind_{} {}

  /// `query_id` attributes the transmission to one query on a shared
  /// medium; -1 uses the ambient query (see QueryScope), which computed
  /// control planes (exploration, nominations) run under.
  void RecordSend(NodeId node, MessageKind kind, int bytes,
                  int query_id = -1) {
    per_node_[node].bytes_sent += bytes;
    per_node_[node].messages_sent += 1;
    bytes_by_kind_[static_cast<size_t>(kind)] += bytes;
    messages_by_kind_[static_cast<size_t>(kind)] += 1;
    if (query_id < 0) query_id = ambient_query_;
    if (static_cast<size_t>(query_id) >= per_query_.size()) {
      per_query_.resize(query_id + 1);
    }
    per_query_[query_id].bytes_sent += bytes;
    per_query_[query_id].messages_sent += 1;
  }

  /// \brief Shard-private accumulator for the medium-wide counters.
  ///
  /// The sharded network step writes per-node rows directly (each shard
  /// owns its senders' rows exclusively) but must not touch the shared
  /// per-kind / per-query totals from worker threads; those go here and
  /// are absorbed once per step on the exchange thread. Integer sums make
  /// the absorption order irrelevant to the final counter values.
  struct ShardDelta {
    std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
        bytes_by_kind{};
    std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
        messages_by_kind{};
    std::vector<QueryTraffic> per_query;
  };

  /// RecordSend for shard compute phases: the per-node row is written
  /// directly (`node` must be owned by the calling shard); the medium-wide
  /// counters accumulate in `delta`. `query_id` must be explicit (the
  /// ambient query is main-thread state).
  void RecordSendSharded(NodeId node, MessageKind kind, int bytes,
                         int query_id, ShardDelta* delta) {
    per_node_[node].bytes_sent += bytes;
    per_node_[node].messages_sent += 1;
    delta->bytes_by_kind[static_cast<size_t>(kind)] += bytes;
    delta->messages_by_kind[static_cast<size_t>(kind)] += 1;
    if (static_cast<size_t>(query_id) >= delta->per_query.size()) {
      delta->per_query.resize(query_id + 1);
    }
    delta->per_query[query_id].bytes_sent += bytes;
    delta->per_query[query_id].messages_sent += 1;
  }

  /// Adds a shard's accumulated medium-wide counters and clears it.
  void Absorb(ShardDelta* delta) {
    for (size_t k = 0; k < delta->bytes_by_kind.size(); ++k) {
      bytes_by_kind_[k] += delta->bytes_by_kind[k];
      messages_by_kind_[k] += delta->messages_by_kind[k];
      delta->bytes_by_kind[k] = 0;
      delta->messages_by_kind[k] = 0;
    }
    if (delta->per_query.size() > per_query_.size()) {
      per_query_.resize(delta->per_query.size());
    }
    for (size_t q = 0; q < delta->per_query.size(); ++q) {
      per_query_[q].bytes_sent += delta->per_query[q].bytes_sent;
      per_query_[q].messages_sent += delta->per_query[q].messages_sent;
      delta->per_query[q] = QueryTraffic{};
    }
  }

  /// \brief Scoped ambient query id: RecordSend calls without an explicit
  /// query (the computed control plane) are attributed to `query_id` while
  /// the scope is alive.
  class QueryScope {
   public:
    QueryScope(TrafficStats* stats, int query_id)
        : stats_(stats), saved_(stats->ambient_query_) {
      stats_->ambient_query_ = query_id;
    }
    ~QueryScope() { stats_->ambient_query_ = saved_; }
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

   private:
    TrafficStats* stats_;
    int saved_;
  };

  void RecordReceive(NodeId node, int bytes) {
    per_node_[node].bytes_received += bytes;
    per_node_[node].messages_received += 1;
  }

  int num_nodes() const { return static_cast<int>(per_node_.size()); }
  const NodeTraffic& node(NodeId id) const { return per_node_[id]; }

  /// Sum of bytes transmitted by all nodes (each hop counted once).
  uint64_t TotalBytesSent() const;
  /// Sum of messages transmitted by all nodes.
  uint64_t TotalMessagesSent() const;
  /// Traffic through the base station (node 0): bytes sent plus received,
  /// i.e. the radio airtime the base participates in.
  uint64_t BaseStationBytes() const;
  uint64_t BaseStationMessages() const;
  /// Highest per-node sent+received byte count.
  uint64_t MaxNodeBytes() const;
  uint64_t MaxNodeMessages() const;

  /// Bytes (resp. messages) transmitted on behalf of one query (a medium's
  /// query ids start at 1).
  uint64_t QueryBytesSent(int query_id) const {
    return static_cast<size_t>(query_id) < per_query_.size()
               ? per_query_[query_id].bytes_sent
               : 0;
  }
  uint64_t QueryMessagesSent(int query_id) const {
    return static_cast<size_t>(query_id) < per_query_.size()
               ? per_query_[query_id].messages_sent
               : 0;
  }

  uint64_t BytesByKind(MessageKind kind) const {
    return bytes_by_kind_[static_cast<size_t>(kind)];
  }
  uint64_t MessagesByKind(MessageKind kind) const {
    return messages_by_kind_[static_cast<size_t>(kind)];
  }

  /// Bytes for all initiation kinds (see IsInitiationKind).
  uint64_t InitiationBytes() const;
  /// Bytes for all non-initiation kinds.
  uint64_t ComputationBytes() const;

  /// Node loads (sent+received bytes), sorted descending; `k` entries
  /// (fewer if the network is smaller). Used for Figure 5.
  std::vector<uint64_t> TopLoadedNodes(int k) const;

  /// Zeroes one query's send counters. Called when a recycled query id is
  /// assigned to a new tenant on a shared medium, after the departed
  /// query's counters were finalized into the medium's ledger (medium-wide
  /// per-node and per-kind totals are untouched).
  void ResetQuery(int query_id) {
    if (query_id >= 0 && static_cast<size_t>(query_id) < per_query_.size()) {
      per_query_[query_id] = QueryTraffic{};
    }
  }

  /// Zeroes every counter (used between experiment phases).
  void Reset();

 private:
  std::vector<NodeTraffic> per_node_;
  std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
      bytes_by_kind_;
  std::array<uint64_t, static_cast<size_t>(MessageKind::kNumKinds)>
      messages_by_kind_;
  std::vector<QueryTraffic> per_query_;
  int ambient_query_ = 0;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_TRAFFIC_STATS_H_
