// Interned routes: source paths and multicast trees registered once,
// referenced by dense ids from then on.
//
// The protocol layer's routes (producer -> join node segments, root ->
// producer distribution paths, multicast trees) stay fixed for thousands of
// sampling cycles. Instead of copying a path vector into every message, a
// route is interned here once and the message envelope carries its RouteId;
// the network resolves hops through the table. Interning dedupes by
// content, so re-registering an unchanged route after a placement rebuild
// returns the existing id and the table stays bounded.
//
// Lifecycle under query churn: routes are *reference-counted* by their
// protocol-layer owners (send plans, placements, cached multicast trees).
// Interning returns an id without a reference; an owner that retains the id
// across cycles takes one with AddPathRef/AddMulticastRef and drops it with
// the matching Release. A route whose count reaches zero is not freed
// immediately — in-flight frames may still resolve it — it is *retired*
// onto a pending list. SweepRetired() frees retired routes; callers invoke
// it only at an epoch boundary: a moment when no frame is in flight on the
// network(s) using this table (a retired route cannot be referenced by a
// frame submitted after retirement, because zero references means no send
// plan names it). Ids of live routes never move or change; freed ids and
// their path storage are recycled for future interns, so a long-running
// service keeps the table's footprint proportional to the *live* route set.
//
// Re-interning content that is retired but not yet swept resurrects the
// existing id (the dedup entry survives until the sweep actually frees it).
// A table that is never swept behaves exactly like an append-only table.

#ifndef ASPEN_NET_ROUTE_TABLE_H_
#define ASPEN_NET_ROUTE_TABLE_H_

#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/phase.h"
#include "net/topology.h"

namespace aspen {
namespace net {

/// Dense id of an interned unicast path (kInvalidRoute = none).
using RouteId = int32_t;
/// Dense id of an interned multicast tree (kInvalidRoute = none).
using McastId = int32_t;
constexpr int32_t kInvalidRoute = -1;

/// \brief Explicit multicast route: a tree rooted at the origin. Delivery
/// fires at every node listed in `targets`.
///
/// Edges are stored as one flat (parent, child) vector sorted ascending —
/// fan-out order is therefore child-ascending per parent by construction,
/// never dependent on hash-map iteration order. `targets` is sorted unique.
struct MulticastRoute {
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<NodeId> targets;

  /// Normalizes (sorts) edges and targets; call after bulk construction.
  void Normalize();

  bool IsTarget(NodeId id) const;
  /// [first, last) span of `edges` whose parent is `id`.
  std::pair<const std::pair<NodeId, NodeId>*, const std::pair<NodeId, NodeId>*>
  ChildrenOf(NodeId id) const;

  bool operator==(const MulticastRoute& o) const {
    return edges == o.edges && targets == o.targets;
  }
};

/// \brief Interns unicast paths and multicast trees; hands out dense ids.
class RouteTable {
 public:
  /// Interns `path` (returns the existing id when an identical path was
  /// interned before). Empty paths return kInvalidRoute. The returned id
  /// carries no reference; owners that retain it call AddPathRef.
  RouteId InternPath(const NodeId* path, int len) ASPEN_REQUIRES_SEQUENTIAL;
  RouteId InternPath(const std::vector<NodeId>& path)
      ASPEN_REQUIRES_SEQUENTIAL {
    return InternPath(path.data(), static_cast<int>(path.size()));
  }

  int PathLength(RouteId id) const { return spans_[id].len; }
  const NodeId* PathData(RouteId id) const {
    return nodes_.data() + spans_[id].off;
  }
  NodeId PathNode(RouteId id, int i) const { return PathData(id)[i]; }
  NodeId PathFront(RouteId id) const { return PathData(id)[0]; }
  NodeId PathBack(RouteId id) const {
    return PathData(id)[spans_[id].len - 1];
  }
  bool IsValidPath(RouteId id) const {
    return id >= 0 && id < static_cast<RouteId>(spans_.size()) &&
           spans_[id].alive;
  }

  /// Interns `route` (normalized; deduped by content). No reference taken.
  McastId InternMulticast(MulticastRoute route) ASPEN_REQUIRES_SEQUENTIAL;
  const MulticastRoute& Multicast(McastId id) const { return mcasts_[id]; }
  bool IsValidMulticast(McastId id) const {
    return id >= 0 && id < static_cast<McastId>(mcasts_.size()) &&
           mcast_meta_[id].alive;
  }

  // ---- shared (destination-set addressed) trees ------------------------------

  /// Looks up a live shared tree registered for exactly (root, targets) —
  /// `targets` must be sorted unique. Returns kInvalidRoute on miss. A hit
  /// lets a second query adopt an existing tree without rebuilding it (no
  /// construction work, no update traffic); the id is the same refcounted
  /// McastId the first owner holds, so the tree is freed only when the
  /// last owner releases it and the next epoch sweep runs.
  McastId FindSharedMulticast(NodeId root,
                              const std::vector<NodeId>& targets) const;

  /// Interns `route` (content-deduped like InternMulticast) and registers
  /// it under the destination-set key (root, route.targets) so later
  /// FindSharedMulticast calls resolve it. If the content already exists
  /// under a *different* destination-set key (distinct root producing an
  /// identical tree), the existing id is returned without re-keying — the
  /// caller's key simply stays unindexed and rebuilds on demand.
  McastId InternSharedMulticast(NodeId root, MulticastRoute route)
      ASPEN_REQUIRES_SEQUENTIAL;

  // ---- ownership & garbage collection ---------------------------------------

  /// Takes (resp. drops) one owner reference. Releasing the last reference
  /// retires the route; it stays resolvable until the next SweepRetired().
  void AddPathRef(RouteId id) ASPEN_REQUIRES_SEQUENTIAL;
  void ReleasePathRef(RouteId id) ASPEN_REQUIRES_SEQUENTIAL;
  void AddMulticastRef(McastId id) ASPEN_REQUIRES_SEQUENTIAL;
  void ReleaseMulticastRef(McastId id) ASPEN_REQUIRES_SEQUENTIAL;

  /// \brief Frees every retired route whose reference count is still zero
  /// and recycles its id and storage. Must only be called at an epoch
  /// boundary: no frame may be in flight on any network resolving through
  /// this table. Returns the number of routes freed.
  size_t SweepRetired() ASPEN_REQUIRES_SEQUENTIAL;

  /// Owner reference count of a live path (0 = floating or retired).
  int path_refs(RouteId id) const { return spans_[id].refs; }

  /// Live (interned, not freed) route counts — the service-mode occupancy
  /// metric. Retired-but-unswept routes still count as live.
  size_t live_paths() const { return live_paths_; }
  size_t live_multicasts() const { return live_mcasts_; }
  /// Allocated slot capacity (live + freed, never shrinks).
  size_t num_paths() const { return spans_.size(); }
  size_t num_multicasts() const { return mcasts_.size(); }

 private:
  struct Span {
    uint32_t off = 0;
    uint32_t len = 0;
    int32_t refs = 0;
    uint64_t hash = 0;
    bool alive = false;
    /// True while the id sits on the retired list (prevents duplicates).
    bool retire_pending = false;
  };
  struct McastMeta {
    int32_t refs = 0;
    uint64_t hash = 0;
    bool alive = false;
    bool retire_pending = false;
    /// Destination-set key for shared trees (valid iff `shared`): the
    /// sweep uses it to drop the dest_dedup_ entry when the slot frees.
    uint64_t dest_hash = 0;
    NodeId dest_root = -1;
    bool shared = false;
  };

  // detlint: order-insensitive(point find/erase on one hash key)
  static void EraseIdFrom(std::unordered_map<uint64_t, std::vector<int32_t>>*
                              dedup,
                          uint64_t hash, int32_t id);

  std::vector<NodeId> nodes_;  ///< concatenated path storage
  std::vector<Span> spans_;
  std::vector<MulticastRoute> mcasts_;
  std::vector<McastMeta> mcast_meta_;
  /// Content-hash -> candidate ids (verified exactly on lookup). Never
  /// iterated: every access is a point find/erase by content hash, so
  /// bucket order cannot reach any output.
  // detlint: order-insensitive(point lookup/erase only, never iterated)
  std::unordered_map<uint64_t, std::vector<RouteId>> path_dedup_;
  // detlint: order-insensitive(point lookup/erase only, never iterated)
  std::unordered_map<uint64_t, std::vector<McastId>> mcast_dedup_;
  /// Destination-set hash (root + sorted targets) -> candidate shared
  /// tree ids, verified exactly on lookup like the content indexes.
  // detlint: order-insensitive(point lookup/erase only, never iterated)
  std::unordered_map<uint64_t, std::vector<McastId>> dest_dedup_;
  /// Recycled span slots and storage blocks (len -> offsets, LIFO).
  std::vector<RouteId> free_path_ids_;
  // detlint: order-insensitive(keyed by span length; point lookup only)
  std::unordered_map<uint32_t, std::vector<uint32_t>> free_blocks_;
  std::vector<McastId> free_mcast_ids_;
  /// Ids whose last reference was dropped, awaiting an epoch-safe sweep.
  std::vector<RouteId> retired_paths_;
  std::vector<McastId> retired_mcasts_;
  size_t live_paths_ = 0;
  size_t live_mcasts_ = 0;
};

}  // namespace net
}  // namespace aspen

#endif  // ASPEN_NET_ROUTE_TABLE_H_
