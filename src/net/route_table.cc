#include "net/route_table.h"

#include <algorithm>

#include "common/logging.h"

namespace aspen {
namespace net {

namespace {

/// FNV-1a over a sequence of int32 values.
uint64_t HashInts(uint64_t h, const int32_t* data, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<uint32_t>(data[i]);
    h *= 0x100000001B3ULL;
  }
  return h;
}

constexpr uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

uint64_t HashMulticast(const MulticastRoute& route) {
  uint64_t h = kFnvOffset;
  for (const auto& [u, v] : route.edges) {
    const int32_t pair[2] = {u, v};
    h = HashInts(h, pair, 2);
  }
  return HashInts(h, route.targets.data(), route.targets.size());
}

uint64_t HashDestSet(NodeId root, const NodeId* targets, size_t n) {
  uint64_t h = HashInts(kFnvOffset, &root, 1);
  return HashInts(h, targets, n);
}

}  // namespace

void MulticastRoute::Normalize() {
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  std::sort(targets.begin(), targets.end());
  targets.erase(std::unique(targets.begin(), targets.end()), targets.end());
}

bool MulticastRoute::IsTarget(NodeId id) const {
  return std::binary_search(targets.begin(), targets.end(), id);
}

std::pair<const std::pair<NodeId, NodeId>*, const std::pair<NodeId, NodeId>*>
MulticastRoute::ChildrenOf(NodeId id) const {
  auto lo = std::lower_bound(
      edges.begin(), edges.end(), id,
      [](const std::pair<NodeId, NodeId>& e, NodeId u) { return e.first < u; });
  auto hi = lo;
  while (hi != edges.end() && hi->first == id) ++hi;
  return {edges.data() + (lo - edges.begin()),
          edges.data() + (hi - edges.begin())};
}

RouteId RouteTable::InternPath(const NodeId* path, int len) {
  if (len <= 0) return kInvalidRoute;
  uint64_t h = HashInts(kFnvOffset, path, static_cast<size_t>(len));
  auto& bucket = path_dedup_[h];
  for (RouteId id : bucket) {
    // A retired-but-unswept route still matches here; returning it
    // resurrects the id (the sweep skips entries that regained references,
    // and frees floating ones — either way the id stays consistent).
    if (PathLength(id) == len &&
        std::equal(path, path + len, PathData(id))) {
      return id;
    }
  }
  Span span;
  span.len = static_cast<uint32_t>(len);
  span.hash = h;
  span.alive = true;
  // Reuse a freed storage block of the exact length before growing.
  auto blocks = free_blocks_.find(span.len);
  if (blocks != free_blocks_.end() && !blocks->second.empty()) {
    span.off = blocks->second.back();
    blocks->second.pop_back();
    std::copy(path, path + len, nodes_.begin() + span.off);
  } else {
    span.off = static_cast<uint32_t>(nodes_.size());
    nodes_.insert(nodes_.end(), path, path + len);
  }
  RouteId id;
  if (!free_path_ids_.empty()) {
    id = free_path_ids_.back();
    free_path_ids_.pop_back();
    spans_[id] = span;
  } else {
    id = static_cast<RouteId>(spans_.size());
    spans_.push_back(span);
  }
  bucket.push_back(id);
  ++live_paths_;
  return id;
}

McastId RouteTable::InternMulticast(MulticastRoute route) {
  route.Normalize();
  const uint64_t h = HashMulticast(route);
  auto& bucket = mcast_dedup_[h];
  for (McastId id : bucket) {
    if (mcasts_[id] == route) return id;
  }
  McastId id;
  if (!free_mcast_ids_.empty()) {
    id = free_mcast_ids_.back();
    free_mcast_ids_.pop_back();
    mcasts_[id] = std::move(route);
  } else {
    id = static_cast<McastId>(mcasts_.size());
    mcasts_.push_back(std::move(route));
    mcast_meta_.emplace_back();
  }
  McastMeta& meta = mcast_meta_[id];
  meta.refs = 0;
  meta.hash = h;
  meta.alive = true;
  meta.retire_pending = false;
  bucket.push_back(id);
  ++live_mcasts_;
  return id;
}

McastId RouteTable::FindSharedMulticast(
    NodeId root, const std::vector<NodeId>& targets) const {
  if (targets.empty()) return kInvalidRoute;
  const uint64_t h = HashDestSet(root, targets.data(), targets.size());
  auto it = dest_dedup_.find(h);
  if (it == dest_dedup_.end()) return kInvalidRoute;
  for (McastId id : it->second) {
    const McastMeta& m = mcast_meta_[id];
    // A retired-but-unswept shared tree still matches: the adopter's
    // AddMulticastRef resurrects it, exactly like content re-interning.
    if (m.alive && m.shared && m.dest_root == root &&
        mcasts_[id].targets == targets) {
      return id;
    }
  }
  return kInvalidRoute;
}

McastId RouteTable::InternSharedMulticast(NodeId root, MulticastRoute route) {
  McastId id = InternMulticast(std::move(route));
  if (id == kInvalidRoute) return id;
  McastMeta& meta = mcast_meta_[id];
  const uint64_t h =
      HashDestSet(root, mcasts_[id].targets.data(), mcasts_[id].targets.size());
  if (meta.shared) {
    // Already registered: either the same key (done) or a content
    // collision across keys — one key per slot, keep the first.
    return id;
  }
  meta.shared = true;
  meta.dest_hash = h;
  meta.dest_root = root;
  dest_dedup_[h].push_back(id);
  return id;
}

void RouteTable::AddPathRef(RouteId id) {
  ASPEN_DCHECK(IsValidPath(id));
  ++spans_[id].refs;
}

void RouteTable::ReleasePathRef(RouteId id) {
  ASPEN_DCHECK(IsValidPath(id));
  Span& s = spans_[id];
  ASPEN_DCHECK(s.refs > 0);
  if (--s.refs == 0 && !s.retire_pending) {
    s.retire_pending = true;
    retired_paths_.push_back(id);
  }
}

void RouteTable::AddMulticastRef(McastId id) {
  ASPEN_DCHECK(IsValidMulticast(id));
  ++mcast_meta_[id].refs;
}

void RouteTable::ReleaseMulticastRef(McastId id) {
  ASPEN_DCHECK(IsValidMulticast(id));
  McastMeta& m = mcast_meta_[id];
  ASPEN_DCHECK(m.refs > 0);
  if (--m.refs == 0 && !m.retire_pending) {
    m.retire_pending = true;
    retired_mcasts_.push_back(id);
  }
}

// detlint: order-insensitive(point find/erase on one hash key)
void RouteTable::EraseIdFrom(
    std::unordered_map<uint64_t, std::vector<int32_t>>* dedup, uint64_t hash,
    int32_t id) {
  auto it = dedup->find(hash);
  if (it == dedup->end()) return;
  auto& bucket = it->second;
  bucket.erase(std::remove(bucket.begin(), bucket.end(), id), bucket.end());
  if (bucket.empty()) dedup->erase(it);
}

size_t RouteTable::SweepRetired() {
  size_t freed = 0;
  for (RouteId id : retired_paths_) {
    Span& s = spans_[id];
    s.retire_pending = false;
    if (!s.alive || s.refs != 0) continue;  // resurrected since retirement
    EraseIdFrom(&path_dedup_, s.hash, id);
    free_blocks_[s.len].push_back(s.off);
    s.alive = false;
    free_path_ids_.push_back(id);
    --live_paths_;
    ++freed;
  }
  retired_paths_.clear();
  for (McastId id : retired_mcasts_) {
    McastMeta& m = mcast_meta_[id];
    m.retire_pending = false;
    if (!m.alive || m.refs != 0) continue;
    EraseIdFrom(&mcast_dedup_, m.hash, id);
    if (m.shared) {
      EraseIdFrom(&dest_dedup_, m.dest_hash, id);
      m.shared = false;
      m.dest_hash = 0;
      m.dest_root = -1;
    }
    // The route's edge/target vectors keep their capacity for the slot's
    // next tenant.
    mcasts_[id].edges.clear();
    mcasts_[id].targets.clear();
    m.alive = false;
    free_mcast_ids_.push_back(id);
    --live_mcasts_;
    ++freed;
  }
  retired_mcasts_.clear();
  return freed;
}

}  // namespace net
}  // namespace aspen
