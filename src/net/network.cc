#include "net/network.h"

#include <algorithm>
#include <tuple>

#include "common/logging.h"

namespace aspen {
namespace net {

namespace {

/// Decorrelates per-node loss streams: the Rng's SplitMix seeding scrambles
/// this combined value, so neighboring ids do not yield related streams.
uint64_t NodeStreamSeed(uint64_t run_seed, NodeId id) {
  return run_seed ^ (0x9E3779B97F4A7C15ULL * (static_cast<uint64_t>(id) + 1));
}

}  // namespace

Network::Network(const Topology* topology, NetworkOptions options)
    : topology_(topology),
      options_(options),
      stats_(topology->num_nodes()),
      failed_(topology->num_nodes(), false) {
  node_rng_.reserve(topology->num_nodes());
  for (NodeId id = 0; id < topology->num_nodes(); ++id) {
    node_rng_.emplace_back(NodeStreamSeed(options_.seed, id));
  }
  shard_starts_ = {0};
  shards_.resize(1);
}

void Network::ConfigureSharding(std::vector<NodeId> starts,
                                common::WorkerPool* pool) {
  ASPEN_CHECK(!in_step_);
  ASPEN_CHECK(!HasTrafficInFlight());
  ASPEN_CHECK(!starts.empty());
  ASPEN_CHECK(starts.front() == 0);
  for (size_t i = 1; i < starts.size(); ++i) {
    ASPEN_CHECK(starts[i] > starts[i - 1]);
    ASPEN_CHECK(starts[i] < topology_->num_nodes());
  }
  shard_starts_ = std::move(starts);
  shards_.clear();
  shards_.resize(shard_starts_.size());
  pool_ = pool;
}

void Network::ReserveSteadyState(size_t frames_per_shard) {
  for (Shard& sh : shards_) {
    sh.frames.reserve(frames_per_shard);
    sh.free_frames.reserve(frames_per_shard);
    sh.in_flight.reserve(frames_per_shard);
    sh.pending.reserve(frames_per_shard);
    sh.group_scratch.reserve(frames_per_shard);
    // Each frame's processing can emit several effects (deliver + release,
    // snoop expansion, multicast fan-out).
    sh.effects.reserve(4 * frames_per_shard);
  }
  merge_scratch_.reserve(4 * frames_per_shard * shards_.size());
}

bool Network::HasTrafficInFlight() const {
  for (const Shard& sh : shards_) {
    if (!sh.in_flight.empty() || !sh.pending.empty()) return true;
  }
  return false;
}

bool Network::HasQueryTrafficInFlight(int query_id) const {
  for (const Shard& sh : shards_) {
    for (int32_t idx : sh.in_flight) {
      if (sh.frames[idx].msg.query_id == query_id) return true;
    }
    for (int32_t idx : sh.pending) {
      if (sh.frames[idx].msg.query_id == query_id) return true;
    }
  }
  return false;
}

int64_t Network::frames_in_flight() const {
  int64_t n = 0;
  for (const Shard& sh : shards_) {
    n += static_cast<int64_t>(sh.in_flight.size() + sh.pending.size());
  }
  return n;
}

size_t Network::frame_slab_capacity() const {
  size_t n = 0;
  for (const Shard& sh : shards_) n += sh.frames.size();
  return n;
}

void Network::FailNode(NodeId id) {
  ASPEN_CHECK(id >= 0 && id < topology_->num_nodes());
  failed_[id] = true;
}

void Network::ReviveNode(NodeId id) {
  ASPEN_CHECK(id >= 0 && id < topology_->num_nodes());
  failed_[id] = false;
}

namespace {

/// First entry of the sorted override vector with key >= `key`.
std::vector<std::pair<uint64_t, double>>::const_iterator LowerBoundLink(
    const std::vector<std::pair<uint64_t, double>>& v, uint64_t key) {
  return std::lower_bound(
      v.begin(), v.end(), key,
      [](const std::pair<uint64_t, double>& e, uint64_t k) {
        return e.first < k;
      });
}

}  // namespace

void Network::SetLinkLoss(NodeId from, NodeId to, double p) {
  ASPEN_CHECK(from >= 0 && from < topology_->num_nodes());
  ASPEN_CHECK(to >= 0 && to < topology_->num_nodes());
  const uint64_t key = LinkKey(from, to);
  auto it = link_loss_.begin() + (LowerBoundLink(link_loss_, key) -
                                  link_loss_.cbegin());
  if (it != link_loss_.end() && it->first == key) {
    it->second = p;
    return;
  }
  link_loss_.insert(it, {key, p});
}

void Network::ClearLinkLoss(NodeId from, NodeId to) {
  const uint64_t key = LinkKey(from, to);
  auto it = link_loss_.begin() + (LowerBoundLink(link_loss_, key) -
                                  link_loss_.cbegin());
  if (it != link_loss_.end() && it->first == key) link_loss_.erase(it);
}

double Network::LinkLossLookup(NodeId from, NodeId to) const {
  auto it = LowerBoundLink(link_loss_, LinkKey(from, to));
  return (it != link_loss_.end() && it->first == LinkKey(from, to))
             ? it->second
             : options_.loss_prob;
}

int32_t Network::AllocFrame(Shard* shard) {
  if (!shard->free_frames.empty()) {
    int32_t idx = shard->free_frames.back();
    shard->free_frames.pop_back();
    return idx;
  }
  shard->frames.emplace_back();
  return static_cast<int32_t>(shard->frames.size() - 1);
}

NodeId Network::ResolveNextHop(Frame* frame) const {
  const Message& msg = frame->msg;
  if (frame->at == msg.dest) return -2;
  switch (msg.mode) {
    case RoutingMode::kSourcePath: {
      const RouteTable& rt = plane_.routes();
      if (!rt.IsValidPath(msg.route)) return -1;
      if (frame->path_idx + 1 >= rt.PathLength(msg.route)) return -1;
      return rt.PathNode(msg.route, frame->path_idx + 1);
    }
    case RoutingMode::kTreeToRoot: {
      if (parent_resolver_ == nullptr) return -1;
      return parent_resolver_->ParentOf(frame->at);
    }
    case RoutingMode::kGeoGreedy:
      return GeoNextHop(*topology_, &frame->geo, frame->at, msg.dest);
  }
  return -1;
}

// detlint: steady-state begin
// Everything from Submit through StepUntilQuiet runs every cycle of a
// steady-state service run; the mesh/service benches' allocation audits
// enforce zero heap traffic here at runtime, detlint DL005 enforces the
// absence of allocating calls statically.

Result<uint64_t> Network::Submit(Message msg) {
  if (msg.origin < 0 || msg.origin >= topology_->num_nodes() ||
      msg.dest < 0 || msg.dest >= topology_->num_nodes()) {
    plane_.payloads().Release(msg.payload);
    return Status::InvalidArgument("Submit: origin/dest out of range");
  }
  if (failed_[msg.origin]) {
    plane_.payloads().Release(msg.payload);
    return Status::FailedPrecondition("Submit: origin node has failed");
  }
  msg.id = next_id_++;
  if (msg.origin == msg.dest) {
    DeliverLocal(msg, msg.dest);
    plane_.payloads().Release(msg.payload);
    return msg.id;
  }
  if (msg.mode == RoutingMode::kSourcePath) {
    const RouteTable& rt = plane_.routes();
    if (!rt.IsValidPath(msg.route) || rt.PathLength(msg.route) < 2 ||
        rt.PathFront(msg.route) != msg.origin ||
        rt.PathBack(msg.route) != msg.dest) {
      plane_.payloads().Release(msg.payload);
      return Status::InvalidArgument(
          "Submit: route must run from origin to dest");
    }
  }
  if (msg.mode == RoutingMode::kTreeToRoot && parent_resolver_ == nullptr) {
    plane_.payloads().Release(msg.payload);
    return Status::FailedPrecondition("Submit: no parent resolver installed");
  }
  Shard& sh = shards_[ShardOf(msg.origin)];
  const int32_t idx = AllocFrame(&sh);
  Frame& frame = sh.frames[idx];
  frame = Frame{};
  frame.msg = msg;
  frame.at = msg.origin;
  frame.path_idx = 0;
  NodeId next = ResolveNextHop(&frame);
  if (next < 0) {
    FreeFrame(&sh, idx);
    plane_.payloads().Release(msg.payload);
    return Status::Unreachable("Submit: no route from origin");
  }
  frame.next = next;
  sh.pending.push_back(idx);
  return msg.id;
}

Result<uint64_t> Network::SubmitMulticast(Message msg, McastId route) {
  if (msg.origin < 0 || msg.origin >= topology_->num_nodes()) {
    plane_.payloads().Release(msg.payload);
    return Status::InvalidArgument("SubmitMulticast: origin out of range");
  }
  if (failed_[msg.origin]) {
    plane_.payloads().Release(msg.payload);
    return Status::FailedPrecondition("SubmitMulticast: origin has failed");
  }
  if (!plane_.routes().IsValidMulticast(route)) {
    plane_.payloads().Release(msg.payload);
    return Status::InvalidArgument("SubmitMulticast: unknown route");
  }
  msg.id = next_id_++;
  const uint64_t id = msg.id;
  // Children span: raw pointers into the route's edge storage, which stays
  // put even if a delivery handler interns new routes below.
  const MulticastRoute& r = plane_.routes().Multicast(route);
  const bool origin_is_target = r.IsTarget(msg.origin);
  auto [child, child_end] = r.ChildrenOf(msg.origin);
  if (origin_is_target) DeliverLocal(msg, msg.origin);
  const int fanout = static_cast<int>(child_end - child);
  if (fanout == 0) {
    plane_.payloads().Release(msg.payload);
    return id;
  }
  // The message's one payload reference becomes `fanout` frame references.
  for (int i = 1; i < fanout; ++i) plane_.payloads().AddRef(msg.payload);
  Shard& sh = shards_[ShardOf(msg.origin)];
  for (; child != child_end; ++child) {
    const int32_t idx = AllocFrame(&sh);
    Frame& frame = sh.frames[idx];
    frame = Frame{};
    frame.msg = msg;
    frame.msg.dest = child->second;  // per-edge destination; fan-out continues
    frame.mcast = route;
    frame.at = msg.origin;
    frame.next = child->second;
    sh.pending.push_back(idx);
  }
  return id;
}

void Network::DeliverLocal(const Message& msg, NodeId at) {
  if (on_deliver_) on_deliver_(msg, at);
}

void Network::DropAndRelease(const Message& msg, NodeId at, NodeId next) {
  if (on_drop_) on_drop_(msg, at, next);
  plane_.payloads().Release(msg.payload);
}

Network::SortKey Network::KeyFor(const Frame& f) const {
  // Mirrors the packet classes documented on SortKey: multicast broadcasts
  // first, then merge-eligible unicast, then singletons; every component is
  // frame content (see the class comment on shard-count invariance).
  if (f.mcast != kInvalidRoute) {
    return {0, f.at, static_cast<int64_t>(f.msg.id), 0, 0, f.msg.id,
            f.msg.dest};
  }
  if (options_.enable_merging && (f.msg.kind == MessageKind::kData ||
                                  f.msg.kind == MessageKind::kJoinResult)) {
    return {1, f.at, f.next, f.msg.dest, static_cast<int64_t>(f.msg.kind),
            f.msg.id, f.msg.dest};
  }
  return {2, f.at, static_cast<int64_t>(f.msg.id), f.msg.dest, 0, f.msg.id,
          f.msg.dest};
}

bool Network::SamePacketGroup(const SortKey& a, const SortKey& b) {
  if (std::get<0>(a) != std::get<0>(b) || std::get<1>(a) != std::get<1>(b)) {
    return false;
  }
  switch (std::get<0>(a)) {
    case 0:
      return std::get<2>(a) == std::get<2>(b);
    case 1:
      return std::get<2>(a) == std::get<2>(b) &&
             std::get<3>(a) == std::get<3>(b) &&
             std::get<4>(a) == std::get<4>(b);
    default:
      return false;
  }
}

Network::Effect& Network::PushEffect(Shard* sh, Effect::Kind kind,
                                     const SortKey& key, int* seq) {
  sh->effects.emplace_back();
  Effect& e = sh->effects.back();
  e.kind = kind;
  e.key = key;
  e.seq = (*seq)++;
  return e;
}

void Network::PushDropEffects(Shard* sh, const SortKey& key, int* seq,
                              const Message& msg, NodeId at, NodeId next) {
  // Mirrors DropAndRelease: handler first (borrowing), then the release.
  Effect& d = PushEffect(sh, Effect::Kind::kDrop, key, seq);
  d.msg = msg;
  d.a = at;
  d.b = next;
  Effect& r = PushEffect(sh, Effect::Kind::kRelease, key, seq);
  r.payload = msg.payload;
}

/// Compute-phase sink: every externally-visible event becomes a deferred
/// effect under the frame's canonical key.
struct Network::DeferSink {
  Network* net;
  Shard* sh;
  const SortKey& key;
  int* seq;

  void Deliver(const Message& m, NodeId at) {
    Effect& e = net->PushEffect(sh, Effect::Kind::kDeliver, key, seq);
    e.msg = m;
    e.a = at;
  }
  /// Drop handler plus the payload release, as in DropAndRelease.
  void Drop(const Message& m, NodeId at, NodeId next) {
    net->PushDropEffects(sh, key, seq, m, at, next);
  }
  void Release(PayloadHandle h) {
    Effect& e = net->PushEffect(sh, Effect::Kind::kRelease, key, seq);
    e.payload = h;
  }
  void AddRef(PayloadHandle h) {
    Effect& e = net->PushEffect(sh, Effect::Kind::kAddRef, key, seq);
    e.payload = h;
  }
};

/// Exchange-phase sink: the exchange applies effects sequentially in
/// canonical order, so events fire directly.
struct Network::InlineSink {
  Network* net;

  void Deliver(const Message& m, NodeId at) ASPEN_REQUIRES_SEQUENTIAL {
    net->DeliverLocal(m, at);
  }
  void Drop(const Message& m, NodeId at, NodeId next)
      ASPEN_REQUIRES_SEQUENTIAL {
    net->DropAndRelease(m, at, next);
  }
  void Release(PayloadHandle h) { net->plane_.payloads().Release(h); }
  void AddRef(PayloadHandle h) { net->plane_.payloads().AddRef(h); }
};

template <typename Sink>
void Network::ArriveSlot(Shard* sh, int32_t idx, Sink sink) {
  Frame& f = sh->frames[idx];
  f.at = f.next;
  f.attempts = 0;
  if (f.mcast != kInvalidRoute) {
    // Multicast: deliver at targets, then fan out to children. Copy the
    // frame first — fan-out allocates slots (and an inline delivery may
    // Submit), either of which can grow the slab and invalidate
    // references into it. The children span stays valid: it points into
    // the route's edge storage, which stays put even if a delivery
    // handler interns new routes.
    const Frame base = f;
    const MulticastRoute& route = plane_.routes().Multicast(base.mcast);
    const bool is_target = route.IsTarget(base.at);
    auto [child, child_end] = route.ChildrenOf(base.at);
    if (is_target) sink.Deliver(base.msg, base.at);
    const int fanout = static_cast<int>(child_end - child);
    if (fanout == 0) {
      FreeFrame(sh, idx);
      sink.Release(base.msg.payload);
      return;
    }
    for (int i = 1; i < fanout; ++i) sink.AddRef(base.msg.payload);
    bool reused_slot = false;
    for (; child != child_end; ++child) {
      const int32_t nidx = reused_slot ? AllocFrame(sh) : idx;
      reused_slot = true;
      Frame& nf = sh->frames[nidx];
      nf = base;
      nf.next = child->second;
      nf.msg.dest = child->second;
      sh->pending.push_back(nidx);
    }
    return;
  }
  if (f.at == f.msg.dest) {
    // Terminal: copy the envelope and free the slot first, so an inline
    // handler may Submit into the freed slot.
    const Message m = f.msg;
    const NodeId at = f.at;
    FreeFrame(sh, idx);
    sink.Deliver(m, at);
    sink.Release(m.payload);
    return;
  }
  if (f.msg.mode == RoutingMode::kSourcePath) {
    ++f.path_idx;
    // Guard against corrupted routes where the arrival node disagrees with
    // the interned path.
    const RouteTable& rt = plane_.routes();
    if (f.path_idx >= rt.PathLength(f.msg.route) ||
        rt.PathNode(f.msg.route, f.path_idx) != f.at) {
      const Message m = f.msg;
      const NodeId at = f.at;
      FreeFrame(sh, idx);
      sink.Drop(m, at, -1);
      return;
    }
  }
  NodeId next = ResolveNextHop(&f);
  if (next == -2) {
    const Message m = f.msg;
    const NodeId at = f.at;
    FreeFrame(sh, idx);
    sink.Deliver(m, at);
    sink.Release(m.payload);
    return;
  }
  if (next < 0) {
    const Message m = f.msg;
    const NodeId at = f.at;
    FreeFrame(sh, idx);
    sink.Drop(m, at, -1);
    return;
  }
  // Forwarding: the frame stays in its slot; only its index moves.
  f.next = next;
  sh->pending.push_back(idx);
}

void Network::ArriveExchange(const Frame& f) {
  // The migrated frame now belongs to the shard owning its arrival node.
  Shard& sh = shards_[ShardOf(f.next)];
  const int32_t idx = AllocFrame(&sh);
  sh.frames[idx] = f;
  ArriveSlot(&sh, idx, InlineSink{this});
}

void Network::ComputeShard(int shard_idx) {
  Shard* sh = &shards_[shard_idx];
  auto& gs = sh->group_scratch;
  gs.clear();
  // Reserve to the frame slab's capacity, not the current in-flight count:
  // the slab bounds every future in-flight size, so the scratch stops
  // reallocating once the slab's high-water settles (the in-flight count
  // itself keeps nudging past its old maximum for the whole run).
  gs.reserve(sh->frames.capacity());
  for (int32_t idx : sh->in_flight) {
    gs.emplace_back(KeyFor(sh->frames[idx]), idx);
  }
  // The canonical content order (SortKey comment): shard-local sorting of a
  // contiguous node range reproduces exactly the global order restricted to
  // this shard, which is what makes the exchange-phase merge byte-identical
  // to a single-shard walk.
  std::sort(gs.begin(), gs.end());

  for (size_t lo = 0, hi; lo < gs.size(); lo = hi) {
    hi = lo + 1;
    while (hi < gs.size() && SamePacketGroup(gs[hi].first, gs[lo].first)) {
      ++hi;
    }
    const bool is_multicast = std::get<0>(gs[lo].first) == 0;
    const NodeId sender = sh->frames[gs[lo].second].at;
    if (failed_[sender]) {
      // Frames die with their holder — but not silently: the drop handler
      // fires so protocol logic (e.g. failover replay retries) learns the
      // frame is gone. No traffic is charged; nothing was transmitted.
      for (size_t k = lo; k < hi; ++k) {
        const int32_t fidx = gs[k].second;
        const Message m = sh->frames[fidx].msg;
        const NodeId at = sh->frames[fidx].at;
        const NodeId next = sh->frames[fidx].next;
        FreeFrame(sh, fidx);
        int seq = 0;
        PushDropEffects(sh, gs[k].first, &seq, m, at, next);
      }
      continue;
    }

    if (is_multicast) {
      // One broadcast transmission reaches every child; receptions are
      // independent, with one unconditional loss draw each.
      const Frame& first = sh->frames[gs[lo].second];
      const int bytes = first.msg.size_bytes + WireFormat::kLinkHeaderBytes;
      stats_.RecordSendSharded(sender, first.msg.kind, bytes,
                               first.msg.query_id, &sh->stats_delta);
      for (size_t k = lo; k < hi; ++k) {
        const int32_t fidx = gs[k].second;
        // Re-fetch per iteration: ArriveSlot below may grow the slab.
        Frame& f = sh->frames[fidx];
        const bool loss_draw = DrawLoss(sender, LinkLoss(sender, f.next));
        const bool lost = loss_draw || failed_[f.next];
        if (lost) {
          ++f.attempts;
          if (f.attempts > options_.max_retries) {
            const Message m = f.msg;
            const NodeId at = f.at;
            const NodeId next = f.next;
            FreeFrame(sh, fidx);
            int seq = 0;
            PushDropEffects(sh, gs[k].first, &seq, m, at, next);
          } else {
            sh->pending.push_back(fidx);
          }
        } else if (ShardOf(f.next) == shard_idx) {
          stats_.RecordReceive(f.next, bytes);
          int seq = 0;
          ArriveSlot(sh, fidx, DeferSink{this, sh, gs[k].first, &seq});
        } else {
          int seq = 0;
          Effect& e = PushEffect(sh, Effect::Kind::kArrive, gs[k].first, &seq);
          e.frame = f;
          e.bytes = bytes;
          FreeFrame(sh, fidx);
        }
      }
      continue;
    }

    // Unicast physical packet (possibly several merged logical frames). The
    // loss draw is taken once per physical transmission and unconditionally
    // — a dead receiver must not skip the draw, or failing one node would
    // perturb the loss outcome of every later transmission by this sender
    // (see the class comment).
    const NodeId next = sh->frames[gs[lo].second].next;
    const bool loss_draw = DrawLoss(sender, LinkLoss(sender, next));
    const bool lost = loss_draw || failed_[next];
    const bool next_local = ShardOf(next) == shard_idx;
    bool charged_header = false;
    for (size_t k = lo; k < hi; ++k) {
      const int32_t fidx = gs[k].second;
      int bytes;
      {
        const Frame& f = sh->frames[fidx];
        bytes = f.msg.size_bytes;
        if (!charged_header) {
          bytes += WireFormat::kLinkHeaderBytes;
          charged_header = true;
        }
        stats_.RecordSendSharded(sender, f.msg.kind, bytes, f.msg.query_id,
                                 &sh->stats_delta);
        if (!lost && next_local) stats_.RecordReceive(next, bytes);
      }
      int seq = 0;
      // Snoop semantics (see header): neighbors overhear every on-air
      // attempt — even one the receiver loses, and even the final attempt
      // before the sender abandons the frame below. Snoopers may live in
      // any shard, so the expansion runs in the exchange phase.
      if (options_.enable_snooping && on_snoop_) {
        Effect& e = PushEffect(sh, Effect::Kind::kSnoopTx, gs[k].first, &seq);
        e.msg = sh->frames[fidx].msg;
        e.a = sender;
        e.b = next;
      }
      if (lost) {
        Frame& f = sh->frames[fidx];
        ++f.attempts;
        if (f.attempts > options_.max_retries) {
          const Message m = f.msg;
          const NodeId at = f.at;
          const NodeId fnext = f.next;
          FreeFrame(sh, fidx);
          PushDropEffects(sh, gs[k].first, &seq, m, at, fnext);
        } else {
          sh->pending.push_back(fidx);
        }
      } else if (next_local) {
        ArriveSlot(sh, fidx, DeferSink{this, sh, gs[k].first, &seq});
      } else {
        Effect& e = PushEffect(sh, Effect::Kind::kArrive, gs[k].first, &seq);
        e.frame = sh->frames[fidx];
        e.bytes = bytes;
        FreeFrame(sh, fidx);
      }
    }
  }
  sh->in_flight.clear();
}

void Network::ExchangePhase() {
  merge_scratch_.clear();
  for (const Shard& sh : shards_) {
    for (const Effect& e : sh.effects) merge_scratch_.push_back(&e);
  }
  // Each shard's effect list is already in canonical order (its compute
  // walk is), so this sort is a K-way merge in disguise; the merged order
  // is exactly the order a single-shard walk would have produced.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const Effect* x, const Effect* y) {
              if (x->key != y->key) return x->key < y->key;
              return x->seq < y->seq;
            });
  for (const Effect* e : merge_scratch_) {
    switch (e->kind) {
      case Effect::Kind::kDeliver:
        DeliverLocal(e->msg, e->a);
        break;
      case Effect::Kind::kDrop:
        if (on_drop_) on_drop_(e->msg, e->a, e->b);
        break;
      case Effect::Kind::kSnoopTx:
        for (NodeId w : topology_->neighbors(e->a)) {
          if (w != e->b && !failed_[w]) on_snoop_(e->msg, w, e->a, e->b);
        }
        break;
      case Effect::Kind::kAddRef:
        plane_.payloads().AddRef(e->payload);
        break;
      case Effect::Kind::kRelease:
        plane_.payloads().Release(e->payload);
        break;
      case Effect::Kind::kArrive:
        stats_.RecordReceive(e->frame.next, e->bytes);
        ArriveExchange(e->frame);
        break;
    }
  }
  merge_scratch_.clear();
  for (Shard& sh : shards_) {
    sh.effects.clear();
    stats_.Absorb(&sh.stats_delta);
  }
}

void Network::Step() {
  ASPEN_CHECK(!in_step_);
  in_step_ = true;
  for (Shard& sh : shards_) sh.in_flight.swap(sh.pending);
  const int num = num_shards();
  if (num == 1 || pool_ == nullptr) {
    for (int s = 0; s < num; ++s) ComputeShard(s);
  } else {
    if (!compute_job_) {
      compute_job_ = [this](int s) { ComputeShard(s); };
    }
    pool_->Run(num, compute_job_);
  }
  ExchangePhase();
  ++now_;
  in_step_ = false;
}

int Network::StepUntilQuiet(int max_steps) {
  int steps = 0;
  while (HasTrafficInFlight() && steps < max_steps) {
    Step();
    ++steps;
  }
  return steps;
}

// detlint: steady-state end

}  // namespace net
}  // namespace aspen
