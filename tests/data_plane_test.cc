// Unit coverage for the data-plane primitives: pooled payloads
// (generation-checked slab reuse, double-free and stale-handle safety) and
// the route table (path/multicast interning, content dedup, fan-out order).

#include <gtest/gtest.h>

#include "common/phase.h"
#include "net/data_plane.h"
#include "net/payload_pool.h"
#include "net/route_table.h"

namespace aspen {
namespace net {
namespace {

struct TestPayload {
  int value = 0;
  std::vector<int> buffer;
};

TEST(TypedPoolTest, AllocateGetRoundtrip) {
  // The single test thread is the sequential phase: nothing runs
  // concurrently with these direct network mutations.
  common::SequentialPhaseScope seq_phase;
  TypedPool<TestPayload> pool(1);
  PayloadHandle h = pool.Allocate();
  ASSERT_TRUE(h.valid());
  TestPayload* p = pool.Get(h);
  ASSERT_NE(p, nullptr);
  p->value = 42;
  EXPECT_EQ(pool.Get(h)->value, 42);
  EXPECT_EQ(pool.live(), 1u);
}

TEST(TypedPoolTest, ReleaseFreesSlotAndStalesOldHandles) {
  common::SequentialPhaseScope seq_phase;
  TypedPool<TestPayload> pool(1);
  PayloadHandle h = pool.Allocate();
  pool.Get(h)->buffer.assign(64, 7);
  EXPECT_TRUE(pool.Release(h));
  EXPECT_EQ(pool.live(), 0u);
  // The old handle is stale: access fails softly.
  EXPECT_EQ(pool.Get(h), nullptr);
  // The slot is recycled with its capacity intact.
  PayloadHandle h2 = pool.Allocate();
  EXPECT_EQ(h2.slot, h.slot);
  EXPECT_NE(h2.gen, h.gen);
  EXPECT_GE(pool.Get(h2)->buffer.capacity(), 64u);
  EXPECT_EQ(pool.capacity(), 1u);  // no second slot was ever needed
}

TEST(TypedPoolTest, DoubleFreeReturnsFalseAndLeavesPoolIntact) {
  common::SequentialPhaseScope seq_phase;
  TypedPool<TestPayload> pool(1);
  PayloadHandle h = pool.Allocate();
  EXPECT_TRUE(pool.Release(h));
  EXPECT_FALSE(pool.Release(h));  // double-free detected, not corrupting
  PayloadHandle h2 = pool.Allocate();
  EXPECT_NE(pool.Get(h2), nullptr);
  EXPECT_FALSE(pool.Release(h));  // stale even after the slot was reused
  EXPECT_EQ(pool.live(), 1u);
}

TEST(TypedPoolTest, AddRefKeepsSlotAliveUntilFinalRelease) {
  common::SequentialPhaseScope seq_phase;
  TypedPool<TestPayload> pool(1);
  PayloadHandle h = pool.Allocate();
  EXPECT_TRUE(pool.AddRef(h));
  EXPECT_TRUE(pool.Release(h));
  EXPECT_NE(pool.Get(h), nullptr);  // one reference left
  EXPECT_TRUE(pool.Release(h));
  EXPECT_EQ(pool.Get(h), nullptr);
  EXPECT_FALSE(pool.AddRef(h));  // resurrect attempts fail
}

TEST(TypedPoolTest, WrongPoolTagRejected) {
  common::SequentialPhaseScope seq_phase;
  TypedPool<TestPayload> pool(1);
  PayloadHandle h = pool.Allocate();
  h.pool = 2;
  EXPECT_EQ(pool.Get(h), nullptr);
  EXPECT_FALSE(pool.Release(h));
}

TEST(PayloadArenaTest, RoutesHandlesToTheRightPoolAndIgnoresEmpty) {
  common::SequentialPhaseScope seq_phase;
  PayloadArena arena;
  auto* pool = arena.GetOrCreate<TestPayload>(3);
  EXPECT_EQ(arena.GetOrCreate<TestPayload>(3), pool);  // same binding
  PayloadHandle h = pool->Allocate();
  arena.AddRef(h);
  arena.Release(h);
  arena.Release(h);
  EXPECT_EQ(pool->live(), 0u);
  arena.Release(PayloadHandle{});  // no payload: a no-op
  EXPECT_EQ(arena.live(), 0u);
}

TEST(RouteTableTest, InternDedupesByContent) {
  common::SequentialPhaseScope seq_phase;
  RouteTable rt;
  RouteId a = rt.InternPath({1, 2, 3});
  RouteId b = rt.InternPath({1, 2, 3});
  RouteId c = rt.InternPath({3, 2, 1});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(rt.num_paths(), 2u);
  EXPECT_EQ(rt.PathLength(a), 3);
  EXPECT_EQ(rt.PathFront(a), 1);
  EXPECT_EQ(rt.PathBack(a), 3);
  EXPECT_EQ(rt.PathNode(c, 1), 2);
  EXPECT_EQ(rt.InternPath(nullptr, 0), kInvalidRoute);
}

TEST(RouteTableTest, MulticastNormalizesAndDedupes) {
  common::SequentialPhaseScope seq_phase;
  RouteTable rt;
  MulticastRoute a;
  a.edges = {{2, 3}, {2, 1}, {3, 4}};  // deliberately unsorted
  a.targets = {4, 1};
  MulticastRoute b;
  b.edges = {{2, 1}, {2, 3}, {3, 4}};
  b.targets = {1, 4};
  McastId ia = rt.InternMulticast(std::move(a));
  McastId ib = rt.InternMulticast(std::move(b));
  EXPECT_EQ(ia, ib);
  const MulticastRoute& r = rt.Multicast(ia);
  // Normalized: edges sorted (parent, child) ascending.
  EXPECT_EQ(r.edges.front(), (std::pair<NodeId, NodeId>{2, 1}));
  auto [lo, hi] = r.ChildrenOf(2);
  ASSERT_EQ(hi - lo, 2);
  EXPECT_EQ(lo[0].second, 1);
  EXPECT_EQ(lo[1].second, 3);
  EXPECT_TRUE(r.IsTarget(4));
  EXPECT_FALSE(r.IsTarget(2));
}

}  // namespace
}  // namespace net
}  // namespace aspen
