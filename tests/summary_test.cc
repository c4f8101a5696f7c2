#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "routing/summary.h"

namespace aspen {
namespace routing {
namespace {

// ---- parameterized no-false-negative property over all scalar summaries ----

class ScalarSummaryTest : public ::testing::TestWithParam<SummaryType> {};

TEST_P(ScalarSummaryTest, NeverForgetsInsertedValues) {
  Rng rng(17);
  for (int trial = 0; trial < 20; ++trial) {
    auto summary = ScalarSummary::Make(GetParam());
    std::set<int32_t> inserted;
    for (int i = 0; i < 30; ++i) {
      int32_t v = static_cast<int32_t>(rng.UniformRange(-500, 500));
      summary->Insert(v);
      inserted.insert(v);
    }
    for (int32_t v : inserted) {
      EXPECT_TRUE(summary->MayContain(v)) << "lost value " << v;
    }
  }
}

TEST_P(ScalarSummaryTest, MergePreservesBothSides) {
  Rng rng(23);
  auto a = ScalarSummary::Make(GetParam());
  auto b = ScalarSummary::Make(GetParam());
  std::vector<int32_t> va, vb;
  for (int i = 0; i < 16; ++i) {
    va.push_back(static_cast<int32_t>(rng.UniformRange(0, 1000)));
    vb.push_back(static_cast<int32_t>(rng.UniformRange(0, 1000)));
    a->Insert(va.back());
    b->Insert(vb.back());
  }
  a->Merge(*b);
  for (int32_t v : va) EXPECT_TRUE(a->MayContain(v));
  for (int32_t v : vb) EXPECT_TRUE(a->MayContain(v));
}

TEST_P(ScalarSummaryTest, CloneIsIndependent) {
  auto a = ScalarSummary::Make(GetParam());
  a->Insert(42);
  auto b = a->Clone();
  b->Insert(99);
  EXPECT_TRUE(b->MayContain(42));
  EXPECT_TRUE(b->MayContain(99));
  if (GetParam() != SummaryType::kBloom) {
    EXPECT_FALSE(a->MayContain(99));  // clone must not alias the original
  }
}

TEST_P(ScalarSummaryTest, ReportsItsType) {
  EXPECT_EQ(ScalarSummary::Make(GetParam())->type(), GetParam());
}

TEST_P(ScalarSummaryTest, SizeBytesPositiveAfterInsert) {
  auto s = ScalarSummary::Make(GetParam());
  s->Insert(1);
  EXPECT_GT(s->SizeBytes(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllTypes, ScalarSummaryTest,
                         ::testing::Values(SummaryType::kBloom,
                                           SummaryType::kInterval,
                                           SummaryType::kExact));

// ---- type-specific behaviour ------------------------------------------------

TEST(BloomSummaryTest, LowFalsePositiveRateAtModerateFill) {
  BloomSummary bloom;
  for (int32_t v = 0; v < 16; ++v) bloom.Insert(v * 7919);
  int false_pos = 0;
  const int probes = 2000;
  for (int i = 0; i < probes; ++i) {
    // Probe values disjoint from the inserted set.
    if (bloom.MayContain(1000000 + i)) ++false_pos;
  }
  EXPECT_LT(static_cast<double>(false_pos) / probes, 0.08);
}

TEST(IntervalSummaryTest, TracksBounds) {
  IntervalSummary iv;
  EXPECT_TRUE(iv.empty());
  iv.Insert(10);
  iv.Insert(-5);
  iv.Insert(3);
  EXPECT_EQ(iv.lo(), -5);
  EXPECT_EQ(iv.hi(), 10);
  EXPECT_TRUE(iv.MayContain(0));
  EXPECT_FALSE(iv.MayContain(11));
  EXPECT_FALSE(iv.MayContain(-6));
}

TEST(IntervalSummaryTest, MergeWithEmptyIsNoop) {
  IntervalSummary a, b;
  a.Insert(5);
  a.Merge(b);
  EXPECT_EQ(a.lo(), 5);
  EXPECT_EQ(a.hi(), 5);
}

TEST(ExactSummaryTest, ExactMembership) {
  ExactSummary e;
  e.Insert(3);
  e.Insert(1);
  e.Insert(3);  // duplicate
  EXPECT_TRUE(e.MayContain(1));
  EXPECT_TRUE(e.MayContain(3));
  EXPECT_FALSE(e.MayContain(2));
  EXPECT_EQ(e.SizeBytes(), 4);  // two distinct 16-bit values
}

// ---- R-tree -----------------------------------------------------------------

TEST(RTreeSummaryTest, ContainsInsertedPoints) {
  Rng rng(31);
  RTreeSummary rt(4);
  std::vector<net::Point> pts;
  for (int i = 0; i < 50; ++i) {
    net::Point p{rng.UniformDouble() * 100, rng.UniformDouble() * 100};
    rt.Insert(p);
    pts.push_back(p);
  }
  EXPECT_LE(rt.num_rects(), 4);
  for (const auto& p : pts) {
    EXPECT_TRUE(rt.MayContainPoint(p));
    EXPECT_TRUE(rt.MayIntersectCircle(p, 0.001));
  }
}

TEST(RTreeSummaryTest, CircleIntersectionConservative) {
  RTreeSummary rt(4);
  rt.Insert({10, 10});
  // A disk centered far away with radius short of the point: no intersect.
  EXPECT_FALSE(rt.MayIntersectCircle({50, 10}, 30));
  EXPECT_TRUE(rt.MayIntersectCircle({50, 10}, 41));
}

TEST(RTreeSummaryTest, MergeKeepsCoverage) {
  RTreeSummary a(3), b(3);
  a.Insert({1, 1});
  a.Insert({2, 2});
  b.Insert({90, 90});
  a.Merge(b);
  EXPECT_TRUE(a.MayContainPoint({1, 1}));
  EXPECT_TRUE(a.MayContainPoint({90, 90}));
  EXPECT_LE(a.num_rects(), 3);
}

TEST(RTreeSummaryTest, EmptyIntersectsNothing) {
  RTreeSummary rt(4);
  EXPECT_TRUE(rt.empty());
  EXPECT_FALSE(rt.MayIntersectCircle({0, 0}, 1000));
  EXPECT_FALSE(rt.MayContainPoint({0, 0}));
}

}  // namespace
}  // namespace routing
}  // namespace aspen
