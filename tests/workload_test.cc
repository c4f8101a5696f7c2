#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "net/topology.h"
#include "query/parser.h"
#include "query/window.h"
#include "workload/workload.h"

namespace aspen {
namespace workload {
namespace {

using net::NodeId;
using query::AttrId;

net::Topology Topo() { return *net::Topology::Random(100, 7.0, 42); }

// ---- selectivity design ------------------------------------------------------

TEST(SelectivityTest, CeilInverse) {
  EXPECT_EQ(CeilInverse(1.0), 1);
  EXPECT_EQ(CeilInverse(0.5), 2);
  EXPECT_EQ(CeilInverse(0.2), 5);
  EXPECT_EQ(CeilInverse(0.1), 10);
  EXPECT_EQ(CeilInverse(1.0 / 6), 6);
  EXPECT_EQ(CeilInverse(0.05), 20);
}

class FilterDesignTest
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(FilterDesignTest, RealizedRatesNearTargets) {
  auto [ss, st, sst] = GetParam();
  SelectivityParams p{ss, st, sst};
  FilterDesign d = DesignFilters(p);
  EXPECT_EQ(d.domain, CeilInverse(sst));
  // Realized producer rates within a domain quantum of the target.
  double quantum = 1.0 / d.domain;
  EXPECT_NEAR(d.realized_s, ss, quantum + 1e-9);
  EXPECT_NEAR(d.realized_t, st, quantum + 1e-9);
  EXPECT_GT(d.realized_s, 0.0);
  EXPECT_GT(d.realized_t, 0.0);
  // Conditional join probability close to sigma_st.
  EXPECT_NEAR(d.realized_st, sst, sst * 1.2 + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    PaperGrid, FilterDesignTest,
    ::testing::Values(
        // The five sigma_s:sigma_t ratios of Figures 2-4, x sigma_st 20%.
        std::make_tuple(0.1, 1.0, 0.2), std::make_tuple(1.0 / 6, 0.5, 0.2),
        std::make_tuple(0.5, 0.5, 0.2), std::make_tuple(0.5, 1.0 / 6, 0.2),
        std::make_tuple(1.0, 0.1, 0.2),
        // sigma_st 10% and 5% spot checks.
        std::make_tuple(0.5, 0.5, 0.1), std::make_tuple(0.1, 1.0, 0.05),
        std::make_tuple(1.0, 1.0, 0.05)));

TEST(FilterDesignTest, FullRateNeedsNoFilter) {
  FilterDesign d = DesignFilters({1.0, 1.0, 0.2});
  EXPECT_EQ(d.mod_s, 1);
  EXPECT_EQ(d.mod_t, 1);
  for (int u = 0; u < d.domain; ++u) {
    EXPECT_TRUE(d.PassS(u));
    EXPECT_TRUE(d.PassT(u));
  }
}

// ---- static config -------------------------------------------------------------

TEST(StaticConfigTest, Table1Ranges) {
  auto topo = Topo();
  StaticConfig cfg(topo, 99);
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    const auto& t = cfg.tuple(i);
    EXPECT_EQ(t[AttrId::kAttrId], i);
    EXPECT_GE(t[AttrId::kAttrX], 7);
    EXPECT_LE(t[AttrId::kAttrX], 60);
    EXPECT_GE(t[AttrId::kAttrY], 0);
    EXPECT_LT(t[AttrId::kAttrY], 10);
    EXPECT_GE(t[AttrId::kAttrCid], 0);
    EXPECT_LE(t[AttrId::kAttrCid], 3);
    EXPECT_GE(t[AttrId::kAttrRid], 0);
    EXPECT_LE(t[AttrId::kAttrRid], 3);
    // pos in decimeters of the true position.
    EXPECT_NEAR(t[AttrId::kAttrPosX], topo.position(i).x * 10.0, 0.51);
    EXPECT_NEAR(t[AttrId::kAttrPosY], topo.position(i).y * 10.0, 0.51);
  }
}

TEST(StaticConfigTest, XIsHigherAtCenter) {
  auto topo = Topo();
  StaticConfig cfg(topo, 99);
  // Node 0 is at the field center: its x should be near the top of range.
  EXPECT_GE(cfg.tuple(0)[AttrId::kAttrX], 45);
  // Average x of far-from-center nodes is lower than of near-center nodes.
  double near = 0, far = 0;
  int n_near = 0, n_far = 0;
  net::Point center{128, 128};
  for (NodeId i = 0; i < topo.num_nodes(); ++i) {
    double d = net::Distance(topo.position(i), center);
    if (d < 60) {
      near += cfg.tuple(i)[AttrId::kAttrX];
      ++n_near;
    } else if (d > 110) {
      far += cfg.tuple(i)[AttrId::kAttrX];
      ++n_far;
    }
  }
  ASSERT_GT(n_near, 0);
  ASSERT_GT(n_far, 0);
  EXPECT_GT(near / n_near, far / n_far + 5.0);
}

TEST(StaticConfigTest, SetOverridesStaticOnly) {
  auto topo = Topo();
  StaticConfig cfg(topo, 99);
  cfg.Set(5, AttrId::kAttrRole, 3);
  EXPECT_EQ(cfg.tuple(5)[AttrId::kAttrRole], 3);
}

// ---- Intel trace -----------------------------------------------------------------

TEST(IntelTraceTest, HumidityInRangeAndDeterministic) {
  auto topo = net::Topology::IntelLab();
  IntelTrace trace(topo, 7);
  for (NodeId n : {0, 10, 53}) {
    for (int c : {0, 100, 500}) {
      int32_t v = trace.Humidity(n, c);
      EXPECT_GE(v, 0);
      EXPECT_LE(v, 65535);
      EXPECT_EQ(v, trace.Humidity(n, c));
    }
  }
}

TEST(IntelTraceTest, ClosePairsExceedThresholdNearTwentyPercent) {
  auto topo = net::Topology::IntelLab();
  IntelTrace trace(topo, 7);
  // Average the exceed probability over all <5m pairs.
  double sum = 0;
  int pairs = 0;
  for (NodeId a = 0; a < topo.num_nodes(); ++a) {
    for (NodeId b = a + 1; b < topo.num_nodes(); ++b) {
      if (topo.DistanceBetween(a, b) < 5.0) {
        sum += trace.DiffExceedProb(a, b, 1000, 400);
        ++pairs;
      }
    }
  }
  ASSERT_GT(pairs, 10);
  double mean = sum / pairs;
  EXPECT_GT(mean, 0.10);
  EXPECT_LT(mean, 0.35);
}

TEST(IntelTraceTest, TemporallyCorrelated) {
  auto topo = net::Topology::IntelLab();
  IntelTrace trace(topo, 7);
  // Successive samples differ far less than the full dynamic range.
  double step_sum = 0;
  for (int c = 0; c < 200; ++c) {
    step_sum += std::abs(trace.Humidity(5, c + 1) - trace.Humidity(5, c));
  }
  EXPECT_LT(step_sum / 200, 2500);
}

// ---- window ----------------------------------------------------------------------

TEST(JoinWindowTest, TupleModeEvictsOldest) {
  query::JoinWindow w(2);
  auto mk = [](int32_t id) {
    query::Tuple t = query::Schema::Sensor().MakeTuple();
    t[AttrId::kAttrId] = id;
    return t;
  };
  w.Push(mk(1), 0);
  w.Push(mk(2), 1);
  w.Push(mk(3), 2);
  ASSERT_EQ(w.size(), 2);
  EXPECT_EQ(w.entry(0).tuple[AttrId::kAttrId], 2);
  EXPECT_EQ(w.entry(1).tuple[AttrId::kAttrId], 3);
  EXPECT_GT(w.StorageBytes(), 0);
  w.Clear();
  EXPECT_TRUE(w.empty());
}

TEST(JoinWindowTest, TimeModeKeepsAllRecentAndEvictsByCycle) {
  query::JoinWindow w(3, /*time_based=*/true);
  auto mk = [](int32_t id) {
    query::Tuple t = query::Schema::Sensor().MakeTuple();
    t[AttrId::kAttrId] = id;
    return t;
  };
  // Two tuples in one cycle: both retained (no count cap in time mode).
  w.Push(mk(1), 0);
  w.Push(mk(2), 0);
  w.Push(mk(3), 1);
  w.Push(mk(4), 2);
  EXPECT_EQ(w.size(), 4);
  // At cycle 3, cycle 0 entries expire (window covers cycles 1..3).
  w.EvictExpired(3);
  ASSERT_EQ(w.size(), 2);
  EXPECT_EQ(w.entry(0).cycle, 1);
  // At cycle 10 everything is gone.
  w.EvictExpired(10);
  EXPECT_TRUE(w.empty());
}

TEST(JoinWindowTest, TupleModeIgnoresEvictExpired) {
  query::JoinWindow w(2);
  w.Push(query::Schema::Sensor().MakeTuple(), 0);
  w.EvictExpired(100);
  EXPECT_EQ(w.size(), 1);
}

// ---- workloads --------------------------------------------------------------------

TEST(WorkloadTest, Query0PairsAreOneToOne) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery0(&topo, {0.5, 0.5, 0.2}, 10, 3, 7);
  ASSERT_TRUE(wl.ok());
  auto pairs = wl->AllJoinPairs();
  EXPECT_EQ(pairs.size(), 10u);
  std::set<NodeId> ss, ts;
  for (const auto& [s, t] : pairs) {
    EXPECT_TRUE(ss.insert(s).second) << "s reused";
    EXPECT_TRUE(ts.insert(t).second) << "t reused";
    EXPECT_NE(s, 0);
    EXPECT_NE(t, 0);
  }
}

TEST(WorkloadTest, Query0RejectsTooManyPairs) {
  auto topo = Topo();
  EXPECT_FALSE(Workload::MakeQuery0(&topo, {0.5, 0.5, 0.2}, 60, 3, 7).ok());
  EXPECT_FALSE(Workload::MakeQuery0(&topo, {0.5, 0.5, 0.2}, 0, 3, 7).ok());
}

TEST(WorkloadTest, Query1PairsMatchBruteForcePredicate) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {0.5, 0.5, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  std::set<std::pair<NodeId, NodeId>> expected;
  for (NodeId s = 0; s < topo.num_nodes(); ++s) {
    for (NodeId t = 0; t < topo.num_nodes(); ++t) {
      if (s == t) continue;
      const auto& st = wl->statics().tuple(s);
      const auto& tt = wl->statics().tuple(t);
      if (st[AttrId::kAttrId] < 25 && tt[AttrId::kAttrId] > 50 &&
          st[AttrId::kAttrX] == tt[AttrId::kAttrY] + 5) {
        expected.insert({s, t});
      }
    }
  }
  auto pairs = wl->AllJoinPairs();
  std::set<std::pair<NodeId, NodeId>> actual(pairs.begin(), pairs.end());
  EXPECT_EQ(actual, expected);
  EXPECT_FALSE(expected.empty());
}

TEST(WorkloadTest, Query2PerimeterStructure) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery2(&topo, {0.5, 0.5, 0.1}, 1, 7);
  ASSERT_TRUE(wl.ok());
  auto pairs = wl->AllJoinPairs();
  ASSERT_FALSE(pairs.empty());
  for (const auto& [s, t] : pairs) {
    const auto& st = wl->statics().tuple(s);
    const auto& tt = wl->statics().tuple(t);
    EXPECT_EQ(st[AttrId::kAttrRid], 0);
    EXPECT_EQ(tt[AttrId::kAttrRid], 3);
    EXPECT_EQ(st[AttrId::kAttrCid], tt[AttrId::kAttrCid]);
    EXPECT_EQ(st[AttrId::kAttrId] % 4, tt[AttrId::kAttrId] % 4);
  }
}

TEST(WorkloadTest, Query3RegionPairs) {
  auto topo = net::Topology::IntelLab();
  auto wl = Workload::MakeQuery3(&topo, 1, 7);
  ASSERT_TRUE(wl.ok());
  auto pairs = wl->AllJoinPairs();
  ASSERT_FALSE(pairs.empty());
  for (const auto& [s, t] : pairs) {
    EXPECT_LT(s, t);  // s.id < t.id
    const auto& st = wl->statics().tuple(s);
    const auto& tt = wl->statics().tuple(t);
    double dx = st[AttrId::kAttrPosX] - tt[AttrId::kAttrPosX];
    double dy = st[AttrId::kAttrPosY] - tt[AttrId::kAttrPosY];
    EXPECT_LT(dx * dx + dy * dy, 50.0 * 50.0);
  }
}

// The nested loop AllJoinPairs replaced for equality primaries: every
// (S, T) candidate, S ascending, then T ascending.
std::vector<std::pair<NodeId, NodeId>> NestedLoopPairs(const Workload& wl) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (NodeId s : wl.SNodes()) {
    for (NodeId t : wl.TNodes()) {
      if (s != t && wl.StaticPairJoins(s, t)) out.emplace_back(s, t);
    }
  }
  return out;
}

TEST(WorkloadTest, AllJoinPairsEqualsNestedLoop) {
  auto topo = Topo();
  auto grid = *net::Topology::Grid(15, 15);
  auto lab = net::Topology::IntelLab();
  std::vector<std::pair<std::string, Result<Workload>>> cases;
  cases.emplace_back("query0",
                     Workload::MakeQuery0(&topo, {0.5, 0.5, 0.2}, 30, 3, 7));
  cases.emplace_back("query0_grid",
                     Workload::MakeQuery0(&grid, {0.5, 0.5, 0.2}, 80, 3, 3));
  cases.emplace_back("query1", Workload::MakeQuery1(&topo, {0.5, 0.5, 0.2}, 3, 7));
  cases.emplace_back("query1_grid",
                     Workload::MakeQuery1(&grid, {0.5, 0.5, 0.2}, 3, 5));
  cases.emplace_back("query2", Workload::MakeQuery2(&topo, {0.5, 0.5, 0.1}, 1, 7));
  cases.emplace_back("query3", Workload::MakeQuery3(&lab, 1, 7));
  // Appendix-B style SQL: a primary with many duplicate keys (16 rooms)
  // plus secondary static clauses the keyed pass must still apply.
  auto parsed = query::ParseQuery(
      "SELECT S.id, T.id FROM S, T [windowsize=3] "
      "WHERE S.room = T.room AND S.id < T.id AND S.x > T.y + 20 "
      "AND S.u = T.u");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  cases.emplace_back("parsed_room",
                     Workload::FromQuery(&topo, *parsed, {1.0, 1.0, 0.2}, 7));
  for (auto& [name, wl] : cases) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(wl.ok()) << wl.status().ToString();
    const auto pairs = wl->AllJoinPairs();
    EXPECT_FALSE(pairs.empty());
    EXPECT_EQ(pairs, NestedLoopPairs(*wl));
  }
  // The parsed query's primary really routes on a duplicated key, and its
  // secondary clauses really prune.
  const Workload& room = *cases.back().second;
  ASSERT_TRUE(room.analysis().primary.has_value());
  EXPECT_EQ(room.analysis().secondary_static_join.size(), 2u);
  int same_room = 0;
  for (NodeId s : room.SNodes()) {
    for (NodeId t : room.TNodes()) {
      if (s != t && *room.SJoinKey(s) == *room.TJoinKey(t)) ++same_room;
    }
  }
  EXPECT_GT(same_room, static_cast<int>(room.AllJoinPairs().size()));
}

TEST(WorkloadTest, JoinKeysConsistentWithPairing) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {0.5, 0.5, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  for (const auto& [s, t] : wl->AllJoinPairs()) {
    auto ks = wl->SJoinKey(s);
    auto kt = wl->TJoinKey(t);
    ASSERT_TRUE(ks.has_value());
    ASSERT_TRUE(kt.has_value());
    EXPECT_EQ(*ks, *kt);
  }
}

TEST(WorkloadTest, SampleIsPureFunction) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {0.5, 0.5, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  for (NodeId n : {3, 42}) {
    for (int c : {0, 5, 99}) {
      EXPECT_EQ(wl->Sample(n, c), wl->Sample(n, c));
    }
  }
  // u stays inside the domain dictated by sigma_st.
  for (int c = 0; c < 200; ++c) {
    int32_t u = wl->Sample(3, c)[AttrId::kAttrU];
    EXPECT_GE(u, 0);
    EXPECT_LT(u, 5);
  }
}

TEST(WorkloadTest, FilterRealizesConfiguredRate) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {0.5, 1.0, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  int s_pass = 0, t_pass = 0;
  const int cycles = 2000;
  for (int c = 0; c < cycles; ++c) {
    auto tup = wl->Sample(10, c);
    s_pass += wl->PassSFilter(10, tup, c);
    t_pass += wl->PassTFilter(10, tup, c);
  }
  EXPECT_NEAR(static_cast<double>(s_pass) / cycles, 0.5, 0.25);
  EXPECT_EQ(t_pass, cycles);  // sigma_t = 1
}

TEST(WorkloadTest, PerNodeOverrideChangesRate) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {1.0, 1.0, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  wl->SetNodeParams(10, {0.1, 1.0, 0.05});
  int pass = 0;
  const int cycles = 3000;
  for (int c = 0; c < cycles; ++c) {
    auto tup = wl->Sample(10, c);
    pass += wl->PassSFilter(10, tup, c);
    // Domain switched to ceil(1/0.05) = 20.
    EXPECT_LT(tup[AttrId::kAttrU], 20);
  }
  EXPECT_NEAR(static_cast<double>(pass) / cycles, 0.1, 0.07);
  // Other nodes unaffected.
  auto tup = wl->Sample(11, 0);
  EXPECT_LT(tup[AttrId::kAttrU], 5);
}

TEST(WorkloadTest, GlobalSwitchChangesParamsMidRun) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {1.0, 1.0, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  wl->SetGlobalSwitch(100, {1.0, 1.0, 0.05});
  EXPECT_EQ(wl->ParamsAt(5, 99).sigma_st, 0.2);
  EXPECT_EQ(wl->ParamsAt(5, 100).sigma_st, 0.05);
  EXPECT_LT(wl->Sample(5, 99)[AttrId::kAttrU], 5);
  EXPECT_LT(wl->Sample(5, 150)[AttrId::kAttrU], 20);
}

// The batched kernel must reproduce the scalar path bit for bit — same
// tuples, same filter verdicts — across every parameter regime it
// special-cases: uniform defaults, live per-node overrides (the slow path),
// and the post-switch uniform epoch (the fast path again, overrides dead).
TEST(WorkloadTest, BatchSampleAndFiltersMatchScalarBitForBit) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery0(&topo, {0.5, 0.8, 0.2}, /*num_pairs=*/30,
                                 /*window=*/3, /*seed=*/7);
  ASSERT_TRUE(wl.ok());
  const int n = topo.num_nodes();
  std::vector<NodeId> ids(n);
  for (NodeId i = 0; i < n; ++i) ids[i] = i;

  // Cycle 0..39: overrides on nodes 3 and 17 force the per-node fallback.
  // Cycle 40+: the global switch retires the overrides, so the batch takes
  // the hoisted uniform fast path again under the new design.
  wl->SetNodeParams(3, {0.1, 1.0, 0.05});
  wl->SetNodeParams(17, {1.0, 0.3, 0.1});
  wl->SetGlobalSwitch(40, {1.0, 1.0, 0.05});
  wl->WarmFilterCache();

  std::vector<query::Tuple> batch(n);
  const int words = (n + 63) / 64;
  std::vector<uint64_t> s_bits(words), t_bits(words);
  for (int cycle : {0, 1, 17, 39, 40, 41, 100}) {
    wl->SampleBatchInto(ids.data(), n, cycle, batch.data());
    wl->PassFilters(ids.data(), n, cycle, s_bits.data(), t_bits.data());
    for (int i = 0; i < n; ++i) {
      const query::Tuple scalar = wl->Sample(ids[i], cycle);
      ASSERT_EQ(batch[i], scalar) << "cycle " << cycle << " node " << ids[i];
      const bool s = (s_bits[i >> 6] >> (i & 63)) & 1;
      const bool t = (t_bits[i >> 6] >> (i & 63)) & 1;
      ASSERT_EQ(s, wl->PassSFilter(ids[i], scalar, cycle))
          << "cycle " << cycle << " node " << ids[i];
      ASSERT_EQ(t, wl->PassTFilter(ids[i], scalar, cycle))
          << "cycle " << cycle << " node " << ids[i];
    }
  }
}

TEST(WorkloadTest, TuplesJoinChecksAllJoinClauses) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {1.0, 1.0, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  auto pairs = wl->AllJoinPairs();
  ASSERT_FALSE(pairs.empty());
  auto [s, t] = pairs.front();
  auto stup = wl->Sample(s, 0);
  auto ttup = wl->Sample(t, 0);
  bool expect = stup[AttrId::kAttrU] == ttup[AttrId::kAttrU];
  EXPECT_EQ(wl->TuplesJoin(stup, ttup), expect);
  // Pair that does not statically join never joins.
  query::Tuple bad = ttup;
  bad[AttrId::kAttrY] = (stup[AttrId::kAttrX] - 5 + 1) % 10;
  EXPECT_FALSE(wl->TuplesJoin(stup, bad));
}

TEST(WorkloadTest, WireSizes) {
  auto topo = Topo();
  auto wl = Workload::MakeQuery1(&topo, {1.0, 1.0, 0.2}, 3, 7);
  ASSERT_TRUE(wl.ok());
  EXPECT_EQ(wl->DataBytes(), query::Schema::WireBytes(1));
  EXPECT_EQ(wl->ResultBytes(), query::Schema::WireBytes(3));
}

}  // namespace
}  // namespace workload
}  // namespace aspen
