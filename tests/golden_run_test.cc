// Golden outputs of core::RunExperiment. A matrix of algorithms (every
// baseline, GHT on motes and in mesh mode, every Innet variant, learning
// and a planned re-optimization under a rate swap) runs on Queries 1-3 under
// radio loss {0, 0.1} x scripted dynamics {none, node churn, loss drift},
// at one shard and again at three shards with a two-deep sample pipeline.
// Every RunStats field of every run — doubles by bit pattern — folds into
// one FNV-1a digest per (query, configuration), compared against a
// recorded constant.
//
// The constants pin the simulated behavior, not just its agreement across
// shard counts: a refactor of the kernel or the hosting path must leave all
// of them unchanged. Update one only for a deliberate, documented change
// of the simulated output; the failure message prints the new value.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "join/types.h"
#include "net/topology.h"
#include "scenario/dynamics.h"
#include "workload/workload.h"

namespace aspen {
namespace {

using join::Algorithm;
using join::ExecutorOptions;
using join::InnetFeatures;
using workload::SelectivityParams;
using workload::Workload;

constexpr int kCycles = 30;
constexpr SelectivityParams kSel{0.5, 0.5, 0.2};
// Learning and re-optimization start from estimates that are exactly wrong
// for the generated rates, so both adaptation loops have work to do.
constexpr SelectivityParams kTruth{0.1, 1.0, 0.2};
constexpr SelectivityParams kWrong{1.0, 0.1, 0.2};
constexpr int kSwapCycle = 12;

class Fnv {
 public:
  void Mix(uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xFF;
      h_ *= 1099511628211ULL;
    }
  }
  void MixDouble(double d) {
    uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    for (char c : s) Mix(static_cast<uint8_t>(c));
    Mix(s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

void MixStats(const join::RunStats& s, Fnv* h) {
  h->MixString(s.algorithm);
  h->Mix(s.total_bytes);
  h->Mix(s.base_bytes);
  h->Mix(s.max_node_bytes);
  h->Mix(s.total_messages);
  h->Mix(s.base_messages);
  h->Mix(s.max_node_messages);
  h->Mix(s.initiation_bytes);
  h->Mix(s.computation_bytes);
  h->Mix(s.query_bytes);
  h->Mix(s.query_messages);
  h->Mix(s.top_node_loads.size());
  for (uint64_t load : s.top_node_loads) h->Mix(load);
  h->Mix(s.results);
  h->MixDouble(s.avg_result_delay_cycles);
  h->MixDouble(s.max_result_delay_cycles);
  h->Mix(s.migrations);
  h->Mix(s.failovers);
  h->Mix(s.reopt_passes);
  h->Mix(s.planned_migrations);
  h->Mix(static_cast<uint64_t>(s.init_latency_cycles));
  h->Mix(static_cast<uint64_t>(s.sampling_cycles));
}

/// One row of the matrix: an algorithm configuration plus the adaptation
/// it exercises.
struct Config {
  const char* name;
  Algorithm algo;
  InnetFeatures features;
  bool mesh;
  bool learning;
  bool reopt;  ///< rate swap at kSwapCycle, reopt_interval 5
};

const std::vector<Config>& Configs() {
  static const std::vector<Config> kConfigs = {
      {"Naive", Algorithm::kNaive, {}, false, false, false},
      {"Base", Algorithm::kBase, {}, false, false, false},
      {"Yang07", Algorithm::kYang07, {}, false, false, false},
      {"GHT", Algorithm::kGht, {}, false, false, false},
      {"GHT-mesh", Algorithm::kGht, {}, true, false, false},
      {"Innet", Algorithm::kInnet, InnetFeatures::None(), false, false, false},
      {"Innet-cm", Algorithm::kInnet, InnetFeatures::Cm(), false, false, false},
      {"Innet-cmp", Algorithm::kInnet, InnetFeatures::Cmp(), false, false,
       false},
      {"Innet-cmg", Algorithm::kInnet, InnetFeatures::Cmg(), false, false,
       false},
      {"Innet-cmpg", Algorithm::kInnet, InnetFeatures::Cmpg(), false, false,
       false},
      // Mesh mode changes Innet only by turning snooping off, so the mesh
      // row runs a path-collapsing variant (cm-mesh would equal cm).
      {"Innet-cmp-mesh", Algorithm::kInnet, InnetFeatures::Cmp(), true, false,
       false},
      {"Innet-learn", Algorithm::kInnet, InnetFeatures::None(), false, true,
       false},
      {"Innet-cmg-learn", Algorithm::kInnet, InnetFeatures::Cmg(), false, true,
       false},
      {"Innet-reopt", Algorithm::kInnet, InnetFeatures::None(), false, false,
       true},
  };
  return kConfigs;
}

/// Recorded digests, indexed [query - 1][config].
constexpr uint64_t kGolden[3][14] = {
    {0xc37910065d4d7eabULL, 0xcfa2c689a4f7c4c9ULL, 0x583f8f4fb0b4d9e1ULL,
     0xdf4afc506b100209ULL, 0x2845eb7d98d41728ULL, 0x36d1303406952bddULL,
     0x3dab15f4496c43f2ULL, 0xf45b11f27831305fULL, 0xe74df66e55dc3e76ULL,
     0xdd059e65360f595aULL, 0xa380a36a74e088b2ULL, 0x7a36f654b3a2d096ULL,
     0xa40b07e2434d230bULL, 0x7cea91e5df4703ecULL},
    {0x7005ffb1db44c175ULL, 0x578eb6e1639fbcc6ULL, 0x95bedbf80648d23fULL,
     0xe4a4b6ebd9495f29ULL, 0xa742669265be9317ULL, 0x9bdd3e5f97b21953ULL,
     0xff77d58ebdef221eULL, 0xa374510dfcd40bc7ULL, 0x5de0c2d380a0b777ULL,
     0x4165bd6dbdcfafbdULL, 0xa689c2162bf6a926ULL, 0xd5a789c2c7389437ULL,
     0xbc83d0605c4af744ULL, 0x5ca07033153c256eULL},
    {0xb944b6652be633e3ULL, 0xcd6d45e4debf405eULL, 0x4420ccf43488a3bcULL,
     0xa32b695b28f48ccdULL, 0x00bf5628a329f587ULL, 0x3ed31c2bec1d7120ULL,
     0x4fb1adea0a7fc657ULL, 0xf502812952c79809ULL, 0xe4a60b7d4f49b10aULL,
     0xe924b20fed17db73ULL, 0xd8591634f87fea53ULL, 0x02f75f43a06cd93aULL,
     0x65ff2f190af935f0ULL, 0x7f16981656129e2bULL},
};

Workload MakeWorkload(int query, const net::Topology& topo,
                      const net::Topology& intel, const Config& c) {
  const SelectivityParams gen = c.learning || c.reopt ? kTruth : kSel;
  Result<Workload> wl = Status::Internal("unset");
  switch (query) {
    case 1:
      wl = Workload::MakeQuery1(&topo, gen, 3, 7);
      break;
    case 2:
      wl = Workload::MakeQuery2(&topo, gen, 3, 9);
      break;
    default:
      wl = Workload::MakeQuery3(&intel, 2, 11);
      break;
  }
  EXPECT_TRUE(wl.ok()) << wl.status().ToString();
  Workload out = std::move(wl).ValueOrDie();
  if (c.reopt) out.SetGlobalSwitch(kSwapCycle, kWrong);
  return out;
}

/// Digest of one (query, config) row over loss x dynamics at the given
/// shard count and pipeline depth.
uint64_t RowDigest(int query, const Config& c, int shards, int depth) {
  const net::Topology topo = *net::Topology::Random(100, 7.0, 42);
  const net::Topology intel = net::Topology::IntelLab();
  const net::Topology& deployed = query == 3 ? intel : topo;
  const scenario::DynamicsSchedule churn =
      scenario::DynamicsSchedule::RandomChurn(deployed, kCycles,
                                              /*rate=*/0.01,
                                              /*down_cycles=*/6, /*seed=*/5);
  scenario::DynamicsSchedule drift;
  drift.DriftLossTo(/*cycle=*/8, /*target=*/0.2, /*over_cycles=*/10);
  const scenario::DynamicsSchedule* dynamics[] = {nullptr, &churn, &drift};

  Fnv h;
  for (double loss : {0.0, 0.1}) {
    for (const scenario::DynamicsSchedule* dyn : dynamics) {
      const Workload wl = MakeWorkload(query, topo, intel, c);
      core::ExperimentOptions opts;
      ExecutorOptions& e = opts.executor;
      e.algorithm = c.algo;
      e.features = c.features;
      e.mesh_mode = c.mesh;
      e.assumed = c.learning ? kWrong : c.reopt ? kTruth : kSel;
      if (c.learning) {
        e.knobs.UsePaperLearning();
        e.knobs.reopt_interval = 5;
        e.knobs.counter_reset_interval = 20;
      }
      e.loss_prob = loss;
      e.seed = 3;
      e.knobs.shards = shards;
      e.knobs.pipeline_depth = depth;
      if (c.reopt) e.knobs.reopt_interval = 5;
      opts.dynamics = dyn;
      Result<join::RunStats> st = core::RunExperiment(wl, opts, kCycles);
      EXPECT_TRUE(st.ok()) << st.status().ToString();
      if (st.ok()) MixStats(*st, &h);
    }
  }
  return h.value();
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return buf;
}

class GoldenRunTest : public ::testing::TestWithParam<int> {};

TEST_P(GoldenRunTest, DigestsMatchRecordedOutputs) {
  const int query = GetParam();
  for (size_t i = 0; i < Configs().size(); ++i) {
    const Config& c = Configs()[i];
    const uint64_t want = kGolden[query - 1][i];
    const uint64_t one = RowDigest(query, c, /*shards=*/1, /*depth=*/1);
    EXPECT_EQ(Hex(one), Hex(want))
        << "Query " << query << " " << c.name << " at one shard";
    const uint64_t three = RowDigest(query, c, /*shards=*/3, /*depth=*/2);
    EXPECT_EQ(Hex(three), Hex(want))
        << "Query " << query << " " << c.name
        << " at three shards, pipeline depth 2";
  }
}

INSTANTIATE_TEST_SUITE_P(Queries, GoldenRunTest, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace aspen
