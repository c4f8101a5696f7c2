#include <cmath>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"

namespace aspen {
namespace {

// ---- Status ----------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, FactoryCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad window");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalidArgument());
  EXPECT_EQ(st.message(), "bad window");
  EXPECT_EQ(st.ToString(), "invalid_argument: bad window");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kNotImplemented); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, OkCodeNormalizesMessage) {
  Status st(StatusCode::kOk, "ignored");
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(st.message().empty());
}

// ---- Result ----------------------------------------------------------------

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = Half(10);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 5);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Half(3);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto chain = [](int x) -> Result<int> {
    ASPEN_ASSIGN_OR_RETURN(int half, Half(x));
    return half + 1;
  };
  ASSERT_TRUE(chain(4).ok());
  EXPECT_EQ(*chain(4), 3);
  EXPECT_FALSE(chain(5).ok());
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 7);
}

// ---- Rng ---------------------------------------------------------------------

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next64(), b.Next64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next64() == b.Next64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntCoversAllResidues) {
  Rng rng(99);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.UniformInt(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(5);
  std::vector<int> bins(10, 0);
  const int draws = 100000;
  for (int i = 0; i < draws; ++i) ++bins[rng.UniformInt(10)];
  for (int b : bins) {
    EXPECT_NEAR(b, draws / 10, draws / 10 * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformRange(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo |= v == -2;
    saw_hi |= v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(13);
  int hits = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RngTest, NormalMoments) {
  Rng rng(19);
  double sum = 0, sumsq = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    double v = rng.Normal(10.0, 3.0);
    sum += v;
    sumsq += v * v;
  }
  double mean = sum / n;
  double var = sumsq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

}  // namespace
}  // namespace aspen
