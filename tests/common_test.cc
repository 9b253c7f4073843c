#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <thread>

#include "common/engine_config.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/table_printer.h"

namespace provview {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad thing");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoriesProduceDistinctCodes) {
  std::set<StatusCode> codes = {
      Status::InvalidArgument("").code(),  Status::NotFound("").code(),
      Status::OutOfRange("").code(),       Status::FailedPrecondition("").code(),
      Status::Unimplemented("").code(),    Status::ResourceExhausted("").code(),
      Status::Internal("").code(),         Status::Infeasible("").code(),
      Status::Unbounded("").code(),        Status::Timeout("").code()};
  EXPECT_EQ(codes.size(), 10u);
}

TEST(StatusTest, StreamOperator) {
  std::ostringstream oss;
  oss << Status::Infeasible("no solution");
  EXPECT_EQ(oss.str(), "Infeasible: no solution");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("gone"));
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrPassesThroughOnSuccess) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(13), 13u);
  }
}

TEST(RngTest, NextBelowHitsEveryResidue) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextIntInclusiveRange) {
  Rng rng(5);
  std::set<int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    int64_t v = rng.NextInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.03);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(3);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 20000; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinctSorted) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<int> sample = rng.SampleWithoutReplacement(10, 4);
    ASSERT_EQ(sample.size(), 4u);
    for (size_t i = 1; i < sample.size(); ++i) {
      EXPECT_LT(sample[i - 1], sample[i]);
    }
    for (int v : sample) {
      EXPECT_GE(v, 0);
      EXPECT_LT(v, 10);
    }
  }
}

TEST(RngTest, RandomPermutationIsPermutation) {
  Rng rng(31);
  std::vector<int> perm = rng.RandomPermutation(20);
  std::set<int> elems(perm.begin(), perm.end());
  EXPECT_EQ(elems.size(), 20u);
  EXPECT_EQ(*elems.begin(), 0);
  EXPECT_EQ(*elems.rbegin(), 19);
}

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.NewRow().AddCell("alpha").AddCell(int64_t{12});
  t.NewRow().AddCell("b").AddCell(3.14159, 2);
  std::ostringstream oss;
  t.Print(oss);
  std::string out = oss.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_EQ(t.num_rows(), 2u);
}

TEST(TablePrinterTest, BannerContainsTitle) {
  std::ostringstream oss;
  PrintBanner("Experiment E1", oss);
  EXPECT_NE(oss.str().find("Experiment E1"), std::string::npos);
}

TEST(StopwatchTest, MeasuresNonNegativeTime) {
  Stopwatch sw;
  volatile double sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GE(sw.ElapsedSeconds(), 0.0);
  EXPECT_GE(sw.ElapsedMillis(), sw.ElapsedSeconds());
  sw.Restart();
  EXPECT_LT(sw.ElapsedSeconds(), 1.0);
}

TEST(ResolveThreadsTest, AutoResolvesToHardwareConcurrency) {
  const int resolved = ResolveThreads(0);
  EXPECT_GE(resolved, 1);
  EXPECT_EQ(resolved,
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
}

TEST(ResolveThreadsTest, ClampsToAtLeastOne) {
  EXPECT_EQ(ResolveThreads(-1), 1);
  EXPECT_EQ(ResolveThreads(-64), 1);
  EXPECT_EQ(ResolveThreads(1), 1);
  EXPECT_EQ(ResolveThreads(7), 7);
}

}  // namespace
}  // namespace provview
