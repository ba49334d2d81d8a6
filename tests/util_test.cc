#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "util/parallel.h"
#include "util/random.h"
#include "util/statistics.h"
#include "util/string_util.h"

namespace mvg {
namespace {

TEST(ParallelFor, VisitsEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{13}}) {
    const size_t n = 103;  // not a multiple of any worker count
    std::vector<std::atomic<int>> visits(n);
    for (auto& v : visits) v = 0;
    ParallelFor(n, threads, [&](size_t i) { visits[i]++; });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelFor, HandlesFewerItemsThanThreads) {
  std::atomic<int> calls{0};
  ParallelFor(3, 16, [&](size_t) { calls++; });
  EXPECT_EQ(calls.load(), 3);
  ParallelFor(0, 4, [](size_t) { FAIL() << "no work expected"; });
}

TEST(ParallelForWorkerTest, WorkerIndexStaysBelowMaxWorkers) {
  // ExtractAll sizes per-worker state (pooled VgWorkspaces) with
  // MaxWorkers(n, num_threads); every worker index handed to the body must
  // stay below it, and one worker must own each index range exclusively.
  // Sweep includes n < num_threads (the tightest edge of the bound).
  for (size_t threads : {size_t{1}, size_t{2}, size_t{5}, size_t{16}}) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{64}}) {
      const size_t bound = MaxWorkers(n, threads);
      std::vector<std::atomic<int>> owner(n);
      for (auto& o : owner) o = -1;
      std::atomic<bool> in_bounds{true};
      ParallelForWorker(n, threads, [&](size_t worker, size_t i) {
        if (worker >= bound) in_bounds = false;
        owner[i] = static_cast<int>(worker);
      });
      EXPECT_TRUE(in_bounds.load())
          << "worker index >= MaxWorkers(" << n << ", " << threads << ")";
      for (size_t i = 0; i < n; ++i) {
        EXPECT_GE(owner[i].load(), 0) << "index " << i << " never visited";
      }
    }
  }
}

TEST(ParallelFor, WorkerExceptionPropagatesToCaller) {
  // A throwing body must not std::terminate; the first exception reaches
  // the calling thread after all workers join.
  for (size_t threads : {size_t{1}, size_t{4}}) {
    EXPECT_THROW(
        ParallelFor(64, threads,
                    [](size_t i) {
                      if (i == 17) throw std::runtime_error("boom");
                    }),
        std::runtime_error)
        << "threads=" << threads;
  }
}

TEST(Statistics, MeanVarianceBasics) {
  std::vector<double> v = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Mean(v), 2.5);
  EXPECT_DOUBLE_EQ(Variance(v), 1.25);
  EXPECT_DOUBLE_EQ(StdDev(v), std::sqrt(1.25));
}

TEST(Statistics, EmptyInputsAreZero) {
  std::vector<double> v;
  EXPECT_EQ(Mean(v), 0.0);
  EXPECT_EQ(Variance(v), 0.0);
  EXPECT_EQ(Min(v), 0.0);
  EXPECT_EQ(Max(v), 0.0);
  EXPECT_EQ(Median(v), 0.0);
}

TEST(Statistics, MedianAndQuantiles) {
  std::vector<double> v = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(Median(v), 3.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 5.0);
  std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(Median(w), 2.5);
}

TEST(Statistics, PearsonCorrelation) {
  std::vector<double> x = {1, 2, 3, 4, 5};
  std::vector<double> y = {2, 4, 6, 8, 10};
  EXPECT_NEAR(PearsonCorrelation(x, y), 1.0, 1e-12);
  std::vector<double> z = {10, 8, 6, 4, 2};
  EXPECT_NEAR(PearsonCorrelation(x, z), -1.0, 1e-12);
  std::vector<double> c = {3, 3, 3, 3, 3};
  EXPECT_EQ(PearsonCorrelation(x, c), 0.0);
}

TEST(Statistics, AverageRanksWithTies) {
  std::vector<double> v = {10.0, 20.0, 20.0, 30.0};
  const auto r = AverageRanks(v);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Rng, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(3);
  const auto idx = rng.Sample(10, 5);
  ASSERT_EQ(idx.size(), 5u);
  std::set<size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 5u);
  for (size_t i : idx) EXPECT_LT(i, 10u);
}

TEST(Rng, UniformBounds) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
    const int k = rng.Int(-2, 2);
    EXPECT_GE(k, -2);
    EXPECT_LE(k, 2);
  }
}

TEST(StringUtil, SplitTrim) {
  const auto tokens = Split("a, b\tc  d", ", \t");
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[3], "d");
  EXPECT_EQ(Trim("  hi \n"), "hi");
  EXPECT_EQ(Trim("   "), "");
}

TEST(StringUtil, FormatDouble) {
  EXPECT_EQ(FormatDouble(0.12345, 3), "0.123");
  EXPECT_EQ(FormatDouble(2.0, 1), "2.0");
}

}  // namespace
}  // namespace mvg
