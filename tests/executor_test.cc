// Edge-case coverage for the persistent work-stealing executor
// (src/util/executor.h): serial equivalence at concurrency 1, the
// inline-below-grain-size path, exception propagation from stolen chunks,
// nested parallel regions, and re-pins of the training-engine
// determinism contract on explicitly-sized pools (results bit-identical
// for every pool size and thread budget).

#include <atomic>
#include <chrono>
#include <map>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/feature_extractor.h"
#include "core/mvg_classifier.h"
#include "ml/gradient_boosting.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ts/generators.h"
#include "obs/obs.h"
#include "util/executor.h"
#include "util/parallel.h"

namespace mvg {
namespace {

/// Small multiclass split for the invariance re-pins.
DatasetSplit InvarianceSplit(size_t train, size_t test, size_t length,
                             uint64_t seed) {
  SyntheticInfo info;
  info.name = "executor_invariance";
  info.family = "shapes";
  info.num_classes = 3;
  info.train_size = train;
  info.test_size = test;
  info.length = length;
  return MakeSynthetic(info, seed);
}

Matrix ExtractFeatures(const Dataset& ds) {
  return MvgFeatureExtractor(ConfigForHeuristicColumn('G')).ExtractAll(ds, 1);
}

TEST(ExecutorTest, ConcurrencyOneRunsInlineInOrder) {
  Executor ex(1);
  EXPECT_EQ(ex.concurrency(), 1u);
  // With no background workers every loop must degrade to the plain
  // serial loop: same thread, ascending order, slot 0 throughout.
  std::vector<size_t> order;
  const std::thread::id self = std::this_thread::get_id();
  bool same_thread = true;
  bool slot_zero = true;
  ex.ParallelForWorker(64, 8, [&](size_t slot, size_t i) {
    order.push_back(i);
    same_thread = same_thread && std::this_thread::get_id() == self;
    slot_zero = slot_zero && slot == 0;
  });
  ASSERT_EQ(order.size(), 64u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
  EXPECT_TRUE(same_thread);
  EXPECT_TRUE(slot_zero);
}

TEST(ExecutorTest, VisitsEveryIndexExactlyOnce) {
  Executor ex(4);
  for (size_t max_par : {size_t{1}, size_t{2}, size_t{4}, size_t{13}}) {
    for (size_t n : {size_t{1}, size_t{7}, size_t{103}, size_t{1024}}) {
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v = 0;
      ex.ParallelFor(n, max_par, [&](size_t i) { visits[i]++; });
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1)
            << "max_par=" << max_par << " n=" << n << " i=" << i;
      }
    }
  }
}

TEST(ExecutorTest, SlotIndexStaysBelowHistoricalBound) {
  // parallel.h documents worker < MaxWorkers(n, num_threads); the pool
  // additionally caps by its own concurrency but must never exceed the
  // historical bound that callers size per-worker state with.
  Executor ex(8);
  for (size_t threads : {size_t{2}, size_t{5}, size_t{16}}) {
    for (size_t n : {size_t{1}, size_t{3}, size_t{7}, size_t{64}}) {
      const size_t bound = MaxWorkers(n, threads);
      std::atomic<bool> in_bounds{true};
      std::vector<std::atomic<int>> visits(n);
      for (auto& v : visits) v = 0;
      ex.ParallelForWorker(n, threads, [&](size_t slot, size_t i) {
        if (slot >= bound) in_bounds = false;
        visits[i]++;
      });
      EXPECT_TRUE(in_bounds.load()) << "n=" << n << " threads=" << threads;
      for (size_t i = 0; i < n; ++i) EXPECT_EQ(visits[i].load(), 1);
    }
  }
}

TEST(ExecutorTest, SlotOwnedByExactlyOneThread) {
  // The per-slot-state contract: a slot never runs on two threads within
  // one loop, even with stealing rebalancing imbalanced bodies.
  Executor ex(4);
  constexpr size_t kSlots = 16;
  std::vector<std::set<std::thread::id>> slot_threads(kSlots);
  std::mutex mu;
  ex.ParallelForWorker(512, kSlots, [&](size_t slot, size_t i) {
    if (i % 97 == 0) {  // imbalance to provoke steals
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    std::lock_guard<std::mutex> lock(mu);
    slot_threads[slot].insert(std::this_thread::get_id());
  });
  for (size_t s = 0; s < kSlots; ++s) {
    EXPECT_LE(slot_threads[s].size(), 1u) << "slot " << s;
  }
}

TEST(ExecutorTest, GrainSizeKeepsSmallLoopsInline) {
  Executor ex(4);
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<bool> same_thread{true};
  std::atomic<size_t> count{0};
  // n <= grain: must run inline on the caller, no dispatch.
  ex.ParallelFor(
      100, 4,
      [&](size_t) {
        if (std::this_thread::get_id() != self) same_thread = false;
        count++;
      },
      /*grain=*/512);
  EXPECT_EQ(count.load(), 100u);
  EXPECT_TRUE(same_thread.load());
}

TEST(ExecutorTest, GrainBoundsChunkSize) {
  // Above the inline threshold, no claimed chunk is smaller than the
  // grain, so with grain g and n = 4g at most n/g = 4 chunks exist. A
  // chunk runs contiguously on one thread, so each thread's own index
  // stream breaks (i != previous + 1) at most once per chunk it claimed —
  // per-thread tracking makes the count scheduling-independent.
  Executor ex(4);
  const size_t g = 64;
  const size_t n = 4 * g;
  std::atomic<size_t> count{0};
  std::mutex mu;
  std::map<std::thread::id, size_t> previous;
  size_t chunk_starts = 0;
  ex.ParallelFor(
      n, 4,
      [&](size_t i) {
        count++;
        std::lock_guard<std::mutex> lock(mu);
        const auto it = previous.find(std::this_thread::get_id());
        if (it == previous.end() || i != it->second + 1) ++chunk_starts;
        previous[std::this_thread::get_id()] = i;
      },
      g);
  EXPECT_EQ(count.load(), n);
  EXPECT_LE(chunk_starts, n / g);
}

TEST(ExecutorTest, ExceptionFromAnyChunkPropagates) {
  Executor ex(4);
  // The throwing index lands in the *last* slot's range while the caller
  // owns the first, so on a multi-worker pool the throw frequently comes
  // from a stolen/helped chunk; either way the first exception must reach
  // the caller after all participants finish.
  for (size_t n : {size_t{8}, size_t{1024}}) {
    EXPECT_THROW(
        ex.ParallelFor(n, 4,
                       [&](size_t i) {
                         if (i == n - 1) throw std::runtime_error("boom");
                       }),
        std::runtime_error)
        << "n=" << n;
  }
  // Every index throwing: exactly one exception wins, no terminate.
  EXPECT_THROW(
      ex.ParallelFor(256, 4,
                     [](size_t i) {
                       throw std::out_of_range("i=" + std::to_string(i));
                     }),
      std::out_of_range);
  // The pool survives and serves the next loop.
  std::atomic<size_t> count{0};
  ex.ParallelFor(64, 4, [&](size_t) { count++; });
  EXPECT_EQ(count.load(), 64u);
}

TEST(ExecutorTest, NestedParallelForCompletesAndCapsConcurrency) {
  Executor ex(3);
  std::atomic<size_t> inner_total{0};
  std::atomic<int> live{0};
  std::atomic<int> high_water{0};
  ex.ParallelFor(4, 4, [&](size_t) {
    ex.ParallelFor(32, 4, [&](size_t) {
      const int now = ++live;
      int peak = high_water.load();
      while (now > peak && !high_water.compare_exchange_weak(peak, now)) {
      }
      inner_total++;
      --live;
    });
  });
  EXPECT_EQ(inner_total.load(), 4u * 32u);
  // Nested regions reuse the same fixed thread set: live bodies can never
  // exceed the pool's concurrency no matter the nesting.
  EXPECT_LE(high_water.load(), static_cast<int>(ex.concurrency()));
}

TEST(ExecutorTest, DeeplyNestedRegionsStayCorrect) {
  Executor ex(2);
  std::atomic<size_t> leaves{0};
  ex.ParallelFor(3, 3, [&](size_t) {
    ex.ParallelFor(3, 3, [&](size_t) {
      ex.ParallelFor(3, 3, [&](size_t) { leaves++; });
    });
  });
  EXPECT_EQ(leaves.load(), 27u);
}

// ---------------------------------------------------------------------------
// Determinism re-pins on explicitly-sized pools: the PR-4 invariance
// contract (pre-assigned seeds/draws => bit-identical results for every
// thread budget) must also hold for every *pool size*, including pools
// larger than the machine. SetGlobalConcurrency resizes the pool the
// library layers actually use.
// ---------------------------------------------------------------------------

class ExecutorInvarianceTest : public ::testing::Test {
 protected:
  void TearDown() override { Executor::SetGlobalConcurrency(0); }
};

TEST_F(ExecutorInvarianceTest, RandomForestInvariantAcrossPoolSizes) {
  const DatasetSplit split = InvarianceSplit(60, 24, 64, 5);
  const Matrix x = ExtractFeatures(split.train);
  const Matrix xt = ExtractFeatures(split.test);
  std::vector<std::vector<int>> predictions;
  for (size_t pool : {size_t{1}, size_t{2}, size_t{4}}) {
    Executor::SetGlobalConcurrency(pool);
    RandomForestClassifier::Params params;
    params.num_trees = 24;
    params.max_depth = 8;
    params.num_threads = 4;
    RandomForestClassifier clf(params);
    clf.Fit(x, split.train.labels());
    std::vector<int> pred;
    for (const auto& row : xt) pred.push_back(clf.Predict(row));
    predictions.push_back(std::move(pred));
  }
  for (size_t p = 1; p < predictions.size(); ++p) {
    EXPECT_EQ(predictions[p], predictions[0]) << "pool size index " << p;
  }
}

TEST_F(ExecutorInvarianceTest, GbtInvariantAcrossPoolSizes) {
  const DatasetSplit split = InvarianceSplit(48, 16, 64, 7);
  const Matrix x = ExtractFeatures(split.train);
  const Matrix xt = ExtractFeatures(split.test);
  std::vector<std::vector<int>> predictions;
  for (size_t pool : {size_t{1}, size_t{3}}) {
    Executor::SetGlobalConcurrency(pool);
    GradientBoostingClassifier::Params params;
    params.num_rounds = 12;
    params.max_depth = 3;
    params.num_threads = 4;
    GradientBoostingClassifier clf(params);
    clf.Fit(x, split.train.labels());
    std::vector<int> pred;
    for (const auto& row : xt) pred.push_back(clf.Predict(row));
    predictions.push_back(std::move(pred));
  }
  EXPECT_EQ(predictions[1], predictions[0]);
}

TEST_F(ExecutorInvarianceTest, GridSearchInvariantAcrossPoolSizes) {
  const DatasetSplit split = InvarianceSplit(42, 12, 64, 11);
  const Matrix x = ExtractFeatures(split.train);
  const std::vector<int> y = split.train.labels();
  std::vector<GridSearchResult> results;
  for (size_t pool : {size_t{1}, size_t{4}}) {
    Executor::SetGlobalConcurrency(pool);
    std::vector<ClassifierFactory> candidates;
    for (size_t trees : {size_t{8}, size_t{16}}) {
      RandomForestClassifier::Params params;
      params.num_trees = trees;
      params.max_depth = 6;
      params.num_threads = 2;  // nested under the grid cells
      candidates.push_back([params]() {
        return std::make_unique<RandomForestClassifier>(params);
      });
    }
    results.push_back(GridSearch(candidates, x, y, 3, 9, 4));
  }
  EXPECT_EQ(results[1].best_index, results[0].best_index);
  EXPECT_EQ(results[1].scores, results[0].scores);
}

TEST_F(ExecutorInvarianceTest, EndToEndPipelineInvariantAcrossPoolSizes) {
  const DatasetSplit split = InvarianceSplit(36, 12, 64, 13);
  std::vector<std::vector<int>> predictions;
  for (size_t pool : {size_t{1}, size_t{4}}) {
    Executor::SetGlobalConcurrency(pool);
    MvgClassifier::Config config;
    config.grid = GridPreset::kSmall;
    config.num_threads = 4;
    MvgClassifier clf(config);
    clf.Fit(split.train);
    predictions.push_back(clf.PredictAll(split.test));
  }
  EXPECT_EQ(predictions[1], predictions[0]);
}

// --- Observability counters (src/obs wired into the executor) ---------

/// RAII: force obs on for the scope, restore on exit.
class ObsOnScope {
 public:
  ObsOnScope() : was_(obs::Enabled()) { obs::SetEnabled(true); }
  ~ObsOnScope() { obs::SetEnabled(was_); }

 private:
  bool was_;
};

TEST(ExecutorObsTest, InlineLoopCountsAreExact) {
  ObsOnScope on;
  obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
  Executor ex(1);  // no workers: every loop inlines, nothing dispatched
  const uint64_t inline0 = pm.executor_loops_inline->Value();
  const uint64_t dispatched0 = pm.executor_loops_dispatched->Value();
  const uint64_t stolen0 = pm.executor_chunks_stolen->Value();
  for (int rep = 0; rep < 5; ++rep) {
    ex.ParallelFor(64, 4, [](size_t) {});
  }
  EXPECT_EQ(pm.executor_loops_inline->Value() - inline0, 5u);
  EXPECT_EQ(pm.executor_loops_dispatched->Value() - dispatched0, 0u);
  EXPECT_EQ(pm.executor_chunks_stolen->Value() - stolen0, 0u);
}

TEST(ExecutorObsTest, GrainInlinedAndDispatchedLoopsAreCounted) {
  ObsOnScope on;
  obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
  Executor ex(4);
  const uint64_t inline0 = pm.executor_loops_inline->Value();
  const uint64_t dispatched0 = pm.executor_loops_dispatched->Value();
  // n <= grain: inline even with workers available.
  ex.ParallelFor(100, 4, [](size_t) {}, /*grain=*/512);
  // n > grain, max_par > 1: dispatched as one parallel region each.
  for (int rep = 0; rep < 3; ++rep) {
    ex.ParallelFor(256, 4, [](size_t) {});
  }
  EXPECT_EQ(pm.executor_loops_inline->Value() - inline0, 1u);
  EXPECT_EQ(pm.executor_loops_dispatched->Value() - dispatched0, 3u);
}

TEST(ExecutorObsTest, ProvokedStealsAreCounted) {
  ObsOnScope on;
  obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
  Executor ex(4);
  const uint64_t stolen0 = pm.executor_chunks_stolen->Value();
  // Imbalanced bodies make fast participants run dry and steal from the
  // slow claimant's remaining range. Scheduling-dependent, so retry a
  // few rounds — across them at least one steal is effectively certain.
  for (int attempt = 0; attempt < 20; ++attempt) {
    ex.ParallelForWorker(512, 8, [&](size_t, size_t i) {
      if (i % 129 == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(300));
      }
    });
    if (pm.executor_chunks_stolen->Value() > stolen0) break;
  }
  EXPECT_GT(pm.executor_chunks_stolen->Value(), stolen0);
}

}  // namespace
}  // namespace mvg
