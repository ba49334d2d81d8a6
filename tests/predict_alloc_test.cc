// Pins the allocation-free prediction contract: once its workspace is warm,
// a tree-family MvgClassifier::Predict(s, &ws) and ServingSession::Predict
// perform no heap allocation at all. This binary replaces the global
// operator new with a counting one, so the check is exact.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "core/mvg_classifier.h"
#include "serve/serving.h"
#include "ts/dataset.h"
#include "ts/generators.h"
#include "vg/vg_workspace.h"

// The replacements pair malloc with free. GCC cannot see that the
// library's operator new is this malloc-backed one, and warns about
// free() on its result once a delete is inlined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

static std::atomic<uint64_t> g_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#pragma GCC diagnostic pop

namespace mvg {
namespace {

uint64_t Allocs() { return g_allocs.load(std::memory_order_relaxed); }

struct Case {
  MvgModel model;
  FeatureMode mode;
  size_t num_classes;
};

std::string CaseName(const testing::TestParamInfo<Case>& info) {
  const Case& c = info.param;
  return std::string(c.model == MvgModel::kXgboost ? "Xgb" : "Rf") +
         (c.mode == FeatureMode::kMpdsOnly ? "Mpds" : "All") +
         std::to_string(c.num_classes) + "Class";
}

/// Ragged training lengths (64 to 80) with one class per generator.
Dataset TrainSet(size_t num_classes) {
  Dataset ds("alloc_train");
  for (size_t i = 0; i < 8; ++i) {
    const size_t n = 64 + 2 * i;
    ds.Add(GaussianNoise(n, 100 + i), 0);
    ds.Add(RandomWalk(n, 200 + i), 1);
    if (num_classes > 2) ds.Add(LogisticMap(n, 3.9, 0.1 + 0.05 * i), 2);
  }
  return ds;
}

/// Probes of every length class: the longest first (longer than any
/// training series, so its row is truncated; at 1024 points its VG and
/// HVG builds and motif counts are the largest the workspace pools),
/// then training-length and shorter ones (padded), and one with
/// non-finite samples.
std::vector<Series> Probes() {
  std::vector<Series> probes = {GaussianNoise(1024, 6), GaussianNoise(160, 7),
                                RandomWalk(80, 8), GaussianNoise(64, 9),
                                RandomWalk(40, 10), LogisticMap(72, 3.9, 0.3)};
  Series dirty = RandomWalk(70, 11);
  dirty[3] = std::numeric_limits<double>::quiet_NaN();
  dirty[30] = std::numeric_limits<double>::infinity();
  probes.push_back(std::move(dirty));
  return probes;
}

class PredictAllocTest : public testing::TestWithParam<Case> {};

TEST_P(PredictAllocTest, WarmPredictAllocatesNothing) {
  const Case& c = GetParam();
  MvgClassifier::Config config;
  config.model = c.model;
  config.grid = GridPreset::kNone;
  config.extractor.feature_mode = c.mode;
  MvgClassifier clf(config);
  clf.Fit(TrainSet(c.num_classes));
  const std::vector<Series> probes = Probes();

  // MvgClassifier::Predict through a caller-owned workspace, warmed on
  // every probe length (the longest first).
  VgWorkspace ws;
  std::vector<int> warm_labels;
  for (const Series& s : probes) warm_labels.push_back(clf.Predict(s, &ws));
  uint64_t before = Allocs();
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(clf.Predict(probes[i], &ws), warm_labels[i]);
    }
  }
  EXPECT_EQ(Allocs() - before, 0u) << "MvgClassifier::Predict(s, &ws)";

  // The same through a serving session's pooled workspace.
  ServingSession session(std::move(clf));
  for (const Series& s : probes) session.Predict(s);
  before = Allocs();
  for (int pass = 0; pass < 3; ++pass) {
    for (size_t i = 0; i < probes.size(); ++i) {
      EXPECT_EQ(session.Predict(probes[i]), warm_labels[i]);
    }
  }
  EXPECT_EQ(Allocs() - before, 0u) << "ServingSession::Predict";
}

INSTANTIATE_TEST_SUITE_P(
    TreeFamilies, PredictAllocTest,
    testing::Values(Case{MvgModel::kXgboost, FeatureMode::kMpdsOnly, 2},
                    Case{MvgModel::kXgboost, FeatureMode::kAll, 2},
                    Case{MvgModel::kXgboost, FeatureMode::kMpdsOnly, 3},
                    Case{MvgModel::kXgboost, FeatureMode::kAll, 3},
                    Case{MvgModel::kRandomForest, FeatureMode::kMpdsOnly, 3},
                    Case{MvgModel::kRandomForest, FeatureMode::kAll, 3}),
    CaseName);

}  // namespace
}  // namespace mvg
