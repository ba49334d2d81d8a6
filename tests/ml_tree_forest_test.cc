#include <gtest/gtest.h>

#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"
#include "obs/obs.h"
#include "util/random.h"

namespace mvg {
namespace {

/// Two Gaussian blobs per class, linearly separable when `gap` is large.
void MakeBlobs(size_t per_class, size_t num_classes, double gap, uint64_t seed,
               Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.5),
                    gap * static_cast<double>(c) + rng.Gaussian(0, 0.5)});
      y->push_back(static_cast<int>(c) * 10 + 1);  // non-contiguous labels
    }
  }
}

TEST(LabelEncoderTest, RoundTrip) {
  LabelEncoder enc;
  enc.Fit({5, 2, 9, 2, 5});
  EXPECT_EQ(enc.num_classes(), 3u);
  EXPECT_EQ(enc.Encode(2), 0u);
  EXPECT_EQ(enc.Encode(9), 2u);
  EXPECT_EQ(enc.Decode(1), 5);
  EXPECT_THROW(enc.Encode(7), std::invalid_argument);
}

TEST(DecisionTree, SeparatesBlobs) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 4.0, 1, &x, &y);
  DecisionTreeClassifier tree;
  tree.Fit(x, y);
  EXPECT_EQ(ErrorRate(y, tree.PredictAll(x)), 0.0);
}

TEST(DecisionTree, ProbasSumToOne) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 2, 1.0, 2, &x, &y);
  DecisionTreeClassifier tree;
  tree.Fit(x, y);
  const auto p = tree.PredictProba(x[0]);
  ASSERT_EQ(p.size(), 2u);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(DecisionTree, RespectsMaxDepth) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(50, 2, 0.3, 3, &x, &y);  // heavily overlapping
  DecisionTreeClassifier::Params params;
  params.max_depth = 2;
  DecisionTreeClassifier tree(params);
  tree.Fit(x, y);
  EXPECT_LE(tree.Depth(), 2u);
}

TEST(DecisionTree, PureLeafStopsEarly) {
  Matrix x = {{0.0}, {1.0}, {2.0}};
  std::vector<int> y = {1, 1, 1};
  DecisionTreeClassifier tree;
  tree.Fit(x, y);
  EXPECT_EQ(tree.NumNodes(), 1u);
  EXPECT_EQ(tree.Predict({5.0}), 1);
}

TEST(DecisionTree, ThrowsOnBadInput) {
  DecisionTreeClassifier tree;
  EXPECT_THROW(tree.Fit({}, {}), std::invalid_argument);
  EXPECT_THROW(tree.Fit({{1.0}}, {1, 2}), std::invalid_argument);
  EXPECT_THROW(tree.Fit({{1.0}, {1.0, 2.0}}, {1, 2}), std::invalid_argument);
}

TEST(RandomForest, SeparatesBlobs) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(25, 3, 4.0, 4, &x, &y);
  RandomForestClassifier::Params params;
  params.num_trees = 30;
  RandomForestClassifier rf(params);
  rf.Fit(x, y);
  EXPECT_EQ(rf.num_trees_fitted(), 30u);
  EXPECT_LE(ErrorRate(y, rf.PredictAll(x)), 0.02);
}

TEST(RandomForest, CountsOneHistogramBuildPerSearchedNode) {
  // Every node that searches for a split histograms its candidate
  // features once, so the two counters move together.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(25, 3, 1.0, 6, &x, &y);
  const obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  const uint64_t builds = pm.train_hist_node_builds->Value();
  const uint64_t searches = pm.train_split_searches->Value();
  RandomForestClassifier::Params params;
  params.num_trees = 5;
  RandomForestClassifier(params).Fit(x, y);
  obs::SetEnabled(was_enabled);
  const uint64_t built = pm.train_hist_node_builds->Value() - builds;
  EXPECT_GT(built, 0u);
  EXPECT_EQ(built, pm.train_split_searches->Value() - searches);
}

TEST(RandomForest, GeneralizesToHeldOut) {
  Matrix xtr, xte;
  std::vector<int> ytr, yte;
  MakeBlobs(40, 2, 3.0, 5, &xtr, &ytr);
  MakeBlobs(40, 2, 3.0, 99, &xte, &yte);
  RandomForestClassifier rf;
  rf.Fit(xtr, ytr);
  EXPECT_LE(ErrorRate(yte, rf.PredictAll(xte)), 0.05);
}

TEST(RandomForest, DeterministicGivenSeed) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 2, 1.0, 6, &x, &y);
  RandomForestClassifier a, b;
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(RandomForest, CloneIsUnfittedWithSameParams) {
  RandomForestClassifier::Params params;
  params.num_trees = 7;
  RandomForestClassifier rf(params);
  auto clone = rf.Clone();
  EXPECT_NE(clone->Name().find("trees=7"), std::string::npos);
}

TEST(MetricsTest, ErrorRateAndAccuracy) {
  EXPECT_DOUBLE_EQ(ErrorRate({1, 2, 3, 4}, {1, 2, 0, 0}), 0.5);
  EXPECT_DOUBLE_EQ(Accuracy({1, 2}, {1, 2}), 1.0);
  EXPECT_THROW(ErrorRate({}, {}), std::invalid_argument);
}

TEST(MetricsTest, LogLossPerfectAndWorst) {
  const std::vector<int> truth = {0, 1};
  const Matrix perfect = {{1.0, 0.0}, {0.0, 1.0}};
  EXPECT_NEAR(LogLoss(truth, perfect, {0, 1}), 0.0, 1e-9);
  const Matrix uniform = {{0.5, 0.5}, {0.5, 0.5}};
  EXPECT_NEAR(LogLoss(truth, uniform, {0, 1}), std::log(2.0), 1e-12);
}

TEST(MetricsTest, ConfusionMatrixCounts) {
  const auto cm = ConfusionMatrix({0, 0, 1, 1}, {0, 1, 1, 1}, {0, 1});
  EXPECT_EQ(cm[0][0], 1u);
  EXPECT_EQ(cm[0][1], 1u);
  EXPECT_EQ(cm[1][1], 2u);
  EXPECT_EQ(cm[1][0], 0u);
}

TEST(MetricsTest, MacroF1Perfect) {
  EXPECT_DOUBLE_EQ(MacroF1({0, 1, 2}, {0, 1, 2}), 1.0);
  EXPECT_LT(MacroF1({0, 0, 1, 1}, {0, 0, 0, 0}), 0.5);
}

}  // namespace
}  // namespace mvg
