#include <cmath>

#include <gtest/gtest.h>

#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "util/random.h"

namespace mvg {
namespace {

void MakeBlobs(size_t per_class, size_t num_classes, double gap, uint64_t seed,
               Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 0.5)});
      y->push_back(static_cast<int>(c));
    }
  }
}

TEST(GradientBoosting, BinarySeparable) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 2, 4.0, 1, &x, &y);
  GradientBoostingClassifier gbt;
  gbt.Fit(x, y);
  EXPECT_EQ(ErrorRate(y, gbt.PredictAll(x)), 0.0);
}

TEST(GradientBoosting, MulticlassSeparable) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 4, 4.0, 2, &x, &y);
  GradientBoostingClassifier gbt;
  gbt.Fit(x, y);
  EXPECT_LE(ErrorRate(y, gbt.PredictAll(x)), 0.02);
}

TEST(GradientBoosting, ProbasFormDistribution) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 3, 2.0, 3, &x, &y);
  GradientBoostingClassifier gbt;
  gbt.Fit(x, y);
  for (const auto& row : x) {
    const auto p = gbt.PredictProba(row);
    ASSERT_EQ(p.size(), 3u);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(GradientBoosting, XorNeedsDepth) {
  // XOR is not linearly separable; depth-2 trees crack it.
  Matrix x;
  std::vector<int> y;
  Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const double a = rng.Uniform(-1, 1), b = rng.Uniform(-1, 1);
    x.push_back({a, b});
    y.push_back(a * b > 0 ? 1 : 0);
  }
  GradientBoostingClassifier::Params params;
  params.max_depth = 3;
  params.num_rounds = 60;
  GradientBoostingClassifier gbt(params);
  gbt.Fit(x, y);
  EXPECT_LE(ErrorRate(y, gbt.PredictAll(x)), 0.05);
}

TEST(GradientBoosting, MoreRoundsReduceTrainingLoss) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(50, 2, 1.0, 5, &x, &y);  // overlapping
  GradientBoostingClassifier::Params p_small, p_large;
  p_small.num_rounds = 5;
  p_large.num_rounds = 80;
  GradientBoostingClassifier small(p_small), large(p_large);
  small.Fit(x, y);
  large.Fit(x, y);
  Matrix proba_small, proba_large;
  for (const auto& row : x) {
    proba_small.push_back(small.PredictProba(row));
    proba_large.push_back(large.PredictProba(row));
  }
  const double loss_small = LogLoss(y, proba_small, small.classes());
  const double loss_large = LogLoss(y, proba_large, large.classes());
  EXPECT_LT(loss_large, loss_small);
}

TEST(GradientBoosting, FeatureImportanceFindsInformativeFeature) {
  // Feature 0 carries all the signal; features 1-2 are noise.
  Rng rng(6);
  Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 150; ++i) {
    const double signal = rng.Uniform(-1, 1);
    x.push_back({signal, rng.Gaussian(), rng.Gaussian()});
    y.push_back(signal > 0 ? 1 : 0);
  }
  GradientBoostingClassifier gbt;
  gbt.Fit(x, y);
  const auto top = gbt.TopFeatures(3);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0], 0u);
  EXPECT_GT(gbt.FeatureGains()[0], gbt.FeatureGains()[1]);
  EXPECT_GT(gbt.FeatureGains()[0], gbt.FeatureGains()[2]);
}

TEST(GradientBoosting, SubsamplingStillLearns) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(50, 2, 4.0, 7, &x, &y);
  GradientBoostingClassifier::Params params;
  params.subsample = 0.5;
  params.colsample = 0.5;
  GradientBoostingClassifier gbt(params);
  gbt.Fit(x, y);
  EXPECT_LE(ErrorRate(y, gbt.PredictAll(x)), 0.05);
}

TEST(GradientBoosting, DeterministicGivenSeed) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 1.5, 8, &x, &y);
  GradientBoostingClassifier a, b;
  a.Fit(x, y);
  b.Fit(x, y);
  EXPECT_EQ(a.PredictProba(x[0]), b.PredictProba(x[0]));
}

TEST(GradientBoosting, NonContiguousLabels) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(25, 2, 4.0, 9, &x, &y);
  for (int& label : y) label = label == 0 ? -7 : 42;
  GradientBoostingClassifier gbt;
  gbt.Fit(x, y);
  const std::vector<int> pred = gbt.PredictAll(x);
  for (int p : pred) EXPECT_TRUE(p == -7 || p == 42);
  EXPECT_EQ(ErrorRate(y, pred), 0.0);
}

}  // namespace
}  // namespace mvg
