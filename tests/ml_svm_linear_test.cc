#include <cmath>
#include <gtest/gtest.h>

#include "ml/metrics.h"
#include "ml/preprocessing.h"
#include "ml/svm.h"
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
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.4),
                    rng.Gaussian(0, 0.4)});
      y->push_back(static_cast<int>(c));
    }
  }
}

TEST(SvmTest, RbfSolvesCircles) {
  // Inner circle vs outer ring: linearly inseparable, classic RBF case.
  Rng rng(2);
  Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 120; ++i) {
    const double angle = rng.Uniform(0, 6.2831853);
    const double r = i % 2 == 0 ? rng.Uniform(0.0, 0.6) : rng.Uniform(1.4, 2.0);
    x.push_back({r * std::cos(angle), r * std::sin(angle)});
    y.push_back(i % 2);
  }
  SvmClassifier::Params p;
  p.c = 10.0;
  SvmClassifier svm(p);
  svm.Fit(x, y);
  EXPECT_LE(ErrorRate(y, svm.PredictAll(x)), 0.05);
}

TEST(SvmTest, MulticlassOneVsRest) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(25, 3, 3.0, 3, &x, &y);
  SvmClassifier svm;
  svm.Fit(x, y);
  EXPECT_LE(ErrorRate(y, svm.PredictAll(x)), 0.05);
  const auto proba = svm.PredictProba(x[0]);
  ASSERT_EQ(proba.size(), 3u);
  double sum = 0.0;
  for (double v : proba) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(MinMaxScalerTest, ScalesIntoUnitRangeAndClamps) {
  Matrix x = {{0.0, 10.0}, {5.0, 20.0}, {10.0, 30.0}};
  MinMaxScaler scaler;
  scaler.Fit(x);
  const Matrix t = scaler.TransformAll(x);
  EXPECT_DOUBLE_EQ(t[0][0], 0.0);
  EXPECT_DOUBLE_EQ(t[2][0], 1.0);
  EXPECT_DOUBLE_EQ(t[1][1], 0.5);
  // Outside the training range: clamped.
  const auto out = scaler.Transform({-5.0, 100.0});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 1.0);
}

TEST(MinMaxScalerTest, ConstantFeatureMapsToZero) {
  Matrix x = {{3.0}, {3.0}};
  MinMaxScaler scaler;
  scaler.Fit(x);
  const Matrix t = scaler.TransformAll(x);
  EXPECT_DOUBLE_EQ(t[0][0], 0.0);
}

TEST(RandomOversampleTest, BalancesClasses) {
  Matrix x = {{0.0}, {1.0}, {2.0}, {3.0}, {4.0}, {5.0}};
  std::vector<int> y = {0, 0, 0, 0, 0, 1};
  Matrix x_out;
  std::vector<int> y_out;
  RandomOversample(x, y, 7, &x_out, &y_out);
  size_t zeros = 0, ones = 0;
  for (int label : y_out) (label == 0 ? zeros : ones) += 1;
  EXPECT_EQ(zeros, 5u);
  EXPECT_EQ(ones, 5u);
  EXPECT_EQ(x_out.size(), 10u);
  // Oversampled rows duplicate minority rows.
  for (size_t i = 6; i < x_out.size(); ++i) EXPECT_EQ(x_out[i][0], 5.0);
}

}  // namespace
}  // namespace mvg
