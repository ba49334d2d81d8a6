#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include <limits>

#include "core/mvg_classifier.h"
#include "ml/metrics.h"
#include "obs/obs.h"
#include "ts/generators.h"
#include "vg/vg_workspace.h"

namespace mvg {
namespace {

DatasetSplit Easy(uint64_t seed, const std::string& family = "chaos") {
  SyntheticInfo info;
  info.name = "core-test";
  info.family = family;
  info.num_classes = 2;
  info.train_size = 24;
  info.test_size = 30;
  info.length = 96;
  return MakeSynthetic(info, seed);
}

MvgClassifier::Config FastConfig(MvgModel model) {
  MvgClassifier::Config c;
  c.model = model;
  c.grid = GridPreset::kNone;
  return c;
}

TEST(MvgClassifierTest, XgboostLearnsEasySplit) {
  const DatasetSplit split = Easy(1);
  MvgClassifier clf(FastConfig(MvgModel::kXgboost));
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.2);
  EXPECT_GT(clf.feature_extraction_seconds(), 0.0);
  EXPECT_GT(clf.training_seconds(), 0.0);
}

TEST(MvgClassifierTest, RandomForestLearnsEasySplit) {
  const DatasetSplit split = Easy(2);
  MvgClassifier clf(FastConfig(MvgModel::kRandomForest));
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.2);
}

TEST(MvgClassifierTest, SvmLearnsEasySplit) {
  const DatasetSplit split = Easy(3);
  MvgClassifier clf(FastConfig(MvgModel::kSvm));
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.25);
}

TEST(MvgClassifierTest, StackingLearnsEasySplit) {
  const DatasetSplit split = Easy(4);
  MvgClassifier clf(FastConfig(MvgModel::kStacking));
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.25);
}

TEST(MvgClassifierTest, GridSearchRuns) {
  const DatasetSplit split = Easy(5);
  MvgClassifier::Config config;
  config.grid = GridPreset::kSmall;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.25);
}

TEST(MvgClassifierTest, TopFeaturesNamed) {
  const DatasetSplit split = Easy(6);
  MvgClassifier clf(FastConfig(MvgModel::kXgboost));
  clf.Fit(split.train);
  const auto top = clf.TopFeatures(10);
  ASSERT_EQ(top.size(), 10u);
  // Names follow the T<i>.<graph>.<feature> scheme.
  EXPECT_EQ(top[0].first.substr(0, 1), "T");
  // Gains are sorted descending.
  for (size_t i = 0; i + 1 < top.size(); ++i) {
    EXPECT_GE(top[i].second, top[i + 1].second);
  }
}

TEST(MvgClassifierTest, TopFeaturesThrowsForNonXgboost) {
  const DatasetSplit split = Easy(7);
  MvgClassifier clf(FastConfig(MvgModel::kRandomForest));
  clf.Fit(split.train);
  EXPECT_THROW(clf.TopFeatures(5), std::runtime_error);
}

TEST(MvgClassifierTest, HandlesImbalanceWithOversampling) {
  const DatasetSplit split = MakeSyntheticByName("SynWafer", 8);
  MvgClassifier clf(FastConfig(MvgModel::kXgboost));
  clf.Fit(split.train);
  const std::vector<int> pred = clf.PredictAll(split.test);
  // Must predict the minority class at least once (oversampling worked).
  EXPECT_NE(std::count(pred.begin(), pred.end(), 1), 0);
}

TEST(MvgClassifierTest, PredictCountsDataQualityEvents) {
  // Rows shorter or longer than the model's width, and non-finite
  // samples, each bump their counter; a clean training-length series
  // touches none.
  const DatasetSplit split = Easy(3);
  MvgClassifier clf(FastConfig(MvgModel::kXgboost));
  clf.Fit(split.train);
  const obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
  const bool was_enabled = obs::Enabled();
  obs::SetEnabled(true);
  VgWorkspace ws;
  const auto delta = [&](auto&& predict) {
    const uint64_t padded = pm.predict_rows_padded->Value();
    const uint64_t truncated = pm.predict_rows_truncated->Value();
    const uint64_t nonfinite = pm.extract_nonfinite_samples->Value();
    predict();
    return std::vector<uint64_t>{pm.predict_rows_padded->Value() - padded,
                                 pm.predict_rows_truncated->Value() - truncated,
                                 pm.extract_nonfinite_samples->Value() -
                                     nonfinite};
  };
  using Counts = std::vector<uint64_t>;
  EXPECT_EQ(delta([&] { clf.Predict(GaussianNoise(96, 1), &ws); }),
            (Counts{0, 0, 0}));
  EXPECT_EQ(delta([&] { clf.Predict(GaussianNoise(40, 2), &ws); }),
            (Counts{1, 0, 0}));
  EXPECT_EQ(delta([&] { clf.Predict(GaussianNoise(400, 3), &ws); }),
            (Counts{0, 1, 0}));
  Series dirty = GaussianNoise(96, 4);
  dirty[1] = std::numeric_limits<double>::quiet_NaN();
  dirty[7] = -std::numeric_limits<double>::infinity();
  EXPECT_EQ(delta([&] { clf.Predict(dirty, &ws); }), (Counts{0, 0, 2}));
  obs::SetEnabled(was_enabled);
}

TEST(MvgClassifierTest, PredictBeforeFitThrows) {
  MvgClassifier clf;
  EXPECT_THROW(clf.Predict(Series(10, 0.0)), std::runtime_error);
  EXPECT_THROW(clf.model(), std::runtime_error);
}

TEST(MvgClassifierTest, NameReflectsConfig) {
  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.extractor.scale_mode = ScaleMode::kMultiscale;
  EXPECT_EQ(MvgClassifier(config).Name(), "MVG(XGBoost)");
  config.extractor.scale_mode = ScaleMode::kUniscale;
  config.model = MvgModel::kSvm;
  EXPECT_EQ(MvgClassifier(config).Name(), "UVG(SVM)");
}

TEST(MvgClassifierTest, HeuristicColumnsAllTrainable) {
  const DatasetSplit split = Easy(9, "shapelet");
  for (char col : {'A', 'B', 'C', 'D', 'E', 'F', 'G'}) {
    MvgClassifier::Config config;
    config.extractor = ConfigForHeuristicColumn(col);
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(split.train);
    const double err =
        ErrorRate(split.test.labels(), clf.PredictAll(split.test));
    EXPECT_LE(err, 0.6) << "column " << col;  // sanity, not accuracy
  }
}

}  // namespace
}  // namespace mvg
