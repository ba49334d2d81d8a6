// Second-wave unit tests: utility classes and API corners not exercised by
// the module suites (table printer, timer, custom kNN distances, scaler
// edge cases, classifier naming, enum printers, regularisation behaviour).

#include <cmath>
#include <sstream>
#include <thread>

#include <gtest/gtest.h>

#include "core/feature_extractor.h"
#include "core/mvg_classifier.h"
#include "ml/decision_tree.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "ml/svm.h"
#include "ts/multiscale.h"
#include "util/random.h"
#include "util/table_printer.h"
#include "util/timer.h"

namespace mvg {
namespace {

TEST(TablePrinterTest, AlignsAndPadsRows) {
  TablePrinter table({"name", "value"});
  table.AddRow({"short", "1"});
  table.AddRow({"a-much-longer-name"});  // padded to 2 columns
  table.AddRow("pi", {3.14159}, 2);
  std::ostringstream os;
  table.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("a-much-longer-name"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  // Header separator line present.
  EXPECT_NE(out.find("----"), std::string::npos);
}

TEST(WallTimerTest, MeasuresElapsedTime) {
  WallTimer timer;
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_GE(timer.Millis(), 10.0);
  timer.Restart();
  EXPECT_LT(timer.Millis(), 10.0);
}

TEST(MultiscaleTest, FirstScaleIndexAndToString) {
  EXPECT_EQ(FirstScaleIndex(ScaleMode::kUniscale), 0u);
  EXPECT_EQ(FirstScaleIndex(ScaleMode::kMultiscale), 0u);
  EXPECT_EQ(FirstScaleIndex(ScaleMode::kApproximateMultiscale), 1u);
  EXPECT_STREQ(ToString(ScaleMode::kUniscale), "UVG");
  EXPECT_STREQ(ToString(ScaleMode::kApproximateMultiscale), "AMVG");
  EXPECT_STREQ(ToString(ScaleMode::kMultiscale), "MVG");
}

TEST(FeatureModeTest, ToStringCoversAllModes) {
  EXPECT_STREQ(ToString(FeatureMode::kMpdsOnly), "MPDs");
  EXPECT_STREQ(ToString(FeatureMode::kAll), "All");
  EXPECT_STREQ(ToString(FeatureMode::kExtended), "Extended");
  EXPECT_STREQ(ToString(GraphMode::kHvgOnly), "HVG");
  EXPECT_STREQ(ToString(GraphMode::kVgOnly), "VG");
  EXPECT_STREQ(ToString(GraphMode::kVgAndHvg), "VG+HVG");
}

TEST(SvmTest, DecisionFunctionSignMatchesPrediction) {
  Rng rng(7);
  Matrix x;
  std::vector<int> y;
  for (int i = 0; i < 40; ++i) {
    const double v = rng.Uniform(-1, 1);
    x.push_back({v, rng.Gaussian(0, 0.1)});
    y.push_back(v > 0 ? 1 : 0);
  }
  SvmClassifier svm;
  svm.Fit(x, y);
  for (const auto& row : x) {
    const auto scores = svm.DecisionFunction(row);
    ASSERT_EQ(scores.size(), 2u);
    const int pred = svm.Predict(row);
    EXPECT_EQ(pred, scores[1] > scores[0] ? 1 : 0);
  }
}

TEST(ModelSelectionTest, CrossValLogLossTracksSeparability) {
  Rng rng(8);
  Matrix x_easy, x_hard;
  std::vector<int> y;
  for (int i = 0; i < 60; ++i) {
    const int label = i % 2;
    y.push_back(label);
    x_easy.push_back({5.0 * label + rng.Gaussian(0, 0.2)});
    x_hard.push_back({rng.Gaussian()});
  }
  ClassifierFactory tree = []() {
    return std::make_unique<DecisionTreeClassifier>();
  };
  EXPECT_LT(GridSearch({tree}, x_easy, y, 3, 1).best_score,
            GridSearch({tree}, x_hard, y, 3, 1).best_score);
}

TEST(MetricsTest, LogLossRejectsUnknownLabel) {
  EXPECT_THROW(LogLoss({5}, {{0.5, 0.5}}, {0, 1}), std::invalid_argument);
  EXPECT_THROW(LogLoss({}, {}, {0, 1}), std::invalid_argument);
}

TEST(ConfusionMatrixTest, RejectsUnknownLabel) {
  EXPECT_THROW(ConfusionMatrix({0}, {7}, {0, 1}), std::invalid_argument);
}

TEST(MvgClassifierTest, ExtendedModeNameAndConfig) {
  MvgClassifier::Config config;
  config.extractor.feature_mode = FeatureMode::kExtended;
  config.model = MvgModel::kRandomForest;
  const MvgClassifier clf(config);
  EXPECT_EQ(clf.Name(), "MVG(RF)");
  EXPECT_EQ(clf.config().extractor.feature_mode, FeatureMode::kExtended);
}

}  // namespace
}  // namespace mvg
