// Tests for the histogram training engine: FeatureTable binning contract,
// histogram-vs-exact split parity against the brute-force oracle in
// tests/exact_tree_oracle.h (including a 100-series x 4-family MVG
// feature sweep), thread-count invariance of RF/GBT/GridSearch/stacking
// and of the end-to-end MvgClassifier::Fit, fold sharing in GridSearch,
// FitOnRows-vs-gathered-Fit equivalence, and the .mvg round trip of a
// histogram-trained model.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/decision_tree.h"
#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "serve/model_io.h"
#include "tests/exact_tree_oracle.h"
#include "tests/test_util.h"
#include "ts/generators.h"
#include "util/random.h"

namespace mvg {
namespace {

using testutil::AllSeriesFamilies;
using testutil::ExactTreeOracle;
using testutil::MakeFamilySeries;
using testutil::SeriesFamily;

void MakeBlobs(size_t per_class, size_t num_classes, double gap, uint64_t seed,
               Matrix* x, std::vector<int>* y) {
  Rng rng(seed);
  x->clear();
  y->clear();
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({gap * static_cast<double>(c) + rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 0.5),
                    rng.Gaussian(0, 1.0)});
      y->push_back(static_cast<int>(c));
    }
  }
}

/// Labels 0..k-1 encode to themselves (LabelEncoder sorts ascending).
std::vector<size_t> Encoded(const std::vector<int>& y) {
  return std::vector<size_t>(y.begin(), y.end());
}

std::vector<size_t> AllRows(size_t n) {
  std::vector<size_t> rows(n);
  for (size_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

// ---------------------------------------------------------------------------
// FeatureTable
// ---------------------------------------------------------------------------

TEST(FeatureTableTest, ExactBinsWhenFewDistinctValues) {
  const Matrix x = {{0.0}, {1.0}, {1.0}, {2.0}, {3.0}};
  FeatureTable ft;
  ft.Build(x);
  EXPECT_EQ(ft.num_rows(), 5u);
  EXPECT_EQ(ft.num_features(), 1u);
  EXPECT_EQ(ft.num_bins(0), 4u);  // one bin per distinct value.
  // Bin ids follow value order; equal values share a bin.
  EXPECT_EQ(ft.bin(0, 0), 0);
  EXPECT_EQ(ft.bin(0, 1), ft.bin(0, 2));
  EXPECT_LT(ft.bin(0, 2), ft.bin(0, 3));
  // Thresholds are the midpoints between consecutive distinct values.
  EXPECT_DOUBLE_EQ(ft.threshold(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(ft.threshold(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(ft.threshold(0, 2), 2.5);
}

TEST(FeatureTableTest, BinRoutingMatchesThresholdRouting) {
  // The contract Predict relies on: bin(f, i) <= b iff value <= threshold.
  // Checked on the quantile path (more rows than bins).
  Rng rng(7);
  Matrix x;
  for (size_t i = 0; i < 1200; ++i) {
    x.push_back({rng.Gaussian(), rng.Uniform(-3, 3)});
  }
  FeatureTable ft;
  ft.Build(x);
  for (size_t f = 0; f < ft.num_features(); ++f) {
    const size_t nb = ft.num_bins(f);
    ASSERT_LE(nb, FeatureTable::kMaxBins);
    ASSERT_GE(nb, 2u);
    for (size_t b = 0; b + 1 < nb; ++b) {
      for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_EQ(ft.bin(f, i) <= b, x[i][f] <= ft.threshold(f, b))
            << "f=" << f << " b=" << b << " i=" << i;
      }
    }
  }
}

TEST(FeatureTableTest, RowSubsetUsesCompactIndexing) {
  const Matrix x = {{10.0}, {20.0}, {30.0}, {40.0}};
  FeatureTable ft;
  ft.Build(x, {3, 1});
  EXPECT_EQ(ft.num_rows(), 2u);
  EXPECT_EQ(ft.source_row(0), 3u);
  EXPECT_EQ(ft.source_row(1), 1u);
  EXPECT_GT(ft.bin(0, 0), ft.bin(0, 1));  // 40 binned above 20.
}

// ---------------------------------------------------------------------------
// Histogram-vs-exact parity (brute-force oracle: tests/exact_tree_oracle.h)
// ---------------------------------------------------------------------------

TEST(TrainParity, TreeTrainingPredictionsIdenticalToExact) {
  // With <= 256 distinct values per feature the binning is exact and the
  // class-count histograms are integer, so the histogram tree picks the
  // same splits as the pre-sorted sweep and training predictions match
  // bit for bit.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(40, 3, 1.5, 11, &x, &y);  // overlapping: deep, non-trivial tree
  DecisionTreeClassifier hist;
  hist.Fit(x, y);
  const ExactTreeOracle exact(x, Encoded(y), 3, AllRows(x.size()),
                              hist.params());
  for (const auto& row : x) {
    EXPECT_EQ(hist.PredictProba(row), exact.PredictProba(row));
  }
  EXPECT_EQ(hist.NumNodes(), exact.NumNodes());
}

TEST(TrainParity, ForestAccuracyMatchesExact) {
  Matrix x, xte;
  std::vector<int> y, yte;
  MakeBlobs(40, 2, 2.0, 12, &x, &y);
  MakeBlobs(40, 2, 2.0, 99, &xte, &yte);
  RandomForestClassifier::Params params;
  params.num_trees = 40;
  RandomForestClassifier hist(params);
  hist.Fit(x, y);

  // The exact forest: the same per-tree seeds and bootstrap draws off the
  // master RNG (in RandomForestClassifier's order), exact trees.
  const std::vector<size_t> encoded = Encoded(y);
  const size_t n = x.size();
  DecisionTreeClassifier::Params tp;
  tp.max_depth = params.max_depth;
  tp.max_features =
      static_cast<size_t>(std::sqrt(static_cast<double>(x[0].size())));
  Rng rng(params.seed);
  std::vector<ExactTreeOracle> forest;
  for (size_t t = 0; t < params.num_trees; ++t) {
    tp.seed = rng.engine()();
    std::vector<size_t> rows(n);
    for (size_t& r : rows) r = rng.Index(n);
    forest.emplace_back(x, encoded, 2, rows, tp);
  }
  std::vector<int> pred_exact;
  for (const auto& row : xte) {
    std::vector<double> acc(2, 0.0);
    for (const ExactTreeOracle& tree : forest) {
      const std::vector<double> p = tree.PredictProba(row);
      for (size_t c = 0; c < acc.size(); ++c) acc[c] += p[c];
    }
    pred_exact.push_back(acc[1] > acc[0] ? 1 : 0);
  }
  EXPECT_NEAR(ErrorRate(yte, hist.PredictAll(xte)), ErrorRate(yte, pred_exact),
              0.05);
}

// The 100-series sweep (25 per input family, the family as the class
// label): real MVG features — constant columns, heavy ties — with at most
// 100 distinct values per feature, so the binning is exact and the
// histogram tree must reproduce the exact oracle on every training row.
TEST(TrainParity, SweepHistogramVsExactAcross4Families) {
  const size_t per_family = 25;
  const size_t length = 64;
  Dataset train("parity_train"), test("parity_test");
  int label = 0;
  for (SeriesFamily family : AllSeriesFamilies()) {
    for (size_t i = 0; i < per_family; ++i) {
      train.Add(MakeFamilySeries(family, length, 10 + i), label);
      test.Add(MakeFamilySeries(family, length, 500 + i), label);
    }
    ++label;
  }

  const MvgFeatureExtractor fx;
  const Matrix xtr = fx.ExtractAll(train);
  const Matrix xte = fx.ExtractAll(test);
  const std::vector<int> ytr = train.labels();
  const std::vector<int> yte = test.labels();

  DecisionTreeClassifier hist;
  hist.Fit(xtr, ytr);
  const ExactTreeOracle exact(xtr, Encoded(ytr), 4, AllRows(xtr.size()),
                              hist.params());
  for (size_t i = 0; i < xtr.size(); ++i) {
    EXPECT_EQ(hist.PredictProba(xtr[i]), exact.PredictProba(xtr[i]))
        << "row " << i;
  }
  EXPECT_EQ(hist.NumNodes(), exact.NumNodes());

  // Held-out rows may route differently (table-wide vs node-local
  // midpoints), but never enough to move accuracy far. Both must clearly
  // beat 4-class chance (0.25); monotone ramps and constants both detrend
  // to flat series, so those two families are intentionally confusable.
  std::vector<int> pred_exact;
  for (const auto& row : xte) {
    const std::vector<double> p = exact.PredictProba(row);
    pred_exact.push_back(static_cast<int>(
        std::max_element(p.begin(), p.end()) - p.begin()));
  }
  const double acc_hist = Accuracy(yte, hist.PredictAll(xte));
  const double acc_exact = Accuracy(yte, pred_exact);
  EXPECT_NEAR(acc_hist, acc_exact, 0.05)
      << "hist=" << acc_hist << " exact=" << acc_exact;
  EXPECT_GE(acc_exact, 0.6);
  EXPECT_GE(acc_hist, 0.6);
}

// ---------------------------------------------------------------------------
// Thread-count invariance
// ---------------------------------------------------------------------------

TEST(ThreadInvariance, RandomForestBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 1.5, 21, &x, &y);
  RandomForestClassifier::Params p1, p4;
  p1.num_trees = p4.num_trees = 50;
  p1.num_threads = 1;
  p4.num_threads = 4;
  RandomForestClassifier a(p1), b(p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(ThreadInvariance, GradientBoostingBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 1.5, 22, &x, &y);  // multiclass: one tree per class
  GradientBoostingClassifier::Params p1, p4;
  p1.num_rounds = p4.num_rounds = 30;
  p1.subsample = p4.subsample = 0.5;
  p1.colsample = p4.colsample = 0.5;
  p1.num_threads = 1;
  p4.num_threads = 4;
  GradientBoostingClassifier a(p1), b(p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
  EXPECT_EQ(a.FeatureGains(), b.FeatureGains());
}

TEST(ThreadInvariance, GridSearchBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 2.0, 23, &x, &y);
  std::vector<ClassifierFactory> candidates;
  for (size_t rounds : {size_t{5}, size_t{20}, size_t{40}}) {
    candidates.push_back([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      return std::make_unique<GradientBoostingClassifier>(p);
    });
  }
  const GridSearchResult serial = GridSearch(candidates, x, y, 3, 1, 1);
  const GridSearchResult parallel = GridSearch(candidates, x, y, 3, 1, 4);
  EXPECT_EQ(serial.scores, parallel.scores);
  EXPECT_EQ(serial.best_index, parallel.best_index);
}

TEST(ThreadInvariance, StackingBitIdentical) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 1.5, 24, &x, &y);
  auto families = [] {
    std::vector<std::vector<ClassifierFactory>> f;
    f.push_back({[]() {
                   GradientBoostingClassifier::Params p;
                   p.num_rounds = 15;
                   return std::make_unique<GradientBoostingClassifier>(p);
                 },
                 []() {
                   RandomForestClassifier::Params p;
                   p.num_trees = 20;
                   return std::make_unique<RandomForestClassifier>(p);
                 }});
    return f;
  };
  StackingEnsemble::Params p1, p4;
  p1.top_k_per_family = p4.top_k_per_family = 2;
  p1.num_threads = 1;
  p4.num_threads = 4;
  StackingEnsemble a(families(), p1), b(families(), p4);
  a.Fit(x, y);
  b.Fit(x, y);
  for (const auto& row : x) {
    EXPECT_EQ(a.PredictProba(row), b.PredictProba(row));
  }
}

TEST(ThreadInvariance, MvgClassifierEndToEnd) {
  SyntheticInfo info;
  info.name = "ti";
  info.family = "chaos";
  info.num_classes = 2;
  info.train_size = 16;
  info.test_size = 12;
  info.length = 64;
  const DatasetSplit split = MakeSynthetic(info, 31);

  MvgClassifier::Config c1, c4;
  c1.grid = c4.grid = GridPreset::kSmall;
  c1.num_threads = 1;
  c4.num_threads = 4;
  MvgClassifier a(c1), b(c4);
  a.Fit(split.train);
  b.Fit(split.train);
  EXPECT_EQ(a.PredictAll(split.test), b.PredictAll(split.test));
}

// ---------------------------------------------------------------------------
// Fold sharing and view-based fitting
// ---------------------------------------------------------------------------

TEST(ModelSelection, GridSearchSharesFoldsAcrossCandidates) {
  // The same stratified split must back every candidate: a one-candidate
  // GridSearch over the precomputed folds reproduces each of the full
  // search's scores exactly.
  Matrix x;
  std::vector<int> y;
  MakeBlobs(24, 2, 2.0, 41, &x, &y);
  std::vector<ClassifierFactory> candidates;
  for (size_t rounds : {size_t{5}, size_t{25}}) {
    candidates.push_back([rounds]() {
      GradientBoostingClassifier::Params p;
      p.num_rounds = rounds;
      return std::make_unique<GradientBoostingClassifier>(p);
    });
  }
  const auto folds = StratifiedKFold(y, 3, 7);
  const GridSearchResult result = GridSearch(candidates, x, y, folds);
  ASSERT_EQ(result.scores.size(), candidates.size());
  for (size_t c = 0; c < candidates.size(); ++c) {
    EXPECT_DOUBLE_EQ(result.scores[c],
                     GridSearch({candidates[c]}, x, y, folds).best_score);
  }
  // And the (num_folds, seed) overload is the same split.
  const GridSearchResult seeded = GridSearch(candidates, x, y, 3, 7);
  EXPECT_EQ(seeded.scores, result.scores);
}

TEST(ModelSelection, FitOnRowsMatchesGatheredFit) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 1.5, 42, &x, &y);
  std::vector<size_t> rows;
  for (size_t i = 0; i < x.size(); i += 2) rows.push_back(i);

  Matrix xg;
  std::vector<int> yg;
  for (size_t r : rows) {
    xg.push_back(x[r]);
    yg.push_back(y[r]);
  }

  GradientBoostingClassifier view, gathered;
  view.FitOnRows(x, y, rows);
  gathered.Fit(xg, yg);
  for (const auto& row : x) {
    EXPECT_EQ(view.PredictProba(row), gathered.PredictProba(row));
  }

  RandomForestClassifier rf_view, rf_gathered;
  rf_view.FitOnRows(x, y, rows);
  rf_gathered.Fit(xg, yg);
  for (const auto& row : x) {
    EXPECT_EQ(rf_view.PredictProba(row), rf_gathered.PredictProba(row));
  }
}

// ---------------------------------------------------------------------------
// Persistence of histogram-trained models
// ---------------------------------------------------------------------------

TEST(TrainEngineIo, MvgRoundTripOfHistogramTrainedModel) {
  SyntheticInfo info;
  info.name = "io";
  info.family = "worms";
  info.num_classes = 2;
  info.train_size = 16;
  info.test_size = 16;
  info.length = 64;
  const DatasetSplit split = MakeSynthetic(info, 51);

  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  config.num_threads = 2;
  MvgClassifier clf(config);
  clf.Fit(split.train);

  std::stringstream blob(std::ios::in | std::ios::out | std::ios::binary);
  clf.SaveBinary(blob);
  MvgClassifier loaded = MvgClassifier::LoadBinary(blob);

  EXPECT_EQ(clf.PredictAll(split.test), loaded.PredictAll(split.test));

  // Re-saving the loaded model reproduces the bytes exactly.
  std::stringstream again(std::ios::in | std::ios::out | std::ios::binary);
  loaded.SaveBinary(again);
  EXPECT_EQ(blob.str(), again.str());
}

}  // namespace
}  // namespace mvg
