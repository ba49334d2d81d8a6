// Third-wave tests: cross-cutting edge cases — ragged prediction lengths,
// multiclass baselines, I/O formats, statistics-test semantics.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/learning_shapelets.h"
#include "baselines/sax_vsm.h"
#include "core/feature_extractor.h"
#include "core/mvg_classifier.h"
#include "graph/graph.h"
#include "graph/graph_io.h"
#include "vg/visibility_graph.h"
#include "ml/metrics.h"
#include "ml/stat_tests.h"
#include "serve/serving.h"
#include "tests/test_util.h"
#include "ts/generators.h"
#include "ts/ucr_io.h"

namespace mvg {
namespace {

// ---------------------------------------------------------------------------
// Degenerate series through the graph builders and the feature extractor:
// empty, single point, all-equal values, and ±inf plateaus must never
// crash, and no NaN may leak into extracted features.
// ---------------------------------------------------------------------------

Series SeriesWithInfPlateaus() {
  const double inf = std::numeric_limits<double>::infinity();
  Series s = GaussianNoise(64, 9);
  for (size_t i = 10; i < 18; ++i) s[i] = inf;
  for (size_t i = 40; i < 48; ++i) s[i] = -inf;
  return s;
}

TEST(DegenerateSeries, EmptyAndSinglePointGraphs) {
  for (const Series& s : {Series{}, Series{3.25}}) {
    for (auto algorithm : {VgAlgorithm::kNaive, VgAlgorithm::kDivideConquer}) {
      const Graph vg = BuildVisibilityGraph(s, algorithm);
      EXPECT_EQ(vg.num_vertices(), s.size());
      EXPECT_EQ(vg.num_edges(), 0u);
    }
    const Graph hvg = BuildHorizontalVisibilityGraph(s);
    EXPECT_EQ(hvg.num_vertices(), s.size());
    EXPECT_EQ(hvg.num_edges(), 0u);
  }
}

TEST(DegenerateSeries, AllEqualValuesChainOnly) {
  // Strict visibility: a flat series only connects neighbours, in both VG
  // algorithms and both HVG implementations.
  const Series s(40, 2.5);
  for (auto algorithm : {VgAlgorithm::kNaive, VgAlgorithm::kDivideConquer}) {
    const Graph vg = BuildVisibilityGraph(s, algorithm);
    EXPECT_EQ(vg.num_edges(), s.size() - 1);
  }
  testutil::ExpectSameEdges(BuildHorizontalVisibilityGraph(s),
                            BuildHorizontalVisibilityGraphNaive(s));
  EXPECT_EQ(BuildHorizontalVisibilityGraph(s).num_edges(), s.size() - 1);
}

TEST(DegenerateSeries, InfPlateausDoNotCrashGraphBuilders) {
  // Behaviour on non-finite input is not fully specified (NaN slopes), but
  // construction must stay within basic structural bounds.
  const Series s = SeriesWithInfPlateaus();
  const size_t n = s.size();
  for (auto algorithm : {VgAlgorithm::kNaive, VgAlgorithm::kDivideConquer}) {
    const Graph vg = BuildVisibilityGraph(s, algorithm);
    EXPECT_EQ(vg.num_vertices(), n);
    EXPECT_LE(vg.num_edges(), n * (n - 1) / 2);
  }
  const Graph hvg = BuildHorizontalVisibilityGraph(s);
  EXPECT_EQ(hvg.num_vertices(), n);
  EXPECT_LE(hvg.num_edges(), n * (n - 1) / 2);
}

TEST(DegenerateSeries, ExtractorNeverLeaksNonFiniteFeatures) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, Series>> cases = {
      {"single_point", Series{1.0}},
      {"all_equal", Series(50, 3.0)},
      {"inf_plateaus", SeriesWithInfPlateaus()},
      {"all_pos_inf", Series(32, inf)},
      {"all_neg_inf", Series(32, -inf)},
      // Finite range so wide that padding or detrending without rescaling
      // would overflow back to inf/NaN.
      {"huge_range_inf", Series{-1e308, 1e308, inf, 0.5, -inf, 2.0, -3.0,
                                1e308, 0.1, -1e308}},
      // All-finite but huge: detrending overflows unless rescaled.
      {"huge_finite_only", Series{-1e308, 1e308, 1e307, -5e307, 2e307,
                                  8e307, -1e306, 3e307}},
      // Same-sign huge values: a raw (unscaled) sum would overflow to inf
      // and poison the NaN-replacement mean.
      {"huge_same_sign_nan", [] {
         Series s(16, 1e308);
         s[5] = std::nan("");
         s[11] = 9e307;
         return s;
       }()},
      {"nan_mixed", [] {
         Series s = GaussianNoise(48, 3);
         s[7] = std::nan("");
         s[30] = std::nan("");
         return s;
       }()},
  };
  for (char column : {'A', 'E', 'G'}) {
    const MvgFeatureExtractor fx(ConfigForHeuristicColumn(column));
    for (const auto& [name, series] : cases) {
      std::vector<double> f;
      ASSERT_NO_THROW(f = fx.Extract(series)) << name;
      EXPECT_FALSE(f.empty()) << name;
      testutil::ExpectAllFinite(f, name + std::string(1, column));
      if (series.size() >= 2) {
        // Multi-point series build a graph with at least the chain edges,
        // so a sane pipeline never yields an all-zero feature vector (which
        // is what NaN-collapsed graph construction degrades to).
        EXPECT_TRUE(std::any_of(f.begin(), f.end(),
                                [](double v) { return v != 0.0; }))
            << name << " collapsed to all-zero features";
      }
    }
  }
}

TEST(DegenerateSeries, ExtractorRejectsEmptySeriesOnly) {
  const MvgFeatureExtractor fx;
  EXPECT_THROW(fx.Extract({}), std::invalid_argument);
}

TEST(GraphEdgeCases, FromEdgesDeduplicatesAndIgnoresSelfLoops) {
  const Graph g = Graph::FromEdges(3, {{0, 1}, {1, 0}, {0, 1}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_FALSE(g.HasEdge(2, 2));
}

TEST(GraphEdgeCases, BuildIsRepeatable) {
  // Build() is non-destructive: the same builder yields identical graphs.
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  const Graph first = b.Build();
  const Graph second = b.Build();
  EXPECT_EQ(first.num_edges(), 1u);
  EXPECT_EQ(first.Edges(), second.Edges());
}

TEST(UcrIoEdgeCases, NegativeAndScientificValues) {
  const std::string path = ::testing::TempDir() + "/ucr_sci.csv";
  {
    std::ofstream out(path);
    out << "-1,-0.5,1e-3,2.5E2\n";
  }
  const Dataset ds = ReadUcrFile(path);
  ASSERT_EQ(ds.size(), 1u);
  EXPECT_EQ(ds.label(0), -1);
  EXPECT_DOUBLE_EQ(ds.series(0)[0], -0.5);
  EXPECT_DOUBLE_EQ(ds.series(0)[1], 1e-3);
  EXPECT_DOUBLE_EQ(ds.series(0)[2], 250.0);
  std::remove(path.c_str());
}

TEST(UcrIoEdgeCases, MalformedLinesThrow) {
  const std::string path = ::testing::TempDir() + "/ucr_bad.csv";
  {
    std::ofstream out(path);
    out << "1,2,3\nnot-a-label,1,2\n";
  }
  EXPECT_THROW(ReadUcrFile(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "1\n";  // label with no values
  }
  EXPECT_THROW(ReadUcrFile(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(WilcoxonSemantics, WinCountsMatchDirection) {
  // a is uniformly worse (higher error) than b on 4 of 5; ties dropped.
  const std::vector<double> a = {0.5, 0.6, 0.7, 0.8, 0.3};
  const std::vector<double> b = {0.4, 0.5, 0.6, 0.7, 0.3};
  const WilcoxonResult r = WilcoxonSignedRank(a, b);
  EXPECT_EQ(r.b_wins, 4u);  // b lower (better) on 4
  EXPECT_EQ(r.a_wins, 0u);
  EXPECT_EQ(r.num_nonzero, 4u);
}

TEST(LearningShapeletsEdgeCases, MulticlassTraining) {
  SyntheticInfo info;
  info.name = "ls-multi";
  info.family = "phoneme";
  info.num_classes = 3;
  info.train_size = 24;
  info.test_size = 24;
  info.length = 96;
  const DatasetSplit split = MakeSynthetic(info, 5);
  LearningShapeletsClassifier::Params p;
  p.max_epochs = 80;
  LearningShapeletsClassifier ls(p);
  ls.Fit(split.train);
  const std::vector<int> pred = ls.PredictAll(split.test);
  const auto classes = split.train.ClassLabels();
  for (int v : pred) {
    EXPECT_TRUE(std::binary_search(classes.begin(), classes.end(), v));
  }
}

TEST(SaxVsmEdgeCases, ManyClassesStillPredictValidLabels) {
  const DatasetSplit split = MakeSyntheticByName("SynPhoneme", 6);
  SaxVsmClassifier vsm;
  vsm.Fit(split.train);
  const auto classes = split.train.ClassLabels();
  for (int v : vsm.PredictAll(split.test)) {
    EXPECT_TRUE(std::binary_search(classes.begin(), classes.end(), v));
  }
}

TEST(MvgClassifierEdgeCases, PredictsShorterAndLongerSeriesThanTraining) {
  // Feature vectors are padded/truncated to the training width, so the
  // pipeline must survive ragged test lengths.
  const DatasetSplit split = MakeSyntheticByName("SynChaos", 8);
  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  const auto classes = split.train.ClassLabels();
  const int short_pred = clf.Predict(LogisticMap(64, 4.0, 0.3));
  const int long_pred = clf.Predict(LogisticMap(900, 4.0, 0.3));
  EXPECT_TRUE(std::binary_search(classes.begin(), classes.end(), short_pred));
  EXPECT_TRUE(std::binary_search(classes.begin(), classes.end(), long_pred));
}

TEST(MvgClassifierEdgeCases, SingleClassTrainingPredictsThatClass) {
  const Dataset train = testutil::MakeNoiseDataset("mono", {7}, 6, 96, 0);
  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(train);
  EXPECT_EQ(clf.Predict(GaussianNoise(96, 42)), 7);
}

TEST(StreamingEdgeCases, DegenerateWindowsReuseExtractorSanitization) {
  // A streaming window full of NaN/±inf or constant samples must go
  // through MvgFeatureExtractor::Extract's sanitization (the PR-1 path),
  // not any stream-local copy of it: streamed label == offline label on
  // the identical raw window, and nothing throws.
  const Dataset train = testutil::MakeNoiseDataset("stream", {0, 1}, 5, 48, 2);
  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(train);

  StreamingClassifier::Options opt;
  opt.window = 32;
  StreamingClassifier stream(&clf, opt);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Series window(32, 2.0);  // all-equal head...
  window[10] = nan;        // ...with non-finite spikes
  window[20] = std::numeric_limits<double>::infinity();
  std::optional<int> streamed;
  for (double v : window) streamed = stream.Push(v);
  ASSERT_TRUE(streamed.has_value());
  EXPECT_EQ(*streamed, clf.Predict(window));
}

TEST(GraphIoTest, DotAndEdgeListExport) {
  const Series s = {1.0, 3.0, 2.0};
  const Graph g = BuildVisibilityGraph(s);
  std::ostringstream dot;
  WriteDot(g, dot, s);
  EXPECT_NE(dot.str().find("graph vg {"), std::string::npos);
  EXPECT_NE(dot.str().find("0 -- 1;"), std::string::npos);
  EXPECT_NE(dot.str().find("label=\"1\\n3.00\""), std::string::npos);
  std::ostringstream edges;
  WriteEdgeList(g, edges);
  // 3-point series: at least the two chain edges.
  EXPECT_NE(edges.str().find("0 1"), std::string::npos);
  EXPECT_NE(edges.str().find("1 2"), std::string::npos);
  EXPECT_THROW(WriteDotFile(g, "/nonexistent/dir/x.dot"),
               std::runtime_error);
}

TEST(ErrorRateSemantics, PerfectAndWorst) {
  EXPECT_DOUBLE_EQ(ErrorRate({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(ErrorRate({1, 1}, {2, 2}), 1.0);
}

}  // namespace
}  // namespace mvg
