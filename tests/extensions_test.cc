// Tests for the paper's extension / future-work features: weighted and
// directed visibility graphs, extended graph statistics (degree entropy,
// betweenness), the kExtended feature mode, multivariate TSC and the
// Bag-of-Patterns baseline.

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "baselines/bag_of_patterns.h"
#include "core/feature_extractor.h"
#include "core/multivariate_classifier.h"
#include "core/mvg_classifier.h"
#include "graph/graph_stats.h"
#include "ml/metrics.h"
#include "tests/test_util.h"
#include "ts/generators.h"
#include "ts/multivariate.h"
#include "vg/visibility_graph.h"
#include "vg/weighted_visibility_graph.h"

namespace mvg {
namespace {

// ---------------------------------------------------------------------------
// Weighted / directed visibility graphs.
// ---------------------------------------------------------------------------

TEST(WeightedVg, EdgeSetMatchesUnweightedVg) {
  const Series s = GaussianNoise(120, 3);
  const Graph vg = BuildVisibilityGraph(s);
  const WeightedVisibilityGraph wvg = WeightedVisibilityGraph::Build(s);
  EXPECT_EQ(wvg.num_edges(), vg.num_edges());
  for (const auto& e : wvg.edges()) {
    EXPECT_TRUE(vg.HasEdge(e.u, e.v));
  }
}

TEST(WeightedVg, WeightsAreViewAngles) {
  // Adjacent points: weight = |atan(v_{i+1} - v_i)|.
  const Series s = {0.0, 1.0, 1.0};
  const WeightedVisibilityGraph wvg = WeightedVisibilityGraph::Build(s);
  for (const auto& e : wvg.edges()) {
    if (e.u == 0 && e.v == 1) {
      EXPECT_NEAR(e.weight, std::atan(1.0), 1e-12);
    }
    if (e.u == 1 && e.v == 2) {
      EXPECT_NEAR(e.weight, 0.0, 1e-12);
    }
  }
}

TEST(WeightedVg, WeightsWithinZeroToHalfPi) {
  const WeightedVisibilityGraph wvg =
      WeightedVisibilityGraph::Build(GaussianNoise(200, 5, 10.0));
  for (const auto& e : wvg.edges()) {
    EXPECT_GE(e.weight, 0.0);
    EXPECT_LT(e.weight, 1.5707964);
  }
}

TEST(WeightedVg, StrengthsSumToTwiceWeightTotal) {
  const WeightedVisibilityGraph wvg =
      WeightedVisibilityGraph::Build(GaussianNoise(80, 7));
  double weight_total = 0.0;
  for (const auto& e : wvg.edges()) weight_total += e.weight;
  double strength_total = 0.0;
  for (double v : wvg.VertexStrengths()) strength_total += v;
  EXPECT_NEAR(strength_total, 2.0 * weight_total, 1e-9);
}

TEST(WeightedVg, StatsSaneOnFlatSeries) {
  // Constant series: chain edges only, all weights zero.
  const WeightedVisibilityGraph wvg =
      WeightedVisibilityGraph::Build(Series(20, 3.0));
  const auto st = wvg.ComputeWeightStats();
  EXPECT_EQ(st.mean, 0.0);
  EXPECT_EQ(st.max, 0.0);
  EXPECT_EQ(st.strength_entropy, 0.0);
}

TEST(DirectedVg, InPlusOutEqualsUndirectedDegree) {
  const Series s = GaussianNoise(100, 9);
  const Graph vg = BuildVisibilityGraph(s);
  const DirectedVgDegrees d = ComputeDirectedVgDegrees(s);
  for (Graph::VertexId v = 0; v < vg.num_vertices(); ++v) {
    EXPECT_EQ(d.in[v] + d.out[v], vg.Degree(v));
  }
  EXPECT_EQ(d.in[0], 0u);               // first point sees nothing earlier
  EXPECT_EQ(d.out[s.size() - 1], 0u);   // last point sees nothing later
}

TEST(DegreeSequenceEntropyTest, UniformAndDegenerate) {
  EXPECT_DOUBLE_EQ(DegreeSequenceEntropy({3, 3, 3}), 0.0);
  // Two equiprobable degrees -> ln 2.
  EXPECT_NEAR(DegreeSequenceEntropy({1, 2, 1, 2}), std::log(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(DegreeSequenceEntropy({}), 0.0);
}

// ---------------------------------------------------------------------------
// Extended graph statistics.
// ---------------------------------------------------------------------------

TEST(Betweenness, PathGraphCenterDominates) {
  // Path 0-1-2-3-4: betweenness of center = (pairs through it) = 4
  // [(0,3),(0,4),(1,3)... let's check known normalised values instead].
  GraphBuilder b(5);
  for (Graph::VertexId i = 0; i + 1 < 5; ++i) b.AddEdge(i, i + 1);
  const auto bc = NormalizeBetweenness(BetweennessCentrality(b.Build()), 5);
  // Known: normalised betweenness of P5 = {0, 1/2, 2/3, 1/2, 0}.
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  EXPECT_NEAR(bc[1], 0.5, 1e-12);
  EXPECT_NEAR(bc[2], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(bc[3], 0.5, 1e-12);
  EXPECT_NEAR(bc[4], 0.0, 1e-12);
}

TEST(Betweenness, StarHubTakesAll) {
  GraphBuilder b(5);
  for (Graph::VertexId i = 1; i < 5; ++i) b.AddEdge(0, i);
  const auto bc = NormalizeBetweenness(BetweennessCentrality(b.Build()), 5);
  EXPECT_NEAR(bc[0], 1.0, 1e-12);
  for (size_t i = 1; i < 5; ++i) EXPECT_NEAR(bc[i], 0.0, 1e-12);
}

TEST(Betweenness, CompleteGraphAllZero) {
  GraphBuilder b(6);
  for (Graph::VertexId i = 0; i < 6; ++i) {
    for (Graph::VertexId j = i + 1; j < 6; ++j) b.AddEdge(i, j);
  }
  for (double c : BetweennessCentrality(b.Build())) EXPECT_NEAR(c, 0.0, 1e-12);
}

TEST(DegreeDistributionEntropyTest, RegularGraphZero) {
  GraphBuilder cycle(6);
  for (Graph::VertexId i = 0; i < 6; ++i) cycle.AddEdge(i, (i + 1) % 6);
  EXPECT_DOUBLE_EQ(DegreeDistributionEntropy(cycle.Build()), 0.0);
}

// ---------------------------------------------------------------------------
// kExtended feature mode.
// ---------------------------------------------------------------------------

TEST(ExtendedFeatures, CountsAndNamesAlign) {
  MvgConfig config;
  config.feature_mode = FeatureMode::kExtended;
  const MvgFeatureExtractor fx(config);
  const Series s = GaussianNoise(128, 4);
  const auto values = fx.Extract(s);
  const auto names = fx.FeatureNames(s.size());
  ASSERT_EQ(values.size(), names.size());
  // 4 scales * (2 graphs * 27 + 8 series-level) features.
  EXPECT_EQ(values.size(), 4u * (2u * 27u + 8u));
  EXPECT_NE(std::find(names.begin(), names.end(), "T0.VG.degree_entropy"),
            names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "T2.WVG.strength_entropy"),
            names.end());
  testutil::ExpectAllFinite(values, "extended features");
}

TEST(ExtendedFeatures, SupersetOfAllMode) {
  // The first FeaturesPerGraph-of-kAll entries of each graph block match
  // the kAll extraction (extended features are appended, not interleaved).
  MvgConfig all_cfg, ext_cfg;
  all_cfg.feature_mode = FeatureMode::kAll;
  all_cfg.scale_mode = ScaleMode::kUniscale;
  all_cfg.graph_mode = GraphMode::kVgOnly;
  ext_cfg = all_cfg;
  ext_cfg.feature_mode = FeatureMode::kExtended;
  const Series s = GaussianNoise(100, 8);
  const auto fa = MvgFeatureExtractor(all_cfg).Extract(s);
  const auto fe = MvgFeatureExtractor(ext_cfg).Extract(s);
  ASSERT_EQ(fa.size(), 23u);
  ASSERT_GE(fe.size(), 23u);
  testutil::ExpectSeriesNear({fe.begin(), fe.begin() + 23}, fa, 0.0,
                             "kAll prefix");
}

TEST(ExtendedFeatures, TrainableEndToEnd) {
  const DatasetSplit split = MakeSyntheticByName("SynChaos", 31);
  MvgClassifier::Config config;
  config.extractor.feature_mode = FeatureMode::kExtended;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), clf.PredictAll(split.test)), 0.2);
}

// Parallel extraction coverage lives in util_test.cc (ParallelFor
// semantics) and core_extractor_test.cc (ExtractAll thread invariance).

// ---------------------------------------------------------------------------
// Multivariate TSC.
// ---------------------------------------------------------------------------

TEST(MultivariateDatasetTest, ChannelsAndValidation) {
  MultivariateDataset ds("toy");
  ds.Add({{1, 2, 3}, {4, 5, 6}}, 0);
  ds.Add({{7, 8, 9}, {1, 1, 1}}, 1);
  EXPECT_EQ(ds.num_channels(), 2u);
  const Dataset ch1 = ds.Channel(1);
  EXPECT_EQ(ch1.series(0)[0], 4.0);
  EXPECT_EQ(ch1.label(1), 1);
  EXPECT_THROW(ds.Add({{1, 2}}, 0), std::invalid_argument);
  EXPECT_THROW(ds.Add({}, 0), std::invalid_argument);
  EXPECT_THROW(ds.Channel(5), std::out_of_range);
}

TEST(MultivariateGenerator, DeterministicAndShaped) {
  const MultivariateSplit a = MakeSyntheticMultivariate(3, 2, 12, 8, 96, 5);
  const MultivariateSplit b = MakeSyntheticMultivariate(3, 2, 12, 8, 96, 5);
  ASSERT_EQ(a.train.size(), 12u);
  ASSERT_EQ(a.train.num_channels(), 3u);
  EXPECT_EQ(a.train.instance(0)[0], b.train.instance(0)[0]);
  EXPECT_THROW(MakeSyntheticMultivariate(0, 2, 4, 4, 32, 1),
               std::invalid_argument);
}

TEST(MultivariateClassifierTest, LearnsCoupledChannels) {
  const MultivariateSplit split =
      MakeSyntheticMultivariate(3, 2, 30, 40, 160, 7);
  MvgMultivariateClassifier clf;
  clf.Fit(split.train);
  const double err =
      ErrorRate(split.test.labels(), clf.PredictAll(split.test));
  EXPECT_LE(err, 0.25);
  EXPECT_EQ(clf.num_channels(), 3u);
  // Channel-prefixed names.
  const auto names = clf.FeatureNames();
  EXPECT_EQ(names.front().substr(0, 4), "ch0.");
  EXPECT_EQ(names.back().substr(0, 4), "ch2.");
}

// Channel 1 carries the class; channel 0 is one fixed noise series, so
// its columns are constant in training and no split can use them. At
// predict time channel 0 is cut to a length with fewer scales: channel 1
// must still land on the columns the model was trained on, so every
// prediction matches the one made with the full-length channel 0.
TEST(MultivariateClassifierTest, ChannelColumnsDoNotMoveWithOtherLengths) {
  using testutil::MakeFamilySeries;
  using testutil::SeriesFamily;
  const Series ch0 = MakeFamilySeries(SeriesFamily::kGaussian, 256, 1);
  const auto ch1 = [](int label, uint64_t seed) {
    return MakeFamilySeries(label == 0 ? SeriesFamily::kGaussian
                                       : SeriesFamily::kRandomWalk,
                            64, seed);
  };
  MultivariateDataset train("aligned");
  for (uint64_t i = 0; i < 24; ++i) {
    const int label = static_cast<int>(i % 2);
    train.Add({ch0, ch1(label, 100 + i)}, label);
  }
  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgMultivariateClassifier clf(config);
  clf.Fit(train);

  const Series ch0_short(ch0.begin(), ch0.begin() + 32);
  const MvgFeatureExtractor extractor(config.extractor);
  ASSERT_LT(extractor.LayoutForLength(32).feature_width,
            extractor.LayoutForLength(256).feature_width);
  for (uint64_t i = 0; i < 12; ++i) {
    const Series probe = ch1(static_cast<int>(i % 2), 500 + i);
    EXPECT_EQ(clf.Predict({ch0_short, probe}), clf.Predict({ch0, probe}))
        << "probe " << i;
  }
  EXPECT_EQ(clf.FeatureNames().size(),
            extractor.LayoutForLength(256).feature_width +
                extractor.LayoutForLength(64).feature_width);
}

TEST(MultivariateClassifierTest, RejectsChannelMismatch) {
  const MultivariateSplit split =
      MakeSyntheticMultivariate(2, 2, 10, 4, 64, 9);
  MvgMultivariateClassifier clf;
  clf.Fit(split.train);
  EXPECT_THROW(clf.Predict({Series(64, 0.0)}), std::invalid_argument);
  MvgMultivariateClassifier unfitted;
  EXPECT_THROW(unfitted.Predict({Series(64, 0.0)}), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bag-of-Patterns baseline.
// ---------------------------------------------------------------------------

TEST(BagOfPatterns, ClassifiesEngineFamily) {
  SyntheticInfo info;
  info.name = "bop";
  info.family = "engine";
  info.num_classes = 2;
  info.train_size = 24;
  info.test_size = 30;
  info.length = 160;
  const DatasetSplit split = MakeSynthetic(info, 3);
  BagOfPatternsClassifier bop;
  bop.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), bop.PredictAll(split.test)), 0.25);
}

TEST(BagOfPatterns, EuclideanVariantAlsoWorks) {
  SyntheticInfo info;
  info.name = "bop2";
  info.family = "engine";
  info.num_classes = 2;
  info.train_size = 24;
  info.test_size = 24;
  info.length = 160;
  const DatasetSplit split = MakeSynthetic(info, 4);
  BagOfPatternsClassifier::Params p;
  p.cosine = false;
  BagOfPatternsClassifier bop(p);
  bop.Fit(split.train);
  EXPECT_LE(ErrorRate(split.test.labels(), bop.PredictAll(split.test)), 0.35);
}

TEST(BagOfPatterns, ErrorsOnMisuse) {
  BagOfPatternsClassifier bop;
  EXPECT_THROW(bop.Predict(Series(10, 0.0)), std::runtime_error);
  EXPECT_THROW(bop.Fit(Dataset()), std::invalid_argument);
}

}  // namespace
}  // namespace mvg
