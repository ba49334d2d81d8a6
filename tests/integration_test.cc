#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "baselines/nn_classifiers.h"
#include "core/mvg_classifier.h"
#include "graph/graph_stats.h"
#include "ml/metrics.h"
#include "ml/stat_tests.h"
#include "motif/motif_counts.h"
#include "ts/generators.h"
#include "vg/visibility_graph.h"

namespace mvg {
namespace {

/// End-to-end invariant: for every registry dataset, the whole pipeline
/// (generation -> multiscale -> graphs -> motifs -> XGBoost) runs and
/// produces sane outputs.
class PipelineTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineTest, EndToEndOnRegistryDataset) {
  SyntheticInfo info;
  for (const auto& e : SyntheticRegistry()) {
    if (e.name == GetParam()) info = e;
  }
  // Shrink for test runtime.
  info.train_size = std::min<size_t>(info.train_size, 28);
  info.test_size = std::min<size_t>(info.test_size, 28);
  const DatasetSplit split = MakeSynthetic(info, 17);

  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  const std::vector<int> pred = clf.PredictAll(split.test);
  ASSERT_EQ(pred.size(), split.test.size());
  const auto classes = split.train.ClassLabels();
  for (int p : pred) {
    EXPECT_TRUE(std::binary_search(classes.begin(), classes.end(), p));
  }
  const double err = ErrorRate(split.test.labels(), pred);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    Registry, PipelineTest,
    ::testing::ValuesIn([] {
      std::vector<std::string> names;
      for (const auto& info : SyntheticRegistry()) names.push_back(info.name);
      return names;
    }()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(Invariants, VgOfEveryRegistrySeriesIsConnected) {
  // Paper §2.1: VGs are always connected — verify across all generators.
  for (const auto& info : SyntheticRegistry()) {
    SyntheticInfo small = info;
    small.train_size = 4;
    small.test_size = 1;
    const DatasetSplit split = MakeSynthetic(small, 3);
    for (size_t i = 0; i < split.train.size(); ++i) {
      const Graph vg = BuildVisibilityGraph(split.train.series(i));
      const Graph hvg =
          BuildHorizontalVisibilityGraph(split.train.series(i));
      EXPECT_TRUE(IsConnected(vg)) << info.name;
      EXPECT_TRUE(IsConnected(hvg)) << info.name;
      // HVG subset of VG.
      EXPECT_LE(hvg.num_edges(), vg.num_edges()) << info.name;
    }
  }
}

TEST(Invariants, MotifTotalsOnRealVgs) {
  const DatasetSplit split = MakeSyntheticByName("SynChaos", 5);
  const Series& s = split.train.series(0);
  const Graph g = BuildVisibilityGraph(s);
  const MotifCounts c = CountMotifs(g);
  const int64_t n = static_cast<int64_t>(g.num_vertices());
  EXPECT_EQ(c.m21 + c.m22, n * (n - 1) / 2);
  EXPECT_EQ(c.m41 + c.m42 + c.m43 + c.m44 + c.m45 + c.m46 + c.m47 + c.m48 +
                c.m49 + c.m410 + c.m411,
            n * (n - 1) * (n - 2) * (n - 3) / 24);
  // All counts non-negative (the combinatorial equations must not go
  // negative on real graphs).
  for (int64_t v : c.ToArray()) EXPECT_GE(v, 0);
}

TEST(Comparison, MvgBeatsNearestNeighborOnChaosData) {
  // The paper's pitch: structural features beat global distances on data
  // where shape is uninformative but dynamics differ. Chaos vs noise is
  // exactly that case.
  SyntheticInfo info;
  for (const auto& e : SyntheticRegistry()) {
    if (e.name == "SynChaos") info = e;
  }
  const DatasetSplit split = MakeSynthetic(info, 21);

  MvgClassifier::Config config;
  config.grid = GridPreset::kNone;
  MvgClassifier clf(config);
  clf.Fit(split.train);
  const double mvg_err =
      ErrorRate(split.test.labels(), clf.PredictAll(split.test));

  OneNnEuclidean nn;
  nn.Fit(split.train);
  const double nn_err =
      ErrorRate(split.test.labels(), nn.PredictAll(split.test));

  EXPECT_LT(mvg_err, nn_err);
  EXPECT_LE(mvg_err, 0.15);
}

TEST(Comparison, WilcoxonHarnessOverRegistrySubset) {
  // Mini version of the Table 2 statistics machinery: two configs, a few
  // datasets, verify the harness produces a consistent result structure.
  std::vector<double> err_uvg, err_mvg;
  for (const std::string& name :
       {std::string("SynChaos"), std::string("SynShapeletSim"),
        std::string("SynBeetleFly")}) {
    SyntheticInfo info;
    for (const auto& e : SyntheticRegistry()) {
      if (e.name == name) info = e;
    }
    info.train_size = std::min<size_t>(info.train_size, 20);
    info.test_size = std::min<size_t>(info.test_size, 20);
    const DatasetSplit split = MakeSynthetic(info, 9);
    for (ScaleMode mode : {ScaleMode::kUniscale, ScaleMode::kMultiscale}) {
      MvgClassifier::Config config;
      config.extractor.scale_mode = mode;
      config.grid = GridPreset::kNone;
      MvgClassifier clf(config);
      clf.Fit(split.train);
      const double err =
          ErrorRate(split.test.labels(), clf.PredictAll(split.test));
      (mode == ScaleMode::kUniscale ? err_uvg : err_mvg).push_back(err);
    }
  }
  const WilcoxonResult w = WilcoxonSignedRank(err_uvg, err_mvg);
  EXPECT_GE(w.p_value, 0.0);
  EXPECT_LE(w.p_value, 1.0);
  EXPECT_EQ(err_uvg.size(), 3u);
}

}  // namespace
}  // namespace mvg
