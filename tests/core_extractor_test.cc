#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "core/feature_extractor.h"
#include "motif/motif_counts.h"
#include "tests/test_util.h"
#include "ts/generators.h"
#include "vg/vg_workspace.h"

namespace mvg {
namespace {

TEST(ConfigColumns, MatchPaperTable2) {
  const MvgConfig a = ConfigForHeuristicColumn('A');
  EXPECT_EQ(a.scale_mode, ScaleMode::kUniscale);
  EXPECT_EQ(a.graph_mode, GraphMode::kHvgOnly);
  EXPECT_EQ(a.feature_mode, FeatureMode::kMpdsOnly);
  const MvgConfig e = ConfigForHeuristicColumn('E');
  EXPECT_EQ(e.graph_mode, GraphMode::kVgAndHvg);
  EXPECT_EQ(e.scale_mode, ScaleMode::kUniscale);
  const MvgConfig f = ConfigForHeuristicColumn('F');
  EXPECT_EQ(f.scale_mode, ScaleMode::kApproximateMultiscale);
  const MvgConfig g = ConfigForHeuristicColumn('G');
  EXPECT_EQ(g.scale_mode, ScaleMode::kMultiscale);
  EXPECT_EQ(g.feature_mode, FeatureMode::kAll);
  EXPECT_THROW(ConfigForHeuristicColumn('Z'), std::invalid_argument);
}

TEST(FeatureExtractor, FeatureCountMatchesStructure) {
  // Length 128, tau 15 -> scales T0..T3 (128,64,32,16). VG+HVG, all
  // features: 4 scales * 2 graphs * (17 + 6).
  MvgConfig config;
  const MvgFeatureExtractor fx(config);
  const Series s = GaussianNoise(128, 1);
  EXPECT_EQ(fx.Extract(s).size(), 4u * 2u * 23u);
  EXPECT_EQ(fx.FeaturesPerGraph(), 23u);
}

TEST(FeatureExtractor, MpdsOnlyIsSmaller) {
  MvgConfig config = ConfigForHeuristicColumn('A');  // UVG, HVG, MPDs
  const MvgFeatureExtractor fx(config);
  const Series s = GaussianNoise(128, 1);
  EXPECT_EQ(fx.Extract(s).size(), kNumMotifs);
}

TEST(FeatureExtractor, NamesAlignWithValues) {
  MvgConfig config;
  const MvgFeatureExtractor fx(config);
  const Series s = GaussianNoise(128, 2);
  const auto values = fx.Extract(s);
  const auto names = fx.FeatureNames(s.size());
  ASSERT_EQ(values.size(), names.size());
  EXPECT_EQ(names[0], "T0.VG.P(M21)");
  // Last feature of the first graph block is assortativity.
  EXPECT_EQ(names[22], "T0.VG.assortativity");
  EXPECT_EQ(names[23], "T0.HVG.P(M21)");
  // Final scale present.
  EXPECT_EQ(names.back(), "T3.HVG.assortativity");
}

TEST(FeatureExtractor, AmvgNamesStartAtT1) {
  MvgConfig config = ConfigForHeuristicColumn('F');
  const MvgFeatureExtractor fx(config);
  const auto names = fx.FeatureNames(128);
  EXPECT_EQ(names[0].substr(0, 2), "T1");
}

TEST(FeatureExtractor, MpdGroupsNormalized) {
  MvgConfig config;
  config.feature_mode = FeatureMode::kMpdsOnly;
  config.scale_mode = ScaleMode::kUniscale;
  config.graph_mode = GraphMode::kVgOnly;
  const MvgFeatureExtractor fx(config);
  const auto f = fx.Extract(GaussianNoise(100, 3));
  ASSERT_EQ(f.size(), kNumMotifs);
  EXPECT_NEAR(f[0] + f[1], 1.0, 1e-9);                       // size-2 group
  EXPECT_NEAR(f[2] + f[3], 1.0, 1e-9);                       // connected 3
  EXPECT_NEAR(f[6] + f[7] + f[8] + f[9] + f[10] + f[11], 1.0, 1e-9);
}

TEST(FeatureExtractor, DetrendingChangesTrendedSeriesOnly) {
  MvgConfig with, without;
  with.detrend = true;
  without.detrend = false;
  const MvgFeatureExtractor fx_with(with), fx_without(without);
  // Strongly trended series: detrending must alter the features.
  Series trended = GaussianNoise(128, 4);
  for (size_t i = 0; i < trended.size(); ++i) {
    trended[i] += 0.5 * static_cast<double>(i);
  }
  EXPECT_NE(fx_with.Extract(trended), fx_without.Extract(trended));
}

TEST(FeatureExtractor, DeterministicExtraction) {
  const MvgFeatureExtractor fx;
  const Series s = GaussianNoise(96, 5);
  EXPECT_EQ(fx.Extract(s), fx.Extract(s));
}

TEST(FeatureExtractor, ExtractAllPadsRaggedLengths) {
  Dataset ds("ragged");
  ds.Add(GaussianNoise(128, 1), 0);
  ds.Add(GaussianNoise(64, 2), 1);  // fewer scales
  const MvgFeatureExtractor fx;
  const Matrix x = fx.ExtractAll(ds);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_EQ(x[0].size(), x[1].size());
}

TEST(FeatureExtractor, ExtractAllThreadCountDoesNotChangeResults) {
  // ParallelFor assigns disjoint row blocks, so the feature matrix must be
  // bit-for-bit identical for any worker count.
  const Dataset ds =
      testutil::MakeNoiseDataset("threads", {0, 1, 2}, 4, 96, 7);
  const MvgFeatureExtractor fx;
  const Matrix serial = fx.ExtractAll(ds, 1);
  for (size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    const Matrix parallel = fx.ExtractAll(ds, threads);
    ASSERT_EQ(parallel.size(), serial.size()) << "threads=" << threads;
    for (size_t row = 0; row < serial.size(); ++row) {
      EXPECT_EQ(parallel[row], serial[row])
          << "threads=" << threads << " row=" << row;
    }
  }
}

TEST(FeatureExtractor, NaiveAndDcAlgorithmsAgree) {
  MvgConfig naive_cfg, dc_cfg;
  naive_cfg.vg_algorithm = VgAlgorithm::kNaive;
  dc_cfg.vg_algorithm = VgAlgorithm::kDivideConquer;
  const MvgFeatureExtractor a(naive_cfg), b(dc_cfg);
  const Series s = GaussianNoise(150, 6);
  EXPECT_EQ(a.Extract(s), b.Extract(s));
}

TEST(FeatureExtractor, EmptySeriesThrows) {
  const MvgFeatureExtractor fx;
  EXPECT_THROW(fx.Extract({}), std::invalid_argument);
}

TEST(FeatureExtractor, FeaturesSeparateChaosFromNoise) {
  // The motivating claim from the VG literature: motif statistics tell
  // chaotic maps from white noise. Check one informative feature differs
  // consistently.
  MvgConfig config;
  config.scale_mode = ScaleMode::kUniscale;
  config.graph_mode = GraphMode::kHvgOnly;
  const MvgFeatureExtractor fx(config);
  double chaos_m31 = 0.0, noise_m31 = 0.0;
  const int reps = 8;
  for (int r = 0; r < reps; ++r) {
    chaos_m31 += fx.Extract(LogisticMap(300, 4.0, 0.11 + 0.09 * r))[2];
    noise_m31 += fx.Extract(GaussianNoise(300, 100 + r))[2];
  }
  EXPECT_GT(std::abs(chaos_m31 - noise_m31) / reps, 0.01);
}

/// The fixture's inputs: MakeFamilySeries(family, n, seed), or for
/// "nonfinite" a length-96 random walk with NaN and ±inf samples.
Series FixtureSeries(const std::string& family, size_t n, uint64_t seed) {
  for (const testutil::SeriesFamily f : testutil::AllSeriesFamilies()) {
    if (family == testutil::ToString(f)) {
      return testutil::MakeFamilySeries(f, n, seed);
    }
  }
  EXPECT_EQ(family, "nonfinite");
  Series s =
      testutil::MakeFamilySeries(testutil::SeriesFamily::kRandomWalk, n, seed);
  const double inf = std::numeric_limits<double>::infinity();
  s[5] = std::numeric_limits<double>::quiet_NaN();
  s[20] = inf;
  s[21] = inf;
  s[40] = -inf;
  s[77] = std::numeric_limits<double>::quiet_NaN();
  return s;
}

FeatureMode FixtureMode(const std::string& mode) {
  if (mode == "mpds") return FeatureMode::kMpdsOnly;
  if (mode == "all") return FeatureMode::kAll;
  EXPECT_EQ(mode, "extended");
  return FeatureMode::kExtended;
}

TEST(FeatureExtractor, MatchesRecordedFixtureRows) {
  // tests/fixtures/extract_features.txt: Extract() rows recorded before
  // the graph statistics moved onto the motif counter's ranked CSR (see
  // tests/fixtures/README.md). Every value must match bit for bit.
  std::ifstream in(std::string(MVG_TEST_FIXTURE_DIR) +
                   "/extract_features.txt");
  ASSERT_TRUE(in.good());
  std::string line;
  size_t rows = 0;
  VgWorkspace ws;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string family, mode;
    size_t n = 0, width = 0;
    uint64_t seed = 0;
    fields >> family >> n >> seed >> mode >> width;
    ASSERT_FALSE(fields.fail()) << line.substr(0, 40);
    MvgConfig config;
    config.feature_mode = FixtureMode(mode);
    const MvgFeatureExtractor fx(config);
    const std::vector<double> got =
        fx.Extract(FixtureSeries(family, n, seed), &ws);
    const std::string tag = family + " " + std::to_string(n) + " " + mode;
    ASSERT_EQ(got.size(), width) << tag;
    for (size_t i = 0; i < width; ++i) {
      std::string token;
      fields >> token;
      ASSERT_FALSE(fields.fail()) << tag << " value " << i;
      const double want = std::strtod(token.c_str(), nullptr);
      ASSERT_EQ(std::memcmp(&got[i], &want, sizeof want), 0)
          << tag << " feature " << i << ": got " << got[i] << ", want "
          << want;
    }
    ++rows;
  }
  EXPECT_EQ(rows, 39u);
}

}  // namespace
}  // namespace mvg
