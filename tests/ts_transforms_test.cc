#include <cmath>

#include <gtest/gtest.h>

#include "ts/generators.h"
#include "ts/multiscale.h"
#include "ts/transforms.h"
#include "util/statistics.h"

namespace mvg {
namespace {

TEST(ZNormalize, MeanZeroVarOne) {
  const Series s = GaussianNoise(256, 11, 3.0);
  const Series z = ZNormalize(s);
  EXPECT_NEAR(Mean(z), 0.0, 1e-10);
  EXPECT_NEAR(StdDev(z), 1.0, 1e-10);
}

TEST(ZNormalize, ConstantSeriesMapsToZero) {
  const Series z = ZNormalize(Series(10, 5.0));
  for (double v : z) EXPECT_EQ(v, 0.0);
}

TEST(DetrendLinear, RemovesPureTrend) {
  Series s(100);
  for (size_t i = 0; i < s.size(); ++i) s[i] = 0.5 * static_cast<double>(i) + 2.0;
  const Series d = DetrendLinear(s);
  // A pure line detrends to its (constant) mean.
  for (double v : d) EXPECT_NEAR(v, Mean(s), 1e-9);
}

TEST(DetrendLinear, PreservesMean) {
  const Series s = RandomWalk(200, 5, 0.3);
  const Series d = DetrendLinear(s);
  EXPECT_NEAR(Mean(d), Mean(s), 1e-9);
}

TEST(DetrendLinear, ShortSeriesUnchanged) {
  const Series s = {1.0, 9.0};
  EXPECT_EQ(DetrendLinear(s), s);
}

TEST(Paa, ExactSegmentsMatchPaperEquation) {
  // Eq. 1 with n/s integral: segment means.
  const Series s = {1, 2, 3, 4, 5, 6};
  const Series p = Paa(s, 3);
  ASSERT_EQ(p.size(), 3u);
  EXPECT_NEAR(p[0], 1.5, 1e-12);
  EXPECT_NEAR(p[1], 3.5, 1e-12);
  EXPECT_NEAR(p[2], 5.5, 1e-12);
}

TEST(Paa, IdentityWhenSegmentsEqualLength) {
  const Series s = {3, 1, 4, 1, 5};
  EXPECT_EQ(Paa(s, 5), s);
}

TEST(Paa, FractionalSegmentsPreserveMean) {
  const Series s = GaussianNoise(10, 2);
  const Series p = Paa(s, 3);
  ASSERT_EQ(p.size(), 3u);
  // Total mass is preserved: mean of segment means (weighted equally since
  // all segments have equal width) equals the series mean.
  EXPECT_NEAR(Mean(p), Mean(s), 1e-9);
}

TEST(Paa, InvalidArgumentsThrow) {
  const Series s = {1, 2, 3};
  EXPECT_THROW(Paa(s, 0), std::invalid_argument);
  EXPECT_THROW(Paa(s, 4), std::invalid_argument);
}

TEST(HalveByPaa, PairwiseMeans) {
  const Series s = {1, 3, 5, 7, 9};
  const Series h = HalveByPaa(s);
  ASSERT_EQ(h.size(), 2u);
  EXPECT_EQ(h[0], 2.0);
  EXPECT_EQ(h[1], 6.0);
}

// --- multiscale (paper Definitions 3.1-3.3) ---

TEST(Multiscale, MvgContainsOriginalAndHalvedScales) {
  const Series s = GaussianNoise(128, 4);
  const auto scales = MultiscaleRepresentation(s, ScaleMode::kMultiscale, 15);
  // 128 -> 64 -> 32 -> 16 (stop: 8 <= 15). T0..T3.
  ASSERT_EQ(scales.size(), 4u);
  EXPECT_EQ(scales[0].size(), 128u);
  EXPECT_EQ(scales[1].size(), 64u);
  EXPECT_EQ(scales[2].size(), 32u);
  EXPECT_EQ(scales[3].size(), 16u);
}

TEST(Multiscale, AmvgExcludesOriginal) {
  const Series s = GaussianNoise(128, 4);
  const auto scales =
      MultiscaleRepresentation(s, ScaleMode::kApproximateMultiscale, 15);
  ASSERT_EQ(scales.size(), 3u);
  EXPECT_EQ(scales[0].size(), 64u);
}

TEST(Multiscale, UniscaleIsOriginalOnly) {
  const Series s = GaussianNoise(100, 4);
  const auto scales = MultiscaleRepresentation(s, ScaleMode::kUniscale, 15);
  ASSERT_EQ(scales.size(), 1u);
  EXPECT_EQ(scales[0], s);
}

TEST(Multiscale, TauZeroKeepsAllNonTrivialScales) {
  const Series s = GaussianNoise(64, 4);
  const auto scales = MultiscaleRepresentation(s, ScaleMode::kMultiscale, 0);
  // 64,32,16,8,4,2 -> sizes > 0 with at least 2 points each.
  ASSERT_EQ(scales.size(), 6u);
  EXPECT_EQ(scales.back().size(), 2u);
}

TEST(Multiscale, ShortSeriesStillYieldsOneScale) {
  const Series s = {1, 2, 3, 4};
  const auto amvg =
      MultiscaleRepresentation(s, ScaleMode::kApproximateMultiscale, 15);
  ASSERT_EQ(amvg.size(), 1u);  // falls back to T0
}

TEST(Multiscale, TotalExpansionBounded) {
  // Paper §3: sum of scale lengths <= 2n for MVG.
  const Series s = GaussianNoise(512, 4);
  const auto scales = MultiscaleRepresentation(s, ScaleMode::kMultiscale, 0);
  size_t total = 0;
  for (const auto& sc : scales) total += sc.size();
  EXPECT_LE(total, 2 * s.size());
}

}  // namespace
}  // namespace mvg
