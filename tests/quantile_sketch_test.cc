// Tests for the deterministic mergeable quantile sketch behind streaming
// bin cuts: chunk invariance, merge associativity, exactness for small
// streams (sketch cuts == exact FeatureTable cuts bit for bit), accuracy
// for large streams, and the CutSketcher padding semantics that make the
// paged and in-RAM training paths feed identical per-feature streams.

#include "ml/quantile_sketch.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ml/feature_table.h"
#include "util/random.h"

namespace mvg {
namespace {

std::vector<double> GaussianStream(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.Gaussian();
  return out;
}

// Feeds `values[i]` for i in [lo, hi) to a fresh sketch starting at lo.
QuantileSketch RangeSketch(const std::vector<double>& values, size_t lo,
                           size_t hi, size_t block) {
  QuantileSketch s(block, lo);
  for (size_t i = lo; i < hi; ++i) s.Add(values[i]);
  return s;
}

TEST(QuantileSketchTest, TracksExactMinMaxCount) {
  QuantileSketch s(16);
  EXPECT_EQ(s.count(), 0u);
  EXPECT_TRUE(std::isinf(s.min()) && s.min() > 0);
  EXPECT_TRUE(std::isinf(s.max()) && s.max() < 0);
  const auto values = GaussianStream(1000, 7);
  for (double v : values) s.Add(v);
  EXPECT_EQ(s.count(), values.size());
  EXPECT_EQ(s.min(), *std::min_element(values.begin(), values.end()));
  EXPECT_EQ(s.max(), *std::max_element(values.begin(), values.end()));
}

TEST(QuantileSketchTest, StateIsChunkInvariant) {
  // The sketch state is a pure function of the index-ordered stream, not
  // of how it was split into Add and Merge calls: feed the same stream
  // (a) one item at a time, (b) as range sketches merged at assorted
  // boundaries — including mid-block ones — and compare the full
  // weighted multiset.
  const auto values = GaussianStream(777, 3);
  const size_t block = 64;
  QuantileSketch whole = RangeSketch(values, 0, values.size(), block);

  for (size_t cut1 : {1u, 63u, 64u, 65u, 200u, 512u}) {
    for (size_t cut2 : {300u, 640u, 700u}) {
      if (cut2 <= cut1) continue;
      QuantileSketch merged = RangeSketch(values, 0, cut1, block);
      merged.Merge(RangeSketch(values, cut1, cut2, block));
      merged.Merge(RangeSketch(values, cut2, values.size(), block));
      EXPECT_EQ(merged.WeightedValues(), whole.WeightedValues())
          << "cuts " << cut1 << "," << cut2;
      EXPECT_EQ(merged.ComputeCuts(16), whole.ComputeCuts(16));
    }
  }
}

TEST(QuantileSketchTest, MergeIsAssociative) {
  // ((a+b)+c) == (a+(b+c)) for range sketches — the property that lets
  // paged workers sketch disjoint ranges and combine in any grouping.
  const auto values = GaussianStream(500, 11);
  const size_t block = 32;
  auto a = [&] { return RangeSketch(values, 0, 150, block); };
  auto b = [&] { return RangeSketch(values, 150, 320, block); };
  auto c = [&] { return RangeSketch(values, 320, 500, block); };

  QuantileSketch left = a();
  left.Merge(b());
  left.Merge(c());

  QuantileSketch bc = b();
  bc.Merge(c());
  QuantileSketch right = a();
  right.Merge(bc);

  EXPECT_EQ(left.WeightedValues(), right.WeightedValues());
  EXPECT_EQ(left.ComputeCuts(32), right.ComputeCuts(32));
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
}

TEST(QuantileSketchTest, MergeRejectsGapsAndBlockMismatch) {
  QuantileSketch left(64, 0);
  left.Add(1.0);
  QuantileSketch gap(64, 5);  // left ends at index 1
  EXPECT_THROW(left.Merge(gap), std::invalid_argument);
  QuantileSketch wrong_block(32, 1);
  EXPECT_THROW(left.Merge(wrong_block), std::invalid_argument);
}

TEST(QuantileSketchTest, AddZerosMatchesExplicitZeros) {
  QuantileSketch bulk(64);
  bulk.AddZeros(100);
  bulk.Add(3.0);
  bulk.AddZeros(30);
  QuantileSketch loop(64);
  for (int i = 0; i < 100; ++i) loop.Add(0.0);
  loop.Add(3.0);
  for (int i = 0; i < 30; ++i) loop.Add(0.0);
  EXPECT_EQ(bulk.WeightedValues(), loop.WeightedValues());
}

TEST(QuantileSketchTest, SmallStreamCutsEqualExactPathBitForBit) {
  // n <= block: the sketch holds the raw column, so its cuts must equal
  // the exact FeatureTable quantization bit for bit. Sweep n across both
  // cut regimes (distinct <= kMaxBins midpoints, and rank-based).
  for (size_t n : {5u, 40u, 200u, 1000u}) {
    const auto values = GaussianStream(n, n);
    QuantileSketch s(kSketchBlock);
    for (double v : values) s.Add(v);
    const auto sketch_cuts = s.ComputeCuts(FeatureTable::kMaxBins);

    Matrix x(n);
    for (size_t i = 0; i < n; ++i) x[i] = {values[i]};
    FeatureTable ft;
    ft.Build(x);
    std::vector<double> exact_cuts(ft.num_bins(0) - 1);
    for (size_t b = 0; b + 1 < ft.num_bins(0); ++b) {
      exact_cuts[b] = ft.threshold(0, b);
    }
    EXPECT_EQ(sketch_cuts, exact_cuts) << "n=" << n;
  }
}

TEST(QuantileSketchTest, LargeStreamCutsStayNearExactQuantiles) {
  // Compaction bound sanity: with a small block and a long stream the
  // weighted rank of each cut must stay within a few percent of the
  // target rank b*n/max_bins.
  const size_t n = 20000, block = 128, max_bins = 32;
  auto values = GaussianStream(n, 99);
  QuantileSketch s(block);
  for (double v : values) s.Add(v);
  const auto cuts = s.ComputeCuts(max_bins);
  ASSERT_GE(cuts.size(), max_bins / 2);  // gaussian: no degenerate collapse

  std::sort(values.begin(), values.end());
  for (size_t b = 0; b < cuts.size(); ++b) {
    const auto rank = static_cast<double>(
        std::upper_bound(values.begin(), values.end(), cuts[b]) -
        values.begin());
    // Cut b sits at some rank r_b; consecutive cuts target ranks n/max_bins
    // apart, so an absolute rank error well under one bin width means the
    // binning is a faithful quantile partition.
    const double target = static_cast<double>((b + 1) * n) /
                          static_cast<double>(max_bins);
    EXPECT_NEAR(rank / static_cast<double>(n), target / static_cast<double>(n),
                0.02)
        << "cut " << b;
  }
}

TEST(CutSketcherTest, RaggedRowsMatchPaddedMatrixColumns) {
  // Width growth zero-backfills earlier rows and short rows feed zeros —
  // the ExtractAll padding semantics. Sketching ragged rows must equal
  // sketching the explicitly padded matrix, feature by feature.
  Rng rng(5);
  std::vector<std::vector<double>> ragged;
  const std::vector<size_t> widths = {2, 5, 3, 5, 1, 4, 5, 2};
  size_t max_w = 0;
  for (size_t w : widths) {
    std::vector<double> row(w);
    for (auto& v : row) v = rng.Gaussian();
    ragged.push_back(row);
    max_w = std::max(max_w, w);
  }
  Matrix padded;
  for (const auto& row : ragged) {
    std::vector<double> p = row;
    p.resize(max_w, 0.0);
    padded.push_back(p);
  }

  CutSketcher from_ragged(FeatureTable::kMaxBins, 4);
  for (const auto& row : ragged) from_ragged.AddRow(row.data(), row.size());
  CutSketcher from_padded(FeatureTable::kMaxBins, 4);
  for (const auto& row : padded) from_padded.AddRow(row.data(), row.size());

  ASSERT_EQ(from_ragged.num_features(), max_w);
  ASSERT_EQ(from_padded.num_features(), max_w);
  for (size_t f = 0; f < max_w; ++f) {
    EXPECT_EQ(from_ragged.sketch(f).WeightedValues(),
              from_padded.sketch(f).WeightedValues())
        << "feature " << f;
  }
  const auto a = from_ragged.Finish();
  const auto b = from_padded.Finish();
  EXPECT_EQ(a.cuts, b.cuts);
  EXPECT_EQ(a.cut_offset, b.cut_offset);
  EXPECT_EQ(a.mins, b.mins);
  EXPECT_EQ(a.maxs, b.maxs);
}

TEST(CutSketcherTest, PageChunkingAndThreadCountAreInvisible) {
  // The whole point: one row at a time, page at a time, and any thread
  // count produce the identical FeatureCuts.
  Rng rng(17);
  Matrix x(300);
  for (auto& row : x) {
    row.resize(6);
    for (auto& v : row) v = rng.Gaussian();
  }

  CutSketcher row_at_a_time(FeatureTable::kMaxBins, 64);
  for (const auto& row : x) row_at_a_time.AddRow(row.data(), row.size());
  const auto reference = row_at_a_time.Finish();

  for (size_t page_rows : {64u, 100u, 300u}) {
    for (size_t threads : {1u, 2u, 3u}) {
      CutSketcher paged(FeatureTable::kMaxBins, 64);
      for (size_t lo = 0; lo < x.size(); lo += page_rows) {
        const size_t hi = std::min(x.size(), lo + page_rows);
        Matrix page(x.begin() + static_cast<std::ptrdiff_t>(lo),
                    x.begin() + static_cast<std::ptrdiff_t>(hi));
        paged.AddRows(page, threads);
      }
      const auto got = paged.Finish();
      EXPECT_EQ(got.cuts, reference.cuts)
          << "page_rows=" << page_rows << " threads=" << threads;
      EXPECT_EQ(got.cut_offset, reference.cut_offset);
      EXPECT_EQ(got.mins, reference.mins);
      EXPECT_EQ(got.maxs, reference.maxs);
    }
  }
}

TEST(CutSketcherTest, SmallCorpusTableMatchesExactBuildBitForBit) {
  // End to end: for a corpus under one block per feature, InitFromCuts +
  // BinRowInto must reproduce FeatureTable::Build exactly — same cuts,
  // same bin ids.
  Rng rng(23);
  Matrix x(120);
  for (auto& row : x) {
    row.resize(4);
    for (auto& v : row) v = rng.Gaussian();
  }
  FeatureTable exact;
  exact.Build(x);

  CutSketcher sketcher(FeatureTable::kMaxBins);
  for (const auto& row : x) sketcher.AddRow(row.data(), row.size());
  const auto fc = sketcher.Finish();
  FeatureTable streamed;
  streamed.InitFromCuts(fc.cuts, fc.cut_offset, x.size());
  for (size_t i = 0; i < x.size(); ++i) {
    streamed.BinRowInto(x[i].data(), x[i].size(), i);
  }

  ASSERT_EQ(streamed.num_features(), exact.num_features());
  ASSERT_EQ(streamed.num_rows(), exact.num_rows());
  for (size_t f = 0; f < exact.num_features(); ++f) {
    ASSERT_EQ(streamed.num_bins(f), exact.num_bins(f)) << "feature " << f;
    for (size_t b = 0; b + 1 < exact.num_bins(f); ++b) {
      EXPECT_EQ(streamed.threshold(f, b), exact.threshold(f, b));
    }
    for (size_t i = 0; i < x.size(); ++i) {
      EXPECT_EQ(streamed.bin(f, i), exact.bin(f, i))
          << "feature " << f << " row " << i;
    }
  }
}

}  // namespace
}  // namespace mvg
