// Pins for the GBT training tail's engine pieces:
//  * NodeSplitSearch (ml/hist_kernels.h) against the plain scalar split
//    loop over fixed-point cells (tests/split_search_oracle.h): the same
//    winning slot, bin and gain bits on random node histograms and on
//    adversarial corners the tree builder never produces;
//  * NodeHistogramPool: a sibling derived by subtraction equals a direct
//    scan of its rows, cell for cell; and the per-thread slab cache:
//    every acquired slab is all-zero, whatever mix of pool widths and
//    sizes came before, and the cached bytes stay under the cap.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ml/feature_table.h"
#include "ml/hist_kernels.h"
#include "tests/split_search_oracle.h"
#include "util/random.h"

namespace mvg {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// Fixed-point cells from real (grad, hess) values.
std::vector<int64_t> Quantized(const std::vector<double>& values) {
  std::vector<int64_t> q(values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    q[i] = QuantizeGradHess(values[i]);
  }
  return q;
}

/// One synthetic node: per-slot histograms (2 int64 cells per bin) and
/// spans.
struct NodeCase {
  std::vector<std::vector<int64_t>> hists;
  std::vector<size_t> lo, hi;
  double g_sum = 0.0, h_sum = 0.0;
  double lambda = 1.0, min_child_weight = 1.0, gamma = 0.0;

  void AddSlot(std::vector<int64_t> hist, size_t slot_lo, size_t slot_hi) {
    hists.push_back(std::move(hist));
    lo.push_back(slot_lo);
    hi.push_back(slot_hi);
  }

  /// Node totals from slot 0, as the builder's row sums would give them.
  void TotalsFromSlot0() {
    int64_t g = 0, h = 0;
    for (size_t b = 0; b < hists[0].size() / 2; ++b) {
      g += hists[0][2 * b];
      h += hists[0][2 * b + 1];
    }
    g_sum = DequantizeGradHess(g);
    h_sum = DequantizeGradHess(h);
  }
};

/// Runs the kernel and the oracle on `nc` and requires the same choice.
void ExpectMatchesOracle(const NodeCase& nc, const char* what) {
  std::vector<testutil::OracleSlot> oslots;
  std::vector<SplitSlot> slots;
  for (size_t j = 0; j < nc.hists.size(); ++j) {
    const size_t nb = nc.hists[j].size() / 2;
    oslots.push_back({nc.hists[j].data(), nb, nc.lo[j], nc.hi[j]});
    SplitSlot s;
    s.fh = nc.hists[j].data();
    s.lo = nc.lo[j];
    s.end = nb == 0 ? 0 : std::min(nb - 1, nc.hi[j]);
    slots.push_back(s);
  }
  const testutil::OracleSplit want = testutil::ScalarSplitSearch(
      oslots, nc.g_sum, nc.h_sum, nc.lambda, nc.min_child_weight, nc.gamma);

  const double parent = nc.g_sum * nc.g_sum / (nc.h_sum + nc.lambda);
  const GainNode node{nc.g_sum, nc.h_sum, nc.lambda, nc.min_child_weight,
                      parent};
  SplitScratch scratch;
  double gain = nc.gamma + 1e-12;
  size_t bin = 0;
  const size_t slot =
      NodeSplitSearch(slots.data(), slots.size(), node, &scratch, &gain, &bin);

  if (want.slot < 0) {
    EXPECT_EQ(kNoSplit, slot) << what;
    EXPECT_EQ(Bits(nc.gamma + 1e-12), Bits(gain)) << what;
    return;
  }
  ASSERT_EQ(static_cast<size_t>(want.slot), slot) << what;
  EXPECT_EQ(want.bin, bin) << what;
  EXPECT_EQ(Bits(want.gain), Bits(gain))
      << what << ": " << want.gain << " vs " << gain;
}

/// A slot histogram of `nb` bins whose rows occupy bins [lo, hi] with
/// the given empty-bin probability; returns the (lo, hi) it used. Every
/// row's hessian quantizes to at least 1, as the engine's do.
std::vector<int64_t> RandomSlot(Rng& rng, size_t nb, double p_empty,
                                size_t* lo, size_t* hi) {
  std::vector<int64_t> h(2 * nb, 0);
  size_t a = rng.Index(nb), b = rng.Index(nb);
  if (a > b) std::swap(a, b);
  *lo = a;
  *hi = b;
  for (size_t k = a; k <= b; ++k) {
    if (k != a && k != b && rng.Bernoulli(p_empty)) continue;
    const int64_t rows = static_cast<int64_t>(1 + rng.Index(8));
    h[2 * k] = QuantizeGradHess(rng.Gaussian(0.0, 1.0)) * rows;
    h[2 * k + 1] = QuantizeGradHess(rng.Uniform(1e-12, 0.25)) * rows;
  }
  return h;
}

TEST(NodeSplitSearchTest, RandomHistogramsMatchOracle) {
  Rng rng(2024);
  const double empties[] = {0.0, 0.3, 0.75, 0.95};
  const double lambdas[] = {0.0, 0.5, 1.0, 10.0};
  const double weights[] = {0.0, 1e-3, 1.0, 4.0};
  for (int iter = 0; iter < 12000; ++iter) {
    NodeCase nc;
    const double p_empty = empties[rng.Index(4)];
    const size_t num_slots = 1 + rng.Index(9);
    for (size_t j = 0; j < num_slots; ++j) {
      const size_t nb = rng.Bernoulli(0.2) ? 1 + rng.Index(8)
                                           : 1 + rng.Index(256);
      size_t lo = 0, hi = 0;
      std::vector<int64_t> h = RandomSlot(rng, nb, p_empty, &lo, &hi);
      // Cells no exact scan produces: a hessian-free bin that carries
      // gradient, and a small negative hessian.
      if (rng.Bernoulli(0.2)) {
        const size_t k = lo + rng.Index(hi - lo + 1);
        h[2 * k + 1] = 0;
        h[2 * k] = static_cast<int64_t>(rng.Index(9)) - 4;
      }
      if (rng.Bernoulli(0.2)) {
        const size_t k = lo + rng.Index(hi - lo + 1);
        h[2 * k + 1] = -static_cast<int64_t>(1 + rng.Index(4));
      }
      nc.AddSlot(std::move(h), lo, hi);
    }
    nc.TotalsFromSlot0();
    // Slot 0's spans are the node's; others may over- or undershoot the
    // totals, so exhaustion can fire early or never.
    if (rng.Bernoulli(0.1)) nc.h_sum *= rng.Uniform(0.2, 1.0);
    // The kernel's precondition, which every engine node meets.
    if (!(nc.h_sum > 0.0)) continue;
    nc.lambda = lambdas[rng.Index(4)];
    nc.min_child_weight = weights[rng.Index(4)];
    nc.gamma = rng.Bernoulli(0.2) ? rng.Uniform(0.0, 2.0) : 0.0;
    ExpectMatchesOracle(nc, "random");
    if (HasFailure()) {
      ADD_FAILURE() << "iteration " << iter;
      return;
    }
  }
}

TEST(NodeSplitSearchTest, EmptyAndSingleBinSlots) {
  NodeCase empty;
  empty.AddSlot(std::vector<int64_t>(2 * 64, 0), 0, 63);
  empty.g_sum = 0.0;
  empty.h_sum = 0.0;
  ExpectMatchesOracle(empty, "all bins empty, zero totals");
  empty.h_sum = 3.0;
  ExpectMatchesOracle(empty, "all bins empty, positive hessian total");

  NodeCase one;
  std::vector<int64_t> h(2 * 16, 0);
  h[2 * 7] = QuantizeGradHess(1.5);
  h[2 * 7 + 1] = QuantizeGradHess(2.0);
  one.AddSlot(h, 7, 7);
  one.AddSlot(h, 0, 15);
  one.TotalsFromSlot0();
  one.min_child_weight = 0.0;
  ExpectMatchesOracle(one, "one non-empty bin");
}

TEST(NodeSplitSearchTest, EqualGainsKeepTheFirst) {
  // g_sum = 0: boundaries 0 and 1 give gl^2/(hl+l) + gr^2/(hr+l) with the
  // two terms swapped — equal gains; the first boundary must win.
  NodeCase nc;
  const std::vector<int64_t> h = Quantized({1.0, 1.0, -2.0, 2.0, 1.0, 1.0});
  nc.AddSlot(h, 0, 2);
  nc.AddSlot(h, 0, 2);  // an identical later slot must lose too
  nc.TotalsFromSlot0();
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "equal gains");

  SplitSlot slots[2] = {{h.data(), 0, 2}, {h.data(), 0, 2}};
  const GainNode node{0.0, 4.0, 1.0, 0.0, 0.0};
  SplitScratch scratch;
  double gain = 1e-12;
  size_t bin = 99;
  EXPECT_EQ(0u, NodeSplitSearch(slots, 2, node, &scratch, &gain, &bin));
  EXPECT_EQ(0u, bin);
}

TEST(NodeSplitSearchTest, ZeroWeightFloorAndZeroLambda) {
  // lambda = 0 and min_child_weight = 0, with hessian-free bins first
  // and the right side exhausted at the last boundary: both paths must
  // treat the zero denominators identically.
  NodeCase nc;
  std::vector<double> h(2 * 20, 0.0);
  for (size_t k = 0; k < 20; ++k) {
    h[2 * k] = k < 3 ? 0.5 : std::cos(static_cast<double>(k));
    h[2 * k + 1] = k < 3 ? 0.0 : 0.2 * static_cast<double>(k % 5);
  }
  nc.AddSlot(Quantized(h), 0, 19);
  nc.TotalsFromSlot0();
  nc.lambda = 0.0;
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "lambda 0, weight floor 0");
}

TEST(NodeSplitSearchTest, GammaAboveEveryGainFindsNothing) {
  Rng rng(5);
  NodeCase nc;
  size_t lo = 0, hi = 0;
  nc.AddSlot(RandomSlot(rng, 200, 0.3, &lo, &hi), lo, hi);
  nc.TotalsFromSlot0();
  nc.gamma = 1e6;
  ExpectMatchesOracle(nc, "gamma above every gain");
  nc.gamma = kNaN;
  ExpectMatchesOracle(nc, "NaN gamma");
}

TEST(NodeSplitSearchTest, TwoBinsAndDegenerateSpans) {
  NodeCase nc;
  nc.AddSlot(Quantized({-1.0, 0.5, 2.0, 0.75}), 0, 1);  // one boundary
  nc.AddSlot(Quantized({3.0, 1.0, -3.0, 1.0}), 1, 1);   // lo == hi
  nc.AddSlot(Quantized({1.0, 1.0}), 0, 0);              // constant column
  nc.AddSlot(std::vector<int64_t>(8, 0), 0xffff, 0);    // empty span
  nc.AddSlot(Quantized({0.5, 0.25, -0.5, 0.25, 1.0, 0.5}), 0, 2);
  nc.TotalsFromSlot0();
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "two bins and degenerate spans");
  for (size_t j = 0; j + 1 < nc.hists.size(); ++j) {
    NodeCase single;
    single.AddSlot(nc.hists[j], nc.lo[j], nc.hi[j]);
    single.g_sum = nc.g_sum;
    single.h_sum = nc.h_sum;
    single.min_child_weight = 0.0;
    ExpectMatchesOracle(single, "single degenerate slot");
  }
}

// ---------------------------------------------------------------------------
// Sibling subtraction
// ---------------------------------------------------------------------------

TEST(NodeHistogramPoolTest, DerivedSiblingEqualsADirectScan) {
  // A node's rows split on a column; the smaller child is scanned and its
  // sibling derived by subtraction in the parent's buffer, as the tree
  // builder does. The derived sibling must equal a scan of its own rows
  // in every cell, so its empty bins are exactly zero. Gradients of both
  // signs and hessians over the full range make any rounding show.
  const size_t n = 600, d = 6;
  Rng rng(41);
  Matrix x(n, std::vector<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) {
      x[i][f] = f == 0 ? static_cast<double>(i % 40)
                       : std::floor(rng.Uniform(0.0, 300.0));
    }
  }
  FeatureTable ft;
  ft.Build(x);
  std::vector<int64_t> gh(2 * n);
  for (size_t r = 0; r < n; ++r) {
    gh[2 * r] = QuantizeGradHess(rng.Uniform(-1.0, 1.0));
    gh[2 * r + 1] = QuantizeGradHess(rng.Uniform(1e-12, 0.25));
  }
  const std::vector<size_t> cols = {0, 1, 2, 3, 4, 5};
  NodeHistogramPool pool(ft, cols, 2);
  RowStage stage;
  const auto scan = [&](const std::vector<size_t>& rows, size_t begin,
                        size_t end, size_t buf) {
    stage.StageRows(rows, begin, end);
    for (size_t j = 0; j < cols.size(); ++j) {
      PairScan(ft.column(cols[j]), stage, gh.data(),
               pool.hist(buf) + pool.slot_offset(j), pool.lo(buf) + j,
               pool.hi(buf) + j);
    }
  };

  // Half the rows, drawn at random: a scattered node.
  std::vector<size_t> rows = rng.Sample(n, n / 2);
  std::vector<size_t> scratch(rows.size());
  for (const size_t split_col : {size_t{0}, size_t{3}}) {
    for (const size_t split_bin : {size_t{4}, size_t{30}, size_t{150}}) {
      if (split_bin + 1 >= ft.num_bins(split_col)) continue;
      const size_t parent = pool.Acquire();
      scan(rows, 0, rows.size(), parent);
      const size_t mid = StablePartitionRows(rows, scratch, 0, rows.size(),
                                             ft.column(split_col), split_bin);
      ASSERT_GT(mid, 0u);
      ASSERT_LT(mid, rows.size());
      const bool left_smaller = mid <= rows.size() - mid;
      const size_t child = pool.Acquire();
      if (left_smaller) {
        scan(rows, 0, mid, child);
      } else {
        scan(rows, mid, rows.size(), child);
      }
      pool.SubtractInto(parent, child);
      const size_t direct = pool.Acquire();
      if (left_smaller) {
        scan(rows, mid, rows.size(), direct);
      } else {
        scan(rows, 0, mid, direct);
      }
      for (size_t c = 0; c < pool.hist_size(); ++c) {
        ASSERT_EQ(pool.hist(direct)[c], pool.hist(parent)[c])
            << "split (" << split_col << ", " << split_bin << ") cell " << c;
      }
      // The derived buffer keeps the parent's (wider) span; releasing it
      // must still leave it all-zero.
      for (const size_t b : {parent, child, direct}) pool.Release(b);
    }
  }
}

// ---------------------------------------------------------------------------
// NodeHistogramPool slab cache
// ---------------------------------------------------------------------------

bool AllZero(const int64_t* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (p[i] != 0) return false;
  }
  return true;
}

TEST(NodeHistogramPoolTest, CachedSlabsComeBackZeroAndStayUnderTheCap) {
  // 138 features x 256 bins: a width-7 all-features pool has ~2 MB slabs,
  // width-2 pools over column subsets between ~16 KB and ~560 KB.
  const size_t d = 138, n = 512;
  Rng rng(17);
  Matrix x(n, std::vector<double>(d));
  for (size_t i = 0; i < n; ++i) {
    for (size_t f = 0; f < d; ++f) {
      x[i][f] = static_cast<double>(i < 256 ? i : rng.Index(256));
    }
  }
  FeatureTable ft;
  ft.Build(x);

  const size_t col_counts[] = {8, 138, 30, 138, 69, 4, 138, 100, 2, 69};
  const size_t widths[] = {2, 2, 7, 2, 2, 7, 7, 2, 2, 7};
  for (int round = 0; round < 3; ++round) {
    for (size_t p = 0; p < 10; ++p) {
      std::vector<size_t> cols = rng.Sample(d, col_counts[p]);
      NodeHistogramPool pool(ft, cols, widths[p]);
      std::vector<size_t> held;
      const size_t live = 1 + rng.Index(6);
      for (size_t k = 0; k < live; ++k) {
        const size_t b = pool.Acquire();
        ASSERT_TRUE(AllZero(pool.hist(b), pool.hist_size()))
            << "round " << round << " pool " << p << " slab " << k;
        // Dirty a random span per slot, as a scan would, and record it.
        for (size_t j = 0; j < cols.size(); ++j) {
          const size_t nb = ft.num_bins(cols[j]);
          size_t a = rng.Index(nb), e = rng.Index(nb);
          if (a > e) std::swap(a, e);
          int64_t* base = pool.hist(b) + pool.slot_offset(j);
          for (size_t c = a * widths[p]; c < (e + 1) * widths[p]; ++c) {
            base[c] = QuantizeGradHess(rng.Gaussian(0.0, 1.0));
          }
          pool.lo(b)[j] = static_cast<uint16_t>(a);
          pool.hi(b)[j] = static_cast<uint16_t>(e);
        }
        held.push_back(b);
      }
      for (size_t b : held) pool.Release(b);
      // Re-acquiring within the pool hands back zeroed slabs too.
      const size_t again = pool.Acquire();
      EXPECT_TRUE(AllZero(pool.hist(again), pool.hist_size()));
      pool.Release(again);
      EXPECT_LE(NodeHistogramPool::CachedBytes(),
                NodeHistogramPool::kSlabCacheBytes);
    }
    EXPECT_LE(NodeHistogramPool::CachedBytes(),
              NodeHistogramPool::kSlabCacheBytes);
    EXPECT_GT(NodeHistogramPool::CachedBytes(), 0u);
  }
}

TEST(NodeHistogramPoolTest, LiveSlabsAreNotCached) {
  Matrix x(64, std::vector<double>(4));
  for (size_t i = 0; i < 64; ++i) {
    for (size_t f = 0; f < 4; ++f) x[i][f] = static_cast<double>(i + f);
  }
  FeatureTable ft;
  ft.Build(x);
  const std::vector<size_t> cols = {0, 1, 2, 3};
  // A fresh thread starts with an empty cache, so the counts are exact.
  std::thread([&] {
    size_t slab_bytes = 0;
    {
      NodeHistogramPool pool(ft, cols, 2);
      const size_t b = pool.Acquire();
      std::fill(pool.hist(b), pool.hist(b) + pool.hist_size(), int64_t{1});
      slab_bytes = pool.hist_size() * sizeof(int64_t);
    }  // dirty and never released: dropped, not cached
    EXPECT_EQ(0u, NodeHistogramPool::CachedBytes());
    {
      NodeHistogramPool pool(ft, cols, 2);
      const size_t b = pool.Acquire();
      EXPECT_TRUE(AllZero(pool.hist(b), pool.hist_size()));
      pool.Release(b);
    }
    EXPECT_EQ(slab_bytes, NodeHistogramPool::CachedBytes());
  }).join();
}

}  // namespace
}  // namespace mvg
