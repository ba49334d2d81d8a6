// Pins for the GBT training tail's two engine pieces:
//  * NodeSplitSearch (ml/hist_kernels.h) against the plain scalar split
//    loop it replaced (tests/split_search_oracle.h): the same winning
//    slot, bin and gain bits on random node histograms and on the
//    adversarial corners the tree builder never produces;
//  * NodeHistogramPool's per-thread slab cache: every acquired slab is
//    all-zero, whatever mix of pool widths and sizes came before, and the
//    cached bytes stay under the cap.

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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

/// One synthetic node: per-slot histograms (2 doubles per bin) and spans.
struct NodeCase {
  std::vector<std::vector<double>> hists;
  std::vector<size_t> lo, hi;
  double g_sum = 0.0, h_sum = 0.0;
  double lambda = 1.0, min_child_weight = 1.0, gamma = 0.0;

  void AddSlot(std::vector<double> hist, size_t slot_lo, size_t slot_hi) {
    hists.push_back(std::move(hist));
    lo.push_back(slot_lo);
    hi.push_back(slot_hi);
  }

  /// Node totals from slot 0, as the builder's row sums would give them.
  void TotalsFromSlot0() {
    g_sum = h_sum = 0.0;
    for (size_t b = 0; b < hists[0].size() / 2; ++b) {
      g_sum += hists[0][2 * b];
      h_sum += hists[0][2 * b + 1];
    }
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
/// the given empty-bin probability; returns the (lo, hi) it used.
std::vector<double> RandomSlot(Rng& rng, size_t nb, double p_empty,
                               size_t* lo, size_t* hi) {
  std::vector<double> h(2 * nb, 0.0);
  size_t a = rng.Index(nb), b = rng.Index(nb);
  if (a > b) std::swap(a, b);
  *lo = a;
  *hi = b;
  for (size_t k = a; k <= b; ++k) {
    if (k != a && k != b && rng.Bernoulli(p_empty)) continue;
    const double rows = static_cast<double>(1 + rng.Index(8));
    h[2 * k] = rng.Gaussian(0.0, 1.0) * rows;
    h[2 * k + 1] = rng.Uniform(1e-12, 0.25) * rows;
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
      std::vector<double> h = RandomSlot(rng, nb, p_empty, &lo, &hi);
      // Sibling-subtraction residues: hessian-free bins that still carry
      // gradient, and tiny negative hessians.
      if (rng.Bernoulli(0.2)) {
        const size_t k = lo + rng.Index(hi - lo + 1);
        h[2 * k + 1] = 0.0;
        h[2 * k] = rng.Gaussian(0.0, 1e-15);
      }
      if (rng.Bernoulli(0.2)) {
        const size_t k = lo + rng.Index(hi - lo + 1);
        h[2 * k + 1] = -1e-17 * static_cast<double>(1 + rng.Index(4));
      }
      nc.AddSlot(std::move(h), lo, hi);
    }
    nc.TotalsFromSlot0();
    // Slot 0's spans are the node's; others may over- or undershoot the
    // totals, so exhaustion can fire early or never.
    if (rng.Bernoulli(0.1)) nc.h_sum *= rng.Uniform(0.2, 1.0);
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
  empty.AddSlot(std::vector<double>(2 * 64, 0.0), 0, 63);
  empty.g_sum = 0.0;
  empty.h_sum = 0.0;
  ExpectMatchesOracle(empty, "all bins empty, zero totals");
  empty.h_sum = 3.0;
  ExpectMatchesOracle(empty, "all bins empty, positive hessian total");

  NodeCase one;
  std::vector<double> h(2 * 16, 0.0);
  h[2 * 7] = 1.5;
  h[2 * 7 + 1] = 2.0;
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
  const std::vector<double> h = {1.0, 1.0, -2.0, 2.0, 1.0, 1.0};
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

TEST(NodeSplitSearchTest, HessianFreeBinsStillMoveTheGradientSum) {
  NodeCase nc;
  std::vector<double> h(2 * 12, 0.0);
  for (size_t k = 0; k < 12; ++k) {
    h[2 * k] = (k % 3 == 0 ? -1.0 : 0.75) * static_cast<double>(k + 1);
    h[2 * k + 1] = k % 2 == 0 ? 0.0 : 0.5;  // even bins: gradient only
  }
  nc.AddSlot(h, 0, 11);
  nc.TotalsFromSlot0();
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "hessian-free bins");
}

TEST(NodeSplitSearchTest, TinyNegativeResiduesAndEarlyExhaustion) {
  NodeCase nc;
  std::vector<double> h(2 * 40, 0.0);
  for (size_t k = 0; k < 40; ++k) {
    h[2 * k] = std::sin(static_cast<double>(k));
    h[2 * k + 1] = k % 4 == 3 ? -1e-17 : 0.1;
  }
  nc.AddSlot(h, 0, 39);
  nc.TotalsFromSlot0();
  ExpectMatchesOracle(nc, "negative residues");
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "negative residues, no weight floor");
  // Exhaustion before hi: the node's hessian total is reached halfway.
  nc.h_sum = 1.05;
  ExpectMatchesOracle(nc, "exhaustion before hi");
  // Exhausted at the first bin, with and without rows in it.
  nc.h_sum = 0.0;
  ExpectMatchesOracle(nc, "exhausted at a row-carrying first bin");
  // h_sum <= 0 with an empty first bin: the scalar loop stops at bin 0,
  // although bin 1's negative hessian would leave hr > 0 there.
  h[1] = 0.0;
  h[3] = -0.75;
  NodeCase first_empty;
  first_empty.AddSlot(h, 0, 39);
  first_empty.g_sum = 1.0;
  first_empty.h_sum = -0.5;
  first_empty.min_child_weight = -kInf;
  ExpectMatchesOracle(first_empty, "exhausted at an empty first bin");
  // The same totals with the negative hessian in bin 0: no early stop.
  h[1] = -0.75;
  h[3] = 0.1;
  NodeCase first_negative = first_empty;
  first_negative.hists[0] = h;
  ExpectMatchesOracle(first_negative, "negative first bin, h_sum <= 0");
}

TEST(NodeSplitSearchTest, ZeroWeightFloorAndZeroLambda) {
  // lambda = 0 and min_child_weight = 0: hessian-free prefixes divide by
  // zero (inf/NaN gains), which both paths must treat identically.
  NodeCase nc;
  std::vector<double> h(2 * 20, 0.0);
  for (size_t k = 0; k < 20; ++k) {
    h[2 * k] = k < 3 ? 0.5 : std::cos(static_cast<double>(k));
    h[2 * k + 1] = k < 3 ? -0.0 : 0.2 * static_cast<double>(k % 5);
  }
  nc.AddSlot(h, 0, 19);
  nc.TotalsFromSlot0();
  nc.lambda = 0.0;
  nc.min_child_weight = 0.0;
  ExpectMatchesOracle(nc, "lambda 0, weight floor 0");
  h[2 * 5 + 1] = kNaN;
  nc.hists[0] = h;
  ExpectMatchesOracle(nc, "NaN hessian");
  h[2 * 5 + 1] = kInf;
  nc.hists[0] = h;
  ExpectMatchesOracle(nc, "infinite hessian");
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
  nc.AddSlot({-1.0, 0.5, 2.0, 0.75}, 0, 1);  // nb = 2: one boundary
  nc.AddSlot({3.0, 1.0, -3.0, 1.0}, 1, 1);   // lo == hi: no boundary
  nc.AddSlot({1.0, 1.0}, 0, 0);              // nb = 1: constant column
  nc.AddSlot(std::vector<double>(8, 0.0), 0xffff, 0);  // empty span
  nc.AddSlot({0.5, 0.25, -0.5, 0.25, 1.0, 0.5}, 0, 2);
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
// NodeHistogramPool slab cache
// ---------------------------------------------------------------------------

bool AllZero(const double* p, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (Bits(p[i]) != 0) return false;
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
          double* base = pool.hist(b) + pool.slot_offset(j);
          for (size_t c = a * widths[p]; c < (e + 1) * widths[p]; ++c) {
            base[c] = rng.Gaussian(0.0, 1.0);
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
      std::fill(pool.hist(b), pool.hist(b) + pool.hist_size(), 1.0);
      slab_bytes = pool.hist_size() * sizeof(double);
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
