// Bit-identity pins for the util/simd.h vector layer and every kernel
// written on it. The contract under test: each lane operation is the IEEE
// operation of its scalar spelling (Min/Max with std::min/std::max
// semantics, MulAdd with two roundings), reductions are lane-order folds,
// and therefore every kernel produces bit-identical results on every
// backend — including MVG_SIMD_OFF scalar builds (the cross-build half of
// that claim is byte-diffed in CI; these tests pin the in-process half,
// vector kernel vs hand-written scalar reference, over a corpus that
// includes NaN/±inf/denormal inputs and non-lane-multiple lengths).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "bench/legacy_kernels.h"
#include "graph/graph_kernels.h"
#include "ml/feature_table.h"
#include "ml/hist_kernels.h"
#include "ts/generators.h"
#include "util/aligned_buffer.h"
#include "util/random.h"
#include "util/simd.h"
#include "vg/vg_kernels.h"
#include "vg/visibility_graph.h"

namespace mvg {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kDenorm = std::numeric_limits<double>::denorm_min();

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

::testing::AssertionResult SameBits(double a, double b) {
  if (Bits(a) == Bits(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " (0x" << std::hex << Bits(a) << ") vs " << b << " (0x"
         << Bits(b) << ")";
}

/// Special values crossed in every slot: the lane ops must behave as the
/// scalar operation for all of them, including the NaN/±0 corners where
/// hardware min/max and compare instructions deviate from std semantics.
const std::vector<double>& SpecialValues() {
  static const std::vector<double> kValues = {
      0.0,   -0.0,     1.0,      -1.0,    0.5,    -2.5,
      kInf,  -kInf,    kNaN,     kDenorm, -kDenorm,
      1e308, -1e308,   2.2e-308, 1e-12,   3.75};
  return kValues;
}

// ---------------------------------------------------------------------------
// F64x4 primitive parity
// ---------------------------------------------------------------------------

TEST(SimdF64x4, LoadStoreRoundTripPreservesBits) {
  const double src[4] = {kNaN, -0.0, kDenorm, -kInf};
  double dst[4] = {0, 0, 0, 0};
  simd::F64x4::Load(src).Store(dst);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(SameBits(src[i], dst[i])) << i;
  const simd::F64x4 v = simd::F64x4::Set(src[0], src[1], src[2], src[3]);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(SameBits(src[i], v.Lane(i))) << i;
}

TEST(SimdF64x4, ArithmeticMatchesScalarPerLane) {
  const auto& vals = SpecialValues();
  for (double a : vals) {
    for (double b : vals) {
      const simd::F64x4 va = simd::F64x4::Broadcast(a);
      const simd::F64x4 vb = simd::F64x4::Broadcast(b);
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(SameBits(a + b, (va + vb).Lane(i)));
        EXPECT_TRUE(SameBits(a - b, (va - vb).Lane(i)));
        EXPECT_TRUE(SameBits(a * b, (va * vb).Lane(i)));
        EXPECT_TRUE(SameBits(a / b, (va / vb).Lane(i)));
      }
    }
  }
}

TEST(SimdF64x4, MinMaxMatchStdSemantics) {
  // std::min(a, b) is (b < a) ? b : a — the FIRST argument when b is NaN
  // or on a -0/+0 tie. Hardware min/max picks the SECOND; the backends
  // must hide that.
  const auto& vals = SpecialValues();
  for (double a : vals) {
    for (double b : vals) {
      const simd::F64x4 va = simd::F64x4::Broadcast(a);
      const simd::F64x4 vb = simd::F64x4::Broadcast(b);
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(SameBits(std::min(a, b), Min(va, vb).Lane(i)))
            << "min(" << a << ", " << b << ")";
        EXPECT_TRUE(SameBits(std::max(a, b), Max(va, vb).Lane(i)))
            << "max(" << a << ", " << b << ")";
      }
    }
  }
}

TEST(SimdF64x4, MulAddUsesExactlyTwoRoundings) {
  // a*b rounds to 1.0 (the true product 1 - 2^-60 is not representable),
  // so two-rounding MulAdd gives exactly 0.0 while a single-rounding fma
  // would give -2^-60. The contract is two roundings everywhere.
  const double a = 1.0 + std::ldexp(1.0, -30);
  const double b = 1.0 - std::ldexp(1.0, -30);
  const double c = -1.0;
  const simd::F64x4 r = MulAdd(simd::F64x4::Broadcast(a),
                               simd::F64x4::Broadcast(b),
                               simd::F64x4::Broadcast(c));
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(SameBits(0.0, r.Lane(i)));
    const double m = a * b;  // named product: no contraction
    EXPECT_TRUE(SameBits(m + c, r.Lane(i)));
  }
}

TEST(SimdF64x4, ComparesAndBlendMatchScalarPredicates) {
  const auto& vals = SpecialValues();
  const simd::F64x4 t = simd::F64x4::Broadcast(1.0);
  const simd::F64x4 f = simd::F64x4::Broadcast(2.0);
  for (double a : vals) {
    for (double b : vals) {
      const simd::F64x4 va = simd::F64x4::Broadcast(a);
      const simd::F64x4 vb = simd::F64x4::Broadcast(b);
      const int lt = MoveMask(CmpLT(va, vb));
      const int gt = MoveMask(CmpGT(va, vb));
      const int ge = MoveMask(CmpGE(va, vb));
      const int eq = MoveMask(CmpEQ(va, vb));
      EXPECT_EQ(a < b ? 0xF : 0x0, lt) << a << " < " << b;
      EXPECT_EQ(a > b ? 0xF : 0x0, gt) << a << " > " << b;
      EXPECT_EQ(a >= b ? 0xF : 0x0, ge) << a << " >= " << b;
      EXPECT_EQ(a == b ? 0xF : 0x0, eq) << a << " == " << b;
      const simd::F64x4 sel = Blend(CmpLT(va, vb), t, f);
      for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(SameBits(a < b ? 1.0 : 2.0, sel.Lane(i)));
      }
    }
  }
  // Mixed lanes: mask bit i must correspond to memory-order lane i.
  const simd::F64x4 x = simd::F64x4::Set(1.0, 5.0, kNaN, 2.0);
  const simd::F64x4 y = simd::F64x4::Broadcast(3.0);
  EXPECT_EQ(0b1001, MoveMask(CmpLT(x, y)));
  EXPECT_EQ(0b0010, MoveMask(CmpGT(x, y)));
  EXPECT_EQ(simd::FirstLane(0b1000), 3);
  EXPECT_EQ(simd::FirstLane(0b0110), 1);
  EXPECT_EQ(simd::CountLanes(0b1011), 3);
  EXPECT_EQ(simd::CountLanes(0), 0);
}

TEST(SimdF64x4, ReverseAndReductionsAreLaneOrderExact) {
  const simd::F64x4 v = simd::F64x4::Set(1e16, 1.0, -1e16, 1.0);
  const simd::F64x4 r = Reverse(v);
  EXPECT_TRUE(SameBits(v.Lane(0), r.Lane(3)));
  EXPECT_TRUE(SameBits(v.Lane(1), r.Lane(2)));
  EXPECT_TRUE(SameBits(v.Lane(2), r.Lane(1)));
  EXPECT_TRUE(SameBits(v.Lane(3), r.Lane(0)));
  // ((1e16 + 1) + -1e16) + 1 == 1.0 exactly under the left fold; any
  // reassociation (e.g. pairwise (1e16 + 1) + (-1e16 + 1)) gives 2.0 - 1.
  EXPECT_TRUE(SameBits(((1e16 + 1.0) + -1e16) + 1.0,
                       simd::ReduceAddOrdered(v)));
  const simd::F64x4 m = simd::F64x4::Set(kNaN, 2.0, -kInf, 1.5);
  EXPECT_TRUE(SameBits(std::max(std::max(std::max(kNaN, 2.0), -kInf), 1.5),
                       simd::ReduceMaxOrdered(m)));
  EXPECT_TRUE(SameBits(std::min(std::min(std::min(kNaN, 2.0), -kInf), 1.5),
                       simd::ReduceMinOrdered(m)));
}

// ---------------------------------------------------------------------------
// Integer / byte lanes
// ---------------------------------------------------------------------------

TEST(SimdI32x4, WidenMulAddRotateEqMatchScalar) {
  const uint8_t bytes[8] = {0, 255, 7, 128, 1, 2, 3, 4};
  const simd::I32x4 w = simd::I32x4::WidenU8x4(bytes);
  EXPECT_EQ(0, w.Lane(0));
  EXPECT_EQ(255, w.Lane(1));
  EXPECT_EQ(7, w.Lane(2));
  EXPECT_EQ(128, w.Lane(3));

  const int32_t av[4] = {3, -5, 100000, 0};
  const int32_t bv[4] = {7, -5, 30000, 9};
  const simd::I32x4 a = simd::I32x4::Load(av);
  const simd::I32x4 b = simd::I32x4::Load(bv);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(av[i] + bv[i], (a + b).Lane(i));
    EXPECT_EQ(av[i] - bv[i], (a - b).Lane(i));
    // Lane products keep their low 32 bits (100000 * 30000 wraps).
    const int32_t product = static_cast<int32_t>(
        static_cast<uint32_t>(av[i]) * static_cast<uint32_t>(bv[i]));
    EXPECT_EQ(product, (a * b).Lane(i));
  }
  const simd::I32x4 rot = RotateLanes1(a);
  EXPECT_EQ(av[1], rot.Lane(0));
  EXPECT_EQ(av[2], rot.Lane(1));
  EXPECT_EQ(av[3], rot.Lane(2));
  EXPECT_EQ(av[0], rot.Lane(3));
  EXPECT_EQ(0b0010, EqMask(a, b));
  EXPECT_EQ(0b1111, EqMask(a, a));
}

TEST(SimdU8Span, MatchesScalarOnAllLengthsAndConstantRuns) {
  Rng rng(77);
  for (size_t n = 1; n <= 70; ++n) {
    std::vector<uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Index(256));
    uint8_t ref_lo = 0xff, ref_hi = 0;
    for (uint8_t b : buf) {
      ref_lo = std::min(ref_lo, b);
      ref_hi = std::max(ref_hi, b);
    }
    uint16_t lo, hi;
    U8Span(buf.data(), n, &lo, &hi);
    EXPECT_EQ(ref_lo, lo) << "n=" << n;
    EXPECT_EQ(ref_hi, hi) << "n=" << n;

    // Constant run — the single-bin case: the span must collapse to
    // [b, b], never widen to a neighbouring bin.
    std::fill(buf.begin(), buf.end(), uint8_t{42});
    U8Span(buf.data(), n, &lo, &hi);
    EXPECT_EQ(42, lo);
    EXPECT_EQ(42, hi);
  }
}

// ---------------------------------------------------------------------------
// Histogram kernels vs the frozen scalar references
// ---------------------------------------------------------------------------

class HistKernelTest : public ::testing::Test {
 protected:
  // 203 rows (not a multiple of 4 or 16) x 7 features, one feature
  // constant: the single-bin span regression rides along in every check.
  void SetUp() override {
    Rng rng(4242);
    x_.assign(kRows, std::vector<double>(kFeats));
    y_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) {
      for (size_t f = 0; f + 1 < kFeats; ++f) {
        x_[i][f] = rng.Gaussian(0.0, 1.0);
      }
      x_[i][kFeats - 1] = 3.25;  // constant column -> one occupied bin
      y_[i] = rng.Index(kClasses);
    }
    ft_.Build(x_);
    rows_.resize(kRows);
    for (size_t i = 0; i < kRows; ++i) rows_[i] = i;
    shuffled_ = rows_;
    for (size_t i = kRows; i > 1; --i) {
      std::swap(shuffled_[i - 1], shuffled_[rng.Index(i)]);
    }
  }

  static constexpr size_t kRows = 203;
  static constexpr size_t kFeats = 7;
  static constexpr size_t kClasses = 3;
  Matrix x_;
  std::vector<size_t> y_;
  FeatureTable ft_;
  std::vector<size_t> rows_;      // identity -> contiguous fast path
  std::vector<size_t> shuffled_;  // forces the indexed path
};

TEST_F(HistKernelTest, ClassScanBitIdenticalToLegacyOnBothPaths) {
  for (const auto* order : {&rows_, &shuffled_}) {
    for (size_t begin : {size_t{0}, size_t{13}}) {
      const size_t end = begin == 0 ? kRows : kRows - 6;
      RowStage st;
      st.Stage(*order, y_, begin, end);
      // Any identity run is contiguous, even one starting mid-array;
      // the fixed-seed shuffle is not, so both kernel paths execute.
      EXPECT_EQ(order == &rows_, st.contiguous);
      for (size_t f = 0; f < kFeats; ++f) {
        std::vector<int64_t> got(FeatureTable::kMaxBins * kClasses, 0);
        std::vector<int64_t> want(FeatureTable::kMaxBins * kClasses, 0);
        uint16_t glo, ghi, wlo, whi;
        ClassScan(ft_.column(f), st, kClasses, got.data(), &glo, &ghi);
        bench::LegacyClassScan(ft_.column(f), *order, y_, begin, end,
                               kClasses, want.data(), &wlo, &whi);
        EXPECT_EQ(wlo, glo);
        EXPECT_EQ(whi, ghi);
        ASSERT_EQ(want, got) << "f=" << f;
        // Span audit: zeroing exactly [lo, hi] must clear every touched
        // bin — a span one bin short leaks counts into the next scan.
        std::fill(got.data() + glo * kClasses,
                  got.data() + (ghi + 1) * kClasses, int64_t{0});
        for (int64_t v : got) ASSERT_EQ(0, v);
      }
    }
  }
}

TEST_F(HistKernelTest, ClassScanConstantColumnOccupiesExactlyOneBin) {
  RowStage st;
  st.Stage(rows_, y_, 0, kRows);
  std::vector<int64_t> hist(FeatureTable::kMaxBins * kClasses, 0);
  uint16_t lo, hi;
  ClassScan(ft_.column(kFeats - 1), st, kClasses, hist.data(), &lo, &hi);
  EXPECT_EQ(lo, hi);
  int64_t total = 0;
  for (size_t c = 0; c < kClasses; ++c) total += hist[lo * kClasses + c];
  EXPECT_EQ(static_cast<int64_t>(kRows), total);
}

TEST_F(HistKernelTest, PairScanBitIdenticalToLegacyOnBothPaths) {
  Rng rng(99);
  std::vector<int64_t> gh(2 * kRows), grad(kRows), hess(kRows);
  for (size_t i = 0; i < kRows; ++i) {
    grad[i] = QuantizeGradHess(rng.Gaussian(0.0, 1.0));
    hess[i] = QuantizeGradHess(rng.Uniform(0.05, 1.0));
    gh[2 * i] = grad[i];
    gh[2 * i + 1] = hess[i];
  }
  for (const auto* order : {&rows_, &shuffled_}) {
    RowStage st;
    st.StageRows(*order, 0, kRows);
    for (size_t f = 0; f < kFeats; ++f) {
      std::vector<int64_t> got(FeatureTable::kMaxBins * 2, 0);
      std::vector<int64_t> want(FeatureTable::kMaxBins * 2, 0);
      uint16_t glo, ghi, wlo, whi;
      PairScan(ft_.column(f), st, gh.data(), got.data(), &glo, &ghi);
      bench::LegacyPairScan(ft_.column(f), *order, grad, hess, 0, kRows,
                            want.data(), &wlo, &whi);
      EXPECT_EQ(wlo, glo);
      EXPECT_EQ(whi, ghi);
      ASSERT_EQ(want, got) << "f=" << f;
    }
  }
}

TEST_F(HistKernelTest, ColumnsAndPoolSlabsAreCacheLineAligned) {
  EXPECT_EQ(0u, ft_.row_stride() % kCacheLineBytes);
  for (size_t f = 0; f < kFeats; ++f) {
    EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(ft_.column(f)) %
                      kCacheLineBytes);
    // Zero padding past num_rows: the vectorised span pre-pass stops at
    // n, but stray nonzero padding would corrupt any full-stride sweep.
    for (size_t i = kRows; i < ft_.row_stride(); ++i) {
      EXPECT_EQ(0, ft_.column(f)[i]);
    }
  }
  std::vector<size_t> cols(kFeats);
  for (size_t f = 0; f < kFeats; ++f) cols[f] = f;
  NodeHistogramPool pool(ft_, cols, kClasses);
  const size_t slot = pool.Acquire();
  EXPECT_EQ(0u, reinterpret_cast<uintptr_t>(pool.hist(slot)) %
                    kCacheLineBytes);

  for (size_t n : {1u, 3u, 8u, 9u, 64u, 65u}) {
    AlignedBuffer<double> buf(n);
    EXPECT_EQ(0u,
              reinterpret_cast<uintptr_t>(buf.data()) % kCacheLineBytes);
  }
}

// ---------------------------------------------------------------------------
// Visibility-scan kernels vs inline scalar references
// ---------------------------------------------------------------------------

size_t RefArgMax(const double* s, size_t l, size_t r) {
  size_t k = l;
  for (size_t i = l + 1; i <= r; ++i) {
    if (s[i] > s[k]) k = i;
  }
  return k;
}

std::vector<size_t> RefVisibleRight(const double* s, size_t k, size_t r) {
  std::vector<size_t> out;
  double run = -kInf;
  for (size_t j = k + 1; j <= r; ++j) {
    const double slope = (s[j] - s[k]) / static_cast<double>(j - k);
    if (slope > run) out.push_back(j);
    run = std::max(run, slope);
  }
  return out;
}

std::vector<size_t> RefVisibleLeft(const double* s, size_t l, size_t k) {
  std::vector<size_t> out;
  double run = -kInf;
  for (size_t i = k; i-- > l;) {
    const double slope = (s[i] - s[k]) / static_cast<double>(k - i);
    if (slope > run) out.push_back(i);
    run = std::max(run, slope);
  }
  return out;
}

/// ~100-series corpus over four generator families with non-lane-multiple
/// lengths; a few series get NaN/±inf/denormal values spliced in (the
/// scan kernels must handle them bit-identically to the scalar loops —
/// the full builders are compared on the finite series only, since the
/// naive reference builder is the semantic anchor there).
std::vector<Series> ScanCorpus() {
  std::vector<Series> corpus;
  const size_t lengths[] = {5, 9, 31, 64, 127, 130};
  size_t seed = 100;
  for (size_t n : lengths) {
    corpus.push_back(GaussianNoise(n, seed++));
    corpus.push_back(RandomWalk(n, seed++));
    corpus.push_back(Sine(n, 16.5, 2.0));
    corpus.push_back(LogisticMap(n, 3.9, 0.37 + 0.01 * double(seed % 7)));
  }
  for (size_t rep = 0; rep < 71; ++rep) {
    corpus.push_back(GaussianNoise(33 + rep * 3 + rep % 5, 500 + rep));
  }
  // Structured edge cases.
  corpus.push_back(Series(37, 1.25));                    // constant
  corpus.push_back([] {                                  // strictly rising
    Series s(41);
    for (size_t i = 0; i < s.size(); ++i) s[i] = static_cast<double>(i);
    return s;
  }());
  corpus.push_back([] {                                  // strictly falling
    Series s(43);
    for (size_t i = 0; i < s.size(); ++i) s[i] = -static_cast<double>(i);
    return s;
  }());
  // Special-value splices.
  Series weird = GaussianNoise(61, 901);
  weird[3] = kNaN;
  weird[17] = kInf;
  weird[29] = -kInf;
  weird[45] = kDenorm;
  weird[46] = -0.0;
  corpus.push_back(weird);
  Series nan_head = GaussianNoise(33, 902);
  nan_head[0] = kNaN;  // forces RangeArgMax's scalar fallback
  corpus.push_back(nan_head);
  return corpus;
}

bool IsFiniteSeries(const Series& s) {
  return std::all_of(s.begin(), s.end(),
                     [](double v) { return std::isfinite(v); });
}

TEST(VgKernelTest, ScanKernelsMatchScalarReferenceOverCorpus) {
  const std::vector<Series> corpus = ScanCorpus();
  ASSERT_GE(corpus.size(), 100u);
  for (const Series& s : corpus) {
    const size_t n = s.size();
    // Several (l, r) windows per series, hitting lane-multiple and
    // non-multiple spans and both scan directions.
    const std::pair<size_t, size_t> windows[] = {
        {0, n - 1}, {1, n - 2}, {0, n / 2}, {n / 3, n - 1}, {2, 2}};
    for (const auto& [l, r] : windows) {
      if (l > r || r >= n) continue;
      EXPECT_EQ(RefArgMax(s.data(), l, r), RangeArgMax(s.data(), l, r));
      const size_t k = RefArgMax(s.data(), l, r);
      std::vector<size_t> got;
      if (k < r) {
        VisibleRight(s.data(), k, r, [&](size_t j) { got.push_back(j); });
        EXPECT_EQ(RefVisibleRight(s.data(), k, r), got);
      }
      got.clear();
      if (k > l) {
        VisibleLeft(s.data(), l, k, [&](size_t i) { got.push_back(i); });
        EXPECT_EQ(RefVisibleLeft(s.data(), l, k), got);
      }
    }
  }
}

void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (Graph::VertexId v = 0; v < a.num_vertices(); ++v) {
    const auto& na = a.Neighbors(v);
    const auto& nb = b.Neighbors(v);
    ASSERT_EQ(na.size(), nb.size()) << "v=" << v;
    for (size_t i = 0; i < na.size(); ++i) {
      ASSERT_EQ(na[i], nb[i]) << "v=" << v;
    }
  }
}

TEST(VgKernelTest, BuildersMatchNaiveReferenceOverCorpus) {
  for (const Series& s : ScanCorpus()) {
    if (!IsFiniteSeries(s) || s.size() < 2) continue;
    ExpectSameGraph(BuildVisibilityGraph(s, VgAlgorithm::kNaive),
                    BuildVisibilityGraph(s, VgAlgorithm::kDivideConquer));
    ExpectSameGraph(BuildHorizontalVisibilityGraphNaive(s),
                    BuildHorizontalVisibilityGraph(s));
  }
}

TEST(VgKernelTest, LegacyScanStageAgreesWithVectorScanStage) {
  // The perf gate's scalar reference must count exactly the edges the
  // vector kernels emit, or the gate would compare different work.
  for (const Series& s : ScanCorpus()) {
    const size_t n = s.size();
    const size_t k = RangeArgMax(s.data(), 0, n - 1);
    size_t edges = 0;
    if (k < n - 1) {
      VisibleRight(s.data(), k, n - 1, [&](size_t) { ++edges; });
    }
    if (k > 0) {
      VisibleLeft(s.data(), 0, k, [&](size_t) { ++edges; });
    }
    EXPECT_EQ(bench::LegacyVisibilityScanStage(s.data(), 0, n - 1),
              edges + k);
  }
}

// ---------------------------------------------------------------------------
// Sorted-set kernels (graph stats / motifs)
// ---------------------------------------------------------------------------

TEST(GraphKernelTest, CountSortedIntersectionMatchesSetIntersection) {
  Rng rng(1234);
  for (int trial = 0; trial < 300; ++trial) {
    const size_t na = rng.Index(41);
    const size_t nb = rng.Index(41);
    std::set<Graph::VertexId> sa, sb;
    while (sa.size() < na) {
      sa.insert(static_cast<Graph::VertexId>(rng.Index(120)));
    }
    while (sb.size() < nb) {
      sb.insert(static_cast<Graph::VertexId>(rng.Index(120)));
    }
    const std::vector<Graph::VertexId> a(sa.begin(), sa.end());
    const std::vector<Graph::VertexId> b(sb.begin(), sb.end());
    std::vector<Graph::VertexId> want;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(want));
    EXPECT_EQ(static_cast<int64_t>(want.size()),
              CountSortedIntersection(a.data(), a.size(), b.data(),
                                      b.size()))
        << "trial " << trial;
  }
}

TEST(GraphKernelTest, FirstGreaterMatchesUpperBound) {
  Rng rng(555);
  for (int trial = 0; trial < 100; ++trial) {
    std::set<Graph::VertexId> sv;
    const size_t n = rng.Index(30);
    while (sv.size() < n) {
      sv.insert(static_cast<Graph::VertexId>(rng.Index(60)));
    }
    const std::vector<Graph::VertexId> v(sv.begin(), sv.end());
    for (Graph::VertexId x = 0; x < 62; ++x) {
      const auto it = std::upper_bound(v.begin(), v.end(), x);
      EXPECT_EQ(static_cast<size_t>(it - v.begin()),
                FirstGreater(v.data(), v.size(), x));
    }
  }
}

}  // namespace
}  // namespace mvg
