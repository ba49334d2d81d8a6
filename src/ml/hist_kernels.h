#ifndef MVG_ML_HIST_KERNELS_H_
#define MVG_ML_HIST_KERNELS_H_

// Histogram-accumulation kernels shared by the decision-tree and GBT
// engines, written on util/simd.h so the vector and scalar builds are the
// same code path (and therefore bit-identical — see the determinism notes
// on each kernel).
//
// Layout contract: `col` is a FeatureTable column (cache-line aligned,
// zero-padded to row_stride()); `base` is the bin-major histogram slot
// (`k` int64 class counts, or one fixed-point grad/hess pair, per bin);
// GBT slots live inside a 64-byte pool slab. Every cell is an int64 sum,
// so both engines' histograms are exact for any row order. A node's rows are
// staged once per scan into 32-bit row/class arrays (RowStage), amortising
// the narrowing over all scanned features; the root node's rows are the
// identity permutation, which the stage detects and routes to the
// contiguous kernels (no per-row index load, vectorised bin-span pre-pass,
// 4 or 8 rows per iteration).

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/simd.h"

namespace mvg {

/// Fixed point of the GBT histograms: every per-row gradient and hessian
/// is quantized once to int64 at scale 2^40, and every histogram cell,
/// sibling subtraction, node total and split-search prefix is an int64
/// sum. Integer sums are exact and associative, so a histogram does not
/// depend on row order, on which rows a sibling was derived from, or on
/// how the rows were split across distributed ranks. The scale is chosen
/// so (a) the hessian floor 1e-12 still quantizes to a nonzero value
/// (1e-12 * 2^40 ~= 1.0995 -> 1), which makes "the bin holds rows" the
/// same as "its hessian is non-zero", and (b) int64 sums cannot overflow
/// for any realistic node: |grad| <= 1 and hess <= 0.25 per row, so ~8.4M
/// rows fit before |sum| could approach 2^63.
inline constexpr double kGradHessScale = 1099511627776.0;  // 2^40

inline int64_t QuantizeGradHess(double v) {
  return std::llround(v * kGradHessScale);
}

inline double DequantizeGradHess(int64_t q) {
  return static_cast<double>(q) / kGradHessScale;
}

/// Min/max bin id over a contiguous u8 column span — the occupied-bin
/// bounds [lo, hi] the sweep and Release use. 16 bytes per iteration with
/// a scalar tail (the tail never reads past n: padding stays untouched, so
/// zero-padding cannot widen the span). Requires n > 0.
MVG_NO_AUTOVEC inline void U8Span(const uint8_t* p, size_t n, uint16_t* plo,
                                  uint16_t* phi) {
  assert(n > 0);
  uint8_t mn = 0xff, mx = 0;
  size_t i = 0;
  if (n >= 16) {
    simd::U8x16 vmn = simd::U8x16::Load(p);
    simd::U8x16 vmx = vmn;
    for (i = 16; i + 16 <= n; i += 16) {
      const simd::U8x16 v = simd::U8x16::Load(p + i);
      vmn = MinU8(vmn, v);
      vmx = MaxU8(vmx, v);
    }
    mn = ReduceMinU8(vmn);
    mx = ReduceMaxU8(vmx);
  }
  for (; i < n; ++i) {
    mn = std::min(mn, p[i]);
    mx = std::max(mx, p[i]);
  }
  *plo = mn;
  *phi = mx;
}

/// One node's rows, staged as 32-bit ids. `contiguous` marks runs
/// rows[begin+i] == rows[begin] + i (the root node, and any node whose
/// partition happened to keep a prefix run), which the scan kernels turn
/// into direct column walks.
struct RowStage {
  AlignedBuffer<uint32_t> r32;  ///< compact row ids.
  AlignedBuffer<uint32_t> y32;  ///< class id per staged row (class scans).
  size_t n = 0;
  bool contiguous = false;
  uint32_t first = 0;

  /// Row ids and their classes (the class scans), keeping the owned rows
  /// as StageRows does; y is read through the staged row ids.
  void Stage(const std::vector<size_t>& rows, const std::vector<size_t>& y,
             size_t begin, size_t end, size_t own_begin = 0,
             size_t own_end = SIZE_MAX) {
    StageRows(rows, begin, end, own_begin, own_end);
    y32.ResetUninit(n);
    const uint32_t* rp = r32.data();
    uint32_t* yp = y32.data();
    for (size_t i = 0; i < n; ++i) yp[i] = static_cast<uint32_t>(y[rp[i]]);
  }

  /// Row ids only (the GBT pair scans index grad/hess by row directly),
  /// keeping the rows in [own_begin, own_end): a distributed rank's owned
  /// slice. The default range keeps every row.
  void StageRows(const std::vector<size_t>& rows, size_t begin, size_t end,
                 size_t own_begin = 0, size_t own_end = SIZE_MAX) {
    r32.ResetUninit(end - begin);
    uint32_t* rp = r32.data();
    size_t m = 0, f0 = 0;
    bool contig = true;
    for (size_t i = begin; i < end; ++i) {
      const size_t r = rows[i];
      if (r < own_begin || r >= own_end) continue;
      assert(r <= UINT32_MAX);
      if (m == 0) f0 = r;
      contig = contig && r == f0 + m;
      rp[m++] = static_cast<uint32_t>(r);
    }
    n = m;
    contiguous = contig;
    first = static_cast<uint32_t>(f0);
  }
};

/// Class-count scan of one feature column: base[col[r]*k + y[r]] += 1
/// over the staged rows, occupied span into *plo/*phi. The cells are int64
/// counts, so the accumulation is exact and order-free — any schedule
/// produces the same histogram. That freedom is spent twice on the
/// contiguous path: the vector work is the index computation (gather-free
/// u8 widening, two 4-row index vectors per iteration, which measured
/// about 15% faster than one on AVX2), and the per-row increment lands in
/// u32 counters (1-cycle increments, short store-forward chains) added
/// into the int64 cells once per occupied bin at the end — exact for any
/// node size, since RowStage row ids are 32-bit.
MVG_NO_AUTOVEC inline void ClassScan(const uint8_t* col, const RowStage& st,
                                     size_t k, int64_t* base, uint16_t* plo,
                                     uint16_t* phi) {
  const size_t n = st.n;
  if (n == 0) {
    *plo = 0xffff;
    *phi = 0;
    return;
  }
  const uint32_t* y32 = st.y32.data();
  if (st.contiguous) {
    const uint8_t* c = col + st.first;
    U8Span(c, n, plo, phi);
    const size_t span_begin = static_cast<size_t>(*plo) * k;
    const size_t span_end = (static_cast<size_t>(*phi) + 1) * k;
    thread_local std::vector<uint32_t> counts;
    if (counts.size() < span_end) counts.resize(span_end);
    std::fill(counts.begin() + static_cast<std::ptrdiff_t>(span_begin),
              counts.begin() + static_cast<std::ptrdiff_t>(span_end), 0u);
    uint32_t* cnt = counts.data();
    const simd::I32x4 vk = simd::I32x4::Broadcast(static_cast<int32_t>(k));
    alignas(16) int32_t idx[8];
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      (simd::I32x4::WidenU8x4(c + i) * vk + simd::I32x4::Load(y32 + i))
          .Store(idx);
      (simd::I32x4::WidenU8x4(c + i + 4) * vk +
       simd::I32x4::Load(y32 + i + 4))
          .Store(idx + 4);
      ++cnt[idx[0]];
      ++cnt[idx[1]];
      ++cnt[idx[2]];
      ++cnt[idx[3]];
      ++cnt[idx[4]];
      ++cnt[idx[5]];
      ++cnt[idx[6]];
      ++cnt[idx[7]];
    }
    for (; i < n; ++i) {
      ++cnt[static_cast<size_t>(c[i]) * k + y32[i]];
    }
    for (size_t j = span_begin; j < span_end; ++j) base[j] += cnt[j];
    return;
  }
  const uint32_t* r32 = st.r32.data();
  uint32_t mn = 0xffff, mx = 0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const uint32_t b0 = col[r32[i]], b1 = col[r32[i + 1]];
    const uint32_t b2 = col[r32[i + 2]], b3 = col[r32[i + 3]];
    mn = std::min(std::min(mn, b0), std::min(b1, std::min(b2, b3)));
    mx = std::max(std::max(mx, b0), std::max(b1, std::max(b2, b3)));
    base[b0 * k + y32[i]] += 1;
    base[b1 * k + y32[i + 1]] += 1;
    base[b2 * k + y32[i + 2]] += 1;
    base[b3 * k + y32[i + 3]] += 1;
  }
  for (; i < n; ++i) {
    const uint32_t b = col[r32[i]];
    mn = std::min(mn, b);
    mx = std::max(mx, b);
    base[b * k + y32[i]] += 1;
  }
  *plo = static_cast<uint16_t>(mn);
  *phi = static_cast<uint16_t>(mx);
}

/// Grad/hess pair scan of one feature column for the GBT engine:
/// base[col[r]*2] += gh[2r], base[col[r]*2 + 1] += gh[2r+1], where gh is
/// the row-interleaved fixed-point grad/hess array (one cache line serves
/// both halves) and the cells are int64. The vector work is the index
/// computation and the paired two-lane integer add; integer sums are
/// exact, so any row order gives the same histogram.
MVG_NO_AUTOVEC inline void PairScan(const uint8_t* col, const RowStage& st,
                                    const int64_t* gh, int64_t* base,
                                    uint16_t* plo, uint16_t* phi) {
  const size_t n = st.n;
  if (n == 0) {
    *plo = 0xffff;
    *phi = 0;
    return;
  }
  if (st.contiguous) {
    const uint8_t* c = col + st.first;
    U8Span(c, n, plo, phi);
    const int64_t* g = gh + 2 * static_cast<size_t>(st.first);
    const simd::I32x4 two = simd::I32x4::Broadcast(2);
    alignas(16) int32_t idx[4];
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      (simd::I32x4::WidenU8x4(c + i) * two).Store(idx);
      for (size_t j = 0; j < 4; ++j) {
        int64_t* cell = base + idx[j];
        (simd::I64x2::Load(cell) + simd::I64x2::Load(g + 2 * (i + j)))
            .Store(cell);
      }
    }
    for (; i < n; ++i) {
      int64_t* cell = base + static_cast<size_t>(c[i]) * 2;
      (simd::I64x2::Load(cell) + simd::I64x2::Load(g + 2 * i)).Store(cell);
    }
    return;
  }
  const uint32_t* r32 = st.r32.data();
  uint32_t mn = 0xffff, mx = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = r32[i];
    const uint32_t b = col[r];
    mn = std::min(mn, b);
    mx = std::max(mx, b);
    int64_t* cell = base + static_cast<size_t>(b) * 2;
    const int64_t* row = gh + 2 * static_cast<size_t>(r);
    (simd::I64x2::Load(cell) + simd::I64x2::Load(row)).Store(cell);
  }
  *plo = static_cast<uint16_t>(mn);
  *phi = static_cast<uint16_t>(mx);
}

/// Node-level constants of the GBT split gain
///   0.5 * (gl^2/(hl+lambda) + gr^2/(hr+lambda) - parent_score),
/// with gr = g_sum - gl and hr = h_sum - hl, all dequantized.
struct GainNode {
  double g_sum = 0.0;  ///< node gradient total.
  double h_sum = 0.0;  ///< node hessian total; NodeSplitSearch needs > 0.
  double lambda = 0.0;
  double min_child_weight = 0.0;
  double parent_score = 0.0;  ///< g_sum^2 / (h_sum + lambda).
};

/// One column slot of a GBT node histogram as NodeSplitSearch reads it:
/// `fh` holds the fixed-point (grad, hess) sums per bin, and the
/// candidate boundaries are "bin <= b goes left" for b in [lo, end). An
/// empty range (end <= lo) offers no boundary.
struct SplitSlot {
  const int64_t* fh = nullptr;
  size_t lo = 0;
  size_t end = 0;
};

/// Scratch of NodeSplitSearch, owned by the tree builder and reused for
/// every node: two compaction buffers of (gl, hl) pairs (the slot being
/// compacted, and the previous slot whose gains are being computed) plus
/// one slot's gains. Sized for the 256-bin maximum of a FeatureTable
/// column, which is a whole number of lanes.
struct SplitScratch {
  static constexpr size_t kMaxBoundaries = 256;
  AlignedBuffer<int64_t> pairs{2 * 2 * kMaxBoundaries};
  AlignedBuffer<double> gain{kMaxBoundaries};
};

/// NodeSplitSearch's "no slot beat the initial best gain".
inline constexpr size_t kNoSplit = static_cast<size_t>(-1);

/// Best split of one GBT node over its column slots, in (slot, bin)
/// order: returns the winning slot and sets *best_gain / *best_bin when
/// some boundary's gain strictly beats the incoming *best_gain, and
/// returns kNoSplit otherwise. Requires node.h_sum > 0, which every GBT
/// node has: each row's hessian quantizes to at least 1. Bit-exact
/// against the plain scalar loop (tests/split_search_oracle.h: per slot,
/// int64 prefix sums in bin order, dequantized; stop once the right side
/// is exhausted; skip bins with no rows; min_child_weight check; two
/// divisions; strict `>` against the running best across slots), in
/// three passes per slot:
///
///  1. prefix: one paired int64 (gl, hl) add per bin, in bin order. Every
///     pair is written to the scratch, and the write index advances only
///     past a bin with non-zero hessian — exactly the bins that hold
///     rows, since the sums are exact; an empty bin adds no new
///     partition — so the compaction takes no data-dependent branch. The
///     search stops where hr = h_sum - hl <= 0, and that stop moves onto
///     the compacted list: hl changes only at compacted entries, and
///     before the first one hr = h_sum > 0.
///  2. gain: four entries at a time on simd::F64x4. Only here, once per
///     occupied bin, are gl and hl dequantized; then come the same IEEE
///     operations as the scalar expression (util/simd.h contract; the
///     expression has no multiply-add to contract). A lane failing
///     min_child_weight, at or past the first exhausted entry, or past
///     the last entry becomes -inf, which never wins a strict `>`.
///  3. argmax: a running lane-wise max seeded with the best gain so far
///     (Max ignores NaN gains, as a strict `>` does); when it beats the
///     best, the first entry equal to it — the first strict improvement
///     of a scalar scan — and that entry's bin (the slot's i-th bin with
///     non-zero hessian) are looked up once.
///
/// Slot j's gain vectors are interleaved with slot j+1's prefix pass,
/// one vector per four bins: the prefix pass is a latency chain of adds
/// and the gains are bound by the divider, so the two overlap. Pass 2
/// reads entries compacted one slot earlier, whose stores have long
/// retired, so its loads never wait on store forwarding.
MVG_NO_AUTOVEC inline size_t NodeSplitSearch(const SplitSlot* slots,
                                             size_t num_slots,
                                             const GainNode& node,
                                             SplitScratch* s,
                                             double* best_gain,
                                             size_t* best_bin) {
  const simd::F64x4 g_sum = simd::F64x4::Broadcast(node.g_sum);
  const simd::F64x4 h_sum = simd::F64x4::Broadcast(node.h_sum);
  const simd::F64x4 lambda = simd::F64x4::Broadcast(node.lambda);
  const simd::F64x4 mcw = simd::F64x4::Broadcast(node.min_child_weight);
  const simd::F64x4 parent = simd::F64x4::Broadcast(node.parent_score);
  const simd::F64x4 half = simd::F64x4::Broadcast(0.5);
  const simd::F64x4 zero = simd::F64x4::Zero();
  const simd::F64x4 ninf =
      simd::F64x4::Broadcast(-std::numeric_limits<double>::infinity());
  // Times 2^-40, exact: the same bits as DequantizeGradHess's division.
  const simd::F64x4 unit = simd::F64x4::Broadcast(1.0 / kGradHessScale);
  const auto dequantize = [&](const int64_t* p) {
    return simd::F64x4::Set(
               static_cast<double>(p[0]), static_cast<double>(p[2]),
               static_cast<double>(p[4]), static_cast<double>(p[6])) *
           unit;
  };
  double* gains = s->gain.data();

  struct Compacted {
    int64_t* pairs;               ///< (gl, hl) per entry.
    const int64_t* fh = nullptr;  ///< the slot's histogram from bin lo.
    size_t lo = 0;                ///< the slot's first bin.
    size_t count = 0;             ///< entries (bins with non-zero hessian).
  };
  Compacted buf[2] = {
      {s->pairs.data()},
      {s->pairs.data() + 2 * SplitScratch::kMaxBoundaries}};

  size_t winner = kNoSplit;
  // Iteration j compacts slot j and scores slot j - 1 (both buffers
  // start empty, so iteration 0 scores nothing and iteration num_slots
  // only scores).
  for (size_t j = 0; j <= num_slots; ++j) {
    Compacted& cur = buf[j & 1];
    const Compacted& prev = buf[(j + 1) & 1];

    // Pass 2 state for slot j - 1: entries at or past `valid` are
    // masked; `valid` shrinks to the first exhausted entry.
    const size_t num_vecs = (prev.count + 3) / 4;
    size_t v = 0;
    size_t valid = prev.count;
    simd::F64x4 top = simd::F64x4::Broadcast(*best_gain);
    const auto gain_vec = [&] {
      const size_t i = 4 * v;
      const int64_t* p = prev.pairs + 2 * i;
      const simd::F64x4 l_g = dequantize(p);
      const simd::F64x4 l_h = dequantize(p + 1);
      const simd::F64x4 r_g = g_sum - l_g;
      const simd::F64x4 r_h = h_sum - l_h;
      simd::F64x4 gain =
          half * (l_g * l_g / (l_h + lambda) + r_g * r_g / (r_h + lambda) -
                  parent);
      gain = simd::Blend(simd::CmpLT(l_h, mcw), ninf, gain);
      gain = simd::Blend(simd::CmpLT(r_h, mcw), ninf, gain);
      const int exhausted = simd::MoveMask(simd::CmpGE(zero, r_h));
      if (exhausted != 0) {
        valid = std::min(valid, i + static_cast<size_t>(
                                        simd::FirstLane(exhausted)));
      }
      if (i + 4 > valid) {
        const simd::F64x4 lane = simd::F64x4::Set(0.0, 1.0, 2.0, 3.0) +
                                 simd::F64x4::Broadcast(static_cast<double>(i));
        const simd::F64x4 limit =
            simd::F64x4::Broadcast(static_cast<double>(valid));
        gain = simd::Blend(simd::CmpLT(lane, limit), gain, ninf);
      }
      gain.StoreAligned(gains + i);
      top = simd::Max(top, gain);
      ++v;
    };

    if (j < num_slots) {
      // Pass 1 for slot j, with slot j - 1's gain vectors riding along.
      const SplitSlot& slot = slots[j];
      const size_t len = slot.end > slot.lo ? slot.end - slot.lo : 0;
      assert(len <= SplitScratch::kMaxBoundaries);
      const int64_t* f = slot.fh + 2 * slot.lo;
      simd::I64x2 acc = simd::I64x2::Zero();
      int64_t* w = cur.pairs;  // next entry
      const auto step = [&](size_t t) {
        acc = acc + simd::I64x2::Load(f + 2 * t);
        acc.Store(w);
        w += f[2 * t + 1] != 0 ? 2 : 0;
      };
      size_t t = 0;
      for (; t + 4 <= len; t += 4) {
        step(t);
        step(t + 1);
        step(t + 2);
        step(t + 3);
        if (v < num_vecs) gain_vec();
      }
      for (; t < len; ++t) step(t);
      const size_t m = static_cast<size_t>(w - cur.pairs) / 2;
      // Pad to whole lanes: padded gains are computed, then masked.
      for (size_t i = m; i % 4 != 0; ++i) {
        cur.pairs[2 * i] = 0;
        cur.pairs[2 * i + 1] = 0;
      }
      cur.fh = f;
      cur.lo = slot.lo;
      cur.count = m;
    }
    while (v < num_vecs) gain_vec();

    // Pass 3 for slot j - 1.
    if (valid == 0) continue;
    const double best = simd::ReduceMaxOrdered(top);
    if (!(best > *best_gain)) continue;
    size_t i = 0;
    while (!(gains[i] == best)) ++i;
    *best_gain = gains[i];
    size_t b = 0;
    for (size_t seen = 0;; ++b) {
      if (prev.fh[2 * b + 1] != 0 && seen++ == i) break;
    }
    *best_bin = prev.lo + b;
    winner = j - 1;
  }
  return winner;
}

}  // namespace mvg

#endif  // MVG_ML_HIST_KERNELS_H_
