#ifndef MVG_ML_FEATURE_TABLE_H_
#define MVG_ML_FEATURE_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/classifier.h"
#include "util/aligned_buffer.h"
#include "util/simd.h"

namespace mvg {

/// Column-major, quantile-binned view of a (subset of a) row-major Matrix.
///
/// Build() transposes the selected rows once and quantizes every feature
/// into at most kMaxBins bins: when a feature has <= kMaxBins distinct
/// values the bins are exact (one per value, cut points at midpoints of
/// consecutive distinct values, so histogram split finding enumerates
/// every distinct-value boundary an exact pre-sorted sweep would);
/// otherwise cut points are taken at evenly spaced ranks of the sorted
/// values. The cuts are QuantileSketch::ComputeCuts over a one-block
/// sketch of the column, which holds the column exactly.
///
/// Rows are addressed by *compact* index 0..num_rows()-1 in the order they
/// were passed to Build(); source_row() maps back to the original Matrix
/// row. Bin ids are uint8, so one table costs num_features x num_rows
/// bytes — cheap enough to build once per fit (or once per forest) and
/// share read-only across trees and threads.
class FeatureTable {
 public:
  static constexpr size_t kMaxBins = 256;

  FeatureTable() = default;

  /// Builds the binned view of x restricted to `rows` (original row
  /// indices; must be non-empty, duplicates allowed). Throws
  /// std::invalid_argument on an empty row set or rows of differing
  /// widths.
  void Build(const Matrix& x, const std::vector<size_t>& rows);

  /// Convenience: all rows of x.
  void Build(const Matrix& x);

  /// Initializes the table from externally computed cut points (the
  /// streaming sketch path: CutSketcher::Finish supplies cuts from one
  /// pass, then rows are binned in as they stream by again). Allocates
  /// `num_rows` zeroed row slots; fill them with BinRowInto / CopyRow.
  /// `cut_offset` must have one entry per feature plus one, and each
  /// feature's cut range must be strictly increasing.
  void InitFromCuts(std::vector<double> cuts, std::vector<size_t> cut_offset,
                    size_t num_rows);

  /// Bin id of a raw value under feature f — the same lower-bound routing
  /// the builder applies: index of the first cut >= value, so
  /// `BinValue(f, v) <= b` iff `v <= threshold(f, b)`.
  uint8_t BinValue(size_t f, double value) const {
    const double* cuts_f = cuts_.data() + cut_offset_[f];
    const size_t num_cuts = cut_offset_[f + 1] - cut_offset_[f];
    return static_cast<uint8_t>(
        std::lower_bound(cuts_f, cuts_f + num_cuts, value) - cuts_f);
  }

  /// Bins one feature row into row slot i. Features at index >= len read
  /// 0.0 — the ExtractAll zero-padding semantics, so short rows bin
  /// exactly as their padded matrix rows would.
  void BinRowInto(const double* row, size_t len, size_t i);

  /// Copies the bin cells of row slot `src` into row slot `dst` across
  /// all features (how oversample duplicates are realised without
  /// re-extracting the series).
  void CopyRow(size_t src, size_t dst);

  /// Writes a raw-valued stand-in for compact row i into `out` (resized
  /// to num_features()): bin b maps to threshold(f, b) for b < num_bins-1
  /// and to just above the last cut otherwise. Because tree split
  /// thresholds are always cut values, routing this row through any
  /// histogram-trained tree takes exactly the branches row i's source
  /// values would — it makes binned cross-validation scoring exact, not
  /// approximate.
  void RepresentativeRowInto(size_t i, std::vector<double>* out) const;

  size_t num_rows() const { return num_rows_; }
  size_t num_features() const { return num_features_; }

  /// Number of bins of feature f (>= 1; 1 means the feature is constant).
  size_t num_bins(size_t f) const {
    return cut_offset_[f + 1] - cut_offset_[f] + 1;
  }

  /// Bin id of compact row i under feature f.
  uint8_t bin(size_t f, size_t i) const {
    return bins_[f * row_stride_ + i];
  }

  /// Contiguous bin-id column of feature f (num_rows() live entries). Every
  /// column starts on a cache line and is padded to a whole number of cache
  /// lines with zero bytes (see row_stride()), so vector loads over a
  /// column never split a line and tail over-reads stay in-allocation.
  const uint8_t* column(size_t f) const {
    return bins_.data() + f * row_stride_;
  }

  /// Bytes between consecutive columns: num_rows() rounded up to a whole
  /// number of cache lines. Bytes in [num_rows(), row_stride()) of each
  /// column are zero.
  size_t row_stride() const { return row_stride_; }

  /// Real-valued threshold realising the split "bin <= b goes left": every
  /// training value in bins 0..b is <= threshold(f, b) and every value in
  /// bins b+1.. is > it. Valid for b in [0, num_bins(f) - 2].
  double threshold(size_t f, size_t b) const {
    return cuts_[cut_offset_[f] + b];
  }

  /// Original Matrix row behind compact row i.
  size_t source_row(size_t i) const { return src_rows_[i]; }
  const std::vector<size_t>& source_rows() const { return src_rows_; }

 private:
  size_t num_rows_ = 0;
  size_t num_features_ = 0;
  size_t row_stride_ = 0;           ///< padded column stride, in bytes.
  AlignedBuffer<uint8_t> bins_;     ///< column-major, f * row_stride_ + i.
  std::vector<double> cuts_;        ///< strictly increasing cut points, flat.
  std::vector<size_t> cut_offset_;  ///< per-feature offset into cuts_ (d+1).
  std::vector<size_t> src_rows_;    ///< compact index -> original row.
};

/// Free-list pool of flat per-node histograms for the boosting tree
/// builder. One histogram holds, for every tracked column slot,
/// num_bins(col) bins of `width` int64 cells each (the 2 fixed-point
/// grad/hess sums of ml/hist_kernels.h for boosting). The pool owns the
/// engine-critical invariants:
///
///  * every free-listed (and freshly acquired) buffer is all-zero;
///    callers accumulate straight into an Acquire()d buffer and record
///    the dirty per-slot bin span through lo()/hi(); Release() zeroes
///    exactly that span, so small deep nodes never touch the full global
///    histogram width;
///  * SubtractInto(buf, sub) derives a sibling histogram in place over
///    buf's dirty span (sub's rows are a subset of buf's, so sub's span
///    lies inside it; sub's cells outside its own span are zero by the
///    invariant above). Integer subtraction is exact: the derived
///    sibling equals a direct scan of its rows, cell for cell, so its
///    empty bins are exactly zero.
///
/// At most tree-depth + 1 buffers are ever live.
///
/// Slab ownership: the pool owns its slabs while it lives. When it is
/// destroyed, its free-listed slabs (all-zero by the invariant; a slab
/// still live after an exception is simply freed) go to a cache owned by
/// the calling thread, and Acquire() takes from that cache before it
/// allocates. A cached slab keeps its size; one smaller than the new
/// pool's hist_size() is zero-extended (reallocated zeroed), a larger one
/// is used as is — the bytes past hist_size() are zero and stay untouched.
/// Without the cache every tree allocated and zeroed its own slabs (a GBT
/// fit builds thousands of trees, each with up to depth + 1 slabs of
/// 100-300 KB), and the freed slabs fragmented the heap, so the process's
/// peak RSS climbed with every refit. The cache is per thread because a
/// tree is built start to finish on one thread — the next tree on that
/// thread reuses the slabs with no locking — and it is capped at
/// kSlabCacheBytes (and 16 slabs) per thread, so a pool with wide slabs
/// (a wider `width`, more columns) cannot pin an unbounded amount of
/// memory for the thread's lifetime.
class NodeHistogramPool {
 public:
  static constexpr size_t kNone = static_cast<size_t>(-1);
  /// Byte cap of one thread's cache of returned slabs.
  static constexpr size_t kSlabCacheBytes = size_t{4} << 20;

  /// `cols[j]` is the FeatureTable column behind slot j.
  NodeHistogramPool(const FeatureTable& ft, const std::vector<size_t>& cols,
                    size_t width)
      : width_(width) {
    offsets_.resize(cols.size());
    size_t total_bins = 0;
    for (size_t j = 0; j < cols.size(); ++j) {
      offsets_[j] = total_bins;
      total_bins += ft.num_bins(cols[j]);
    }
    hist_size_ = total_bins * width;
  }
  ~NodeHistogramPool();
  NodeHistogramPool(const NodeHistogramPool&) = delete;
  NodeHistogramPool& operator=(const NodeHistogramPool&) = delete;

  /// Bytes of slabs cached for the calling thread (<= kSlabCacheBytes).
  static size_t CachedBytes();

  /// Cells per histogram (all slots).
  size_t hist_size() const { return hist_size_; }

  /// Start of slot j inside a histogram, in cells.
  size_t slot_offset(size_t j) const { return offsets_[j] * width_; }

  int64_t* hist(size_t b) { return pool_[b].data(); }
  uint16_t* lo(size_t b) { return lo_[b].data(); }
  uint16_t* hi(size_t b) { return hi_[b].data(); }

  size_t Acquire() {
    if (free_list_.empty()) {
      pool_.push_back(TakeCachedSlab(hist_size_));  // 64B slab, all-zero.
      lo_.emplace_back(offsets_.size());
      hi_.emplace_back(offsets_.size());
      free_list_.push_back(pool_.size() - 1);
    }
    const size_t b = free_list_.back();
    free_list_.pop_back();
    return b;
  }

  void Release(size_t b) {
    int64_t* h = pool_[b].data();
    for (size_t j = 0; j < offsets_.size(); ++j) {
      int64_t* base = h + offsets_[j] * width_;
      const size_t lo = lo_[b][j], hi = hi_[b][j];
      if (lo <= hi) {
        std::fill(base + lo * width_, base + (hi + 1) * width_, int64_t{0});
      }
    }
    free_list_.push_back(b);
  }

  void SubtractInto(size_t buf, size_t sub) {
    int64_t* a = pool_[buf].data();
    const int64_t* b = pool_[sub].data();
    for (size_t j = 0; j < offsets_.size(); ++j) {
      const size_t base = offsets_[j] * width_;
      const size_t lo = lo_[buf][j], hi = hi_[buf][j];
      size_t i = base + lo * width_;
      const size_t end = base + (hi + 1) * width_;
      for (; i + 2 <= end; i += 2) {
        (simd::I64x2::Load(a + i) - simd::I64x2::Load(b + i)).Store(a + i);
      }
      for (; i < end; ++i) a[i] -= b[i];
    }
  }

  /// Histogram buffers for the two children of a split node; kNone means
  /// "none assigned — scan lazily if the child actually needs one".
  struct ChildBuffers {
    size_t left = kNone;
    size_t right = kNone;
  };

  /// Plans the children's histograms after a split of rows[begin, end) at
  /// `mid`, consuming the parent's buffer `buf`. Sibling subtraction pays
  /// when deriving the larger child from the parent is cheaper than
  /// rescanning it (`work_per_row` = per-row scan cost in tracked
  /// columns): the smaller child is scanned via `scan(begin, end, buf)`
  /// and its sibling derived in place into the parent's buffer. In the
  /// small-node regime the parent's buffer is released instead and both
  /// children come back as kNone.
  template <typename ScanFn>
  ChildBuffers PlanChildren(size_t buf, size_t begin, size_t mid, size_t end,
                            size_t work_per_row, ScanFn&& scan) {
    const size_t larger_n = std::max(mid - begin, end - mid);
    if (hist_size_ > 2 * larger_n * work_per_row) {
      Release(buf);
      return {};
    }
    const size_t cbuf = Acquire();
    if (mid - begin <= end - mid) {
      scan(begin, mid, cbuf);
      SubtractInto(buf, cbuf);
      return {cbuf, buf};
    }
    scan(mid, end, cbuf);
    SubtractInto(buf, cbuf);
    return {buf, cbuf};
  }

 private:
  /// An all-zero slab of at least n cells: from this thread's cache
  /// when it holds one, freshly allocated otherwise.
  static AlignedBuffer<int64_t> TakeCachedSlab(size_t n);

  size_t width_ = 0;
  size_t hist_size_ = 0;
  std::vector<size_t> offsets_;  ///< per-slot bin offset.
  std::vector<AlignedBuffer<int64_t>> pool_;
  std::vector<std::vector<uint16_t>> lo_, hi_;
  std::vector<size_t> free_list_;
};

/// Stable in-place partition of rows[begin, end) on `col[r] <= bin` (left
/// rows compact forward, right rows stage through `scratch` and append);
/// returns the boundary index. Shared by the tree engines so both keep the
/// same order-determinism guarantee.
inline size_t StablePartitionRows(std::vector<size_t>& rows,
                                  std::vector<size_t>& scratch, size_t begin,
                                  size_t end, const uint8_t* col, size_t bin) {
  size_t w = begin, staged = 0;
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    if (col[r] <= bin) {
      rows[w++] = r;
    } else {
      scratch[staged++] = r;
    }
  }
  std::copy(scratch.begin(), scratch.begin() + static_cast<std::ptrdiff_t>(staged),
            rows.begin() + static_cast<std::ptrdiff_t>(w));
  return w;
}

}  // namespace mvg

#endif  // MVG_ML_FEATURE_TABLE_H_
