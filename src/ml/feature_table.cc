#include "ml/feature_table.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "ml/quantile_sketch.h"

namespace mvg {

void FeatureTable::Build(const Matrix& x) {
  std::vector<size_t> rows(x.size());
  std::iota(rows.begin(), rows.end(), size_t{0});
  Build(x, rows);
}

void FeatureTable::Build(const Matrix& x, const std::vector<size_t>& rows) {
  if (rows.empty()) {
    throw std::invalid_argument("FeatureTable: no rows");
  }
  const size_t d = x[rows[0]].size();
  for (size_t r : rows) {
    if (x[r].size() != d) {
      throw std::invalid_argument("FeatureTable: row width " +
                                  std::to_string(x[r].size()) + " != " +
                                  std::to_string(d));
    }
  }
  num_rows_ = rows.size();
  num_features_ = d;
  src_rows_ = rows;
  // Columns padded to whole cache lines (padding bytes zero) so vector
  // kernels get split-free, over-read-safe column access.
  row_stride_ = AlignedStride(num_rows_, sizeof(uint8_t));
  bins_.ResetZero(num_features_ * row_stride_);
  cuts_.clear();
  cut_offset_.assign(num_features_ + 1, 0);

  // A one-block sketch never compacts, so ComputeCuts sees the exact
  // sorted column.
  std::vector<double> column(num_rows_);
  for (size_t f = 0; f < num_features_; ++f) {
    for (size_t i = 0; i < num_rows_; ++i) column[i] = x[rows[i]][f];
    QuantileSketch sketch(std::max<size_t>(num_rows_, 2));
    sketch.AddBulk(column.data(), num_rows_);
    const std::vector<double> cuts = sketch.ComputeCuts(kMaxBins);
    cuts_.insert(cuts_.end(), cuts.begin(), cuts.end());
    cut_offset_[f + 1] = cuts_.size();

    // Bin id: index of the first cut >= value, so `bin <= b` is exactly
    // `value <= threshold(f, b)` — the routing Predict applies later.
    uint8_t* col = bins_.data() + f * row_stride_;
    for (size_t i = 0; i < num_rows_; ++i) col[i] = BinValue(f, column[i]);
  }
}

void FeatureTable::InitFromCuts(std::vector<double> cuts,
                                std::vector<size_t> cut_offset,
                                size_t num_rows) {
  if (cut_offset.size() < 2 || cut_offset.front() != 0 ||
      cut_offset.back() != cuts.size()) {
    throw std::invalid_argument("InitFromCuts: bad cut offsets");
  }
  if (num_rows == 0) throw std::invalid_argument("InitFromCuts: no rows");
  num_rows_ = num_rows;
  num_features_ = cut_offset.size() - 1;
  row_stride_ = AlignedStride(num_rows_, sizeof(uint8_t));
  bins_.ResetZero(num_features_ * row_stride_);
  cuts_ = std::move(cuts);
  cut_offset_ = std::move(cut_offset);
  src_rows_.resize(num_rows_);
  std::iota(src_rows_.begin(), src_rows_.end(), size_t{0});
}

void FeatureTable::BinRowInto(const double* row, size_t len, size_t i) {
  uint8_t* cells = bins_.data();
  for (size_t f = 0; f < num_features_; ++f) {
    cells[f * row_stride_ + i] = BinValue(f, f < len ? row[f] : 0.0);
  }
}

void FeatureTable::CopyRow(size_t src, size_t dst) {
  uint8_t* cells = bins_.data();
  for (size_t f = 0; f < num_features_; ++f) {
    cells[f * row_stride_ + dst] = cells[f * row_stride_ + src];
  }
}

void FeatureTable::RepresentativeRowInto(size_t i,
                                         std::vector<double>* out) const {
  out->resize(num_features_);
  for (size_t f = 0; f < num_features_; ++f) {
    const size_t nb = num_bins(f);
    const uint8_t b = bin(f, i);
    if (nb == 1) {
      // Constant feature: no cuts, no tree can split on it.
      (*out)[f] = 0.0;
    } else if (b + size_t{1} < nb) {
      (*out)[f] = threshold(f, b);
    } else {
      (*out)[f] = std::nextafter(threshold(f, nb - 2),
                                 std::numeric_limits<double>::infinity());
    }
  }
}

namespace {

/// One thread's cache of all-zero histogram slabs (see NodeHistogramPool).
/// A fixed array, so returning a slab never allocates (the pool returns
/// them from its destructor).
struct SlabCache {
  std::array<AlignedBuffer<int64_t>, 16> slabs;  ///< [0, count) are cached.
  size_t count = 0;
  size_t bytes = 0;
};

SlabCache& ThreadSlabCache() {
  thread_local SlabCache cache;
  return cache;
}

size_t SlabBytes(const AlignedBuffer<int64_t>& slab) {
  return slab.size() * sizeof(int64_t);
}

}  // namespace

NodeHistogramPool::~NodeHistogramPool() {
  SlabCache& cache = ThreadSlabCache();
  for (const size_t b : free_list_) {
    const size_t bytes = SlabBytes(pool_[b]);
    if (bytes == 0 || cache.count == cache.slabs.size() ||
        cache.bytes + bytes > kSlabCacheBytes) {
      continue;
    }
    cache.bytes += bytes;
    cache.slabs[cache.count++] = std::move(pool_[b]);
  }
}

size_t NodeHistogramPool::CachedBytes() { return ThreadSlabCache().bytes; }

AlignedBuffer<int64_t> NodeHistogramPool::TakeCachedSlab(size_t n) {
  SlabCache& cache = ThreadSlabCache();
  if (cache.count == 0) return AlignedBuffer<int64_t>(n);
  // Best fit: the smallest slab holding n cells; failing that the
  // largest, which is zero-extended below.
  size_t pick = 0;
  for (size_t i = 1; i < cache.count; ++i) {
    const size_t cand = cache.slabs[i].size();
    const size_t cur = cache.slabs[pick].size();
    const bool cand_fits = cand >= n, cur_fits = cur >= n;
    if (cand_fits != cur_fits ? cand_fits
                              : (cand_fits ? cand < cur : cand > cur)) {
      pick = i;
    }
  }
  AlignedBuffer<int64_t> slab = std::move(cache.slabs[pick]);
  cache.slabs[pick] = std::move(cache.slabs[--cache.count]);
  cache.bytes -= SlabBytes(slab);
  if (slab.size() < n) slab.ResetZero(n);
  return slab;
}

}  // namespace mvg
