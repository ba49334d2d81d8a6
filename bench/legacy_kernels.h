#ifndef MVG_BENCH_LEGACY_KERNELS_H_
#define MVG_BENCH_LEGACY_KERNELS_H_

// The pre-vectorization inner loops of the hot kernels, preserved verbatim
// as the scalar references the simd_*_speedup gates measure against. These
// are the shapes the code had before src/util/simd.h: row-at-a-time
// histogram accumulation with per-row size_t index loads, scalar slope
// scans. Bench-only: nothing in src/ links this (src/ kernels compiled
// with MVG_SIMD_OFF are the *parity* reference; these are the
// *performance* reference, frozen so the gate keeps meaning even as the
// library kernels evolve).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace mvg::bench {

/// Pre-SIMD decision-tree histogram scan of one feature column over the
/// int64 count cells: hist[col[r] * k + y[r]] += 1 row at a time, tracking
/// the occupied bin span with per-row min/max.
inline void LegacyClassScan(const uint8_t* col, const std::vector<size_t>& rows,
                            const std::vector<size_t>& y, size_t begin,
                            size_t end, size_t k, int64_t* hist, uint16_t* plo,
                            uint16_t* phi) {
  uint16_t lo = 0xffff, hi = 0;
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    const uint16_t b = col[r];
    lo = std::min(lo, b);
    hi = std::max(hi, b);
    hist[static_cast<size_t>(b) * k + y[r]] += 1;
  }
  *plo = lo;
  *phi = hi;
}

/// Pre-SIMD GBT histogram scan over the fixed-point cells: separate
/// gradient and hessian arrays (the layout before the row-interleaved gh
/// array), two strided stores per row.
inline void LegacyPairScan(const uint8_t* col, const std::vector<size_t>& rows,
                           const std::vector<int64_t>& grad,
                           const std::vector<int64_t>& hess, size_t begin,
                           size_t end, int64_t* hist, uint16_t* plo,
                           uint16_t* phi) {
  uint16_t lo = 0xffff, hi = 0;
  for (size_t i = begin; i < end; ++i) {
    const size_t r = rows[i];
    const uint16_t b = col[r];
    lo = std::min(lo, b);
    hi = std::max(hi, b);
    hist[static_cast<size_t>(b) * 2] += grad[r];
    hist[static_cast<size_t>(b) * 2 + 1] += hess[r];
  }
  *plo = lo;
  *phi = hi;
}

/// The pre-SIMD scan stage of the divide & conquer natural-VG builder over
/// one range [l, r]: scalar maximum search, then the two scalar slope
/// scans, counting emitted edges. Exactly the loops src/vg had before
/// vg_kernels.h. Returns edges + k so callers have a value to sink.
inline size_t LegacyVisibilityScanStage(const double* s, size_t l, size_t r) {
  size_t k = l;
  for (size_t i = l + 1; i <= r; ++i) {
    if (s[i] > s[k]) k = i;
  }
  size_t edges = 0;
  double max_slope = -std::numeric_limits<double>::infinity();
  for (size_t j = k + 1; j <= r; ++j) {
    const double slope = (s[j] - s[k]) / static_cast<double>(j - k);
    if (slope > max_slope) ++edges;
    max_slope = std::max(max_slope, slope);
  }
  max_slope = -std::numeric_limits<double>::infinity();
  for (size_t i = k; i-- > l;) {
    const double slope = (s[i] - s[k]) / static_cast<double>(k - i);
    if (slope > max_slope) ++edges;
    max_slope = std::max(max_slope, slope);
  }
  return edges + k;
}

}  // namespace mvg::bench

#endif  // MVG_BENCH_LEGACY_KERNELS_H_
