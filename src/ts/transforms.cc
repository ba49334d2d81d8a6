#include "ts/transforms.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ts/ts_kernels.h"
#include "util/statistics.h"

namespace mvg {

Series ZNormalize(const Series& s) {
  const double m = Mean(s);
  const double sd = StdDev(s);
  Series out(s.size());
  if (sd < 1e-12) {
    std::fill(out.begin(), out.end(), 0.0);
    return out;
  }
  for (size_t i = 0; i < s.size(); ++i) out[i] = (s[i] - m) / sd;
  return out;
}

Series DetrendLinear(const Series& s) {
  Series out = s;
  ts_kernels::DetrendInPlace(out.data(), out.size());
  return out;
}

Series Paa(const Series& s, size_t segments) {
  const size_t n = s.size();
  if (segments == 0 || segments > n) {
    throw std::invalid_argument("Paa: need 1 <= segments <= |s|");
  }
  if (segments == n) return s;
  Series out(segments, 0.0);
  // Fractional-weight PAA: point i contributes to segment(s) covering
  // [i, i+1) under the mapping t -> t * segments / n. Each segment has
  // width 1 in the scaled units, so its accumulated mass is its mean.
  const double scale = static_cast<double>(segments) / static_cast<double>(n);
  for (size_t i = 0; i < n; ++i) {
    const double lo = static_cast<double>(i) * scale;
    const double hi = static_cast<double>(i + 1) * scale;
    size_t seg_lo = static_cast<size_t>(lo);
    size_t seg_hi = static_cast<size_t>(hi);
    if (seg_hi >= segments) seg_hi = segments - 1;
    if (seg_lo == seg_hi) {
      out[seg_lo] += s[i] * (hi - lo);
    } else {
      // The point straddles a segment boundary; split its mass.
      const double boundary = static_cast<double>(seg_hi);
      out[seg_lo] += s[i] * (boundary - lo);
      out[seg_hi] += s[i] * (hi - boundary);
    }
  }
  return out;
}

Series HalveByPaa(const Series& s) {
  const size_t half = s.size() / 2;
  if (half == 0) return {};
  Series out(half);
  ts_kernels::PairwiseHalveInto(s.data(), s.size(), out.data());
  return out;
}

}  // namespace mvg
