#ifndef MVG_TS_TRANSFORMS_H_
#define MVG_TS_TRANSFORMS_H_

#include <cstddef>

#include "ts/dataset.h"

namespace mvg {

/// Z-normalisation: zero mean, unit variance. Constant series map to all
/// zeros (matches the UCR convention).
Series ZNormalize(const Series& s);

/// Removes the least-squares linear trend (keeps the mean). VGs cannot
/// capture monotonic trends (paper §2.1/§4.7), so the extractor detrends
/// by default.
Series DetrendLinear(const Series& s);

/// Piecewise Aggregate Approximation (paper Eq. 1): reduces `s` to
/// `segments` values, each the mean of its (possibly fractional) segment.
/// Handles lengths that are not multiples of `segments` by weighting
/// boundary points fractionally, which reduces to Eq. 1 in the integral
/// case. Requires 1 <= segments <= |s|.
Series Paa(const Series& s, size_t segments);

/// Simple halving PAA used by the multiscale representation: output length
/// is floor(|s|/2); equivalent to Paa(s, |s|/2) for even |s|.
Series HalveByPaa(const Series& s);

}  // namespace mvg

#endif  // MVG_TS_TRANSFORMS_H_
