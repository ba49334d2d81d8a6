#ifndef MVG_TESTS_SPLIT_SEARCH_ORACLE_H_
#define MVG_TESTS_SPLIT_SEARCH_ORACLE_H_

// Reference for the GBT split search: the plain scalar loop over the
// fixed-point node histogram — int64 prefix sums in bin order, each
// prefix dequantized, an early break once the right side is exhausted,
// empty bins (zero hessian) skipped by a branch, two scalar divisions per
// boundary and a strict `>` against the running best across slots.
// NodeSplitSearch (ml/hist_kernels.h) must reproduce its (slot, bin,
// gain) choice bit for bit on every histogram whose node hessian total
// is positive, including adversarial ones the engine never produces.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/hist_kernels.h"

namespace mvg {
namespace testutil {

/// One column slot of a node histogram: `fh` holds num_bins fixed-point
/// (grad, hess) pairs; [lo, hi] is the slot's dirty bin span.
struct OracleSlot {
  const int64_t* fh = nullptr;
  size_t num_bins = 0;
  size_t lo = 0;
  size_t hi = 0;
};

struct OracleSplit {
  int slot = -1;  ///< -1: no boundary beat the initial best gain.
  size_t bin = 0;
  double gain = 0.0;
};

inline OracleSplit ScalarSplitSearch(const std::vector<OracleSlot>& slots,
                                     double g_sum, double h_sum, double lambda,
                                     double min_child_weight, double gamma) {
  const double parent_score = g_sum * g_sum / (h_sum + lambda);
  OracleSplit best;
  best.gain = gamma + 1e-12;
  for (size_t j = 0; j < slots.size(); ++j) {
    const size_t nb = slots[j].num_bins;
    if (nb < 2) continue;
    const int64_t* fh = slots[j].fh;
    const size_t lo = slots[j].lo;
    const size_t hi = slots[j].hi;
    int64_t gq = 0, hq = 0;
    for (size_t b = lo; b + 1 < nb && b < hi; ++b) {
      const int64_t bin_h = fh[b * 2 + 1];
      gq += fh[b * 2];
      hq += bin_h;
      const double gl = DequantizeGradHess(gq), hl = DequantizeGradHess(hq);
      const double gr = g_sum - gl, hr = h_sum - hl;
      if (hr <= 0.0) break;
      if (bin_h == 0) continue;
      if (hl < min_child_weight || hr < min_child_weight) continue;
      const double gain =
          0.5 * (gl * gl / (hl + lambda) + gr * gr / (hr + lambda) -
                 parent_score);
      if (gain > best.gain) {
        best.gain = gain;
        best.slot = static_cast<int>(j);
        best.bin = b;
      }
    }
  }
  return best;
}

}  // namespace testutil
}  // namespace mvg

#endif  // MVG_TESTS_SPLIT_SEARCH_ORACLE_H_
