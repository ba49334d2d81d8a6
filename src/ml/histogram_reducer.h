#ifndef MVG_ML_HISTOGRAM_REDUCER_H_
#define MVG_ML_HISTOGRAM_REDUCER_H_

// Pluggable allreduce seam for distributed (row-partitioned) histogram
// training. Workers accumulate node histograms over their own slice of
// the rows and sum the slices through a HistogramReducer before split
// finding, so every worker sweeps the same global histogram.
//
// The contract is integer: histogram cells are exact int64 sums, so the
// global sums do not depend on the worker count or the reduction order.
// The decision tree counts rows per class; boosting adds the fixed-point
// gradients and hessians of ml/hist_kernels.h. Both are the arithmetic an
// in-process fit uses, and a reducer adds only the AllreduceSum calls, so
// a fit with no reducer is world 1: the model bytes are the same for
// in-RAM, paged and any number of workers (the
// contract pinned in docs/ARCHITECTURE.md and verified by
// tests/dist_test.cc, tests/train_identity_test.cc and the CI
// cross-process smoke).
//
// Implementations: dist/coordinator.h (socketpair transport for real
// multi-process runs) and, for tests, tests/local_reducer_group.h (ranks
// as threads in one process).

#include <cstddef>
#include <cstdint>

namespace mvg {

class HistogramReducer {
 public:
  virtual ~HistogramReducer() = default;

  /// This participant's 0-based rank and the total participant count.
  virtual size_t rank() const = 0;
  virtual size_t world_size() const = 0;

  /// Element-wise global sum over all participants, in place. Collective:
  /// every rank must call with the same `count`, in the same order.
  virtual void AllreduceSum(int64_t* data, size_t count) = 0;
};

/// Deterministic row partition: rank `r` owns compact row ids in
/// [OwnedRowsBegin(n, r, w), OwnedRowsEnd(n, r, w)). Ownership is by
/// *source row id*, not by position in a node's row list, so bootstrap
/// duplicates and subsampled rounds partition consistently.
inline size_t OwnedRowsBegin(size_t num_rows, size_t rank, size_t world) {
  return num_rows * rank / world;
}
inline size_t OwnedRowsEnd(size_t num_rows, size_t rank, size_t world) {
  return num_rows * (rank + 1) / world;
}

}  // namespace mvg

#endif  // MVG_ML_HISTOGRAM_REDUCER_H_
