#ifndef MVG_DIST_COORDINATOR_H_
#define MVG_DIST_COORDINATOR_H_

// Multi-process distributed training over socketpairs: the coordinator
// process forks N workers (dist/worker.h), each of which runs the
// caller's fit function with a socket-backed HistogramReducer and ships
// the serialized model bytes back. The coordinator is the hub of a star
// topology — it sums every allreduce round and broadcasts the result,
// then verifies all workers produced byte-identical models (the
// determinism contract, enforced at runtime on every distributed train).
// Wire protocol: util/framing.h, specified in docs/FORMATS.md.

#include <functional>
#include <string>

#include "ml/histogram_reducer.h"

namespace mvg {

/// Runs `fit` in `workers` forked processes (rank w gets a reducer with
/// that rank) and returns the verified model bytes. Throws
/// std::runtime_error naming the worker — after killing and reaping the
/// whole fleet, never hanging — when a worker dies mid-reduce, reports an
/// error, or the workers' model bytes disagree.
///
/// Fork-safety: call this before any threads exist in the calling
/// process (in particular before Executor::SetGlobalConcurrency / any
/// ParallelFor) — the children are free to create their own pools after
/// the fork, the parent only does frame I/O.
std::string RunDistributedTraining(
    size_t workers,
    const std::function<std::string(HistogramReducer*)>& fit);

}  // namespace mvg

#endif  // MVG_DIST_COORDINATOR_H_
