#ifndef MVG_DIST_REDUCER_H_
#define MVG_DIST_REDUCER_H_

// In-process HistogramReducer group: `world_size` reducers that allreduce
// through a shared barrier. This is the test/bench implementation of the
// seam — it runs N "workers" as plain threads in one process, which is
// how tests/dist_test.cc pins the 1-vs-N bit-identity contract without
// forking. The multi-process transport lives in dist/coordinator.h.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ml/histogram_reducer.h"

namespace mvg {

class LocalReducerGroup {
 public:
  explicit LocalReducerGroup(size_t world_size);
  ~LocalReducerGroup();

  LocalReducerGroup(const LocalReducerGroup&) = delete;
  LocalReducerGroup& operator=(const LocalReducerGroup&) = delete;

  size_t world_size() const { return world_; }

  /// Reducer handle for one rank. The group owns the handle; it stays
  /// valid for the group's lifetime. Each rank's handle must only be
  /// used from one thread at a time.
  HistogramReducer* reducer(size_t rank);

 private:
  struct Shared;
  class Member;

  size_t world_;
  std::unique_ptr<Shared> shared_;
  std::vector<std::unique_ptr<Member>> members_;
};

}  // namespace mvg

#endif  // MVG_DIST_REDUCER_H_
