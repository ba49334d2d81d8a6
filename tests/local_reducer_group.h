#ifndef MVG_TESTS_LOCAL_REDUCER_GROUP_H_
#define MVG_TESTS_LOCAL_REDUCER_GROUP_H_

// In-process HistogramReducer group: `world_size` reducers that allreduce
// through a shared barrier. It runs N "workers" as plain threads in one
// process, which is how the tests pin the 1-vs-N bit-identity contract
// without forking. The multi-process transport lives in
// dist/coordinator.h.

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/histogram_reducer.h"
#include "obs/obs.h"

namespace mvg {

class LocalReducerGroup {
 public:
  explicit LocalReducerGroup(size_t world_size) : world_(world_size) {
    if (world_size == 0) {
      throw std::invalid_argument(
          "LocalReducerGroup: world_size must be >= 1");
    }
    members_.reserve(world_size);
    for (size_t r = 0; r < world_size; ++r) {
      members_.push_back(std::make_unique<Member>(this, r));
    }
  }

  LocalReducerGroup(const LocalReducerGroup&) = delete;
  LocalReducerGroup& operator=(const LocalReducerGroup&) = delete;

  size_t world_size() const { return world_; }

  /// Reducer handle for one rank. The group owns the handle; it stays
  /// valid for the group's lifetime. Each rank's handle must only be
  /// used from one thread at a time.
  HistogramReducer* reducer(size_t rank) { return members_.at(rank).get(); }

 private:
  class Member : public HistogramReducer {
   public:
    Member(LocalReducerGroup* group, size_t rank)
        : group_(group), rank_(rank) {}
    size_t rank() const override { return rank_; }
    size_t world_size() const override { return group_->world_; }
    void AllreduceSum(int64_t* data, size_t count) override {
      group_->Allreduce(data, count);
    }

   private:
    LocalReducerGroup* group_;
    size_t rank_;
  };

  // Two-phase barrier with separate accumulate/result buffers and a
  // generation counter. Arrivals of round k sum into `acc_`; the last
  // arrival swaps `acc_` into `result_`, bumps the generation, and wakes
  // the waiters, which copy `result_` out under the same lock. This is
  // safe against a fast rank racing ahead into round k+1: that rank can
  // only touch `acc_` (the retired buffer), never `result_`, until every
  // round-k waiter has copied out and the next last arrival swaps again.
  void Allreduce(int64_t* data, size_t count) {
    obs::ObsSpan span(obs::PipelineMetrics::Get().hist_reduce_seconds);
    std::unique_lock<std::mutex> lock(mu_);
    if (arrived_ == 0) {
      count_ = count;
      acc_.assign(data, data + count);
    } else {
      if (count != count_) {
        throw std::logic_error(
            "LocalReducerGroup: ranks disagree on allreduce size (" +
            std::to_string(count) + " vs " + std::to_string(count_) + ")");
      }
      for (size_t i = 0; i < count; ++i) acc_[i] += data[i];
    }
    if (++arrived_ == world_) {
      arrived_ = 0;
      result_.swap(acc_);
      ++generation_;
      cv_.notify_all();
    } else {
      const uint64_t gen = generation_;
      cv_.wait(lock, [this, gen] { return generation_ != gen; });
    }
    std::copy(result_.begin(), result_.end(), data);
  }

  size_t world_;
  std::vector<std::unique_ptr<Member>> members_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t arrived_ = 0;
  uint64_t generation_ = 0;
  size_t count_ = 0;
  std::vector<int64_t> acc_;
  std::vector<int64_t> result_;
};

}  // namespace mvg

#endif  // MVG_TESTS_LOCAL_REDUCER_GROUP_H_
