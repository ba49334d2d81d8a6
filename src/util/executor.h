#ifndef MVG_UTIL_EXECUTOR_H_
#define MVG_UTIL_EXECUTOR_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace mvg {

namespace internal {

/// One participant's contiguous index range of a parallel loop, packed
/// into a single 64-bit word (`next << 32 | end`) so the owner's front
/// pop and a thief's back steal are each one CAS and can never hand out
/// overlapping chunks. Cache-line aligned: each slot's range lives on its
/// own line, so steady-state claiming is contention-free.
struct alignas(64) WorkRange {
  std::atomic<uint64_t> state{0};

  static constexpr uint64_t Pack(uint64_t next, uint64_t end) {
    return (next << 32) | end;
  }

  void Reset(size_t begin, size_t end) {
    state.store(Pack(begin, end), std::memory_order_relaxed);
  }

  bool Empty() const {
    const uint64_t s = state.load(std::memory_order_relaxed);
    return static_cast<uint32_t>(s >> 32) >= static_cast<uint32_t>(s);
  }

  /// Owner's claim: [next, min(next+chunk, end)) from the front.
  bool PopFront(size_t chunk, size_t* begin, size_t* end) {
    uint64_t s = state.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t next = static_cast<uint32_t>(s >> 32);
      const uint32_t limit = static_cast<uint32_t>(s);
      if (next >= limit) return false;
      const uint32_t take =
          std::min<uint64_t>(chunk, static_cast<uint64_t>(limit) - next);
      if (state.compare_exchange_weak(s, Pack(next + take, limit),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        *begin = next;
        *end = next + take;
        return true;
      }
    }
  }

  /// Thief's claim: [max(next, end-chunk), end) from the back.
  bool StealBack(size_t chunk, size_t* begin, size_t* end) {
    uint64_t s = state.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t next = static_cast<uint32_t>(s >> 32);
      const uint32_t limit = static_cast<uint32_t>(s);
      if (next >= limit) return false;
      const uint32_t take =
          std::min<uint64_t>(chunk, static_cast<uint64_t>(limit) - next);
      if (state.compare_exchange_weak(s, Pack(next, limit - take),
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
        *begin = limit - take;
        *end = limit;
        return true;
      }
    }
  }
};

/// Type-erased descriptor of one parallel loop. It lives on the calling
/// thread's stack for the duration of the loop; `invoke` runs the
/// caller's templated body for `i` in [begin, end) as participant `slot`,
/// so the body itself is never wrapped in a heap-allocating std::function.
struct ParallelTask {
  void (*invoke)(void* ctx, size_t slot, size_t begin, size_t end) = nullptr;
  void* ctx = nullptr;
  WorkRange* ranges = nullptr;
  size_t max_slots = 1;  ///< never exceeds MaxWorkers(n, max_par).
  size_t chunk = 1;

  /// Set on the first body exception; claim loops drain without invoking.
  std::atomic<bool> cancelled{false};
  std::exception_ptr error;  ///< first exception; guarded by error_mu.
  std::mutex error_mu;

  // Participant bookkeeping, guarded by the executor's pool mutex. Slot 0
  // is always the calling thread; pool workers are granted slots
  // [1, max_slots) while the task is listed and has claimable work.
  size_t slots_granted = 1;
  size_t slots_finished = 0;
  std::condition_variable done_cv;

  bool HasClaimableWork() const {
    if (cancelled.load(std::memory_order_relaxed)) return false;
    for (size_t s = 0; s < max_slots; ++s) {
      if (!ranges[s].Empty()) return true;
    }
    return false;
  }
};

}  // namespace internal

/// Persistent work-stealing thread pool shared by every parallel layer
/// (extraction, forest/boosting trees, grid-search cells, serving
/// batches). One process-wide instance (`Executor::Global()`) replaces
/// the former spawn-per-call ParallelFor: dispatching a loop onto warm
/// workers costs microseconds instead of a thread spawn per call, and
/// nested parallel regions (a grid cell fitting a forest that fans out
/// its trees) reuse the same fixed set of threads instead of
/// oversubscribing the machine.
///
/// Concurrency model
///  - `Executor(c)` runs `c - 1` background workers; the thread calling
///    `ParallelFor` is always the c-th participant. `Executor(1)` has no
///    workers and runs every loop inline, which makes it
///    bit-and-order-identical to the plain serial loop.
///  - A loop over n items is split into one contiguous range per
///    participant slot (at most `MaxWorkers(n, max_par)` slots, matching
///    the historical ParallelForWorker bound). Participants claim chunks
///    from the front of their own range and steal from the back of other
///    slots' ranges when theirs drains, so imbalanced bodies rebalance
///    without any per-item locking.
///  - A participant waiting for a nested loop to finish only executes
///    chunks of *that* loop, never another loop's. This keeps
///    per-slot state (e.g. a pooled VgWorkspace) single-owner for the
///    whole loop — a slot is touched by exactly one OS thread — at the
///    cost of a little idle time, and bounds total live parallelism by
///    the pool size at any nesting depth.
///
/// Determinism: scheduling only decides *where* an index runs. Every
/// caller in this codebase writes results positionally and pre-assigns
/// per-index seeds/draws, so fitted models and predictions are
/// bit-identical for every pool size and every chunking (pinned by
/// executor_test and train_engine_test).
///
/// Exceptions: the first body exception cancels further claiming (chunks
/// already claimed still finish) and is rethrown on the calling thread
/// after all participants leave — the same contract the spawn-per-call
/// helper had.
class Executor {
 public:
  /// `concurrency` = total participants (callers + workers); 0 means
  /// hardware concurrency. Spawns `concurrency - 1` background threads.
  explicit Executor(size_t concurrency = 0);

  /// Joins all workers.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// The process-wide pool every layer shares by default. Lazily
  /// constructed at hardware concurrency (or the size most recently
  /// requested via SetGlobalConcurrency before first use).
  static Executor& Global();

  /// Resizes the global pool (0 = hardware). Must not race with work in
  /// flight; intended for CLI startup (`--threads`) and tests.
  static void SetGlobalConcurrency(size_t concurrency);

  /// Total participants a loop can have: background workers + the caller.
  size_t concurrency() const { return workers_.size() + 1; }

  /// Runs body(i) for every i in [0, n), fanned across at most `max_par`
  /// participants (the calling thread plus idle pool workers).
  ///
  /// `grain` is the inline-below-grain-size heuristic: a loop with
  /// n <= grain runs inline on the caller (a function call, no dispatch),
  /// and no claimed chunk is smaller than `grain` items except a range's
  /// final remainder. The default of 1
  /// parallelizes any n >= 2 — right for loops whose bodies are
  /// milliseconds (series extraction, tree fits, CV cells). Cheap bodies
  /// (tens of ns, e.g. per-row updates) should pass the number of items
  /// that amortizes one dispatch (~a few microseconds): GBT's row loops
  /// use 512. Larger n splits into ~8 chunks per participant (capped
  /// below by `grain`) so stealing can rebalance without chunk-claim
  /// traffic dominating.
  template <typename Body>
  void ParallelFor(size_t n, size_t max_par, Body&& body, size_t grain = 1) {
    ParallelForWorker(
        n, max_par,
        [&body](size_t /*slot*/, size_t i) { body(i); }, grain);
  }

  /// Slot-indexed variant: body(slot, i) with slot < MaxWorkers(n,
  /// max_par) (see parallel.h). A slot is owned by exactly one thread for
  /// the duration of the loop — including while other participants steal
  /// chunks, which execute under the *thief's* slot — so per-slot state
  /// (e.g. one pooled VgWorkspace per slot) needs no locking.
  template <typename Body>
  void ParallelForWorker(size_t n, size_t max_par, Body&& body,
                         size_t grain = 1) {
    if (n == 0) return;
    const size_t g = std::max<size_t>(1, grain);
    if (max_par <= 1 || n <= g || workers_.empty()) {
      if (obs::Enabled()) {
        obs::PipelineMetrics::Get().executor_loops_inline->Inc();
      }
      for (size_t i = 0; i < n; ++i) body(0, i);
      return;
    }
    // Ranges pack indices into 32 bits; larger loops run as sequential
    // windows (each its own parallel region). The window adapter is one
    // lambda type per Body — defined once, constructed per window — so
    // the common n <= kWindow case costs a single +base per item.
    constexpr size_t kWindow = size_t{1} << 31;
    for (size_t base = 0; base < n; base += kWindow) {
      const size_t len = std::min(kWindow, n - base);
      auto shifted = [&body, base](size_t slot, size_t i) {
        body(slot, base + i);
      };
      using Shifted = decltype(shifted);
      internal::ParallelTask task;
      task.ctx = &shifted;
      task.invoke = [](void* ctx, size_t slot, size_t begin, size_t end) {
        auto& fn = *static_cast<Shifted*>(ctx);
        for (size_t i = begin; i < end; ++i) fn(slot, i);
      };
      Run(&task, len, max_par, g);
    }
  }

 private:
  /// Non-template orchestration: partition, list the task, participate as
  /// slot 0, wait out stragglers, unlist, rethrow.
  void Run(internal::ParallelTask* task, size_t n, size_t max_par,
           size_t grain);

  /// Launches `concurrency - 1` worker threads (0 = hardware).
  void SpawnWorkers(size_t concurrency);
  /// Signals stop, wakes everyone, joins and clears the worker set.
  void StopAndJoinWorkers();

  /// Claim-and-execute loop for one participant slot.
  static void Participate(internal::ParallelTask* task, size_t slot);
  static void InvokeChunk(internal::ParallelTask* task, size_t slot,
                          size_t begin, size_t end);

  void WorkerMain();

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::vector<internal::ParallelTask*> active_;  ///< tasks open for helpers.
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace mvg

#endif  // MVG_UTIL_EXECUTOR_H_
