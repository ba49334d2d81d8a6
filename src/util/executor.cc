#include "util/executor.h"

#include "util/parallel.h"

namespace mvg {

namespace {

/// Desired size for the lazily-constructed global pool; 0 = hardware.
std::atomic<size_t> g_global_concurrency{0};

/// Per-participant chunk granularity: split each slot's range into about
/// this many chunks so thieves find work to take, while the per-chunk
/// claim (one CAS) stays negligible against the body.
constexpr size_t kChunksPerSlot = 8;

/// Hard cap on participant slots per loop; bounds the stack footprint of
/// the per-slot range array (64 cache lines) and is far above any
/// realistic core count here.
constexpr size_t kMaxSlots = 64;

}  // namespace

Executor::Executor(size_t concurrency) { SpawnWorkers(concurrency); }

Executor::~Executor() { StopAndJoinWorkers(); }

void Executor::SpawnWorkers(size_t concurrency) {
  const size_t total = concurrency == 0 ? DefaultThreads() : concurrency;
  const size_t spawn = total > 0 ? total - 1 : 0;
  workers_.reserve(spawn);
  for (size_t t = 0; t < spawn; ++t) {
    workers_.emplace_back([this]() { WorkerMain(); });
  }
}

void Executor::StopAndJoinWorkers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

Executor& Executor::Global() {
  static Executor global(g_global_concurrency.load(std::memory_order_relaxed));
  return global;
}

void Executor::SetGlobalConcurrency(size_t concurrency) {
  g_global_concurrency.store(concurrency, std::memory_order_relaxed);
  // If the pool already exists at a different size, rebuild its worker
  // set in place (a pool lazily constructed just now — the common CLI
  // startup path — already matches and is left alone).
  Executor& global = Global();
  const size_t total = concurrency == 0 ? DefaultThreads() : concurrency;
  if (global.concurrency() == total) return;
  global.StopAndJoinWorkers();
  {
    std::lock_guard<std::mutex> lock(global.mu_);
    global.stop_ = false;
  }
  global.SpawnWorkers(concurrency);
}

void Executor::InvokeChunk(internal::ParallelTask* task, size_t slot,
                           size_t begin, size_t end) {
  try {
    task->invoke(task->ctx, slot, begin, end);
  } catch (...) {
    {
      std::lock_guard<std::mutex> lock(task->error_mu);
      if (!task->error) task->error = std::current_exception();
    }
    // Poison further claiming; chunks already claimed still finish, which
    // matches the old contract ("remaining iterations in other blocks may
    // still run").
    task->cancelled.store(true, std::memory_order_relaxed);
  }
}

void Executor::Participate(internal::ParallelTask* task, size_t slot) {
  size_t begin = 0;
  size_t end = 0;
  while (!task->cancelled.load(std::memory_order_relaxed)) {
    // Own range from the front first; steal from the back of the busiest
    // neighbour scan order otherwise.
    if (task->ranges[slot].PopFront(task->chunk, &begin, &end)) {
      InvokeChunk(task, slot, begin, end);
      continue;
    }
    bool stole = false;
    for (size_t offset = 1; offset < task->max_slots; ++offset) {
      const size_t victim = (slot + offset) % task->max_slots;
      if (task->ranges[victim].StealBack(task->chunk, &begin, &end)) {
        if (obs::Enabled()) {
          obs::PipelineMetrics::Get().executor_chunks_stolen->Inc();
        }
        InvokeChunk(task, slot, begin, end);
        stole = true;
        break;
      }
    }
    if (!stole) break;
  }
}

void Executor::Run(internal::ParallelTask* task, size_t n, size_t max_par,
                   size_t grain) {
  internal::WorkRange ranges[kMaxSlots];
  const size_t slots = std::max<size_t>(
      1, std::min({max_par, (n + grain - 1) / grain, concurrency(),
                   kMaxSlots}));
  const size_t block = (n + slots - 1) / slots;
  for (size_t s = 0; s < slots; ++s) {
    const size_t begin = std::min(s * block, n);
    ranges[s].Reset(begin, std::min(begin + block, n));
  }
  task->ranges = ranges;
  task->max_slots = slots;
  task->chunk = std::max(grain, block / kChunksPerSlot);

  if (obs::Enabled()) {
    obs::PipelineMetrics::Get().executor_loops_dispatched->Inc();
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.push_back(task);
  }
  work_cv_.notify_all();

  Participate(task, 0);

  {
    std::unique_lock<std::mutex> lock(mu_);
    active_.erase(std::find(active_.begin(), active_.end(), task));
    task->slots_finished++;  // the caller's slot 0
    task->done_cv.wait(lock, [task]() {
      return task->slots_finished == task->slots_granted;
    });
  }
  if (task->error) std::rethrow_exception(task->error);
}

void Executor::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    internal::ParallelTask* task = nullptr;
    size_t slot = 0;
    for (internal::ParallelTask* candidate : active_) {
      if (candidate->slots_granted < candidate->max_slots &&
          candidate->HasClaimableWork()) {
        task = candidate;
        slot = candidate->slots_granted++;
        break;
      }
    }
    if (task != nullptr) {
      lock.unlock();
      Participate(task, slot);
      lock.lock();
      task->slots_finished++;
      // Notify while holding the pool mutex: once the caller observes
      // finished == granted it may destroy the task, so the notify must
      // not touch it after unlocking.
      task->done_cv.notify_all();
      continue;
    }
    if (stop_) return;
    work_cv_.wait(lock);
  }
}

}  // namespace mvg
