#ifndef MVG_SERVE_ASYNC_SERVING_H_
#define MVG_SERVE_ASYNC_SERVING_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/serving.h"
#include "ts/dataset.h"

namespace mvg {

/// Asynchronous, micro-batching front end over ServingSession — the shape
/// a server under sustained concurrent traffic wants, where the
/// synchronous session (single-client by contract) would serialize every
/// producer behind one lock.
///
/// Producers call Submit() from any number of threads; requests land in a
/// bounded queue (backpressure: Submit blocks while the queue is full). A
/// dispatcher thread coalesces up to `batch_max` queued series per
/// dispatch — waiting at most `batch_timeout_ms` after the first queued
/// request before flushing a partial batch — and fans each batch across
/// the persistent executor pool via ServingSession::PredictBatch, so
/// per-request dispatch overhead is amortized over the batch and the
/// pooled per-worker workspaces stay warm. Each request's future resolves
/// with the predicted label (or the batch's exception).
///
/// Predictions are identical to the synchronous path: micro-batching
/// changes scheduling only, never results.
///
/// Shutdown() (and the destructor) is graceful: new submissions are
/// rejected, everything already queued is dispatched and resolved, then
/// the dispatcher exits.
class AsyncServingSession {
 public:
  /// The clock requests are stamped with at enqueue and at completion.
  using Clock = std::chrono::steady_clock;
  using ClockFn = Clock::time_point (*)();

  /// Test seam: replaces the request clock for every session in the
  /// process (nullptr restores Clock::now), so a test can script the
  /// latencies the stats see instead of racing the host's scheduler. The
  /// micro-batching deadline counts from the same enqueue stamp.
  static void SetLatencyClockForTesting(ClockFn now);

  struct Options {
    /// Bound on queued (not yet dispatched) requests; Submit blocks while
    /// the queue is full. Must be >= 1.
    size_t queue_capacity = 1024;
    /// Coalesce up to this many queued series per dispatch. Must be >= 1.
    size_t batch_max = 32;
    /// Flush a partial batch this long after its first request arrives.
    double batch_timeout_ms = 2.0;
    /// Pool fan-out per dispatched batch (0 = hardware concurrency).
    size_t num_threads = 0;
    /// Registry the session's stats instruments live in. nullptr (the
    /// default) gives the session a private registry, so per-session
    /// stats stay exact; pass &obs::MetricsRegistry::Global() to fold
    /// this session into the process-wide metrics dump. Sessions sharing
    /// a registry share instruments (their counts combine).
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Aggregate counters plus the enqueue-to-completion latency
  /// distribution, read from the session's metrics registry. p50/p99 are
  /// histogram-interpolated over all requests since construction.
  struct Stats {
    size_t submitted = 0;
    size_t completed = 0;  ///< futures resolved with a label.
    size_t failed = 0;     ///< futures resolved with an exception.
    size_t batches = 0;
    size_t queue_depth = 0;      ///< current
    size_t max_queue_depth = 0;  ///< high-water mark
    double mean_batch_size = 0.0;
    double p50_latency_ms = 0.0;
    double p99_latency_ms = 0.0;
  };

  /// Takes ownership of a fitted classifier.
  AsyncServingSession(MvgClassifier model, Options options);
  explicit AsyncServingSession(MvgClassifier model)
      : AsyncServingSession(std::move(model), Options()) {}

  /// Loads a `.mvg` model file into a fresh async session.
  static AsyncServingSession FromFile(const std::string& path,
                                      Options options);
  static AsyncServingSession FromFile(const std::string& path);

  /// Zero-copy variant: mmaps a v3 `.mvg` file and serves views into the
  /// mapping (ServingSession::FromFileMapped semantics — the inner
  /// session owns the mapping for the whole lifetime).
  static AsyncServingSession FromFileMapped(const std::string& path,
                                            Options options);
  static AsyncServingSession FromFileMapped(const std::string& path);

  AsyncServingSession(const AsyncServingSession&) = delete;
  AsyncServingSession& operator=(const AsyncServingSession&) = delete;

  /// Graceful: drains the queue, resolves every future, then stops.
  ~AsyncServingSession();

  /// Enqueues one series; the future resolves with its predicted label.
  /// Blocks while the queue is at capacity; throws std::runtime_error
  /// after Shutdown().
  std::future<int> Submit(Series series);

  /// Stops accepting work and waits for everything queued to resolve.
  /// Idempotent.
  void Shutdown();

  Stats stats() const;

  /// The registry holding this session's instruments (the private one
  /// unless Options::registry pointed elsewhere). Metric names are
  /// documented in docs/OBSERVABILITY.md.
  obs::MetricsRegistry& metrics() const { return *registry_; }

  const MvgClassifier& model() const { return session_.model(); }

 private:
  /// All construction funnels here: the inner session may own an mmap
  /// keepalive (FromFileMapped), which must travel with it.
  AsyncServingSession(ServingSession session, Options options);

  struct Request {
    Series series;
    std::promise<int> promise;
    Clock::time_point enqueued;
  };

  void DispatcherMain();
  void RunBatch(std::vector<Request>* batch);

  ServingSession session_;
  const Options options_;
  const size_t batch_threads_;  ///< resolved num_threads.

  mutable std::mutex mu_;
  std::condition_variable queue_nonempty_;  ///< signals the dispatcher.
  std::condition_variable queue_has_room_;  ///< signals blocked producers.
  std::deque<Request> queue_;
  bool shutdown_ = false;

  // Stats live as registry instruments (histogram-backed percentiles
  // replaced the old fixed latency ring). Counter updates keep the
  // ordering contract: a caller observing its future resolved also
  // observes the request counted.
  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_;
  obs::Counter* m_submitted_;
  obs::Counter* m_completed_;
  obs::Counter* m_failed_;
  obs::Counter* m_batches_;
  obs::Gauge* m_queue_depth_;
  obs::Gauge* m_max_queue_depth_;  ///< high-water mark, raise-only.
  obs::Histogram* m_latency_seconds_;

  std::thread dispatcher_;  ///< last member: started once state is ready.
};

}  // namespace mvg

#endif  // MVG_SERVE_ASYNC_SERVING_H_
