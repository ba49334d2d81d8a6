#include "serve/async_serving.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "serve/model_io.h"
#include "util/parallel.h"

namespace mvg {

namespace {

std::atomic<AsyncServingSession::ClockFn> g_latency_clock{nullptr};

AsyncServingSession::Clock::time_point LatencyNow() {
  const AsyncServingSession::ClockFn now =
      g_latency_clock.load(std::memory_order_relaxed);
  return now != nullptr ? now() : AsyncServingSession::Clock::now();
}

}  // namespace

void AsyncServingSession::SetLatencyClockForTesting(ClockFn now) {
  g_latency_clock.store(now, std::memory_order_relaxed);
}

AsyncServingSession::AsyncServingSession(MvgClassifier model, Options options)
    : AsyncServingSession(ServingSession(std::move(model)), options) {}

AsyncServingSession::AsyncServingSession(ServingSession session,
                                         Options options)
    : session_(std::move(session)),
      options_(options),
      batch_threads_(options.num_threads == 0 ? DefaultThreads()
                                              : options.num_threads) {
  if (options_.queue_capacity == 0) {
    throw std::invalid_argument("AsyncServingSession: queue_capacity 0");
  }
  if (options_.batch_max == 0) {
    throw std::invalid_argument("AsyncServingSession: batch_max 0");
  }
  if (options_.batch_timeout_ms < 0.0) {
    throw std::invalid_argument("AsyncServingSession: negative batch timeout");
  }
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_.reset(new obs::MetricsRegistry());
    registry_ = own_registry_.get();
  }
  m_submitted_ = registry_->RegisterCounter(
      "mvg_serve_async_submitted_total", "Requests accepted by Submit()");
  m_completed_ = registry_->RegisterCounter(
      "mvg_serve_async_completed_total", "Futures resolved with a label");
  m_failed_ = registry_->RegisterCounter(
      "mvg_serve_async_failed_total", "Futures resolved with an exception");
  m_batches_ = registry_->RegisterCounter(
      "mvg_serve_async_batches_total", "Micro-batches dispatched");
  m_queue_depth_ = registry_->RegisterGauge(
      "mvg_serve_async_queue_depth", "Requests queued, not yet dispatched");
  m_max_queue_depth_ = registry_->RegisterGauge(
      "mvg_serve_async_queue_depth_max", "High-water mark of the queue");
  m_latency_seconds_ = registry_->RegisterHistogram(
      "mvg_serve_async_request_latency_seconds",
      "Enqueue-to-completion latency per request",
      obs::LatencyBucketsSeconds());
  dispatcher_ = std::thread([this]() { DispatcherMain(); });
}

AsyncServingSession AsyncServingSession::FromFile(const std::string& path,
                                                 Options options) {
  return AsyncServingSession(LoadModel(path), options);
}

AsyncServingSession AsyncServingSession::FromFile(const std::string& path) {
  return FromFile(path, Options());
}

AsyncServingSession AsyncServingSession::FromFileMapped(
    const std::string& path, Options options) {
  return AsyncServingSession(ServingSession::FromFileMapped(path), options);
}

AsyncServingSession AsyncServingSession::FromFileMapped(
    const std::string& path) {
  return FromFileMapped(path, Options());
}

AsyncServingSession::~AsyncServingSession() { Shutdown(); }

std::future<int> AsyncServingSession::Submit(Series series) {
  Request request;
  request.series = std::move(series);
  request.enqueued = LatencyNow();
  std::future<int> future = request.promise.get_future();
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_has_room_.wait(lock, [this]() {
      return shutdown_ || queue_.size() < options_.queue_capacity;
    });
    if (shutdown_) {
      throw std::runtime_error("AsyncServingSession: Submit after Shutdown");
    }
    queue_.push_back(std::move(request));
    m_submitted_->Inc();
    m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    m_max_queue_depth_->SetMax(static_cast<int64_t>(queue_.size()));
  }
  queue_nonempty_.notify_one();
  return future;
}

void AsyncServingSession::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  queue_nonempty_.notify_all();
  queue_has_room_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

void AsyncServingSession::DispatcherMain() {
  const auto timeout = std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(
      std::chrono::duration<double, std::milli>(options_.batch_timeout_ms));
  std::vector<Request> batch;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_nonempty_.wait(
          lock, [this]() { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown with a drained queue.
      // Micro-batching: give the batch `batch_timeout_ms` from its first
      // request to fill up to batch_max, then flush whatever is there.
      // Shutdown flushes immediately — draining beats coalescing then.
      const auto deadline = queue_.front().enqueued + timeout;
      while (queue_.size() < options_.batch_max && !shutdown_) {
        if (queue_nonempty_.wait_until(lock, deadline) ==
            std::cv_status::timeout) {
          break;
        }
      }
      const size_t take = std::min(queue_.size(), options_.batch_max);
      batch.clear();
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      m_queue_depth_->Set(static_cast<int64_t>(queue_.size()));
    }
    queue_has_room_.notify_all();
    RunBatch(&batch);
  }
}

void AsyncServingSession::RunBatch(std::vector<Request>* batch) {
  std::vector<Series> series;
  series.reserve(batch->size());
  for (Request& request : *batch) series.push_back(std::move(request.series));

  std::vector<int> labels;
  try {
    labels = session_.PredictBatch(series.data(), series.size(),
                                   batch_threads_);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    // Count before resolving, mirroring the success path: a caller
    // observing its future ready also observes the failure counted.
    m_batches_->Inc();
    m_failed_->Inc(batch->size());
    for (Request& request : *batch) request.promise.set_exception(error);
    return;
  }

  const auto done = LatencyNow();
  m_batches_->Inc();
  m_completed_->Inc(batch->size());
  for (const Request& request : *batch) {
    m_latency_seconds_->Observe(
        std::chrono::duration<double>(done - request.enqueued).count());
  }
  // Resolve futures after bookkeeping so a caller observing its future
  // ready also observes the request counted in stats().
  for (size_t i = 0; i < batch->size(); ++i) {
    (*batch)[i].promise.set_value(labels[i]);
  }
}

AsyncServingSession::Stats AsyncServingSession::stats() const {
  Stats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.queue_depth = queue_.size();
  }
  // The struct is a thin view over the registry instruments; everything
  // below reads atomics without taking mu_.
  stats.submitted = m_submitted_->Value();
  stats.completed = m_completed_->Value();
  stats.failed = m_failed_->Value();
  stats.batches = m_batches_->Value();
  stats.max_queue_depth = static_cast<size_t>(m_max_queue_depth_->Value());
  stats.mean_batch_size =
      stats.batches == 0
          ? 0.0
          : static_cast<double>(stats.completed + stats.failed) /
                static_cast<double>(stats.batches);
  if (m_latency_seconds_->Count() > 0) {
    stats.p50_latency_ms = m_latency_seconds_->Quantile(0.50) * 1e3;
    stats.p99_latency_ms = m_latency_seconds_->Quantile(0.99) * 1e3;
  }
  return stats;
}

}  // namespace mvg
