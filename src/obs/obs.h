// Observability front end: the runtime enable toggle, RAII trace
// spans, the catalog of pipeline instruments shared by the library
// layers, and file dumping (one-shot and periodic) of a MetricsRegistry.
//
// Gating policy: *pipeline* instrumentation (spans, executor/wire/
// training counters) is guarded by Enabled() so `obs::SetEnabled(false)`
// strips its cost. *Session* metrics (AsyncServingSession, ShardRouter
// latency) are always on: they ARE the stats API those classes expose,
// not optional extras.
#ifndef MVG_OBS_OBS_H_
#define MVG_OBS_OBS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace mvg {
namespace obs {

namespace internal {
extern std::atomic<bool> g_enabled;
}
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
inline void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

// Enabled-gated convenience wrappers for pipeline instruments.
inline void Count(Counter* c, uint64_t n = 1) {
  if (Enabled()) c->Inc(n);
}

// RAII trace timer: observes the enclosed scope's wall time (seconds)
// into a histogram on destruction. When observability is disabled (or
// the histogram is null) the constructor skips the clock read entirely.
class ObsSpan {
 public:
  explicit ObsSpan(Histogram* h) : h_(Enabled() ? h : nullptr) {
    if (h_) start_ = std::chrono::steady_clock::now();
  }
  ~ObsSpan() {
    if (h_) {
      h_->Observe(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count());
    }
  }
  ObsSpan(const ObsSpan&) = delete;
  ObsSpan& operator=(const ObsSpan&) = delete;

 private:
  Histogram* h_;
  std::chrono::steady_clock::time_point start_;
};

// Default span boundaries: 1µs .. 30s, roughly 1-2.5-6 per decade.
// Covers everything from a single VG build to a full training run.
std::vector<double> TimingBucketsSeconds();
// Finer request-latency boundaries: 50µs .. 2.5s.
std::vector<double> LatencyBucketsSeconds();

// The pipeline instrument catalog, registered once in the global
// registry on first use. Library code holds the returned pointers;
// every touch goes through the Enabled() gate above.
struct PipelineMetrics {
  // Stage spans.
  Histogram* vg_build_seconds;        // kind="vg"
  Histogram* hvg_build_seconds;       // kind="hvg"
  Histogram* feature_extract_seconds;
  Histogram* hist_reduce_seconds;
  Histogram* gbt_round_seconds;
  Histogram* serve_predict_batch_seconds;
  // Training counters.
  Counter* train_hist_node_builds;
  Counter* train_split_searches;
  // Executor.
  Counter* executor_loops_dispatched;
  Counter* executor_loops_inline;
  Counter* executor_chunks_stolen;
  // Serving.
  Counter* serve_predictions;
  // Data quality (counted on the rare path only).
  Counter* extract_nonfinite_samples;
  Counter* predict_rows_padded;
  Counter* predict_rows_truncated;
  // Wire protocol.
  Counter* wire_frames_sent;
  Counter* wire_frames_recv;
  Counter* wire_bytes_sent;
  Counter* wire_bytes_recv;

  static PipelineMetrics& Get();
};

// Writes a registry dump to `path` atomically (tmp file + rename).
// A path ending in ".json" gets the JSON dump, anything else the
// Prometheus text format. Throws std::runtime_error on I/O failure.
void WriteRegistryDump(const MetricsRegistry& reg, const std::string& path);

// Background dumper: writes the registry to a file every
// `interval_seconds` and once more on destruction (on-exit dump).
// interval_seconds <= 0 disables the periodic thread (exit dump only).
class MetricsDumper {
 public:
  MetricsDumper(const MetricsRegistry* reg, std::string path,
                double interval_seconds);
  ~MetricsDumper();
  MetricsDumper(const MetricsDumper&) = delete;
  MetricsDumper& operator=(const MetricsDumper&) = delete;

  void DumpNow();

 private:
  const MetricsRegistry* reg_;
  std::string path_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace obs
}  // namespace mvg

#endif  // MVG_OBS_OBS_H_
