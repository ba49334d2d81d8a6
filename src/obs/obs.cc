#include "obs/obs.h"

#include <cstdio>
#include <stdexcept>

namespace mvg {
namespace obs {

namespace internal {
std::atomic<bool> g_enabled{true};
}  // namespace internal

std::vector<double> TimingBucketsSeconds() {
  return {1e-6,   2.5e-6, 6e-6,   1e-5,  2.5e-5, 6e-5,  1e-4,
          2.5e-4, 6e-4,   1e-3,   2.5e-3, 6e-3,  1e-2,  2.5e-2,
          6e-2,   0.1,    0.25,   0.6,   1.0,    2.5,   6.0,
          10.0,   30.0};
}

std::vector<double> LatencyBucketsSeconds() {
  return {5e-5, 1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3, 3.2e-3, 6.4e-3,
          1.28e-2, 2.56e-2, 5.12e-2, 0.1, 0.2, 0.4, 0.8, 1.6, 2.5};
}

PipelineMetrics& PipelineMetrics::Get() {
  static PipelineMetrics* pm = [] {
    auto* m = new PipelineMetrics();
    MetricsRegistry& r = MetricsRegistry::Global();
    std::vector<double> t = TimingBucketsSeconds();
    m->vg_build_seconds = r.RegisterHistogram(
        "mvg_vg_build_seconds", "Wall time of one pooled visibility-graph build",
        t, "kind=\"vg\"");
    m->hvg_build_seconds = r.RegisterHistogram(
        "mvg_vg_build_seconds", "Wall time of one pooled visibility-graph build",
        t, "kind=\"hvg\"");
    m->feature_extract_seconds = r.RegisterHistogram(
        "mvg_feature_extract_seconds",
        "Wall time of one per-series MVG feature extraction", t);
    m->hist_reduce_seconds = r.RegisterHistogram(
        "mvg_train_hist_reduce_seconds",
        "Wall time of one cross-worker histogram allreduce", t);
    m->gbt_round_seconds = r.RegisterHistogram(
        "mvg_train_gbt_round_seconds",
        "Wall time of one gradient-boosting round (all class trees)", t);
    m->serve_predict_batch_seconds = r.RegisterHistogram(
        "mvg_serve_predict_batch_seconds",
        "Wall time of one ServingSession::PredictBatch call", t);
    m->train_hist_node_builds = r.RegisterCounter(
        "mvg_train_hist_node_builds_total",
        "Per-node histogram builds across all tree nodes (boosting: "
        "incl. sibling subtraction parents)");
    m->train_split_searches = r.RegisterCounter(
        "mvg_train_split_searches_total",
        "Per-node best-split searches across all features");
    m->executor_loops_dispatched = r.RegisterCounter(
        "mvg_executor_loops_dispatched_total",
        "Parallel loops dispatched to the work-stealing pool");
    m->executor_loops_inline = r.RegisterCounter(
        "mvg_executor_loops_inline_total",
        "Parallel loops run inline (small n, grain, or max_par=1)");
    m->executor_chunks_stolen = r.RegisterCounter(
        "mvg_executor_chunks_stolen_total",
        "Loop chunks stolen from another worker's range");
    m->serve_predictions = r.RegisterCounter(
        "mvg_serve_predictions_total", "Series classified by ServingSession");
    m->extract_nonfinite_samples = r.RegisterCounter(
        "mvg_extract_nonfinite_samples_total",
        "Non-finite series samples (NaN, +-inf) replaced before feature "
        "extraction");
    m->predict_rows_padded = r.RegisterCounter(
        "mvg_predict_rows_padded_total",
        "Predicted feature rows shorter than the model's width, zero-padded");
    m->predict_rows_truncated = r.RegisterCounter(
        "mvg_predict_rows_truncated_total",
        "Predicted feature rows longer than the model's width, truncated");
    m->wire_frames_sent = r.RegisterCounter(
        "mvg_wire_frames_sent_total", "Wire-protocol frames written");
    m->wire_frames_recv = r.RegisterCounter(
        "mvg_wire_frames_recv_total", "Wire-protocol frames read");
    m->wire_bytes_sent = r.RegisterCounter(
        "mvg_wire_bytes_sent_total", "Wire-protocol bytes written (incl. headers)");
    m->wire_bytes_recv = r.RegisterCounter(
        "mvg_wire_bytes_recv_total", "Wire-protocol bytes read (incl. headers)");
    return m;
  }();
  return *pm;
}

void WriteRegistryDump(const MetricsRegistry& reg, const std::string& path) {
  bool json = path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0;
  std::string body = json ? reg.JsonText() : reg.PrometheusText();
  std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw std::runtime_error("metrics dump: cannot open " + tmp);
  size_t n = std::fwrite(body.data(), 1, body.size(), f);
  bool ok = (n == body.size()) && std::fclose(f) == 0;
  if (!ok) {
    std::remove(tmp.c_str());
    throw std::runtime_error("metrics dump: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("metrics dump: rename to " + path + " failed");
  }
}

MetricsDumper::MetricsDumper(const MetricsRegistry* reg, std::string path,
                             double interval_seconds)
    : reg_(reg), path_(std::move(path)) {
  if (interval_seconds > 0) {
    auto interval = std::chrono::duration<double>(interval_seconds);
    thread_ = std::thread([this, interval] {
      std::unique_lock<std::mutex> lock(mu_);
      while (!stop_) {
        if (cv_.wait_for(lock, interval, [this] { return stop_; })) break;
        lock.unlock();
        try {
          DumpNow();
        } catch (const std::exception&) {
          // Periodic dump failures are non-fatal; the exit dump retries.
        }
        lock.lock();
      }
    });
  }
}

MetricsDumper::~MetricsDumper() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  try {
    DumpNow();
  } catch (const std::exception&) {
    // Destructors must not throw; a failed exit dump is reported by the
    // missing file, not a crash.
  }
}

void MetricsDumper::DumpNow() { WriteRegistryDump(*reg_, path_); }

}  // namespace obs
}  // namespace mvg
