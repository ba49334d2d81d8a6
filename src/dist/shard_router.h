#ifndef MVG_DIST_SHARD_ROUTER_H_
#define MVG_DIST_SHARD_ROUTER_H_

// Sharded serving: hash-partition a prediction request stream across N
// forked worker processes (dist/worker.h), each wrapping a
// ServingSession over the same model file, connected by the
// util/framing.h wire protocol (spec: docs/FORMATS.md; runbook:
// docs/OPERATIONS.md).
//
// The router pipelines up to Options::max_inflight requests per shard
// (bounded, so neither side's socket buffer can deadlock) and supports
// per-shard health checks (Ping), aggregate stats, and graceful drain:
// Drain(shard) collects that shard's in-flight responses, tells the
// worker to finish and exit, waits for the acknowledgement, and reroutes
// all future traffic over the remaining shards — no request is dropped.

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <sys/types.h>
#include <unordered_map>
#include <vector>

#include "dist/worker.h"
#include "obs/metrics.h"
#include "ts/dataset.h"

namespace mvg {

class ShardRouter {
 public:
  struct Options {
    std::string model_path;
    size_t num_shards = 1;
    /// Load the model zero-copy (ServingSession::FromFileMapped) in each
    /// shard — N shards then share one physical copy of the model pages.
    bool mmap = false;
    /// Max pipelined (submitted, not yet collected) requests per shard.
    size_t max_inflight = 16;
    /// Registry for the router's instruments (request counter, per-shard
    /// and aggregate route-latency histograms). nullptr = a private
    /// registry owned by the router.
    obs::MetricsRegistry* registry = nullptr;
  };

  /// Forks `num_shards` local worker processes, each loading the model
  /// and serving the frame protocol over its socketpair. Fork-safety:
  /// the children never touch the parent's executor pool (per-request
  /// prediction is single-threaded by design — parallelism comes from
  /// shard count), so spawning from a process with live pool threads is
  /// safe.
  static ShardRouter SpawnLocal(const Options& options);

  ~ShardRouter();
  ShardRouter(ShardRouter&& other) noexcept;
  ShardRouter& operator=(ShardRouter&&) = delete;
  ShardRouter(const ShardRouter&) = delete;
  ShardRouter& operator=(const ShardRouter&) = delete;

  /// Pipelined submit: routes the series to a shard by request-id hash
  /// over the currently active shards and returns the request id.
  /// Blocks only when that shard's in-flight window is full.
  uint64_t Submit(const Series& s);

  /// Blocks until the response for `id` has arrived (responses arriving
  /// for other ids meanwhile are buffered).
  int Collect(uint64_t id);

  /// Submit + Collect.
  int Predict(const Series& s) { return Collect(Submit(s)); }

  /// Convenience: pipelined predictions for a whole batch, in order.
  std::vector<int> PredictBatch(const std::vector<Series>& batch);

  /// Health check: true iff the shard is active and answers a ping.
  bool Ping(size_t shard);

  struct ShardStats {
    bool active = false;
    pid_t pid = -1;
    uint64_t served = 0;  ///< requests answered, as counted by the worker.
    /// Submit-to-response route latency as observed by the router
    /// (includes pipeline queueing), histogram-interpolated percentiles
    /// over every request this shard has answered. 0 when none.
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  /// Per-shard stats (served counts queried live from active workers).
  std::vector<ShardStats> Stats();

  /// Route latency over ALL shards combined (same observation stream as
  /// the per-shard histograms, one `shard="all"` aggregate instrument).
  struct LatencySummary {
    uint64_t count = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
  };
  LatencySummary AggregateLatency() const;

  /// Cross-process aggregation: flushes in-flight traffic, asks every
  /// active worker for its serialized MetricsRegistry state over the
  /// wire (kMsgMetricsReq/kMsgMetricsResp), and merges those states —
  /// plus the states captured from shards removed by Drain(), plus the
  /// router's own instruments when `into` is a different registry —
  /// into `into`. One call yields one fleet-wide view; calling it twice
  /// double-counts the drained and router-side contributions, so treat
  /// it as an end-of-run export.
  void AggregateMetricsInto(obs::MetricsRegistry* into);

  /// Gracefully drains one shard: flushes its in-flight responses into
  /// the router's buffer (they remain collectable), instructs the worker
  /// to exit, reaps it, and removes it from the routing set. Throws if
  /// the shard is already inactive or if it is the last active shard.
  void Drain(size_t shard);

  size_t num_shards() const { return shards_.size(); }
  size_t num_active() const;

 private:
  struct Shard {
    bool active = false;
    uint64_t served = 0;              ///< last stats reading.
    std::deque<uint64_t> inflight;    ///< FIFO of submitted request ids.
    obs::Histogram* latency = nullptr;  ///< route latency, shard="i".
    std::string drained_metrics;  ///< registry state captured at Drain().
  };

  ShardRouter() = default;

  /// Registers the router's instruments in Options::registry (or a
  /// fresh private registry).
  void InitMetrics();
  /// Wire round trip: worker's serialized registry state.
  std::string FetchWorkerMetrics(size_t shard);

  size_t RouteOf(uint64_t id) const;
  void PumpOne(size_t shard);   ///< read one response frame from a shard.
  void FlushShard(size_t shard);

  Options options_;
  std::vector<Shard> shards_;
  WorkerFleet workers_;  ///< worker i serves shards_[i].
  std::unordered_map<uint64_t, int> ready_;  ///< collected responses.
  /// Submit timestamps of in-flight ids, consumed by PumpOne.
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point>
      submit_time_;
  uint64_t next_id_ = 0;

  std::unique_ptr<obs::MetricsRegistry> own_registry_;
  obs::MetricsRegistry* registry_ = nullptr;
  obs::Counter* m_requests_ = nullptr;      ///< mvg_route_requests_total.
  obs::Histogram* m_latency_all_ = nullptr; ///< shard="all" aggregate.
};

}  // namespace mvg

#endif  // MVG_DIST_SHARD_ROUTER_H_
