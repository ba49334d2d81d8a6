#include "dist/shard_router.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/obs.h"
#include "serve/serving.h"
#include "util/binary_io.h"

namespace mvg {

namespace {

std::string EncodeSeries(const Series& s) {
  BinaryWriter w;
  w.WriteDoubleVec(s);
  return w.data();
}

Series DecodeSeries(const std::string& payload) {
  BinaryReader r(payload.data(), payload.size());
  return r.ReadDoubleVec();
}

std::string EncodeI32(int32_t v) {
  BinaryWriter w;
  w.WriteI32(v);
  return w.data();
}

std::string EncodeU64(uint64_t v) {
  BinaryWriter w;
  w.WriteU64(v);
  return w.data();
}

uint64_t DecodeU64(const std::string& payload) {
  BinaryReader r(payload.data(), payload.size());
  return r.ReadU64();
}

// splitmix64 finalizer: spreads sequential request ids uniformly over
// the shard set.
uint64_t MixId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Shard worker main loop (runs in the forked child): serves
/// kMsgShardRequest/kMsgPing/kMsgStatsReq/kMsgMetricsReq until EOF or
/// kMsgDrain. `shard_index` labels the worker's global-registry served
/// counter (mvg_shard_served_total{shard="i"}).
void RunShardWorker(int fd, const std::string& model_path, bool use_mmap,
                    size_t shard_index) {
  ServingSession session = use_mmap ? ServingSession::FromFileMapped(model_path)
                                    : ServingSession::FromFile(model_path);
  obs::Counter* served_metric = obs::MetricsRegistry::Global().RegisterCounter(
      "mvg_shard_served_total", "Requests answered by this shard worker",
      "shard=\"" + std::to_string(shard_index) + "\"");
  uint64_t served = 0;
  Frame f;
  while (ReadFrame(fd, &f)) {
    switch (f.type) {
      case kMsgShardRequest: {
        try {
          const Series s = DecodeSeries(f.payload);
          const int label = session.Predict(s);
          ++served;
          served_metric->Inc();
          WriteFrame(fd, kMsgShardResponse, f.seq, EncodeI32(label));
        } catch (const std::exception& e) {
          WriteFrame(fd, kMsgError, f.seq, std::string(e.what()));
          return;
        }
        break;
      }
      case kMsgPing:
        WriteFrame(fd, kMsgPong, f.seq, std::string());
        break;
      case kMsgStatsReq:
        WriteFrame(fd, kMsgStatsResp, f.seq, EncodeU64(served));
        break;
      case kMsgMetricsReq:
        WriteFrame(fd, kMsgMetricsResp, f.seq,
                   obs::MetricsRegistry::Global().SerializeState());
        break;
      case kMsgDrain:
        // FIFO frame processing guarantees every in-flight request was
        // answered before this acknowledgement is sent.
        WriteFrame(fd, kMsgDrained, f.seq, EncodeU64(served));
        return;
      default:
        WriteFrame(fd, kMsgError, f.seq,
                   "shard: unexpected frame type " + std::to_string(f.type));
        return;
    }
  }
}

}  // namespace

ShardRouter ShardRouter::SpawnLocal(const Options& options) {
  if (options.num_shards == 0) {
    throw std::invalid_argument("ShardRouter: num_shards must be >= 1");
  }
  if (options.max_inflight == 0) {
    throw std::invalid_argument("ShardRouter: max_inflight must be >= 1");
  }
  ShardRouter router;
  router.options_ = options;
  router.shards_.resize(options.num_shards);
  router.InitMetrics();
  for (size_t i = 0; i < options.num_shards; ++i) {
    router.workers_.Spawn("shard " + std::to_string(i), [&](int fd) {
      RunShardWorker(fd, options.model_path, options.mmap, i);
    });
    router.shards_[i].active = true;
  }
  return router;
}

ShardRouter::ShardRouter(ShardRouter&& other) noexcept
    : options_(std::move(other.options_)), shards_(std::move(other.shards_)),
      workers_(std::move(other.workers_)), ready_(std::move(other.ready_)),
      submit_time_(std::move(other.submit_time_)), next_id_(other.next_id_),
      own_registry_(std::move(other.own_registry_)),
      registry_(other.registry_), m_requests_(other.m_requests_),
      m_latency_all_(other.m_latency_all_) {
  // Instrument pointers stay valid: they live in the registry, which
  // either moved with us (own_registry_) or is external.
  other.shards_.clear();
  other.registry_ = nullptr;
}

ShardRouter::~ShardRouter() {
  // Closing a worker's socket EOFs its request loop; it exits and is
  // reaped. In-flight responses are discarded — use Drain() for a
  // loss-free removal.
  for (size_t i = 0; i < workers_.size(); ++i) {
    workers_.Stop(i, /*kill_first=*/false);
  }
}

void ShardRouter::InitMetrics() {
  if (options_.registry != nullptr) {
    registry_ = options_.registry;
  } else {
    own_registry_.reset(new obs::MetricsRegistry());
    registry_ = own_registry_.get();
  }
  m_requests_ = registry_->RegisterCounter("mvg_route_requests_total",
                                           "Requests routed to shards");
  const std::vector<double> bounds = obs::LatencyBucketsSeconds();
  m_latency_all_ = registry_->RegisterHistogram(
      "mvg_route_latency_seconds",
      "Submit-to-response route latency observed by the router", bounds,
      "shard=\"all\"");
  for (size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].latency = registry_->RegisterHistogram(
        "mvg_route_latency_seconds",
        "Submit-to-response route latency observed by the router", bounds,
        "shard=\"" + std::to_string(i) + "\"");
  }
}

size_t ShardRouter::num_active() const {
  size_t n = 0;
  for (const Shard& sh : shards_) n += sh.active ? 1 : 0;
  return n;
}

size_t ShardRouter::RouteOf(uint64_t id) const {
  std::vector<size_t> active;
  active.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].active) active.push_back(i);
  }
  if (active.empty()) {
    throw std::runtime_error("ShardRouter: no active shards");
  }
  return active[MixId(id) % active.size()];
}

void ShardRouter::PumpOne(size_t shard) {
  Shard& sh = shards_[shard];
  if (sh.inflight.empty()) {
    throw std::logic_error("ShardRouter: pump with no in-flight requests");
  }
  const Frame f =
      ReadFrom(workers_.peer(shard), kMsgShardResponse, sh.inflight.front());
  sh.inflight.pop_front();
  BinaryReader r(f.payload.data(), f.payload.size());
  ready_[f.seq] = r.ReadI32();
  auto ts = submit_time_.find(f.seq);
  if (ts != submit_time_.end()) {
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - ts->second)
                               .count();
    submit_time_.erase(ts);
    sh.latency->Observe(seconds);
    m_latency_all_->Observe(seconds);
  }
}

void ShardRouter::FlushShard(size_t shard) {
  while (!shards_[shard].inflight.empty()) PumpOne(shard);
}

uint64_t ShardRouter::Submit(const Series& s) {
  const uint64_t id = next_id_++;
  const size_t shard = RouteOf(id);
  Shard& sh = shards_[shard];
  // Bounded pipelining: collect before submitting once the window is
  // full, so the request stream can never wedge both socket buffers.
  while (sh.inflight.size() >= options_.max_inflight) PumpOne(shard);
  m_requests_->Inc();
  submit_time_[id] = std::chrono::steady_clock::now();
  const std::string request = EncodeSeries(s);
  SendTo(workers_.peer(shard), kMsgShardRequest, id, request.data(),
         request.size());
  sh.inflight.push_back(id);
  return id;
}

int ShardRouter::Collect(uint64_t id) {
  auto it = ready_.find(id);
  while (it == ready_.end()) {
    // The response can only be pending on the shard whose FIFO holds the
    // id (drained shards flushed theirs into ready_ already).
    bool pumped = false;
    for (size_t i = 0; i < shards_.size(); ++i) {
      const auto& q = shards_[i].inflight;
      if (std::find(q.begin(), q.end(), id) != q.end()) {
        PumpOne(i);
        pumped = true;
        break;
      }
    }
    if (!pumped) {
      throw std::runtime_error("ShardRouter: unknown request id " +
                               std::to_string(id));
    }
    it = ready_.find(id);
  }
  const int label = it->second;
  ready_.erase(it);
  return label;
}

std::vector<int> ShardRouter::PredictBatch(const std::vector<Series>& batch) {
  std::vector<uint64_t> ids;
  ids.reserve(batch.size());
  for (const Series& s : batch) ids.push_back(Submit(s));
  std::vector<int> out;
  out.reserve(batch.size());
  for (uint64_t id : ids) out.push_back(Collect(id));
  return out;
}

bool ShardRouter::Ping(size_t shard) {
  if (!shards_.at(shard).active) return false;
  try {
    FlushShard(shard);
    Call(workers_.peer(shard), kMsgPing, kMsgPong, next_id_++);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

std::vector<ShardRouter::ShardStats> ShardRouter::Stats() {
  std::vector<ShardStats> out(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = shards_[i];
    out[i].active = sh.active;
    out[i].pid = workers_.pid(i);
    if (sh.active) {
      FlushShard(i);
      sh.served = DecodeU64(
          Call(workers_.peer(i), kMsgStatsReq, kMsgStatsResp, next_id_++)
              .payload);
    }
    out[i].served = sh.served;
    if (sh.latency->Count() > 0) {
      out[i].p50_ms = sh.latency->Quantile(0.50) * 1e3;
      out[i].p99_ms = sh.latency->Quantile(0.99) * 1e3;
    }
  }
  return out;
}

ShardRouter::LatencySummary ShardRouter::AggregateLatency() const {
  LatencySummary summary;
  summary.count = m_latency_all_->Count();
  if (summary.count > 0) {
    summary.p50_ms = m_latency_all_->Quantile(0.50) * 1e3;
    summary.p99_ms = m_latency_all_->Quantile(0.99) * 1e3;
  }
  return summary;
}

std::string ShardRouter::FetchWorkerMetrics(size_t shard) {
  FlushShard(shard);
  return Call(workers_.peer(shard), kMsgMetricsReq, kMsgMetricsResp,
              next_id_++)
      .payload;
}

void ShardRouter::AggregateMetricsInto(obs::MetricsRegistry* into) {
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].active) {
      into->MergeSerialized(FetchWorkerMetrics(i));
    } else if (!shards_[i].drained_metrics.empty()) {
      into->MergeSerialized(shards_[i].drained_metrics);
    }
  }
  if (into != registry_) into->MergeFrom(*registry_);
}

void ShardRouter::Drain(size_t shard) {
  Shard& sh = shards_.at(shard);
  if (!sh.active) {
    throw std::runtime_error("ShardRouter: shard " + std::to_string(shard) +
                             " is already drained");
  }
  if (num_active() == 1) {
    throw std::runtime_error(
        "ShardRouter: cannot drain the last active shard");
  }
  // 1. Collect everything still in flight — those responses stay
  //    available to Collect() after the worker is gone — and capture the
  //    worker's registry state so fleet aggregation still covers this
  //    rank after it exits.
  FlushShard(shard);
  sh.drained_metrics = FetchWorkerMetrics(shard);
  // 2. Ask the worker to finish and exit; FIFO processing means the ack
  //    could only follow fully answered traffic.
  sh.served = DecodeU64(
      Call(workers_.peer(shard), kMsgDrain, kMsgDrained, next_id_++).payload);
  // 3. Reap and remove from the routing set; future ids rehash over the
  //    remaining active shards.
  workers_.Stop(shard, /*kill_first=*/false);
  sh.active = false;
}

}  // namespace mvg
