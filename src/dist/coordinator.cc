#include "dist/coordinator.h"

#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "dist/worker.h"
#include "obs/obs.h"
#include "util/binary_io.h"

namespace mvg {

namespace {

// Payloads are raw int64 arrays in host byte order: the transport is
// same-machine by construction (socketpairs between forks), and every
// supported host is little-endian — matching the frame header and the
// .mvg on-disk convention.
void DecodeI64(const std::string& payload, std::vector<int64_t>* out) {
  if (payload.size() % sizeof(int64_t) != 0) {
    throw SerializationError("dist: allreduce payload not a multiple of 8");
  }
  out->resize(payload.size() / sizeof(int64_t));
  if (!out->empty()) {
    std::memcpy(out->data(), payload.data(), payload.size());
  }
}

/// Worker-side transport endpoint: each AllreduceSum sends one
/// kMsgAllreduceI64 frame and blocks for the matching kMsgAllreduceResult.
class SocketReducer : public HistogramReducer {
 public:
  SocketReducer(int fd, size_t rank, size_t world)
      : coordinator_{fd, "coordinator"}, rank_(rank), world_(world) {}

  size_t rank() const override { return rank_; }
  size_t world_size() const override { return world_; }

  void AllreduceSum(int64_t* data, size_t count) override {
    obs::ObsSpan span(obs::PipelineMetrics::Get().hist_reduce_seconds);
    const size_t bytes = count * sizeof(int64_t);
    const Frame resp = Call(coordinator_, kMsgAllreduceI64,
                            kMsgAllreduceResult, seq_++, data, bytes);
    if (resp.payload.size() != bytes) {
      throw std::runtime_error("dist: unexpected allreduce response size");
    }
    std::memcpy(data, resp.payload.data(), bytes);
  }

 private:
  Peer coordinator_;
  size_t rank_;
  size_t world_;
  uint64_t seq_ = 0;
};

}  // namespace

std::string RunDistributedTraining(
    size_t workers,
    const std::function<std::string(HistogramReducer*)>& fit) {
  if (workers == 0) {
    throw std::invalid_argument("dist: workers must be >= 1");
  }
  // Every exit from here, return or exception, destroys the fleet, which
  // kills and reaps every rank still running: a dead rank can never
  // leave its siblings blocked in a collective.
  WorkerFleet fleet;
  for (size_t w = 0; w < workers; ++w) {
    fleet.Spawn("worker " + std::to_string(w), [&](int fd) {
      SocketReducer reducer(fd, w, workers);
      WriteFrame(fd, kMsgModelBytes, 0, fit(&reducer));
      WriteFrame(fd, kMsgMetricsResp, 0,
                 obs::MetricsRegistry::Global().SerializeState());
    });
  }

  // Collective rounds: rank 0's next frame determines the round type;
  // every other rank must send a matching frame.
  std::vector<int64_t> acc, part;
  Frame f0 = ReadFrom(fleet.peer(0));
  while (f0.type == kMsgAllreduceI64) {
    DecodeI64(f0.payload, &acc);
    for (size_t w = 1; w < workers; ++w) {
      const Frame fw = ReadFrom(fleet.peer(w), kMsgAllreduceI64, f0.seq);
      if (fw.payload.size() != f0.payload.size()) {
        throw std::runtime_error(
            "dist: workers desynchronized (rank " + std::to_string(w) +
            " sent a mismatched collective at seq " + std::to_string(f0.seq) +
            ")");
      }
      DecodeI64(fw.payload, &part);
      for (size_t i = 0; i < acc.size(); ++i) acc[i] += part[i];
    }
    for (size_t w = 0; w < workers; ++w) {
      SendTo(fleet.peer(w), kMsgAllreduceResult, f0.seq, acc.data(),
             acc.size() * sizeof(int64_t));
    }
    f0 = ReadFrom(fleet.peer(0));
  }
  if (f0.type != kMsgModelBytes) {
    throw std::runtime_error("dist: unexpected frame type " +
                             std::to_string(f0.type) + " from worker 0");
  }

  // End of training: collect every rank's model and enforce the
  // bit-identity contract before anything is returned.
  for (size_t w = 1; w < workers; ++w) {
    if (ReadFrom(fleet.peer(w), kMsgModelBytes, 0).payload != f0.payload) {
      throw std::runtime_error(
          "dist: determinism violation — worker " + std::to_string(w) +
          " produced different model bytes than worker 0");
    }
  }
  // Final protocol step: every rank ships its registry state, merged
  // into this process's global registry so one dump covers the fleet.
  for (size_t w = 0; w < workers; ++w) {
    const Frame fm = ReadFrom(fleet.peer(w), kMsgMetricsResp, 0);
    try {
      obs::MetricsRegistry::Global().MergeSerialized(fm.payload);
    } catch (const std::exception& e) {
      throw std::runtime_error("dist: worker " + std::to_string(w) +
                               " sent malformed metrics: " + e.what());
    }
  }
  return f0.payload;
}

}  // namespace mvg
