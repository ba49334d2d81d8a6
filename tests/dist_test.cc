// Distributed subsystem tests: wire framing edge cases, the in-process
// allreduce group, the 1-vs-N-worker bit-identity contract for every
// tree family (the pinned determinism guarantee of docs/ARCHITECTURE.md),
// the fork-based coordinator including worker-death handling, and the
// shard router including graceful drain under in-flight load and a dead
// shard.

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "dist/coordinator.h"
#include "dist/reducer.h"
#include "dist/shard_router.h"
#include "ml/gradient_boosting.h"
#include "ml/histogram_reducer.h"
#include "ml/random_forest.h"
#include "obs/metrics.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "tests/test_util.h"
#include "util/binary_io.h"
#include "util/framing.h"
#include "util/random.h"

namespace mvg {
namespace {

using testutil::MakeNoiseDataset;

// ---------------------------------------------------------------------------
// Wire framing
// ---------------------------------------------------------------------------

/// Self-closing pipe pair for framing tests.
struct Pipe {
  int fds[2] = {-1, -1};
  Pipe() { EXPECT_EQ(pipe(fds), 0); }
  ~Pipe() {
    CloseWrite();
    if (fds[0] >= 0) close(fds[0]);
  }
  void CloseWrite() {
    if (fds[1] >= 0) {
      close(fds[1]);
      fds[1] = -1;
    }
  }
  int r() const { return fds[0]; }
  int w() const { return fds[1]; }
};

void WriteRaw(int fd, const std::string& bytes) {
  ASSERT_EQ(write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
}

TEST(Framing, RoundTripAndCleanEof) {
  Pipe p;
  const std::string payload = "distributed histogram merge";
  WriteFrame(p.w(), kMsgPing, 7, std::string());
  WriteFrame(p.w(), kMsgShardRequest, 8, payload);
  p.CloseWrite();

  Frame f;
  ASSERT_TRUE(ReadFrame(p.r(), &f));
  EXPECT_EQ(f.type, kMsgPing);
  EXPECT_EQ(f.seq, 7u);
  EXPECT_TRUE(f.payload.empty());
  ASSERT_TRUE(ReadFrame(p.r(), &f));
  EXPECT_EQ(f.type, kMsgShardRequest);
  EXPECT_EQ(f.seq, 8u);
  EXPECT_EQ(f.payload, payload);
  EXPECT_FALSE(ReadFrame(p.r(), &f));  // EOF at a frame boundary is clean
}

TEST(Framing, TruncatedHeaderThrows) {
  Pipe p;
  const std::string header = EncodeFrameHeader(kMsgPing, 1, nullptr, 0);
  WriteRaw(p.w(), header.substr(0, kFrameHeaderBytes / 2));
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

TEST(Framing, TruncatedPayloadThrows) {
  Pipe p;
  const std::string payload = "only half of this arrives";
  WriteRaw(p.w(),
           EncodeFrameHeader(kMsgShardRequest, 2, payload.data(),
                             payload.size()));
  WriteRaw(p.w(), payload.substr(0, payload.size() / 2));
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

TEST(Framing, BadMagicThrows) {
  Pipe p;
  std::string header = EncodeFrameHeader(kMsgPing, 3, nullptr, 0);
  header[0] ^= 0xFF;
  WriteRaw(p.w(), header);
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

TEST(Framing, VersionMismatchThrows) {
  Pipe p;
  std::string header = EncodeFrameHeader(kMsgPing, 4, nullptr, 0);
  header[4] = static_cast<char>(kWireVersion + 1);  // u16le version field
  header[5] = 0;
  WriteRaw(p.w(), header);
  p.CloseWrite();
  Frame f;
  try {
    ReadFrame(p.r(), &f);
    FAIL() << "expected SerializationError";
  } catch (const SerializationError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST(Framing, OversizedPayloadRejectedBothSides) {
  Pipe p;
  // Writer side refuses before anything hits the wire.
  EXPECT_THROW(WriteFrame(p.w(), kMsgPing, 5, nullptr, kMaxFramePayload + 1),
               SerializationError);
  // Reader side rejects a forged size field without allocating.
  std::string header = EncodeFrameHeader(kMsgPing, 5, nullptr, 0);
  const uint32_t huge = kMaxFramePayload + 1;
  std::memcpy(&header[16], &huge, sizeof(huge));  // payload-size field
  WriteRaw(p.w(), header);
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

TEST(Framing, PayloadCrcMismatchThrows) {
  Pipe p;
  std::string payload = "checksummed payload";
  WriteRaw(p.w(),
           EncodeFrameHeader(kMsgShardRequest, 6, payload.data(),
                             payload.size()));
  payload[3] ^= 0x40;  // corrupt after the CRC was computed
  WriteRaw(p.w(), payload);
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

TEST(Framing, NonzeroCrcOnEmptyPayloadThrows) {
  Pipe p;
  std::string header = EncodeFrameHeader(kMsgPing, 7, nullptr, 0);
  header[20] = 1;  // CRC field must be zero when payload is empty
  WriteRaw(p.w(), header);
  p.CloseWrite();
  Frame f;
  EXPECT_THROW(ReadFrame(p.r(), &f), SerializationError);
}

// ---------------------------------------------------------------------------
// In-process reducer group
// ---------------------------------------------------------------------------

TEST(LocalReducer, WorldOneIsIdentity) {
  LocalReducerGroup group(1);
  EXPECT_EQ(group.reducer(0)->world_size(), 1u);
  int64_t data[3] = {5, -7, 11};
  group.reducer(0)->AllreduceSum(data, 3);
  EXPECT_EQ(data[0], 5);
  EXPECT_EQ(data[1], -7);
  EXPECT_EQ(data[2], 11);
}

TEST(LocalReducer, SumsAcrossRanksOverManyRounds) {
  constexpr size_t kWorld = 3;
  constexpr int kRounds = 20;
  LocalReducerGroup group(kWorld);
  std::vector<std::thread> ranks;
  for (size_t r = 0; r < kWorld; ++r) {
    ranks.emplace_back([&group, r] {
      HistogramReducer* red = group.reducer(r);
      EXPECT_EQ(red->rank(), r);
      for (int round = 0; round < kRounds; ++round) {
        int64_t data[2] = {static_cast<int64_t>(r + 1),
                           static_cast<int64_t>(round)};
        red->AllreduceSum(data, 2);
        EXPECT_EQ(data[0], 1 + 2 + 3) << "round " << round;
        EXPECT_EQ(data[1], static_cast<int64_t>(3 * round));
      }
    });
  }
  for (std::thread& t : ranks) t.join();
}

TEST(LocalReducer, CountMismatchThrows) {
  LocalReducerGroup group(2);
  std::atomic<int> mismatches{0};
  // The ranks disagree on the reduce size; whichever arrives second sees
  // the conflict and throws, then retries with the winner's size so the
  // round (and the other rank) can complete.
  const auto run = [&](size_t rank, size_t count, size_t other) {
    std::vector<int64_t> v(count, 1);
    try {
      group.reducer(rank)->AllreduceSum(v.data(), count);
    } catch (const std::logic_error&) {
      ++mismatches;
      std::vector<int64_t> retry(other, 1);
      group.reducer(rank)->AllreduceSum(retry.data(), other);
    }
  };
  std::thread rank0([&run] { run(0, 3, 4); });
  run(1, 4, 3);
  rank0.join();
  EXPECT_EQ(mismatches.load(), 1);
}

// ---------------------------------------------------------------------------
// 1-vs-N bit identity (the determinism contract)
// ---------------------------------------------------------------------------

void MakeBlobs(size_t per_class, size_t num_classes, uint64_t seed, Matrix* x,
               std::vector<int>* y) {
  Rng rng(seed);
  for (size_t c = 0; c < num_classes; ++c) {
    for (size_t i = 0; i < per_class; ++i) {
      x->push_back({3.0 * static_cast<double>(c) + rng.Gaussian(0, 0.7),
                    rng.Gaussian(0, 0.7),
                    rng.Gaussian(0, 0.7) - static_cast<double>(c)});
      y->push_back(static_cast<int>(c));
    }
  }
}

/// Fits one classifier per rank against a shared LocalReducerGroup and
/// returns every rank's serialized bytes (they must all agree — the
/// cross-rank half of the contract).
template <typename ClassifierT, typename ParamsT>
std::vector<std::string> FitDistributed(ParamsT params, size_t world,
                                        const Matrix& x,
                                        const std::vector<int>& y) {
  LocalReducerGroup group(world);
  std::vector<std::string> bytes(world);
  std::vector<std::thread> ranks;
  for (size_t r = 0; r < world; ++r) {
    ranks.emplace_back([&, r] {
      ParamsT p = params;
      p.reducer = group.reducer(r);
      ClassifierT clf(p);
      clf.Fit(x, y);
      BinaryWriter w;
      clf.SaveBinary(&w);
      bytes[r] = w.data();
    });
  }
  for (std::thread& t : ranks) t.join();
  return bytes;
}

TEST(DistTraining, GbtBitIdenticalForAnyWorkerCount) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 3, 17, &x, &y);
  GradientBoostingClassifier::Params params;
  params.num_rounds = 12;
  params.max_depth = 3;
  params.subsample = 0.8;  // row sampling must respect ownership too

  const std::vector<std::string> w1 =
      FitDistributed<GradientBoostingClassifier>(params, 1, x, y);
  for (size_t world : {2u, 3u, 5u}) {
    const std::vector<std::string> wn =
        FitDistributed<GradientBoostingClassifier>(params, world, x, y);
    for (size_t r = 0; r < world; ++r) {
      EXPECT_EQ(wn[r], w1[0]) << "world " << world << " rank " << r;
    }
  }
}

TEST(DistTraining, RfBitIdenticalForAnyWorkerCount) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(25, 2, 23, &x, &y);
  RandomForestClassifier::Params params;
  params.num_trees = 10;
  params.max_depth = 6;

  const std::vector<std::string> w1 =
      FitDistributed<RandomForestClassifier>(params, 1, x, y);
  for (size_t world : {2u, 4u}) {
    const std::vector<std::string> wn =
        FitDistributed<RandomForestClassifier>(params, world, x, y);
    for (size_t r = 0; r < world; ++r) {
      EXPECT_EQ(wn[r], w1[0]) << "world " << world << " rank " << r;
    }
  }
}

TEST(DistTraining, DistributedPredictionsStayCorrect) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(30, 2, 31, &x, &y);
  LocalReducerGroup group(1);
  GradientBoostingClassifier::Params params;
  params.num_rounds = 15;
  params.reducer = group.reducer(0);
  GradientBoostingClassifier gbt(params);
  gbt.Fit(x, y);
  size_t correct = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    correct += gbt.Predict(x[i]) == y[i] ? 1 : 0;
  }
  // Quantized accumulation must not hurt the fit on separable blobs.
  EXPECT_GE(correct, x.size() - 2);
}

TEST(DistTraining, FullPipelineBitIdenticalForAnyWorkerCount) {
  const Dataset train = MakeNoiseDataset("dist_train", {0, 1}, 5, 48, 7);

  const auto fit_world = [&train](size_t world) {
    LocalReducerGroup group(world);
    std::vector<std::string> bytes(world);
    std::vector<std::thread> ranks;
    for (size_t r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        MvgClassifier::Config config;
        config.grid = GridPreset::kNone;
        config.reducer = group.reducer(r);
        MvgClassifier clf(config);
        clf.Fit(train);
        std::ostringstream os;
        SaveModel(clf, os);
        bytes[r] = os.str();
      });
    }
    for (std::thread& t : ranks) t.join();
    return bytes;
  };

  const std::vector<std::string> w1 = fit_world(1);
  const std::vector<std::string> w3 = fit_world(3);
  for (size_t r = 0; r < w3.size(); ++r) {
    EXPECT_EQ(w3[r], w1[0]) << "rank " << r;
  }
  // The saved bytes are a loadable, serving-ready model.
  std::istringstream is(w1[0]);
  const MvgClassifier loaded = LoadModel(is);
  EXPECT_EQ(loaded.PredictAll(train).size(), train.size());
}

// ---------------------------------------------------------------------------
// Fork-based coordinator
// ---------------------------------------------------------------------------

std::string FitGbtBytes(HistogramReducer* red) {
  Matrix x;
  std::vector<int> y;
  MakeBlobs(20, 2, 13, &x, &y);
  GradientBoostingClassifier::Params params;
  params.num_rounds = 8;
  params.reducer = red;
  GradientBoostingClassifier gbt(params);
  gbt.Fit(x, y);
  BinaryWriter w;
  gbt.SaveBinary(&w);
  return w.data();
}

TEST(Coordinator, CrossProcessTrainingBitIdentical) {
  const std::string one = RunDistributedTraining(1, FitGbtBytes);
  const std::string two = RunDistributedTraining(2, FitGbtBytes);
  EXPECT_FALSE(one.empty());
  EXPECT_EQ(one, two);
}

TEST(Coordinator, ZeroWorkersRejected) {
  EXPECT_THROW(RunDistributedTraining(0, FitGbtBytes),
               std::invalid_argument);
}

TEST(Coordinator, WorkerDeathMidReduceFailsCleanly) {
  // Rank 1 dies between collectives; the coordinator must kill the
  // fleet and throw instead of leaving rank 0 blocked forever.
  const auto fit = [](HistogramReducer* red) -> std::string {
    int64_t v[2] = {1, 2};
    red->AllreduceSum(v, 2);
    if (red->rank() == 1) _exit(3);
    red->AllreduceSum(v, 2);
    return "model";
  };
  try {
    RunDistributedTraining(2, fit);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exited"), std::string::npos)
        << e.what();
  }
}

TEST(Coordinator, WorkerExceptionPropagates) {
  const auto fit = [](HistogramReducer* red) -> std::string {
    if (red->rank() == 1) throw std::runtime_error("boom at rank 1");
    int64_t v[1] = {1};
    red->AllreduceSum(v, 1);
    return "model";
  };
  try {
    RunDistributedTraining(2, fit);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("boom at rank 1"),
              std::string::npos)
        << e.what();
  }
}

// ---------------------------------------------------------------------------
// Shard router
// ---------------------------------------------------------------------------

class ShardRouterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Per-process path: gtest_discover_tests runs every case in its own
    // process, and parallel ctest must not overwrite a model file that
    // a sibling process's shard workers are concurrently loading.
    model_path_ = new std::string(::testing::TempDir() +
                                  "dist_test_router_model_" +
                                  std::to_string(getpid()) + ".mvg");
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    MvgClassifier clf(config);
    clf.Fit(MakeNoiseDataset("router_train", {0, 1, 2}, 5, 48, 19));
    SaveModel(clf, *model_path_);
    test_set_ = new Dataset(
        MakeNoiseDataset("router_test", {0, 1, 2}, 8, 48, 77));
  }

  static void TearDownTestSuite() {
    unlink(model_path_->c_str());
    delete model_path_;
    delete test_set_;
    model_path_ = nullptr;
    test_set_ = nullptr;
  }

  static std::string* model_path_;
  static Dataset* test_set_;
};

std::string* ShardRouterTest::model_path_ = nullptr;
Dataset* ShardRouterTest::test_set_ = nullptr;

TEST_F(ShardRouterTest, MatchesDirectServingAcrossShards) {
  ServingSession direct = ServingSession::FromFile(*model_path_);
  const std::vector<int> want = direct.PredictBatch(
      test_set_->all_series().data(), test_set_->size(), 1);

  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 3;
  ShardRouter router = ShardRouter::SpawnLocal(opt);
  EXPECT_EQ(router.PredictBatch(test_set_->all_series()), want);
}

TEST_F(ShardRouterTest, PingAndAggregateStats) {
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 2;
  ShardRouter router = ShardRouter::SpawnLocal(opt);
  router.PredictBatch(test_set_->all_series());

  uint64_t served = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    EXPECT_TRUE(router.Ping(i)) << "shard " << i;
  }
  for (const ShardRouter::ShardStats& s : router.Stats()) {
    EXPECT_TRUE(s.active);
    served += s.served;
  }
  EXPECT_EQ(served, test_set_->size());
}

TEST_F(ShardRouterTest, DrainUnderInFlightLoadLosesNothing) {
  ServingSession direct = ServingSession::FromFile(*model_path_);
  const std::vector<int> want = direct.PredictBatch(
      test_set_->all_series().data(), test_set_->size(), 1);

  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 3;
  opt.max_inflight = 64;  // keep everything in flight until the drain
  ShardRouter router = ShardRouter::SpawnLocal(opt);

  // Submit half the stream without collecting, so every shard holds
  // uncollected in-flight responses, then drain one shard.
  const size_t half = test_set_->size() / 2;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < half; ++i) {
    ids.push_back(router.Submit(test_set_->series(i)));
  }
  router.Drain(1);
  EXPECT_EQ(router.num_active(), 2u);
  EXPECT_FALSE(router.Ping(1));  // drained shards fail health checks

  // Remaining traffic rehashes over the survivors; nothing is lost.
  for (size_t i = half; i < test_set_->size(); ++i) {
    ids.push_back(router.Submit(test_set_->series(i)));
  }
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(router.Collect(ids[i]), want[i]) << "series " << i;
  }

  // The drained worker's served count survives in stats.
  uint64_t served = 0;
  for (const ShardRouter::ShardStats& s : router.Stats()) served += s.served;
  EXPECT_EQ(served, test_set_->size());
}

TEST_F(ShardRouterTest, DrainGuards) {
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 3;
  ShardRouter router = ShardRouter::SpawnLocal(opt);
  router.Drain(0);
  EXPECT_THROW(router.Drain(0), std::runtime_error);  // already drained
  router.Drain(2);
  EXPECT_THROW(router.Drain(1), std::runtime_error);  // last active shard
  EXPECT_EQ(router.num_active(), 1u);
  // The surviving shard still serves.
  EXPECT_EQ(router.Predict(test_set_->series(0)),
            ServingSession::FromFile(*model_path_)
                .Predict(test_set_->series(0)));
}

TEST_F(ShardRouterTest, MmapShardsMatchStreamShards) {
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 2;
  ShardRouter stream_router = ShardRouter::SpawnLocal(opt);
  opt.mmap = true;
  ShardRouter mmap_router = ShardRouter::SpawnLocal(opt);
  EXPECT_EQ(mmap_router.PredictBatch(test_set_->all_series()),
            stream_router.PredictBatch(test_set_->all_series()));
}

TEST_F(ShardRouterTest, InvalidOptionsRejected) {
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 0;
  EXPECT_THROW(ShardRouter::SpawnLocal(opt), std::invalid_argument);
  opt.num_shards = 1;
  opt.max_inflight = 0;
  EXPECT_THROW(ShardRouter::SpawnLocal(opt), std::invalid_argument);
}

TEST_F(ShardRouterTest, DeadShardFailsNamingItAndIsReaped) {
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 2;
  {
    ShardRouter router = ShardRouter::SpawnLocal(opt);
    const pid_t pid = router.Stats()[0].pid;
    ASSERT_GT(pid, 0);
    ASSERT_EQ(kill(pid, SIGKILL), 0);
    // Wait until the shard is gone, without reaping it (WNOWAIT leaves
    // that to the router): its socket is closed, so the first request
    // routed to it fails on the write.
    siginfo_t info;
    ASSERT_EQ(waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT),
              0);
    try {
      router.PredictBatch(test_set_->all_series());
      FAIL() << "expected runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("shard 0"), std::string::npos)
          << e.what();
    }
  }  // the destructor reaps both workers and returns.
}

TEST_F(ShardRouterTest, AggregateMetricsCoverEveryWorkerRank) {
  obs::MetricsRegistry reg;
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 2;
  opt.registry = &reg;
  ShardRouter router = ShardRouter::SpawnLocal(opt);
  router.PredictBatch(test_set_->all_series());

  // Router-observed latency: per-shard percentiles and the shard="all"
  // aggregate come from the same observation stream.
  for (const ShardRouter::ShardStats& s : router.Stats()) {
    EXPECT_GE(s.p99_ms, s.p50_ms);
  }
  const ShardRouter::LatencySummary agg = router.AggregateLatency();
  EXPECT_EQ(agg.count, test_set_->size());
  EXPECT_GE(agg.p99_ms, agg.p50_ms);
  EXPECT_GT(agg.p99_ms, 0.0);

  // Cross-process aggregation: each worker rank's registry arrives over
  // the wire; the per-shard served counters must account for every
  // request exactly once.
  router.AggregateMetricsInto(&reg);
  uint64_t served = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    obs::Counter* c = reg.FindCounter(
        "mvg_shard_served_total", "shard=\"" + std::to_string(i) + "\"");
    ASSERT_NE(c, nullptr) << "shard " << i;
    served += c->Value();
  }
  EXPECT_EQ(served, test_set_->size());
  ASSERT_NE(reg.FindCounter("mvg_route_requests_total"), nullptr);
  EXPECT_EQ(reg.FindCounter("mvg_route_requests_total")->Value(),
            test_set_->size());
  obs::Histogram* all =
      reg.FindHistogram("mvg_route_latency_seconds", "shard=\"all\"");
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(all->Count(), test_set_->size());
}

TEST_F(ShardRouterTest, AggregateMetricsIncludeDrainedShards) {
  obs::MetricsRegistry reg;
  ShardRouter::Options opt;
  opt.model_path = *model_path_;
  opt.num_shards = 3;
  opt.registry = &reg;
  ShardRouter router = ShardRouter::SpawnLocal(opt);

  // Route half the stream, drain a shard (its registry state is
  // captured before the worker exits), route the rest over the
  // survivors: the fleet view must still account for every request.
  const size_t half = test_set_->size() / 2;
  std::vector<uint64_t> ids;
  for (size_t i = 0; i < half; ++i) {
    ids.push_back(router.Submit(test_set_->series(i)));
  }
  router.Drain(1);
  for (size_t i = half; i < test_set_->size(); ++i) {
    ids.push_back(router.Submit(test_set_->series(i)));
  }
  for (uint64_t id : ids) router.Collect(id);

  router.AggregateMetricsInto(&reg);
  uint64_t served = 0;
  for (size_t i = 0; i < router.num_shards(); ++i) {
    obs::Counter* c = reg.FindCounter(
        "mvg_shard_served_total", "shard=\"" + std::to_string(i) + "\"");
    if (c != nullptr) served += c->Value();
  }
  EXPECT_EQ(served, test_set_->size());
}

TEST(Coordinator, WorkerMetricsAggregateIntoParentRegistry) {
  // The final protocol step after the model exchange ships each rank's
  // registry to the coordinator, which merges them into the parent's
  // global registry. Each rank leaves a distinct footprint (rank+1), so
  // the merged sum pins both delivery and additivity. Ranks zero their
  // inherited registry post-fork, so only post-fork deltas count.
  obs::Counter* probe = obs::MetricsRegistry::Global().RegisterCounter(
      "dist_probe_total", "per-rank metrics-exchange probe");
  const uint64_t before = probe->Value();
  RunDistributedTraining(2, [](HistogramReducer* red) -> std::string {
    obs::MetricsRegistry::Global()
        .RegisterCounter("dist_probe_total",
                         "per-rank metrics-exchange probe")
        ->Inc(static_cast<uint64_t>(red->rank()) + 1);
    int64_t v[1] = {1};
    red->AllreduceSum(v, 1);
    return "model";
  });
  EXPECT_EQ(probe->Value() - before, 3u);  // rank 0 sent 1, rank 1 sent 2
}

}  // namespace
}  // namespace mvg
