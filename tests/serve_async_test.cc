// AsyncServingSession: the micro-batching async front end must answer
// exactly like the synchronous path (batching changes scheduling, never
// results), resolve every future under concurrent producers, flush
// partial batches on timeout, coalesce up to batch_max, shut down
// gracefully with work queued, and report sane stats.

#include <algorithm>
#include <atomic>
#include <sstream>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "obs/obs.h"
#include "serve/async_serving.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "ts/generators.h"

namespace mvg {
namespace {

constexpr size_t kSeriesLen = 64;

/// One small fitted pipeline shared by every test in this suite (training
/// is the expensive part; the async session under test is rebuilt per
/// test).
const MvgClassifier& SharedModel() {
  static const MvgClassifier* model = []() {
    Dataset train("async_train");
    for (size_t i = 0; i < 20; ++i) {
      train.Add(GaussianNoise(kSeriesLen, 500 + i), static_cast<int>(i % 2));
    }
    MvgClassifier::Config config;
    config.grid = GridPreset::kNone;
    auto* clf = new MvgClassifier(config);
    clf->Fit(train);
    return clf;
  }();
  return *model;
}

/// MvgClassifier owns its model behind a unique_ptr (not copyable), so
/// tests clone the shared fitted pipeline through the binary format —
/// predictions of the loaded pipeline are bit-identical by the PR-3
/// persistence contract.
MvgClassifier CloneModel() {
  std::stringstream buffer;
  SharedModel().SaveBinary(buffer);
  return MvgClassifier::LoadBinary(buffer);
}

std::vector<Series> MakeBatch(size_t count, uint64_t seed) {
  std::vector<Series> batch;
  batch.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    batch.push_back(GaussianNoise(kSeriesLen, seed + i));
  }
  return batch;
}

TEST(AsyncServingTest, MatchesSynchronousPredictions) {
  const std::vector<Series> batch = MakeBatch(24, 9000);
  ServingSession sync(CloneModel());
  const std::vector<int> expected = sync.PredictBatch(batch, 1);

  AsyncServingSession::Options opt;
  opt.batch_max = 5;  // force several partial batches
  opt.batch_timeout_ms = 1.0;
  AsyncServingSession async(CloneModel(), opt);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]) << "series " << i;
  }
}

TEST(AsyncServingTest, ConcurrentProducersAllResolve) {
  AsyncServingSession::Options opt;
  opt.batch_max = 8;
  opt.batch_timeout_ms = 1.0;
  opt.queue_capacity = 16;  // small: exercises producer backpressure
  AsyncServingSession async(CloneModel(), opt);

  constexpr size_t kProducers = 4;
  constexpr size_t kPerProducer = 8;
  // Expected labels computed up front on the synchronous session (which
  // is single-client by contract, so it must not be shared by producers).
  std::vector<std::vector<Series>> inputs(kProducers);
  std::vector<std::vector<int>> expected(kProducers);
  {
    ServingSession sync(CloneModel());
    for (size_t p = 0; p < kProducers; ++p) {
      for (size_t i = 0; i < kPerProducer; ++i) {
        inputs[p].push_back(GaussianNoise(kSeriesLen, 7000 + p * 100 + i));
      }
      expected[p] = sync.PredictBatch(inputs[p], 1);
    }
  }
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> producers;
  for (size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p]() {
      for (size_t i = 0; i < kPerProducer; ++i) {
        std::future<int> f = async.Submit(inputs[p][i]);
        if (f.get() != expected[p][i]) mismatches++;
      }
    });
  }
  for (std::thread& t : producers) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const AsyncServingSession::Stats stats = async.stats();
  EXPECT_EQ(stats.submitted, kProducers * kPerProducer);
  EXPECT_EQ(stats.completed, kProducers * kPerProducer);
  EXPECT_EQ(stats.queue_depth, 0u);
}

TEST(AsyncServingTest, CoalescesUpToBatchMax) {
  // With a long timeout, requests submitted back-to-back coalesce into
  // full batches: 16 submissions against batch_max=8 must dispatch as
  // far fewer than 16 batches (16 only if coalescing is broken).
  AsyncServingSession::Options opt;
  opt.batch_max = 8;
  opt.batch_timeout_ms = 1000.0;
  AsyncServingSession async(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(16, 11000);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (auto& f : futures) f.get();
  const AsyncServingSession::Stats stats = async.stats();
  EXPECT_EQ(stats.completed, 16u);
  EXPECT_LE(stats.batches, 8u);
  EXPECT_GE(stats.mean_batch_size, 2.0);
}

TEST(AsyncServingTest, TimeoutFlushesPartialBatch) {
  // batch_max far above the submission count: only the timeout can flush,
  // so resolved futures prove the flush path works.
  AsyncServingSession::Options opt;
  opt.batch_max = 1024;
  opt.batch_timeout_ms = 5.0;
  AsyncServingSession async(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(3, 12000);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (auto& f : futures) {
    EXPECT_EQ(f.wait_for(std::chrono::seconds(30)),
              std::future_status::ready);
    f.get();
  }
  EXPECT_EQ(async.stats().completed, 3u);
}

TEST(AsyncServingTest, BatchMaxOneDispatchesPerRequest) {
  AsyncServingSession::Options opt;
  opt.batch_max = 1;
  opt.batch_timeout_ms = 0.0;
  AsyncServingSession async(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(6, 13000);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (auto& f : futures) f.get();
  const AsyncServingSession::Stats stats = async.stats();
  EXPECT_EQ(stats.batches, 6u);
  EXPECT_DOUBLE_EQ(stats.mean_batch_size, 1.0);
}

TEST(AsyncServingTest, ShutdownDrainsQueuedRequestsThenRejects) {
  AsyncServingSession::Options opt;
  opt.batch_max = 4;
  opt.batch_timeout_ms = 50.0;
  AsyncServingSession async(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(10, 14000);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  async.Shutdown();  // graceful: everything queued resolves first
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    f.get();  // must hold a value, not a broken promise
  }
  EXPECT_EQ(async.stats().completed, 10u);
  EXPECT_THROW(async.Submit(batch[0]), std::runtime_error);
  async.Shutdown();  // idempotent
}

TEST(AsyncServingTest, StatsLatenciesAreOrderedAndFinite) {
  AsyncServingSession::Options opt;
  opt.batch_max = 4;
  opt.batch_timeout_ms = 1.0;
  AsyncServingSession async(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(12, 15000);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (auto& f : futures) f.get();
  const AsyncServingSession::Stats stats = async.stats();
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_GE(stats.p50_latency_ms, 0.0);
  EXPECT_GE(stats.p99_latency_ms, stats.p50_latency_ms);
  EXPECT_GE(stats.max_queue_depth, 1u);
  EXPECT_GE(stats.mean_batch_size, 1.0);
}

TEST(AsyncServingTest, FromFileMatchesInMemoryModel) {
  const char* path = "ASYNC_test_model.mvg";
  SaveModel(SharedModel(), path);
  AsyncServingSession async = AsyncServingSession::FromFile(path);
  std::remove(path);
  const std::vector<Series> batch = MakeBatch(8, 16000);
  ServingSession sync(CloneModel());
  const std::vector<int> expected = sync.PredictBatch(batch, 1);
  std::vector<std::future<int>> futures;
  for (const Series& s : batch) futures.push_back(async.Submit(s));
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(futures[i].get(), expected[i]);
  }
}

TEST(AsyncServingTest, RejectsInvalidOptions) {
  AsyncServingSession::Options opt;
  opt.batch_max = 0;
  EXPECT_THROW(AsyncServingSession(CloneModel(), opt),
               std::invalid_argument);
  opt.batch_max = 1;
  opt.queue_capacity = 0;
  EXPECT_THROW(AsyncServingSession(CloneModel(), opt),
               std::invalid_argument);
  opt.queue_capacity = 1;
  opt.batch_timeout_ms = -1.0;
  EXPECT_THROW(AsyncServingSession(CloneModel(), opt),
               std::invalid_argument);
  EXPECT_THROW(AsyncServingSession{MvgClassifier()},  // unfitted
               std::invalid_argument);
}

/// Scripted request clock: call 2i stamps request i's enqueue and call
/// 2i + 1 its completion, g_scripted_latency_us[i] later. Request i is
/// enqueued i seconds after an origin an hour in the past, so every
/// micro-batching deadline has already passed when it is checked.
std::atomic<size_t> g_scripted_calls{0};
AsyncServingSession::Clock::time_point g_scripted_origin;
std::vector<int64_t> g_scripted_latency_us;

AsyncServingSession::Clock::time_point ScriptedNow() {
  const size_t call = g_scripted_calls.fetch_add(1);
  const size_t i = call / 2;
  AsyncServingSession::Clock::time_point t =
      g_scripted_origin + std::chrono::seconds(i);
  if (call % 2 == 1 && i < g_scripted_latency_us.size()) {
    t += std::chrono::microseconds(g_scripted_latency_us[i]);
  }
  return t;
}

TEST(AsyncServingTest, HistogramPercentilesMatchExactSortResolution) {
  // The registry histogram replaced the old exact latency ring; this
  // pins the parity contract: on a known workload the interpolated
  // p50/p99 land in the same latency bucket as an exact sorted
  // nearest-rank computation over the true per-request latencies. The
  // session's clock is scripted, so those latencies are known exactly
  // and the check decides on the code, not on the host's scheduling.
  constexpr size_t kRequests = 48;
  std::vector<int64_t> ladder{70};  // 70 us .. 106 ms, 17% apart
  while (ladder.size() < kRequests) ladder.push_back(ladder.back() * 117 / 100);
  g_scripted_latency_us.clear();
  for (size_t i = 0; i < kRequests; ++i) {
    g_scripted_latency_us.push_back(ladder[(i * 7) % kRequests]);
  }
  g_scripted_calls = 0;
  g_scripted_origin =
      AsyncServingSession::Clock::now() - std::chrono::hours(1);
  struct ScriptedClock {
    ScriptedClock() {
      AsyncServingSession::SetLatencyClockForTesting(&ScriptedNow);
    }
    ~ScriptedClock() {
      AsyncServingSession::SetLatencyClockForTesting(nullptr);
    }
  } scripted;

  AsyncServingSession::Options opt;
  opt.batch_max = 4;
  opt.batch_timeout_ms = 0.0;
  opt.num_threads = 1;
  AsyncServingSession session(CloneModel(), opt);
  const std::vector<Series> batch = MakeBatch(kRequests, 17000);
  for (const Series& s : batch) {
    // Request by request, so each batch holds one request and the clock
    // calls alternate enqueue / completion.
    session.Submit(s).get();
  }
  ASSERT_EQ(g_scripted_calls.load(), 2 * kRequests);

  const AsyncServingSession::Stats stats = session.stats();
  EXPECT_EQ(stats.completed, batch.size());
  std::vector<double> exact_ms;
  for (int64_t us : g_scripted_latency_us) exact_ms.push_back(us * 1e-3);
  std::sort(exact_ms.begin(), exact_ms.end());
  const auto exact_q = [&](double q) {
    const size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(exact_ms.size())));
    return exact_ms[rank == 0 ? 0 : rank - 1];
  };
  // Same bucket = same boundary pair of the session's latency buckets.
  const std::vector<double> bounds_ms = [] {
    std::vector<double> ms;
    for (double b : obs::LatencyBucketsSeconds()) ms.push_back(b * 1e3);
    return ms;
  }();
  const auto bucket_of = [&](double v_ms) {
    size_t b = 0;
    while (b < bounds_ms.size() && v_ms > bounds_ms[b]) ++b;
    return b;
  };
  // The histogram answer must sit at or below the exact bucket, and
  // within the resolution the percentile API promises of it.
  for (const auto& [est, q] : {std::pair<double, double>{stats.p50_latency_ms, 0.50},
                               std::pair<double, double>{stats.p99_latency_ms, 0.99}}) {
    EXPECT_GT(est, 0.0);
    const size_t est_bucket = bucket_of(est);
    const size_t exact_bucket = bucket_of(exact_q(q));
    EXPECT_LE(est_bucket, exact_bucket) << "q=" << q;
    EXPECT_GE(est_bucket + 2, exact_bucket) << "q=" << q;
  }
  EXPECT_LT(stats.p50_latency_ms, stats.p99_latency_ms);
}

TEST(AsyncServingTest, ExternalRegistrySharesInstruments) {
  obs::MetricsRegistry reg;
  AsyncServingSession::Options opt;
  opt.registry = &reg;
  opt.batch_max = 2;
  opt.batch_timeout_ms = 0.0;
  {
    AsyncServingSession session(CloneModel(), opt);
    EXPECT_EQ(&session.metrics(), &reg);
    const std::vector<Series> batch = MakeBatch(6, 18000);
    for (const Series& s : batch) session.Submit(s).get();
  }
  // The instruments outlive the session (the registry owns them), so an
  // end-of-run dump still carries its counts.
  obs::Counter* submitted =
      reg.FindCounter("mvg_serve_async_submitted_total");
  ASSERT_NE(submitted, nullptr);
  EXPECT_EQ(submitted->Value(), 6u);
  EXPECT_EQ(reg.FindCounter("mvg_serve_async_completed_total")->Value(), 6u);
  EXPECT_EQ(
      reg.FindHistogram("mvg_serve_async_request_latency_seconds")->Count(),
      6u);
  const std::string text = reg.PrometheusText();
  EXPECT_NE(text.find("mvg_serve_async_submitted_total 6\n"),
            std::string::npos);
}

TEST(AsyncServingTest, PrivateRegistriesKeepSessionsIndependent) {
  AsyncServingSession a(CloneModel());
  AsyncServingSession b(CloneModel());
  EXPECT_NE(&a.metrics(), &b.metrics());
  a.Submit(GaussianNoise(kSeriesLen, 19000)).get();
  EXPECT_EQ(a.stats().submitted, 1u);
  EXPECT_EQ(b.stats().submitted, 0u);
}

}  // namespace
}  // namespace mvg
