// End-to-end performance benchmark of the MVG pipeline, driven through the
// public API only: MvgClassifier::Fit, SaveModel, ServingSession::
// FromFileMapped + PredictBatch, and AsyncServingSession::Submit.
//
//   mvg_perfbench --workload short_many_class|long_walks --seed N
//                 --seconds S --trace 0|1 [--smoke] [--scratch DIR]
//
// The workload's corpus is generated from --seed with ts/generators.h, and
// the whole run, untimed steps included, fits in --seconds. With --trace 0
// the run fits, saves and mmap-loads, then times set-up, refits and
// closed-loop batches in interleaved rounds, checking every prediction
// against the in-memory model, and reports the end-to-end metrics. With
// --trace 1 it instead takes the fit-side counters from one refit, replays
// predict stage by stage on one thread (replay.h), serves open-loop traffic
// at two fixed rates, and reports the per-layer metrics. Human-readable
// lines go first; the last stdout line is one JSON object {"correct",
// "attempted", "failed", "metrics"}.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/mvg_classifier.h"
#include "obs/obs.h"
#include "replay.h"
#include "serve/async_serving.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "ts/generators.h"
#include "util/executor.h"
#include "util/parallel.h"
#include "util/simd.h"

// Counts every scalar and array operator new in this binary, so the
// traced run can report exact heap allocations per prediction.
static std::atomic<uint64_t> g_allocs{0};

static void* CountedAlloc(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using mvg::AsyncServingSession;
using mvg::Dataset;
using mvg::MvgClassifier;
using mvg::Series;
using mvg::ServingSession;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string scratch = ".";
};

/// One benchmark workload: corpus shape, the traced run's two open-loop
/// rates, and how many load+warm cycles one set-up sample sums.
struct Workload {
  std::string name;
  size_t train = 0;
  size_t test = 0;
  size_t length = 0;
  double rate_lo = 0.0;  ///< open-loop requests per second.
  double rate_hi = 0.0;
  size_t replay_series = 0;  ///< test series the traced run replays.
  size_t setup_cycles = 0;
};

Workload FindWorkload(const std::string& name, bool smoke) {
  if (name == "short_many_class") {
    return smoke ? Workload{name, 70, 70, 96, 300.0, 600.0, 70, 2}
                 : Workload{name, 2100, 4200, 96, 750.0, 1500.0, 4200, 32};
  }
  if (name == "long_walks") {
    return smoke ? Workload{name, 30, 30, 256, 100.0, 200.0, 30, 2}
                 : Workload{name, 240, 480, 2048, 10.0, 20.0, 240, 6};
  }
  throw std::invalid_argument("unknown workload '" + name +
                              "' (short_many_class | long_walks)");
}

/// Seed of the series that warm each set-up session, whatever --seed is.
constexpr uint64_t kWarmSeed = 0x5e7;

/// SplitMix64 finalizer: decorrelated per-series seeds from one seed.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Three generator families at one length: Gaussian noise (label 0),
/// random walk (1) and the logistic map at r = 3.9 (2), round-robin.
Dataset MakeWalks(size_t count, size_t length, uint64_t seed) {
  Dataset ds("long_walks");
  for (size_t i = 0; i < count; ++i) {
    const uint64_t s = Mix(seed ^ Mix(i));
    const int label = static_cast<int>(i % 3);
    if (label == 0) {
      ds.Add(mvg::GaussianNoise(length, s), label);
    } else if (label == 1) {
      ds.Add(mvg::RandomWalk(length, s), label);
    } else {
      const double x0 = 0.05 + 0.9 * static_cast<double>(s >> 11) * 0x1p-53;
      ds.Add(mvg::LogisticMap(length, 3.9, x0), label);
    }
  }
  return ds;
}

mvg::DatasetSplit MakeCorpus(const Workload& w, uint64_t seed) {
  if (w.name == "short_many_class") {
    for (mvg::SyntheticInfo info : mvg::SyntheticRegistry()) {
      if (info.name != "SynElectricDevices") continue;
      info.train_size = w.train;
      info.test_size = w.test;
      info.length = w.length;
      return mvg::MakeSynthetic(info, seed);
    }
    throw std::runtime_error("SynElectricDevices missing from the registry");
  }
  mvg::DatasetSplit split;
  split.train = MakeWalks(w.train, w.length, Mix(seed));
  split.test = MakeWalks(w.test, w.length, Mix(seed + 1));
  return split;
}

/// Linear-interpolated quantile of an unsorted sample.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Median over up to five consecutive, equal windows of `v` (in send
/// order) of each window's q-quantile, so one host stall moves one window
/// only. Every window keeps at least 100 samples, so its p90 still has ten
/// samples beyond it.
double WindowedQuantile(const std::vector<double>& v, double q) {
  const size_t windows = std::clamp<size_t>(v.size() / 100, 1, 5);
  std::vector<double> per_window;
  for (size_t k = 0; k < windows; ++k) {
    per_window.push_back(Quantile({v.begin() + k * v.size() / windows,
                                   v.begin() + (k + 1) * v.size() / windows},
                                  q));
  }
  return Median(per_window);
}

/// Prints a timing as its median plus the most extreme percentile on the
/// bad side that still has at least ten samples beyond it.
void PrintTiming(const char* name, const char* unit,
                 const std::vector<double>& v, bool lower_is_better) {
  std::printf("  %-26s median=%.6g %s", name, Median(v), unit);
  const size_t n = v.size();
  if (n >= 20) {
    std::vector<double> sorted = v;
    std::sort(sorted.begin(), sorted.end());
    const double beyond_pct = 1000.0 / static_cast<double>(n);
    if (lower_is_better) {
      std::printf("  p%.4g=%.6g", 100.0 - beyond_pct, sorted[n - 11]);
    } else {
      std::printf("  p%.4g=%.6g", beyond_pct, sorted[10]);
    }
  }
  std::printf("  n=%zu\n", n);
}

/// Results of one open-loop run at a fixed rate.
struct OpenLoop {
  std::vector<double> latency_ms;  ///< completion minus due time.
  std::vector<double> lag_ms;      ///< Submit return minus due time.
  size_t attempted = 0;
  size_t failed = 0;
};

/// One generator thread (the caller) submits `total` requests at a fixed
/// absolute rate and stamps completions by polling the oldest outstanding
/// future; the dispatcher resolves batches in submission order, so FIFO
/// polling sees every completion.
void RunOpenLoop(AsyncServingSession* session,
                 const std::vector<Series>& test,
                 const std::vector<int>& expected, double rate, size_t total,
                 OpenLoop* out) {
  struct Pending {
    std::future<int> label;
    Clock::time_point due;
    size_t index;
  };
  constexpr auto kPoll = std::chrono::microseconds(50);
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  std::deque<Pending> pending;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  size_t next = 0;
  while (next < total || !pending.empty()) {
    const Clock::time_point now = Clock::now();
    while (!pending.empty() &&
           pending.front().label.wait_for(std::chrono::seconds(0)) ==
               std::future_status::ready) {
      Pending& p = pending.front();
      try {
        if (p.label.get() != expected[p.index]) ++out->failed;
      } catch (const std::exception&) {
        ++out->failed;
      }
      out->latency_ms.push_back(
          std::chrono::duration<double, std::milli>(now - p.due).count());
      pending.pop_front();
    }
    if (next < total) {
      const Clock::time_point due =
          start + period * static_cast<Clock::rep>(next);
      if (now >= due) {
        const size_t index = out->attempted % test.size();
        pending.push_back({session->Submit(test[index]), due, index});
        out->lag_ms.push_back(std::chrono::duration<double, std::milli>(
                                 Clock::now() - due)
                                 .count());
        ++out->attempted;
        ++next;
        continue;
      }
      std::this_thread::sleep_until(std::min(due, now + kPoll));
    } else {
      std::this_thread::sleep_for(kPoll);
    }
  }
}

/// Mismatches of `got` against the labels starting at `expected`.
size_t CountMismatches(const std::vector<int>& got, const int* expected) {
  size_t bad = 0;
  for (size_t i = 0; i < got.size(); ++i) bad += got[i] != expected[i];
  return bad;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

int Run(const Options& opt) {
  const Workload w = FindWorkload(opt.workload, opt.smoke);
  const size_t nproc = mvg::DefaultThreads();
  // Open-loop serving: the pool (its workers plus the dispatcher, which
  // joins every batch as slot 0) and the generator share nproc threads.
  const size_t online_threads = nproc > 1 ? nproc - 1 : 1;
  mvg::Executor::SetGlobalConcurrency(nproc);
  const Clock::time_point run_start = Clock::now();
  // Every phase, the untimed ones too, is budgeted inside --seconds.
  const Clock::time_point deadline = run_start + Seconds(opt.seconds);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0, opt.smoke ? 1 : 0);
  std::printf("env build=%s simd=%s obs=%s nproc=%zu fit_threads=%zu "
              "batch_threads=%zu online_pool=%zu online_generator=1\n",
              MVG_PERFBENCH_BUILD_TYPE, mvg::simd::kBackendName,
              mvg::obs::Enabled() ? "on" : "off", nproc, nproc, nproc,
              online_threads);

  const mvg::DatasetSplit corpus = MakeCorpus(w, opt.seed);
  const std::vector<Series>& train = corpus.train.all_series();
  const std::vector<Series>& test = corpus.test.all_series();
  std::printf("corpus train=%zu test=%zu length=%zu\n", train.size(),
              test.size(), w.length);

  size_t attempted = 0;
  size_t failed = 0;

  // The first, untimed fit yields the served model and pays the process's
  // one-time costs (heap growth, pool start-up). Every fit uses the
  // default Config (XGBoost, kSmall grid) on nproc threads.
  mvg::obs::PipelineMetrics& pm = mvg::obs::PipelineMetrics::Get();
  MvgClassifier::Config config;
  config.num_threads = nproc;
  MvgClassifier model(config);
  model.Fit(corpus.train);
  ++attempted;

  const std::string path = opt.scratch + "/perfbench_" + w.name + "_" +
                           std::to_string(::getpid()) + ".mvg";
  mvg::SaveModel(model, path);

  // Reference labels from the in-memory model (untimed).
  std::vector<int> expected(test.size());
  mvg::ParallelFor(test.size(), nproc,
                   [&](size_t i) { expected[i] = model.Predict(test[i]); });
  size_t correct_labels = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    correct_labels += expected[i] == corpus.test.label(i);
  }
  const double accuracy =
      static_cast<double>(correct_labels) / static_cast<double>(test.size());

  // --- Timed phases. Every one checks its labels against `expected`. -------
  const size_t warm = std::min(nproc, test.size());
  std::optional<ServingSession> session;
  std::vector<double> setup_s, load_ms;
  // One set-up sample: w.setup_cycles times, mmap-load the model and warm
  // the session with one PredictBatch of one series per worker, each cycle
  // on the next test series. The sample is the mean cycle time; summing
  // cycles keeps one thread wake-up or one unusually slow series from
  // deciding it.
  auto setup_sample = [&]() {
    double total = 0.0;
    for (size_t c = 0; c < w.setup_cycles; ++c) {
      session.reset();
      const size_t first = (c * warm) % (test.size() - warm + 1);
      const Clock::time_point t0 = Clock::now();
      session.emplace(ServingSession::FromFileMapped(path));
      load_ms.push_back(1e3 * Since(t0));
      const std::vector<int> labels =
          session->PredictBatch(test.data() + first, warm, nproc);
      total += Since(t0);
      attempted += warm;
      failed += CountMismatches(labels, expected.data() + first);
    }
    setup_s.push_back(total / static_cast<double>(w.setup_cycles));
  };

  // One timed refit. The first one also records the fit-side shares and
  // counters. A refit counts as failed if it predicts any of the first
  // `warm` test series differently from the served model (untimed).
  std::vector<double> fit_rate;
  double fit_wall = 0.0, fit_extract = 0.0, fit_train = 0.0;
  uint64_t hist_builds = 0, split_searches = 0, gbt_rounds = 0;
  auto timed_fit = [&]() {
    MvgClassifier m(config);
    const uint64_t h0 = pm.train_hist_node_builds->Value();
    const uint64_t s0 = pm.train_split_searches->Value();
    const uint64_t r0 = pm.gbt_round_seconds->Count();
    const Clock::time_point t0 = Clock::now();
    m.Fit(corpus.train);
    const double wall = Since(t0);
    if (fit_rate.empty()) {
      fit_wall = wall;
      fit_extract = m.feature_extraction_seconds();
      fit_train = m.training_seconds();
      hist_builds = pm.train_hist_node_builds->Value() - h0;
      split_searches = pm.train_split_searches->Value() - s0;
      gbt_rounds = pm.gbt_round_seconds->Count() - r0;
    }
    fit_rate.push_back(static_cast<double>(train.size()) / wall);
    std::vector<int> probe(warm);
    mvg::ParallelFor(warm, nproc,
                     [&](size_t i) { probe[i] = m.Predict(test[i]); });
    ++attempted;
    failed += CountMismatches(probe, expected.data()) != 0;
    return wall;
  };

  // One closed-loop PredictBatch over the whole test set.
  std::vector<double> predict_rate;
  auto batch_pass = [&]() {
    const Clock::time_point t0 = Clock::now();
    const std::vector<int> labels =
        session->PredictBatch(test.data(), test.size(), nproc);
    const double wall = Since(t0);
    predict_rate.push_back(static_cast<double>(test.size()) / wall);
    attempted += test.size();
    failed += CountMismatches(labels, expected.data());
    return wall;
  };

  std::vector<Metric> metrics;
  if (!opt.trace) {
    // Interleaved rounds share out the time left; every metric is a median
    // over its samples from all rounds, so a burst of host noise lands in
    // some rounds' samples only. In a round, set-up takes a fixed number of
    // samples, refits get 70% of the rest and batches the remainder. A
    // refit or pass starts only while at least half of it fits, and each
    // round takes at least one of each.
    const size_t rounds = opt.smoke ? 1 : 3;
    const size_t setup_samples = opt.smoke ? 1 : 3;
    for (size_t round = 0; round < rounds; ++round) {
      const Clock::time_point round_end =
          Clock::now() + (deadline - Clock::now()) /
                             static_cast<Clock::rep>(rounds - round);
      for (size_t s = 0; s < setup_samples; ++s) setup_sample();
      const Clock::time_point fit_end =
          Clock::now() + (round_end - Clock::now()) * 7 / 10;
      for (double last = timed_fit();
           Clock::now() + Seconds(last / 2) < fit_end;) {
        last = timed_fit();
      }
      for (double last = batch_pass();
           Clock::now() + Seconds(last / 2) < round_end;) {
        last = batch_pass();
      }
    }
    std::remove(path.c_str());

    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);
    const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

    std::printf("timings (run took %.1f s)\n", Since(run_start));
    PrintTiming("fit_series_per_s", "series/s", fit_rate, false);
    PrintTiming("predict_series_per_s", "series/s", predict_rate, false);
    PrintTiming("setup_s", "s", setup_s, true);
    PrintTiming("serve.load_ms", "ms", load_ms, true);
    metrics = {
        {"fit_series_per_s", Median(fit_rate), "series/s"},
        {"predict_series_per_s", Median(predict_rate), "series/s"},
        {"test_accuracy", accuracy, "ratio"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  } else {
    // Fit-side shares and counters from one refit; load times, steals and
    // allocations from a few set-ups, passes and single predictions.
    for (size_t s = 0; s < 3; ++s) setup_sample();
    timed_fit();
    const uint64_t stolen0 = pm.executor_chunks_stolen->Value();
    for (size_t p = 0; p < 3; ++p) batch_pass();
    const double stolen_per_pass =
        static_cast<double>(pm.executor_chunks_stolen->Value() - stolen0) /
        static_cast<double>(predict_rate.size());

    // Heap allocations per warm single-series prediction.
    const size_t alloc_probe = std::min<size_t>(64, test.size());
    for (size_t i = 0; i < alloc_probe; ++i) session->Predict(test[i]);
    const uint64_t allocs0 = g_allocs.load(std::memory_order_relaxed);
    for (size_t i = 0; i < alloc_probe; ++i) {
      failed += session->Predict(test[i]) != expected[i];
    }
    const double allocs_per_predict =
        static_cast<double>(g_allocs.load(std::memory_order_relaxed) -
                            allocs0) /
        static_cast<double>(alloc_probe);
    attempted += alloc_probe;

    const perfbench::StageTotals t = perfbench::ReplayPredict(
        session->model(), test, expected, w.replay_series);
    attempted += t.series;
    failed += t.mismatches;

    // Open loop at two fixed rates, one fresh async session each, sharing
    // what is left of --seconds (at least 0.25 s each). Async labels must
    // equal the sync ones in `expected`.
    struct RateResult {
      const char* tag;
      double rate;
      OpenLoop run;
      size_t completed = 0;
      size_t batches = 0;
      size_t max_depth = 0;
    };
    std::vector<RateResult> online = {{"lo", w.rate_lo, {}},
                                      {"hi", w.rate_hi, {}}};
    const double online_seconds = std::max(
        0.25, 0.48 * std::chrono::duration<double>(deadline - Clock::now())
                         .count());
    mvg::Executor::SetGlobalConcurrency(online_threads);
    for (RateResult& r : online) {
      AsyncServingSession::Options o;
      o.num_threads = online_threads;
      AsyncServingSession async = AsyncServingSession::FromFileMapped(path, o);
      // Warm one request at a time, so the queue high-water mark and the
      // batch sizes below describe the timed traffic.
      for (size_t i = 0; i < warm; ++i) {
        failed += async.Submit(test[i]).get() != expected[i];
        ++attempted;
      }
      const AsyncServingSession::Stats before = async.stats();
      const size_t total = std::max<size_t>(
          1, static_cast<size_t>(std::llround(r.rate * online_seconds)));
      RunOpenLoop(&async, test, expected, r.rate, total, &r.run);
      const AsyncServingSession::Stats after = async.stats();
      r.completed = after.completed - before.completed;
      r.batches = after.batches - before.batches;
      r.max_depth = after.max_queue_depth;
      attempted += r.run.attempted;
      failed += r.run.failed;
    }
    mvg::Executor::SetGlobalConcurrency(nproc);
    std::remove(path.c_str());
    auto mean_batch = [](const RateResult& r) {
      return static_cast<double>(r.completed) /
             static_cast<double>(std::max<size_t>(1, r.batches));
    };

    std::printf("timings (run took %.1f s)\n", Since(run_start));
    PrintTiming("serve.load_ms", "ms", load_ms, true);
    double lag_p99 = 0.0;
    for (const RateResult& r : online) {
      char name[64];
      std::snprintf(name, sizeof(name), "online_ms.%s@%g/s", r.tag, r.rate);
      PrintTiming(name, "ms", r.run.latency_ms, true);
      std::snprintf(name, sizeof(name), "generator_lag_ms.%s", r.tag);
      PrintTiming(name, "ms", r.run.lag_ms, true);
      lag_p99 = std::max(lag_p99, Quantile(r.run.lag_ms, 0.99));
    }
    if (lag_p99 > 1.0) {
      std::printf("warning: generator p99 lag %.3f ms > 1 ms; the open-loop "
                  "latencies are not trustworthy on this host\n",
                  lag_p99);
    }

    const double n = static_cast<double>(std::max<size_t>(1, t.series));
    const double wall = t.predict_wall;
    const double attributed = t.frontend + t.vg_build + t.hvg_build +
                              t.motif_count + t.motif_mpd + t.graph_stats +
                              t.eval;
    metrics = {
        {"core.predict_us_per_series", 1e6 * wall / n, "us"},
        {"ts.frontend_share", t.frontend / wall, "ratio"},
        {"vg.build_share", t.vg_build / wall, "ratio"},
        {"vg.edges_per_series", static_cast<double>(t.vg_edges) / n, "count"},
        {"hvg.build_share", t.hvg_build / wall, "ratio"},
        {"hvg.edges_per_series", static_cast<double>(t.hvg_edges) / n,
         "count"},
        {"motif.count_share", t.motif_count / wall, "ratio"},
        {"motif.count_us_per_series", 1e6 * t.motif_count / n, "us"},
        {"motif.wedges_per_series", static_cast<double>(t.wedges) / n,
         "count"},
        {"motif.ns_per_wedge",
         1e9 * t.motif_count / static_cast<double>(std::max<uint64_t>(1, t.wedges)),
         "ns"},
        {"motif.mpd_share", t.motif_mpd / wall, "ratio"},
        {"graph.stats_share", t.graph_stats / wall, "ratio"},
        {"ml.eval_share", t.eval / wall, "ratio"},
        {"ml.eval_us_per_series", 1e6 * t.eval / n, "us"},
        {"core.unattributed_share", (wall - attributed) / wall, "ratio"},
        {"core.fit_s", fit_wall, "s"},
        {"core.fit_extract_share", fit_extract / fit_wall, "ratio"},
        {"ml.fit_bin_share", (fit_wall - fit_extract - fit_train) / fit_wall,
         "ratio"},
        {"ml.fit_train_share", fit_train / fit_wall, "ratio"},
        {"ml.hist_node_builds", static_cast<double>(hist_builds), "count"},
        {"ml.split_searches", static_cast<double>(split_searches), "count"},
        {"ml.gbt_rounds", static_cast<double>(gbt_rounds), "count"},
        {"serve.allocs_per_predict", allocs_per_predict, "count"},
        {"serve.load_ms", Median(load_ms), "ms"},
        {"serve.mean_batch_size.lo", mean_batch(online[0]), "count"},
        {"serve.mean_batch_size.hi", mean_batch(online[1]), "count"},
        {"serve.max_queue_depth.lo", static_cast<double>(online[0].max_depth),
         "count"},
        {"serve.max_queue_depth.hi", static_cast<double>(online[1].max_depth),
         "count"},
        {"executor.chunks_stolen", stolen_per_pass, "count"},
        {"bench.generator_lag_p99_ms", lag_p99, "ms"},
        {"online_p50_ms.lo", WindowedQuantile(online[0].run.latency_ms, 0.5),
         "ms"},
        {"online_p90_ms.lo", WindowedQuantile(online[0].run.latency_ms, 0.9),
         "ms"},
        {"online_p50_ms.hi", WindowedQuantile(online[1].run.latency_ms, 0.5),
         "ms"},
        {"online_p90_ms.hi", WindowedQuantile(online[1].run.latency_ms, 0.9),
         "ms"},
    };
  }
  std::printf("failed_share %.6g (%zu of %zu operations)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = std::stoi(value()) != 0;
    } else if (arg == "--scratch") {
      opt.scratch = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      throw std::invalid_argument("unknown argument " + arg);
    }
  }
  if (opt.workload.empty()) throw std::invalid_argument("--workload missing");
  if (!(opt.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return Run(ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mvg_perfbench: %s\n", e.what());
    return 2;
  }
}
