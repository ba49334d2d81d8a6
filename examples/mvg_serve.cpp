// mvg_serve — the train-once / classify-many front end of the serving
// subsystem (src/serve/): train a pipeline and persist it as a versioned
// `.mvg` model file, then serve predictions from that file without ever
// paying the training cost again.
//
//   mvg_serve train <train-ucr-file> --out model.mvg
//            [--model xgb|rf|svm|stack] [--grid none|small|paper]
//            [--threads N] [--workers N] [--paged [--page-rows N]]
//            [--eval <ucr-file> [--out-preds FILE]]
//       fit an MvgClassifier and save it; --eval classifies a file with
//       the just-trained in-memory model (so CI can diff these
//       predictions against a fresh process serving the saved file);
//       --threads sizes the persistent executor pool shared by feature
//       extraction, grid cells and tree fits (0 = hardware concurrency;
//       fitted models are bit-identical for every value); --paged streams
//       the training file through PagedUcrReader instead of loading it
//       whole — O(page) peak raw-series memory, bit-identical model;
//       --workers N trains across N forked worker processes that merge
//       histograms through the dist/ coordinator — the saved model is
//       bit-identical for every worker count (enforced at runtime by the
//       coordinator, which byte-compares all workers' models)
//   mvg_serve info <model.mvg>
//       print model metadata (family, extractor config, feature width)
//   mvg_serve serve --model model.mvg --input <ucr-file>
//            [--mmap] [--threads N] [--out-preds FILE]
//            [--async [--batch-max B] [--batch-timeout-ms T]]
//       batch-classify every series in a UCR file via ServingSession;
//       prints one label per line (or writes them to --out-preds).
//       --mmap memory-maps the (v3) model file and serves zero-copy
//       views into the mapping instead of deserializing it — identical
//       predictions, O(1) tree construction, and concurrent processes
//       serving the same file share one physical copy. --async routes
//       every series through the micro-batching AsyncServingSession
//       front end instead (identical predictions; queue-depth and
//       latency percentile stats go to stderr)
//   mvg_serve serve --model model.mvg --stream
//            [--window N] [--hop N]
//       online monitoring: read one sample per line from stdin into a
//       StreamingClassifier sliding window; on every completed window
//       print "<sample-index> <label>". --window is in [0, 65536]
//       (0 = the model's training length), --hop in [1, 2^30]. Each
//       non-blank line, trimmed, must be one number (nan and inf
//       included); any other line ends the stream with exit 2, after
//       the windows completed before it are printed
//   mvg_serve route --model model.mvg --input <ucr-file> --shards N
//            [--mmap] [--max-inflight W] [--drain K] [--out-preds FILE]
//       sharded serving: fork N shard worker processes, each serving the
//       model over the framed wire protocol, and hash-route the request
//       stream across them (per-shard health checks and served counts go
//       to stderr). --drain K gracefully drains shard K halfway through
//       the stream — in-flight requests are preserved and the remaining
//       traffic rehashes over the surviving shards
//
// Example end-to-end round trip on a built-in synthetic set:
//   mvg_cli generate SynChaos /tmp/chaos
//   mvg_serve train /tmp/chaos_TRAIN --out /tmp/chaos.mvg
//   mvg_serve serve --model /tmp/chaos.mvg --input /tmp/chaos_TEST

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/mvg_classifier.h"
#include "dist/coordinator.h"
#include "dist/shard_router.h"
#include "graph/ranked_csr.h"
#include "ml/histogram_reducer.h"
#include "ml/metrics.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "serve/async_serving.h"
#include "serve/model_io.h"
#include "serve/serving.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"
#include "util/executor.h"
#include "util/parallel.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace mvg;

int Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage:\n"
      "  %s train <train-ucr-file> --out MODEL [--model xgb|rf|svm|stack]"
      " [--grid none|small|paper] [--threads N] [--workers N]"
      " [--paged [--page-rows N]]"
      " [--eval FILE [--out-preds FILE]]"
      " [--metrics-out FILE]\n"
      "  %s info <MODEL>\n"
      "  %s serve --model MODEL --input <ucr-file> [--mmap] [--threads N]"
      " [--out-preds FILE] [--async [--batch-max B] [--batch-timeout-ms T]]"
      " [--metrics-out FILE [--metrics-interval-s S]]\n"
      "  %s serve --model MODEL --stream [--mmap] [--window N] [--hop N]\n"
      "  %s route --model MODEL --input <ucr-file> --shards N [--mmap]"
      " [--max-inflight W] [--drain K] [--out-preds FILE]"
      " [--metrics-out FILE]\n",
      argv0, argv0, argv0, argv0, argv0);
  return 2;
}

/// Named-flag scanner over argv[from..): returns the value of `--flag` or
/// `fallback`, erroring out (via exit) on a flag with no value.
std::string FlagValue(int argc, char** argv, int from, const char* flag,
                      const std::string& fallback) {
  for (int i = from; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) != 0) continue;
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s requires a value\n", flag);
      std::exit(2);
    }
    return argv[i + 1];
  }
  return fallback;
}

bool HasFlag(int argc, char** argv, int from, const char* flag) {
  for (int i = from; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

/// True when `text` parses in full as one number by strtod (nan and inf
/// included); "12abc" and "" do not.
bool ParseNumber(const std::string& text, double* value) {
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && end == text.c_str() + text.size();
}

/// Bounded integer flag in [lo, hi]; exits with a usage error otherwise.
size_t CountFlag(int argc, char** argv, int from, const char* flag,
                 const char* fallback, long lo, long hi) {
  const std::string raw = FlagValue(argc, argv, from, flag, fallback);
  char* end = nullptr;
  const long parsed = std::strtol(raw.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || parsed < lo || parsed > hi) {
    std::fprintf(stderr, "%s expects an integer in [%ld, %ld]\n",
                 flag, lo, hi);
    std::exit(2);
  }
  return static_cast<size_t>(parsed);
}

/// Pure parse of `--threads`: an integer in [0, 1024], 0 meaning hardware
/// concurrency. Does NOT touch the executor — the distributed train path
/// must fork before the global pool's threads exist, so it parses here
/// and applies inside each worker.
size_t ParseThreadsFlag(int argc, char** argv, int from) {
  return CountFlag(argc, argv, from, "--threads", "0", 0, 1024);
}

/// `--threads` with the same validation mvg_cli classify applies. A
/// non-zero value is routed to the persistent executor pool size, so it
/// bounds every parallel layer in the process (extraction, grid cells,
/// tree fits, serving fan-out).
size_t ThreadsFlag(int argc, char** argv, int from) {
  const size_t parsed = ParseThreadsFlag(argc, argv, from);
  if (parsed > 0) Executor::SetGlobalConcurrency(parsed);
  return parsed;
}

MvgModel ParseModel(const std::string& name) {
  if (name == "xgb") return MvgModel::kXgboost;
  if (name == "rf") return MvgModel::kRandomForest;
  if (name == "svm") return MvgModel::kSvm;
  if (name == "stack") return MvgModel::kStacking;
  throw std::invalid_argument("unknown model family: " + name);
}

GridPreset ParseGrid(const std::string& name) {
  if (name == "none") return GridPreset::kNone;
  if (name == "small") return GridPreset::kSmall;
  if (name == "paper") return GridPreset::kPaper;
  throw std::invalid_argument("unknown grid preset: " + name);
}

const char* ModelName(MvgModel m) {
  switch (m) {
    case MvgModel::kXgboost: return "xgb";
    case MvgModel::kRandomForest: return "rf";
    case MvgModel::kSvm: return "svm";
    case MvgModel::kStacking: return "stack";
  }
  return "?";
}

/// `--metrics-out FILE`: writes the process-wide registry (.json =>
/// JSON, else Prometheus text). Every subcommand calls this on its way
/// out; route aggregates the worker ranks' registries in first, serve
/// additionally runs a periodic MetricsDumper while traffic flows.
void DumpMetrics(int argc, char** argv, int from) {
  const std::string path = FlagValue(argc, argv, from, "--metrics-out", "");
  if (path.empty()) return;
  obs::WriteRegistryDump(obs::MetricsRegistry::Global(), path);
  std::fprintf(stderr, "metrics: wrote %s\n", path.c_str());
}

/// `--eval FILE`: classify a UCR file with the just-trained model and
/// report the error rate; shared by the local and distributed train
/// paths.
int EvalTrained(const MvgClassifier& clf, int argc, char** argv) {
  const std::string eval = FlagValue(argc, argv, 3, "--eval", "");
  if (eval.empty()) return 0;
  const Dataset ds = ReadUcrFile(eval);
  const std::vector<int> pred = clf.PredictAll(ds);
  const std::string out_preds = FlagValue(argc, argv, 3, "--out-preds", "");
  if (!out_preds.empty()) {
    std::ofstream os(out_preds);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_preds.c_str());
      return 1;
    }
    for (int label : pred) os << label << '\n';
  } else {
    for (int label : pred) std::printf("%d\n", label);
  }
  std::fprintf(stderr, "eval: error vs file labels %.4f on %zu series\n",
               ErrorRate(ds.labels(), pred), ds.size());
  return 0;
}

int CmdTrain(int argc, char** argv) {
  const std::string train_path = argv[2];
  const std::string out = FlagValue(argc, argv, 3, "--out", "");
  if (out.empty()) {
    std::fprintf(stderr, "train: --out MODEL is required\n");
    return 2;
  }
  MvgClassifier::Config config;
  config.model = ParseModel(FlagValue(argc, argv, 3, "--model", "xgb"));
  config.grid = ParseGrid(FlagValue(argc, argv, 3, "--grid", "small"));

  const bool paged = HasFlag(argc, argv, 3, "--paged");
  const size_t page_rows =
      CountFlag(argc, argv, 3, "--page-rows", "256", 1, 1L << 30);
  const size_t workers = CountFlag(argc, argv, 3, "--workers", "0", 0, 64);

  const auto fit_with = [&](MvgClassifier* clf) -> size_t {
    if (paged) {
      PagedUcrReader::Options popt;
      popt.page_rows = page_rows;
      PagedUcrReader reader(train_path, popt);
      clf->FitPaged(&reader);
      return reader.rows_read();
    }
    const Dataset train = ReadUcrFile(train_path);
    clf->Fit(train);
    return train.size();
  };

  if (workers > 0) {
    // Distributed train: parse --threads purely here — the coordinator
    // must fork before the executor pool's threads exist, so each worker
    // applies the pool size itself after the fork.
    const size_t threads = ParseThreadsFlag(argc, argv, 3);
    const std::string bytes = RunDistributedTraining(
        workers, [&](HistogramReducer* red) -> std::string {
          if (threads > 0) Executor::SetGlobalConcurrency(threads);
          MvgClassifier::Config wconfig = config;
          wconfig.num_threads = threads;
          wconfig.reducer = red;
          MvgClassifier wclf(wconfig);
          fit_with(&wclf);
          std::ostringstream os;
          SaveModel(wclf, os);
          return os.str();
        });
    std::ofstream os(out, std::ios::binary);
    if (!os.write(bytes.data(), static_cast<std::streamsize>(bytes.size())) ||
        !os.flush()) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::istringstream is(bytes);
    const MvgClassifier clf = LoadModel(is);
    std::printf("trained %s across %zu workers -> %s (%zu bytes,"
                " verified bit-identical across ranks)\n",
                clf.Name().c_str(), workers, out.c_str(), bytes.size());
    // The coordinator has already merged every worker rank's registry
    // into this process's global one, so the dump covers the fleet.
    const int rc = EvalTrained(clf, argc, argv);
    DumpMetrics(argc, argv, 3);
    return rc;
  }

  config.num_threads = ThreadsFlag(argc, argv, 3);  // 0 = hardware
  MvgClassifier clf(config);
  const size_t trained_on = fit_with(&clf);
  SaveModel(clf, out);
  std::printf("trained %s on %zu series (FE %.2fs, Clf %.2fs) -> %s\n",
              clf.Name().c_str(), trained_on,
              clf.feature_extraction_seconds(), clf.training_seconds(),
              out.c_str());
  const int rc = EvalTrained(clf, argc, argv);
  DumpMetrics(argc, argv, 3);
  return rc;
}

int CmdInfo(const std::string& path) {
  const uint32_t version = PeekModelVersion(path);
  const MvgClassifier clf = LoadModel(path);
  std::printf("model file:     %s (format v%u)\n", path.c_str(), version);
  std::printf("pipeline:       %s\n", clf.Name().c_str());
  std::printf("family:         %s\n", ModelName(clf.config().model));
  std::printf("underlying:     %s\n", clf.model().Name().c_str());
  std::printf("classes:        %zu\n", clf.model().num_classes());
  std::printf("feature width:  %zu\n", clf.feature_width());
  std::printf("train length:   %zu\n", clf.train_length());
  std::printf("scale mode:     %s\n",
              ToString(clf.config().extractor.scale_mode));
  std::printf("graph mode:     %s\n",
              ToString(clf.config().extractor.graph_mode));
  std::printf("feature mode:   %s\n",
              ToString(clf.config().extractor.feature_mode));
  return 0;
}

/// Writes labels to --out-preds or stdout; shared by the sync and async
/// batch paths.
int EmitPreds(const std::vector<int>& pred, const std::string& out_preds) {
  if (!out_preds.empty()) {
    std::ofstream os(out_preds);
    if (!os) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_preds.c_str());
      return 1;
    }
    for (int label : pred) os << label << '\n';
  } else {
    for (int label : pred) std::printf("%d\n", label);
  }
  return 0;
}

int CmdServeAsync(const std::string& model_path, bool mmap,
                  const std::string& input, size_t threads,
                  const std::string& out_preds, size_t batch_max,
                  double batch_timeout_ms) {
  const Dataset ds = ReadUcrFile(input);
  AsyncServingSession::Options opt;
  opt.batch_max = batch_max;
  opt.batch_timeout_ms = batch_timeout_ms;
  opt.num_threads = threads;
  // Fold the session's stats instruments into the process-wide registry
  // so a --metrics-out dump covers them alongside the pipeline spans.
  opt.registry = &obs::MetricsRegistry::Global();
  AsyncServingSession session =
      mmap ? AsyncServingSession::FromFileMapped(model_path, opt)
           : AsyncServingSession::FromFile(model_path, opt);

  WallTimer timer;
  std::vector<std::future<int>> futures;
  futures.reserve(ds.size());
  for (size_t i = 0; i < ds.size(); ++i) {
    futures.push_back(session.Submit(ds.series(i)));
  }
  std::vector<int> pred;
  pred.reserve(ds.size());
  for (std::future<int>& f : futures) pred.push_back(f.get());
  const double seconds = timer.Seconds();

  const int rc = EmitPreds(pred, out_preds);
  if (rc != 0) return rc;
  const AsyncServingSession::Stats stats = session.stats();
  std::fprintf(stderr,
               "served %zu series async in %.3fs (%.0f series/s), error vs "
               "file labels %.4f\n"
               "async stats: %zu batches (mean size %.1f), max queue depth "
               "%zu, latency p50 %.2fms p99 %.2fms\n",
               ds.size(), seconds,
               seconds > 0 ? static_cast<double>(ds.size()) / seconds : 0.0,
               ErrorRate(ds.labels(), pred), stats.batches,
               stats.mean_batch_size, stats.max_queue_depth,
               stats.p50_latency_ms, stats.p99_latency_ms);
  return 0;
}

int CmdServeBatch(ServingSession& session, const std::string& input,
                  size_t threads, const std::string& out_preds) {
  const Dataset ds = ReadUcrFile(input);
  WallTimer timer;
  const std::vector<int> pred =
      session.PredictBatch(ds.all_series().data(), ds.size(), threads);
  const double seconds = timer.Seconds();

  const int rc = EmitPreds(pred, out_preds);
  if (rc != 0) return rc;
  std::fprintf(stderr,
               "served %zu series in %.3fs (%.0f series/s, %zu threads), "
               "error vs file labels %.4f\n",
               ds.size(), seconds,
               seconds > 0 ? static_cast<double>(ds.size()) / seconds : 0.0,
               threads, ErrorRate(ds.labels(), pred));
  return 0;
}

int CmdServeStream(ServingSession& session, size_t window, size_t hop) {
  StreamingClassifier::Options opt;
  opt.window = window;  // 0 = model train length
  opt.hop = hop;
  StreamingClassifier stream(&session.model(), opt);
  std::fprintf(stderr,
               "streaming: window=%zu hop=%zu; one sample per line on "
               "stdin, \"<index> <label>\" per completed window\n",
               stream.window(), stream.hop());
  std::string line;
  size_t index = 0;
  size_t line_no = 0;
  while (std::getline(std::cin, line)) {
    ++line_no;
    const std::string text = Trim(line);
    if (text.empty()) continue;
    // nan and inf pass: the extractor sanitizes non-finite samples.
    double sample = 0.0;
    if (!ParseNumber(text, &sample)) {
      std::fflush(stdout);
      std::fprintf(stderr, "serve --stream: bad sample '%s' on line %zu\n",
                   text.c_str(), line_no);
      return 2;
    }
    if (const std::optional<int> label = stream.Push(sample)) {
      std::printf("%zu %d\n", index, *label);
    }
    ++index;
  }
  return 0;
}

int CmdServe(int argc, char** argv) {
  const std::string model_path = FlagValue(argc, argv, 2, "--model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "serve: --model MODEL is required\n");
    return 2;
  }
  const size_t threads_flag = ThreadsFlag(argc, argv, 2);
  const size_t threads = threads_flag == 0 ? DefaultThreads() : threads_flag;
  const bool mmap = HasFlag(argc, argv, 2, "--mmap");
  // --metrics-out: periodic dumps while serving (every --metrics-interval-s
  // seconds; 0 = on-exit only) plus a final dump when the dumper leaves
  // scope — which is after the command finishes, so it sees everything.
  const std::string metrics_out = FlagValue(argc, argv, 2,
                                            "--metrics-out", "");
  std::unique_ptr<obs::MetricsDumper> dumper;
  if (!metrics_out.empty()) {
    double interval = 0.0;
    if (!ParseNumber(FlagValue(argc, argv, 2, "--metrics-interval-s", "0"),
                     &interval) ||
        !(interval >= 0.0)) {
      std::fprintf(stderr, "--metrics-interval-s expects a number >= 0\n");
      return 2;
    }
    dumper.reset(new obs::MetricsDumper(&obs::MetricsRegistry::Global(),
                                        metrics_out, interval));
  }
  const auto open_session = [&]() {
    return mmap ? ServingSession::FromFileMapped(model_path)
                : ServingSession::FromFile(model_path);
  };
  if (HasFlag(argc, argv, 2, "--stream")) {
    // A window longer than kMaxRankedVertices could never be classified.
    const size_t window = CountFlag(argc, argv, 2, "--window", "0", 0,
                                    static_cast<long>(kMaxRankedVertices));
    const size_t hop = CountFlag(argc, argv, 2, "--hop", "1", 1, 1L << 30);
    ServingSession session = open_session();
    return CmdServeStream(session, window, hop);
  }
  const std::string input = FlagValue(argc, argv, 2, "--input", "");
  if (input.empty()) {
    std::fprintf(stderr, "serve: need --input <ucr-file> or --stream\n");
    return 2;
  }
  const std::string out_preds = FlagValue(argc, argv, 2, "--out-preds", "");
  if (HasFlag(argc, argv, 2, "--async")) {
    const size_t batch_max =
        CountFlag(argc, argv, 2, "--batch-max", "32", 1, 4096);
    double batch_timeout_ms = 0.0;
    if (!ParseNumber(FlagValue(argc, argv, 2, "--batch-timeout-ms", "2"),
                     &batch_timeout_ms) ||
        !(batch_timeout_ms >= 0.0)) {
      std::fprintf(stderr, "--batch-timeout-ms expects a number >= 0\n");
      return 2;
    }
    return CmdServeAsync(model_path, mmap, input, threads, out_preds,
                         batch_max, batch_timeout_ms);
  }
  ServingSession session = open_session();
  return CmdServeBatch(session, input, threads, out_preds);
}

int CmdRoute(int argc, char** argv) {
  const std::string model_path = FlagValue(argc, argv, 2, "--model", "");
  const std::string input = FlagValue(argc, argv, 2, "--input", "");
  if (model_path.empty() || input.empty()) {
    std::fprintf(stderr, "route: --model MODEL and --input FILE are"
                         " required\n");
    return 2;
  }
  ShardRouter::Options opt;
  opt.model_path = model_path;
  opt.num_shards = CountFlag(argc, argv, 2, "--shards", "1", 1, 64);
  opt.mmap = HasFlag(argc, argv, 2, "--mmap");
  opt.max_inflight =
      CountFlag(argc, argv, 2, "--max-inflight", "16", 1, 4096);
  // Router instruments live in the process-wide registry, so the
  // --metrics-out dump below holds router + worker metrics in one view.
  opt.registry = &obs::MetricsRegistry::Global();
  // --drain K: drain shard K halfway through the stream, exercising the
  // graceful-removal path (in-flight preserved, traffic rehashed).
  const bool drain_requested = HasFlag(argc, argv, 2, "--drain");
  const size_t drain_shard =
      CountFlag(argc, argv, 2, "--drain", "0", 0, 63);

  const Dataset ds = ReadUcrFile(input);
  ShardRouter router = ShardRouter::SpawnLocal(opt);

  WallTimer timer;
  std::vector<uint64_t> ids;
  ids.reserve(ds.size());
  const size_t half = drain_requested ? ds.size() / 2 : ds.size();
  for (size_t i = 0; i < half; ++i) ids.push_back(router.Submit(ds.series(i)));
  if (drain_requested) {
    router.Drain(drain_shard);
    std::fprintf(stderr, "drained shard %zu after %zu submissions (%zu"
                         " shards remain)\n",
                 drain_shard, half, router.num_active());
    for (size_t i = half; i < ds.size(); ++i) {
      ids.push_back(router.Submit(ds.series(i)));
    }
  }
  std::vector<int> pred;
  pred.reserve(ids.size());
  for (uint64_t id : ids) pred.push_back(router.Collect(id));
  const double seconds = timer.Seconds();

  const int rc = EmitPreds(pred, FlagValue(argc, argv, 2, "--out-preds", ""));
  if (rc != 0) return rc;
  std::fprintf(stderr,
               "routed %zu series over %zu shards in %.3fs (%.0f series/s),"
               " error vs file labels %.4f\n",
               ds.size(), router.num_shards(), seconds,
               seconds > 0 ? static_cast<double>(ds.size()) / seconds : 0.0,
               ErrorRate(ds.labels(), pred));
  const std::vector<ShardRouter::ShardStats> stats = router.Stats();
  for (size_t i = 0; i < stats.size(); ++i) {
    const bool healthy = stats[i].active && router.Ping(i);
    std::fprintf(stderr,
                 "shard %zu: %s pid=%ld served=%llu route p50 %.2fms"
                 " p99 %.2fms\n",
                 i,
                 stats[i].active ? (healthy ? "healthy" : "UNRESPONSIVE")
                                 : "drained",
                 static_cast<long>(stats[i].pid),
                 static_cast<unsigned long long>(stats[i].served),
                 stats[i].p50_ms, stats[i].p99_ms);
  }
  const ShardRouter::LatencySummary agg = router.AggregateLatency();
  std::fprintf(stderr,
               "route latency (all shards): %llu requests, p50 %.2fms"
               " p99 %.2fms\n",
               static_cast<unsigned long long>(agg.count), agg.p50_ms,
               agg.p99_ms);
  if (!FlagValue(argc, argv, 2, "--metrics-out", "").empty()) {
    // Pull every worker rank's registry over the wire (plus any state
    // captured at Drain()) into the global registry, then dump the
    // fleet-wide view. Must run while the workers are still alive.
    router.AggregateMetricsInto(&obs::MetricsRegistry::Global());
    DumpMetrics(argc, argv, 2);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage(argv[0]);
  const std::string cmd = argv[1];
  try {
    if (cmd == "train" && argc >= 3) return CmdTrain(argc, argv);
    if (cmd == "info" && argc == 3) return CmdInfo(argv[2]);
    if (cmd == "serve") return CmdServe(argc, argv);
    if (cmd == "route") return CmdRoute(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage(argv[0]);
}
