// End-to-end contracts of the shared chunked training body: FitPaged
// models are byte-identical to the in-RAM Fit for every family, page
// size, thread budget and (reducer) worker count; only a multi-page
// tree-family fit extracts a series twice, and rejects a source that
// changes between its two passes; the sketch-binned
// pipeline stays within 1% accuracy of a matrix-path fit with exact
// sorted cuts; and a dataset fitting in one page never spawns a
// read-ahead thread.

#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/mvg_classifier.h"
#include "ml/gradient_boosting.h"
#include "ml/histogram_reducer.h"
#include "ml/preprocessing.h"
#include "obs/obs.h"
#include "serve/model_io.h"
#include "tests/local_reducer_group.h"
#include "tests/test_util.h"
#include "ts/paged_ucr_reader.h"
#include "ts/ucr_io.h"

namespace mvg {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Writes `rows` deterministic ragged series (3 classes) and returns the
/// path — large enough that the {64, 128} page sizes actually split it.
std::string WriteStreamCorpus(const std::string& name, size_t rows) {
  Dataset ds(name);
  for (size_t i = 0; i < rows; ++i) {
    Series s(20 + (i % 7));  // ragged lengths: padding must line up too
    for (size_t j = 0; j < s.size(); ++j) {
      s[j] = std::sin(0.07 * static_cast<double>(i + 1) *
                      static_cast<double>(j + 1)) +
             0.01 * static_cast<double>(i % 13);
    }
    ds.Add(std::move(s), static_cast<int>(i % 3));
  }
  const std::string path = TempPath(name + ".csv");
  WriteUcrFile(ds, path);
  return path;
}

/// The saved model file: a pure function of the fitted state, so equal
/// bytes mean equal models.
std::string ModelBytes(const MvgClassifier& clf) {
  std::ostringstream os;
  SaveModel(clf, os);
  return os.str();
}

/// Fits `model` in RAM and paged, with pages below, equal to and above
/// the 150-row count: the tree families train through both the two-pass
/// and the one-chunk route, SVM and stacking through the kept-rows route.
/// Every page size runs at one and at three threads, so each route is
/// compared at a thread budget other than the reference's; neither may
/// move a bit.
void ExpectPagedBitIdenticalToInRam(MvgModel model) {
  const std::string name = std::to_string(static_cast<int>(model));
  SCOPED_TRACE("model=" + name);
  const size_t rows = 150;
  // One file per model: ctest may run the two callers concurrently.
  const std::string path = WriteStreamCorpus("stream_pages_" + name, rows);
  const Dataset train = ReadUcrFile(path);

  MvgClassifier::Config config;
  config.model = model;
  config.grid = GridPreset::kNone;
  MvgClassifier in_ram(config);
  in_ram.Fit(train);
  const std::string want = ModelBytes(in_ram);

  MvgClassifier::Config threaded = config;
  threaded.num_threads = 3;
  MvgClassifier in_ram_mt(threaded);
  in_ram_mt.Fit(train);
  EXPECT_EQ(ModelBytes(in_ram_mt), want) << "num_threads=3";

  for (size_t page_rows : {size_t{64}, size_t{128}, rows, size_t{1024}}) {
    for (size_t threads : {size_t{1}, size_t{3}}) {
      PagedUcrReader::Options opt;
      opt.page_rows = page_rows;
      PagedUcrReader reader(path, opt);
      MvgClassifier::Config pc = config;
      pc.num_threads = threads;
      MvgClassifier paged(pc);
      paged.FitPaged(&reader);
      EXPECT_EQ(paged.feature_width(), in_ram.feature_width());
      EXPECT_EQ(paged.train_length(), in_ram.train_length());
      EXPECT_EQ(ModelBytes(paged), want)
          << "page_rows=" << page_rows << " threads=" << threads;
    }
  }
}

TEST(StreamingFitTest, PagedBitIdenticalToInRamAcrossPageSizesAndThreads) {
  for (MvgModel model :
       {MvgModel::kXgboost, MvgModel::kRandomForest, MvgModel::kSvm}) {
    ExpectPagedBitIdenticalToInRam(model);
  }
}

// Stacking is the slowest family to fit, so it gets its own test (and
// its own test timeout).
TEST(StreamingFitTest, PagedStackingBitIdenticalToInRam) {
  ExpectPagedBitIdenticalToInRam(MvgModel::kStacking);
}

TEST(StreamingFitTest, OnlyMultiPageTreeFitsExtractTwice) {
  // Extraction opens one span per series. One chunk (Fit, or a file that
  // fits in one page) is extracted once for every family; a multi-page
  // file is extracted twice by the tree families (sketch pass, then bin
  // pass) and once by SVM and stacking, which keep their rows.
  struct ObsOn {
    bool was = obs::Enabled();
    ObsOn() { obs::SetEnabled(true); }
    ~ObsOn() { obs::SetEnabled(was); }
  } obs_on;
  const size_t n = 40;
  const std::string path = WriteStreamCorpus("stream_extract_count", n);
  const Dataset train = ReadUcrFile(path);
  const obs::Histogram& spans =
      *obs::PipelineMetrics::Get().feature_extract_seconds;

  for (MvgModel model : {MvgModel::kXgboost, MvgModel::kRandomForest,
                         MvgModel::kSvm, MvgModel::kStacking}) {
    SCOPED_TRACE("model=" + std::to_string(static_cast<int>(model)));
    MvgClassifier::Config config;
    config.model = model;
    config.grid = GridPreset::kNone;
    uint64_t before = spans.Count();
    MvgClassifier(config).Fit(train);
    EXPECT_EQ(spans.Count() - before, n) << "Fit";

    const bool tree =
        model == MvgModel::kXgboost || model == MvgModel::kRandomForest;
    for (size_t page_rows : {size_t{1024}, size_t{16}}) {
      PagedUcrReader::Options opt;
      opt.page_rows = page_rows;
      PagedUcrReader reader(path, opt);
      before = spans.Count();
      MvgClassifier(config).FitPaged(&reader);
      const size_t want = page_rows >= n || !tree ? n : 2 * n;
      EXPECT_EQ(spans.Count() - before, want) << "page_rows=" << page_rows;
    }
  }
}

TEST(StreamingFitTest, TwoPassFitRejectsASourceThatChangesBetweenPasses) {
  // A multi-page tree fit reads its source twice. When the second pass
  // sees a different row count the fit must throw, and a longer second
  // pass must not bin past the table's rows.
  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  const auto expect_changed = [&](PagedUcrReader* reader) {
    try {
      MvgClassifier(config).FitPaged(reader);
      ADD_FAILURE() << "FitPaged accepted a changed source";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("changed between passes"),
                std::string::npos)
          << e.what();
    }
  };
  PagedUcrReader::Options opt;
  opt.read_ahead = false;
  SeriesPage skipped;

  // Grown: pass A starts where the reader stands and pass B rewinds to
  // the start of the file, so a reader advanced by one page sees the
  // file grow. Pass A's 63 rows hold 21 of each class, so oversampling
  // adds none and the table's columns are padded to 64 rows; pass B's 95
  // would run past the last one.
  opt.page_rows = 32;
  const std::string grown = WriteStreamCorpus("stream_grown", 95);
  PagedUcrReader grown_reader(grown, opt);
  ASSERT_TRUE(grown_reader.NextPage(&skipped));
  expect_changed(&grown_reader);

  // Shrunk: the file is rewritten in place after the first page is read.
  // The small file already sits whole in the stream's buffer, so pass A
  // still sees the old rows and only pass B's rewind reads the new ones.
  opt.page_rows = 2;
  const std::string shrunk = WriteStreamCorpus("stream_shrunk", 6);
  ASSERT_LT(std::filesystem::file_size(shrunk), 4096u)
      << "the first read must buffer the whole file";
  PagedUcrReader shrunk_reader(shrunk, opt);
  ASSERT_TRUE(shrunk_reader.NextPage(&skipped));
  WriteStreamCorpus("stream_shrunk", 3);  // same path, rewritten
  expect_changed(&shrunk_reader);
}

TEST(StreamingFitTest, PagedBitIdenticalForRandomForestWithGrid) {
  // The other sketch-binned family, with a real grid search so the
  // binned CV scoring path is exercised end to end.
  const std::string path = WriteStreamCorpus("stream_rf", 90);
  const Dataset train = ReadUcrFile(path);

  MvgClassifier::Config config;
  config.model = MvgModel::kRandomForest;
  config.grid = GridPreset::kSmall;
  MvgClassifier in_ram(config);
  in_ram.Fit(train);
  const std::string want = ModelBytes(in_ram);

  PagedUcrReader::Options opt;
  opt.page_rows = 64;
  PagedUcrReader reader(path, opt);
  MvgClassifier paged(config);
  paged.FitPaged(&reader);
  EXPECT_EQ(ModelBytes(paged), want);
}

TEST(StreamingFitTest, PagedBitIdenticalForAnyWorkerCount) {
  // Reducer ranks each stream the same file page by page; every rank of
  // every world size must serialize the exact bytes of the single-worker
  // fit.
  const std::string path = WriteStreamCorpus("stream_world", 96);

  const auto fit_world = [&path](size_t world) {
    LocalReducerGroup group(world);
    std::vector<std::string> bytes(world);
    std::vector<std::thread> ranks;
    for (size_t r = 0; r < world; ++r) {
      ranks.emplace_back([&, r] {
        MvgClassifier::Config config;
        config.grid = GridPreset::kNone;
        config.reducer = group.reducer(r);
        PagedUcrReader::Options opt;
        opt.page_rows = 64;
        PagedUcrReader reader(path, opt);
        MvgClassifier clf(config);
        clf.FitPaged(&reader);
        bytes[r] = ModelBytes(clf);
      });
    }
    for (std::thread& t : ranks) t.join();
    return bytes;
  };

  const std::vector<std::string> w1 = fit_world(1);
  ASSERT_FALSE(w1[0].empty());
  for (size_t world : {size_t{2}, size_t{3}}) {
    const std::vector<std::string> wn = fit_world(world);
    for (size_t r = 0; r < world; ++r) {
      EXPECT_EQ(wn[r], w1[0]) << "world " << world << " rank " << r;
    }
  }
}

TEST(StreamingFitTest, SketchAccuracyWithinOnePercentOfExactBins) {
  // Imbalanced two-class corpus (so the sketch path's cuts-before-
  // oversample vs the reference's cuts-after-oversample actually differ)
  // of 100 separable series. The class signal must survive the
  // extraction front-end's detrend, so it is structural, not a trend:
  // class 0 is a smooth sine with faint noise, class 1 is white noise —
  // their visibility graphs differ sharply in degree structure.
  Dataset train("sketch_acc_train"), test("sketch_acc_test");
  Rng rng(31);
  const auto make = [&rng](int label, size_t n) {
    Series s(n);
    for (size_t j = 0; j < n; ++j) {
      s[j] = label == 0 ? std::sin(2.0 * 3.14159265358979 *
                                   static_cast<double>(j) / 16.0) +
                              rng.Gaussian() * 0.05
                        : rng.Gaussian();
    }
    return s;
  };
  for (size_t i = 0; i < 100; ++i) {
    const int label = i < 60 ? 0 : 1;
    train.Add(make(label, 48), label);
  }
  for (size_t i = 0; i < 100; ++i) {
    const int label = i % 2;
    test.Add(make(label, 48), label);
  }

  MvgClassifier::Config config;
  config.model = MvgModel::kXgboost;
  config.grid = GridPreset::kNone;
  MvgClassifier sketch(config);
  sketch.Fit(train);

  // Reference: the same XGBoost candidate fitted through the matrix API
  // on the oversampled features, so its cuts come from exact sorted
  // columns (FeatureTable::Build) instead of the streaming sketch.
  const MvgFeatureExtractor& fx = sketch.extractor();
  Matrix x_os;
  std::vector<int> y_os;
  RandomOversample(fx.ExtractAll(train), train.labels(), config.seed, &x_os,
                   &y_os);
  const auto& fitted =
      dynamic_cast<const GradientBoostingClassifier&>(sketch.model());
  GradientBoostingClassifier exact(fitted.params());
  exact.Fit(x_os, y_os);

  size_t hits_sketch = 0, hits_exact = 0;
  for (size_t i = 0; i < test.size(); ++i) {
    hits_sketch += sketch.Predict(test.series(i)) == test.label(i) ? 1 : 0;
    std::vector<double> features = fx.Extract(test.series(i));
    features.resize(sketch.feature_width(), 0.0);
    hits_exact += exact.Predict(features) == test.label(i) ? 1 : 0;
  }
  const double acc_sketch =
      static_cast<double>(hits_sketch) / static_cast<double>(test.size());
  const double acc_exact =
      static_cast<double>(hits_exact) / static_cast<double>(test.size());
  EXPECT_GE(acc_exact, 0.9) << "corpus is not separable enough to compare";
  EXPECT_NEAR(acc_sketch, acc_exact, 0.01 + 1e-12);
}

TEST(StreamingFitTest, OnePageDatasetNeverSpawnsReadAhead) {
  const std::string path = WriteStreamCorpus("stream_one_page", 40);

  // Page larger than the file, and page exactly the file: the full-page
  // EOF peek must keep everything on the calling thread.
  for (size_t page_rows : {size_t{1000}, size_t{40}}) {
    PagedUcrReader::Options opt;
    opt.page_rows = page_rows;
    PagedUcrReader reader(path, opt);
    SeriesPage page;
    size_t rows = 0;
    while (reader.NextPage(&page)) rows += page.size();
    EXPECT_EQ(rows, 40u);
    EXPECT_EQ(reader.read_ahead_spawns(), 0u) << "page_rows=" << page_rows;
  }

  // A genuinely multi-page file still gets read-ahead.
  PagedUcrReader::Options opt;
  opt.page_rows = 16;
  PagedUcrReader reader(path, opt);
  SeriesPage page;
  while (reader.NextPage(&page)) {
  }
  EXPECT_GT(reader.read_ahead_spawns(), 0u);
}

}  // namespace
}  // namespace mvg
