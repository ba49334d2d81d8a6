#include "core/mvg_classifier.h"

#include <algorithm>
#include <functional>
#include <iterator>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "ml/feature_table.h"
#include "ml/gradient_boosting.h"
#include "ml/model_selection.h"
#include "ml/random_forest.h"
#include "ml/stacking.h"
#include "ml/svm.h"
#include "obs/obs.h"
#include "ts/paged_ucr_reader.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace mvg {

namespace {

/// Training-engine knobs shared by every tree-family grid entry.
struct EngineOptions {
  size_t num_threads = 1;
  /// Distributed histogram-merge seam, forwarded into every tree-family
  /// candidate (SVM candidates replicate the fit deterministically
  /// instead — their solver has no histogram to merge).
  HistogramReducer* reducer = nullptr;
};

/// XGBoost grids. The paper's grid (§4.2): learning rate in {0.01, 0.1,
/// 0.3}, estimators in {10..100}, depth in {10, 20}, subsample =
/// colsample = 0.5.
std::vector<ClassifierFactory> XgbGrid(GridPreset preset, uint64_t seed,
                                       const EngineOptions& engine) {
  std::vector<GradientBoostingClassifier::Params> grid;
  auto base = [&](double lr, size_t rounds, size_t depth) {
    GradientBoostingClassifier::Params p;
    p.learning_rate = lr;
    p.num_rounds = rounds;
    p.max_depth = depth;
    p.subsample = 0.5;
    p.colsample = 0.5;
    p.min_child_weight = 0.5;
    p.seed = seed;
    p.num_threads = engine.num_threads;
    p.reducer = engine.reducer;
    return p;
  };
  switch (preset) {
    case GridPreset::kNone:
      grid.push_back(base(0.05, 200, 6));
      break;
    case GridPreset::kSmall:
      grid.push_back(base(0.08, 120, 5));
      grid.push_back(base(0.3, 40, 3));
      break;
    case GridPreset::kPaper:
      for (double lr : {0.01, 0.1, 0.3}) {
        for (size_t rounds = 10; rounds <= 100; rounds += 10) {
          for (size_t depth : {size_t{10}, size_t{20}}) {
            grid.push_back(base(lr, rounds, depth));
          }
        }
      }
      break;
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back(
        [p]() { return std::make_unique<GradientBoostingClassifier>(p); });
  }
  return out;
}

std::vector<ClassifierFactory> RfGrid(GridPreset preset, uint64_t seed,
                                      const EngineOptions& engine) {
  std::vector<RandomForestClassifier::Params> grid;
  auto base = [&](size_t trees, size_t depth) {
    RandomForestClassifier::Params p;
    p.num_trees = trees;
    p.max_depth = depth;
    p.seed = seed;
    p.num_threads = engine.num_threads;
    p.reducer = engine.reducer;
    return p;
  };
  if (preset == GridPreset::kNone) {
    grid.push_back(base(200, 16));
  } else {
    grid.push_back(base(100, 12));
    grid.push_back(base(180, 20));
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back(
        [p]() { return std::make_unique<RandomForestClassifier>(p); });
  }
  return out;
}

std::vector<ClassifierFactory> SvmGrid(GridPreset preset, uint64_t seed) {
  std::vector<SvmClassifier::Params> grid;
  auto base = [&](double c) {
    SvmClassifier::Params p;
    p.c = c;
    p.seed = seed;
    return p;
  };
  if (preset == GridPreset::kNone) {
    grid.push_back(base(10.0));
  } else {
    grid.push_back(base(1.0));
    grid.push_back(base(10.0));
  }
  std::vector<ClassifierFactory> out;
  for (const auto& p : grid) {
    out.push_back([p]() { return std::make_unique<SvmClassifier>(p); });
  }
  return out;
}

}  // namespace

MvgClassifier::MvgClassifier() : MvgClassifier(Config()) {}

MvgClassifier::MvgClassifier(Config config)
    : config_(config), extractor_(config.extractor) {}

size_t MvgClassifier::ResolvedThreads() const {
  return config_.num_threads == 0 ? DefaultThreads() : config_.num_threads;
}

std::vector<ClassifierFactory> MvgClassifier::BuildCandidates(
    size_t num_threads) const {
  const EngineOptions engine{num_threads, config_.reducer};
  switch (config_.model) {
    case MvgModel::kXgboost:
      return XgbGrid(config_.grid, config_.seed, engine);
    case MvgModel::kRandomForest:
      return RfGrid(config_.grid, config_.seed, engine);
    case MvgModel::kSvm:
      return SvmGrid(config_.grid, config_.seed);
    case MvgModel::kStacking:
      break;
  }
  throw std::logic_error("BuildCandidates: unreachable");
}

std::vector<std::vector<ClassifierFactory>> MvgClassifier::BuildFamilies(
    size_t num_threads) const {
  const EngineOptions engine{num_threads, config_.reducer};
  return {XgbGrid(config_.grid, config_.seed, engine),
          RfGrid(config_.grid, config_.seed, engine),
          SvmGrid(config_.grid, config_.seed)};
}

bool MvgClassifier::UseSketchBinned() const {
  return config_.model == MvgModel::kXgboost ||
         config_.model == MvgModel::kRandomForest;
}

void MvgClassifier::Fit(const Dataset& train) {
  // One chunk: the caller's dataset itself, never copied.
  bool served = false;
  FitChunks([&]() { return std::exchange(served, true) ? nullptr : &train; },
            [&] { served = false; });
}

void MvgClassifier::FitPaged(PagedUcrReader* reader) {
  if (reader == nullptr) {
    throw std::invalid_argument("MvgClassifier::FitPaged: null reader");
  }
  SeriesPage page;
  Dataset chunk;
  FitChunks(
      [&]() -> const Dataset* {
        // Free the previous page before reading the next, and the last
        // one before training: at most one raw page is held.
        chunk = Dataset();
        if (!reader->NextPage(&page)) return nullptr;
        for (size_t i = 0; i < page.size(); ++i) {
          chunk.Add(std::move(page.series[i]), page.labels[i]);
        }
        return &chunk;
      },
      [reader] { reader->Reset(); });
}

void MvgClassifier::FitChunks(const std::function<const Dataset*()>& next,
                              const std::function<void()>& rewind) {
  const size_t threads = ResolvedThreads();
  const bool binned = UseSketchBinned();
  fe_seconds_ = 0.0;
  // Extraction is per-series (one row depends only on its own series),
  // so chunk-wise rows padded to the global width equal the rows of one
  // ExtractAll over the whole dataset, whatever the chunking.
  const auto extract = [&](const Dataset& chunk) {
    WallTimer fe_timer;
    Matrix rows = extractor_.ExtractAll(chunk, threads);
    fe_seconds_ += fe_timer.Seconds();
    return rows;
  };

  // Pass A: extract each chunk once. The tree families fold every row
  // into the quantile sketches, whose state is a pure function of the
  // row-ordered stream and so independent of the chunking. Rows are kept
  // for the matrix families, and for the tree families only while there
  // is one chunk: a second chunk drops them before it is extracted, so
  // multi-chunk memory stays O(chunk).
  CutSketcher sketcher(FeatureTable::kMaxBins);
  Matrix x;
  std::vector<int> y;
  size_t max_len = 0;
  size_t chunks = 0;
  for (const Dataset* chunk = next(); chunk != nullptr; chunk = next()) {
    if (++chunks > 1 && binned) Matrix().swap(x);
    Matrix rows = extract(*chunk);
    max_len = std::max(max_len, chunk->MaxLength());
    y.insert(y.end(), chunk->labels().begin(), chunk->labels().end());
    if (binned) sketcher.AddRows(rows, threads);
    if (!binned || chunks == 1) {
      x.insert(x.end(), std::make_move_iterator(rows.begin()),
               std::make_move_iterator(rows.end()));
    }
  }
  if (y.empty()) throw std::invalid_argument("MvgClassifier: empty train");
  train_length_ = max_len;

  if (!binned) {
    size_t width = 0;
    for (const auto& row : x) width = std::max(width, row.size());
    for (auto& row : x) row.resize(width, 0.0);
    FitOnExtracted(std::move(x), std::move(y));
    return;
  }

  // Oversampling duplicates whole rows, so it happens in index space and
  // the duplicates are copied bin-wise after the originals are binned.
  const CutSketcher::FeatureCuts fc = sketcher.Finish();
  const size_t n = y.size();
  const std::vector<size_t> os = OversampleIndices(y, config_.seed);
  std::vector<int> y_os;
  y_os.reserve(os.size());
  for (size_t i : os) y_os.push_back(y[i]);

  FeatureTable ft;
  ft.InitFromCuts(fc.cuts, fc.cut_offset, os.size());
  size_t next_row = 0;
  const auto bin = [&](const Matrix& rows) {
    const size_t base = next_row;
    next_row += rows.size();
    if (next_row > n) return;  // a grown source; rejected below
    ParallelFor(rows.size(), threads, [&](size_t i) {
      ft.BinRowInto(rows[i].data(), rows[i].size(), base + i);
    });
  };
  if (chunks == 1) {
    bin(x);
    Matrix().swap(x);
  } else {
    // Pass B: re-extract chunk by chunk and bin each row straight into
    // the column-major table; no row-major matrix of the whole dataset.
    rewind();
    for (const Dataset* chunk = next(); chunk != nullptr; chunk = next()) {
      bin(extract(*chunk));
    }
  }
  if (next_row != n) {
    throw std::runtime_error(
        "MvgClassifier: training source changed between passes");
  }
  for (size_t i = n; i < os.size(); ++i) ft.CopyRow(os[i], i);
  TrainBinnedTail(&ft, fc, std::move(y_os));
}

void MvgClassifier::TrainBinnedTail(FeatureTable* ft,
                                    const CutSketcher::FeatureCuts& fc,
                                    std::vector<int> y_os) {
  const size_t threads = config_.reducer != nullptr ? 1 : ResolvedThreads();
  feature_width_ = ft->num_features();

  WallTimer train_timer;
  // The sketches track exact per-feature bounds, and duplication cannot
  // move a min or max, so this scaler state matches Fit() on the
  // materialised (oversampled) matrix exactly.
  scaler_.FitFromBounds(fc.mins, fc.maxs);

  const std::vector<ClassifierFactory> candidates = BuildCandidates(threads);
  size_t best = 0;
  if (candidates.size() > 1) {
    const std::vector<FoldIndices> folds =
        StratifiedKFold(y_os, kCvFolds, config_.seed);
    best = GridSearchBinned(candidates, *ft, y_os, folds, threads).best_index;
  }
  std::vector<size_t> all(ft->num_rows());
  std::iota(all.begin(), all.end(), size_t{0});
  model_ = candidates[best]();
  model_->FitBinned(*ft, y_os, all);
  train_seconds_ = train_timer.Seconds();
}

void MvgClassifier::FitOnExtracted(Matrix x, std::vector<int> y) {
  // Distributed training serialises the grid/stacking/tree loops: every
  // candidate fit issues allreduce rounds, and all ranks must reach them
  // in the same order. (Feature extraction stays parallel — it is
  // collective-free, see FitChunks.)
  const size_t threads = config_.reducer != nullptr ? 1 : ResolvedThreads();
  feature_width_ = x[0].size();

  WallTimer train_timer;
  Matrix x_os;
  std::vector<int> y_os;
  RandomOversample(x, y, config_.seed, &x_os, &y_os);
  x = std::move(x_os);
  y = std::move(y_os);
  // SVM kernels need comparable feature magnitudes (paper §4.3), and the
  // stacked ensemble contains an SVM family, so this tail always scales.
  scaler_.Fit(x);
  const Matrix x_used = scaler_.TransformAll(x);

  if (config_.model == MvgModel::kStacking) {
    // The ensemble fans its candidate x fold cells across the pool and
    // each cell's tree fits submit nested tasks onto the same pool, which
    // caps total concurrency instead of oversubscribing (pre-pool, base
    // candidates had to stay single-threaded to avoid spawn explosions).
    StackingEnsemble::Params sp;
    sp.num_folds = kCvFolds;
    sp.seed = config_.seed;
    sp.top_k_per_family = config_.stacking_top_k;
    sp.num_threads = threads;
    model_ = std::make_unique<StackingEnsemble>(BuildFamilies(threads), sp);
    model_->Fit(x_used, y);
  } else {
    // SVM: candidate x fold cells fan out across the thread budget.
    const std::vector<ClassifierFactory> candidates = BuildCandidates(threads);
    size_t best = 0;
    if (candidates.size() > 1) {
      best =
          GridSearch(candidates, x_used, y, kCvFolds, config_.seed, threads)
              .best_index;
    }
    model_ = candidates[best]();
    model_->Fit(x_used, y);
  }
  train_seconds_ = train_timer.Seconds();
}

int MvgClassifier::Predict(const Series& s) const {
  VgWorkspace ws;
  return Predict(s, &ws);
}

int MvgClassifier::Predict(const Series& s, VgWorkspace* ws) const {
  if (!model_) throw std::runtime_error("MvgClassifier: not fitted");
  // The row and the probabilities live in the workspace, so a warm
  // tree-family prediction allocates nothing.
  std::vector<double>& features = ws->features;
  extractor_.ExtractInto(s, ws, &features);
  if (features.size() != feature_width_) {
    const obs::PipelineMetrics& pm = obs::PipelineMetrics::Get();
    obs::Count(features.size() < feature_width_ ? pm.predict_rows_padded
                                                : pm.predict_rows_truncated);
    features.resize(feature_width_, 0.0);
  }
  const bool scale = config_.model == MvgModel::kSvm ||
                     config_.model == MvgModel::kStacking;
  if (scale) return model_->Predict(scaler_.Transform(features), &ws->proba);
  return model_->Predict(features, &ws->proba);
}

std::string MvgClassifier::Name() const {
  std::string model;
  switch (config_.model) {
    case MvgModel::kXgboost:
      model = "XGBoost";
      break;
    case MvgModel::kRandomForest:
      model = "RF";
      break;
    case MvgModel::kSvm:
      model = "SVM";
      break;
    case MvgModel::kStacking:
      model = "Stacking";
      break;
  }
  return std::string(ToString(config_.extractor.scale_mode)) + "(" + model +
         ")";
}

const Classifier& MvgClassifier::model() const {
  if (!model_) throw std::runtime_error("MvgClassifier: not fitted");
  return *model_;
}

std::vector<std::string> MvgClassifier::FeatureNames() const {
  return extractor_.FeatureNames(train_length_);
}

std::vector<std::pair<std::string, double>> MvgClassifier::TopFeatures(
    size_t k) const {
  const auto* gbt =
      dynamic_cast<const GradientBoostingClassifier*>(model_.get());
  if (gbt == nullptr) {
    throw std::runtime_error("TopFeatures: model is not XGBoost");
  }
  const std::vector<std::string> names = FeatureNames();
  std::vector<std::pair<std::string, double>> out;
  for (size_t f : gbt->TopFeatures(k)) {
    const std::string name =
        f < names.size() ? names[f] : "feature_" + std::to_string(f);
    out.emplace_back(name, gbt->FeatureGains()[f]);
  }
  return out;
}

}  // namespace mvg
