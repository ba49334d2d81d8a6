#ifndef MVG_CORE_MVG_CLASSIFIER_H_
#define MVG_CORE_MVG_CLASSIFIER_H_

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "baselines/series_classifier.h"
#include "core/feature_extractor.h"
#include "ml/classifier.h"
#include "ml/preprocessing.h"
#include "ml/quantile_sketch.h"

namespace mvg {

class BinaryReader;
class PagedUcrReader;

/// Which generic classifier family sits on top of the graph features
/// (paper §3.2/§4.3).
enum class MvgModel {
  kXgboost,
  kRandomForest,
  kSvm,
  kStacking,  ///< stacked generalization over all three families (Alg. 2).
};

/// How much hyper-parameter search Fit() performs.
enum class GridPreset {
  kNone,   ///< single default configuration, no CV.
  kSmall,  ///< a handful of candidates, 3-fold CV (default; sized for CI).
  kPaper,  ///< the paper's §4.2 grid (3 learning rates x 10 estimator
           ///< counts x 2 depths for XGBoost); expensive.
};

/// End-to-end MVG pipeline (paper §3 + §4): multiscale visibility-graph
/// feature extraction -> random oversampling of minority classes ->
/// (min-max scaling for SVM) -> generic classifier, grid-searched over
/// stratified kCvFolds-fold cross-validation.
///
/// Feature-extraction and training wall times of the last Fit are kept
/// in memory, matching Table 3's "FE" and "Clf" runtime columns. They are
/// not part of the saved model: a model file is a pure function of the
/// training data and the config.
class MvgClassifier : public SeriesClassifier {
 public:
  /// Folds of the stratified cross-validation behind the grid search and
  /// the stacked ensemble's out-of-fold predictions (paper §4.2).
  static constexpr size_t kCvFolds = 3;
  /// Base estimators the stacked ensemble keeps per family (paper
  /// Algorithm 2 keeps the top five; the small grids need fewer).
  static constexpr size_t kStackingTopK = 1;

  struct Config {
    MvgConfig extractor;
    MvgModel model = MvgModel::kXgboost;
    GridPreset grid = GridPreset::kSmall;
    uint64_t seed = 42;
    /// Worker threads for Fit(): batch feature extraction, grid-search
    /// candidate x fold cells, forest trees and per-class boosting trees.
    /// 0 = hardware concurrency. Fitted models and predictions are
    /// bit-identical for every value (per-tree/per-cell seeds are
    /// pre-assigned), so this is a pure wall-clock knob.
    size_t num_threads = 1;
    /// Distributed histogram-merge seam (runtime-only, never serialized;
    /// not owned). When set, this process is one rank of a training
    /// group: tree candidates accumulate histograms over their owned row
    /// slice and allreduce them before split finding, and training loops
    /// run sequentially so collectives line up across ranks. Every rank
    /// writes the model file of an in-process fit, for any worker count.
    class HistogramReducer* reducer = nullptr;
  };

  MvgClassifier();
  explicit MvgClassifier(Config config);

  /// Trains on `train` as one in-memory chunk (no copy of the series).
  void Fit(const Dataset& train) override;
  /// Out-of-core Fit: consumes a UCR file page by page, so peak raw-series
  /// memory is O(page) instead of O(dataset). The tree families keep no
  /// feature rows across pages: a multi-page file is read twice (sketch,
  /// then re-extract and bin), so their memory stays O(page + table);
  /// a file that fits in one page is extracted once, as in Fit(). SVM and
  /// stacking keep every extracted row (a few KiB per series), since they
  /// train on the feature matrix. The fitted model is bit-identical to
  /// Fit() on ReadUcrFile of the same file for any page size.
  void FitPaged(PagedUcrReader* reader);
  int Predict(const Series& s) const override;
  /// Pooled variant: feature extraction routes every graph build through
  /// `ws`, so a workspace reused across predictions reaches zero
  /// steady-state allocation on the graph-construction path. Same result
  /// as Predict(s). This is the serving hot path (ServingSession pools one
  /// workspace per worker).
  int Predict(const Series& s, VgWorkspace* ws) const;
  std::string Name() const override;

  /// Writes the fitted pipeline (extractor config, scaler, model) in the
  /// versioned binary model format of serve/model_io.h (current = v3).
  /// Requires Fit(); implemented in serve/model_io.cc.
  void SaveBinary(std::ostream& os) const;
  /// Rebuilds a classifier from SaveBinary (v3) output, copying
  /// everything out of the stream. Predictions of the loaded pipeline are
  /// bit-identical to the saved one. Throws SerializationError on corrupt
  /// or truncated data and on any format version but v3, v2 included.
  /// LoadModelView in serve/model_io.h is the zero-copy variant.
  static MvgClassifier LoadBinary(std::istream& is);

  /// Wall-clock split of the last Fit() or FitPaged() (Table 3's FE vs
  /// Clf columns); zero on a loaded model. The FE time counts feature
  /// extraction only, summed over both passes of a two-pass paged fit;
  /// sketching, binning and oversampling count in neither.
  double feature_extraction_seconds() const { return fe_seconds_; }
  double training_seconds() const { return train_seconds_; }

  /// Length of the longest training series (0 before Fit); the natural
  /// window size for StreamingClassifier.
  size_t train_length() const { return train_length_; }

  /// Width the feature vectors are padded/truncated to at predict time.
  size_t feature_width() const { return feature_width_; }

  /// True once Fit() (or LoadBinary) produced a usable model.
  bool fitted() const { return model_ != nullptr; }

  /// The fitted underlying model (for importance inspection etc.);
  /// requires Fit().
  const Classifier& model() const;

  /// Names aligned with the extracted features of the training series.
  std::vector<std::string> FeatureNames() const;

  /// Top-k features by XGBoost gain (only when model == kXgboost).
  std::vector<std::pair<std::string, double>> TopFeatures(size_t k) const;

  const Config& config() const { return config_; }
  const MvgFeatureExtractor& extractor() const { return extractor_; }

 private:
  /// Candidate factories with `num_threads` baked into the tree-family
  /// params. Grid-search cells and the cells' internal tree fits share
  /// the persistent executor pool (nested tasks; total concurrency is
  /// capped by the pool, so nesting cannot oversubscribe).
  std::vector<ClassifierFactory> BuildCandidates(size_t num_threads) const;
  std::vector<std::vector<ClassifierFactory>> BuildFamilies(
      size_t num_threads) const;
  size_t ResolvedThreads() const;

  /// The one training body behind Fit() and FitPaged(). `next` returns
  /// the next row-ordered chunk of the training set, or nullptr past the
  /// last one (a chunk stays valid until the following call); `rewind`
  /// restarts at the first chunk. Pass A extracts each chunk once. SVM and
  /// stacking keep every row and go to FitOnExtracted. The tree families
  /// sketch the rows, keep them only while there is one chunk, and bin
  /// them; with several chunks they rewind and re-extract to bin. Then
  /// TrainBinnedTail runs.
  void FitChunks(const std::function<const Dataset*()>& next,
                 const std::function<void()>& rewind);

  /// The SVM and stacking tail (oversample, scale, grid search, final
  /// fit). `x` rows must already be padded to a uniform width.
  void FitOnExtracted(Matrix x, std::vector<int> y);

  /// True when training runs on the streaming sketch-binned path: the
  /// tree families. SVM and stacking consume raw feature values and train
  /// on the matrix (FitOnExtracted).
  bool UseSketchBinned() const;

  /// The tree-family tail: `ft` holds every training row (oversample
  /// duplicates included) binned against the sketch cuts `fc`, `y_os`
  /// the matching labels. Fits the scaler from the sketches' exact
  /// bounds, grid-searches via GridSearchBinned and refits the winner
  /// with Classifier::FitBinned — no double feature matrix anywhere.
  void TrainBinnedTail(FeatureTable* ft, const CutSketcher::FeatureCuts& fc,
                       std::vector<int> y_os);

 public:
  // Model-format internals (serve/model_io.cc) — public only so the
  // framing layer's free functions can reach the section bodies; not API.

  /// Serializes the three model-file section payloads (current format).
  void BuildSections(std::string* pipeline, std::string* scaler,
                     std::string* model) const;
  /// Rebuilds a classifier from section readers (with the zero-copy flag
  /// already set for the mmap path).
  static MvgClassifier FromSectionReaders(BinaryReader* pipeline,
                                          BinaryReader* scaler,
                                          BinaryReader* model);

 private:

  Config config_;
  MvgFeatureExtractor extractor_;
  MinMaxScaler scaler_;
  std::unique_ptr<Classifier> model_;
  size_t feature_width_ = 0;
  size_t train_length_ = 0;
  double fe_seconds_ = 0.0;
  double train_seconds_ = 0.0;
};

}  // namespace mvg

#endif  // MVG_CORE_MVG_CLASSIFIER_H_
