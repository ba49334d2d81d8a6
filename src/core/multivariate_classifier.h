#ifndef MVG_CORE_MULTIVARIATE_CLASSIFIER_H_
#define MVG_CORE_MULTIVARIATE_CLASSIFIER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/mvg_classifier.h"
#include "ts/multivariate.h"

namespace mvg {

/// Multivariate extension of the MVG pipeline (paper §6: "we are also
/// excited to investigate the possibility of adopting MVG for multivariate
/// TSC"). Each channel is independently converted into its multiscale
/// visibility-graph features; the per-channel feature blocks are
/// concatenated — features are unordered, so concatenation preserves the
/// pipeline's classifier-agnostic property — and a single generic
/// classifier is trained on the combined vector.
class MvgMultivariateClassifier {
 public:
  using Config = MvgClassifier::Config;

  MvgMultivariateClassifier();
  explicit MvgMultivariateClassifier(Config config);

  /// Trains on a multivariate dataset; throws std::invalid_argument when
  /// empty.
  void Fit(const MultivariateDataset& train);

  /// Predicts the label of one instance (must have the training channel
  /// count).
  int Predict(const MultiSeries& instance) const;

  std::vector<int> PredictAll(const MultivariateDataset& test) const;

  /// Feature names with a "chN." channel prefix; requires Fit().
  std::vector<std::string> FeatureNames() const;

  double feature_extraction_seconds() const { return fe_seconds_; }
  double training_seconds() const { return train_seconds_; }
  size_t num_channels() const { return num_channels_; }
  /// The fitted generic classifier; requires Fit().
  const Classifier& model() const { return *model_; }

 private:
  /// Concatenated per-channel features, channel c's block sized to
  /// LayoutForLength(channel_lengths_[c]) so columns line up with
  /// FeatureNames(); all graph builds go through `ws` (Fit pools one
  /// workspace across the whole instances x channels loop).
  std::vector<double> ExtractInstance(const MultiSeries& instance,
                                      VgWorkspace* ws) const;

  Config config_;
  MvgFeatureExtractor extractor_;
  std::unique_ptr<Classifier> model_;
  size_t num_channels_ = 0;
  std::vector<size_t> channel_lengths_;
  double fe_seconds_ = 0.0;
  double train_seconds_ = 0.0;
};

}  // namespace mvg

#endif  // MVG_CORE_MULTIVARIATE_CLASSIFIER_H_
